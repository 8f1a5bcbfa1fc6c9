"""Per-layer spans and counters for the traced benchmark run.

Tracing is done from outside the package.  `Tracer.install()` wraps the
public functions of each pathgeom module and rebinds the wrapper under every
name by which a `pathgeom.*` namespace holds the function: a from-import
copies the binding, so patching only the defining module would miss most
callers (`is_zero_probabilistic` is bound in eight modules).  The tape
evaluators and the report renderers are wrapped on their classes.

A span is one call of a wrapped function.  It records its op id and its
parent span; its self time is its duration minus the time covered by its
child spans, so nested layers are not counted twice.  The work of counting
(for example `node_count` of invariant outputs) is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

from pathgeom.errors import IllConditioned
from pathgeom.expr import Expr, node_count

# layer -> defining module and wrapped functions; None wraps every public
# function the module defines
LAYER_FUNCTIONS = (
    ("expr.tape.compile", "pathgeom.expr.tape", ("compile_tape",)),
    ("expr.build", "pathgeom.expr.calculus", ("differentiate", "substitute")),
    ("expr.zerotest", "pathgeom.expr.zerotest",
     ("is_zero_probabilistic", "exprs_equal")),
    ("jets", "pathgeom.jets", None),
    ("invariants", "pathgeom.invariants", None),
    ("roots", "pathgeom.roots", None),
    ("forms", "pathgeom.forms", None),
    ("constructions", "pathgeom.constructions", None),
    ("metrics", "pathgeom.metrics", None),
    ("integrate", "pathgeom.integrate", None),
    ("dsl.parse", "pathgeom.dsl", ("parse", "parse_expression")),
    ("pipeline", "pathgeom.pipeline", None),
)

LAYER_METHODS = (
    ("expr.tape.exact", "pathgeom.expr.tape", "Tape", "eval_exact"),
    ("expr.tape.f64", "pathgeom.expr.tape", "Tape", "eval_f64"),
    ("expr.tape.f64", "pathgeom.expr.tape", "Tape", "eval_f64_many"),
    ("expr.tape.mpf", "pathgeom.expr.tape", "Tape", "eval_mpf"),
    ("pipeline", "pathgeom.pipeline", "Report", "to_json"),
    ("pipeline", "pathgeom.pipeline", "Report", "render_text"),
)

# invariant computations whose outputs are new expressions (the quadric and
# quartic packagings only regroup them)
_INVARIANT_OUTPUTS = {"fels_F_matrix", "fels_torsion", "fels_curvature",
                      "fels_invariants", "scalar_invariants"}


class TracingError(RuntimeError):
    """The wrappers did not take effect; a traced run must not report."""


def _exprs(obj):
    """Expressions produced by an invariants call, skipping the input system."""
    if isinstance(obj, Expr):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _exprs(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _exprs(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            if name != "system":
                yield from _exprs(getattr(obj, name))


def _count(layer, fn, args, result, exc, parent_layer, c):
    """Deterministic work counters of one call, by layer."""
    if layer == "expr.tape.f64":
        rows = 1 if fn == "eval_f64" else len(args[1])
        c["rows"] += rows
        c["instr"] += len(args[0]) * rows
    elif layer in ("expr.tape.exact", "expr.tape.mpf"):
        c["instr"] += len(args[0])
    elif layer == "expr.tape.compile":
        if result is not None:
            c["instr"] += len(result)
    elif layer == "expr.zerotest":
        if fn == "is_zero_probabilistic" and result is not None:
            c["trials"] += result.trials
            c["rejected"] += result.constraints_rejected
            c["mode_" + result.mode] += 1
            c["nonzero"] += not result.is_zero
    elif layer == "invariants":
        if fn in _INVARIANT_OUTPUTS and parent_layer != "invariants" \
                and result is not None:
            c["dag_nodes"] += sum(node_count(e) for e in _exprs(result))
    elif layer == "roots":
        if fn in ("classify_quartic", "classify_quadric"):
            if isinstance(exc, IllConditioned):
                c["ill_conditioned"] += 1
            if any(isinstance(v, (float, np.floating)) for v in args[0]):
                c["numeric"] += 1
            else:
                c["exact"] += 1
    elif layer == "constructions":
        if fn == "dancing_curve_numeric" and result is not None:
            c["dancing_samples"] += len(result.t)
    elif layer == "metrics":
        if fn == "einstein_check" and result is not None:
            c["einstein_points"] += result.points
    elif layer == "integrate":
        if fn == "integrate_pair" and result is not None:
            c["steps"] += len(result.t) - 1
    elif layer == "dsl.parse":
        c["bytes"] += len(args[0])
    elif layer == "pipeline":
        if fn in ("to_json", "render_text") and result is not None:
            c["report_bytes"] += len(result)
        elif fn.startswith("cmd_") and result is not None:
            c["classify_skipped"] += sum(
                int(rec.details.get("ill_conditioned_skipped", 0))
                for rec in result.checks)


class Tracer:
    """Spans and counters, aggregated per pass of a workload's op list.

    Only the first pass keeps its individual spans (for the trace file);
    every pass keeps per-layer totals.
    """

    def __init__(self):
        self.op_id = None
        self.bindings = {}          # "module.function" -> names rebound
        self.passes = []            # per pass: {layer: Counter}
        self.spans = []             # first pass: span tuples
        self._stack = []            # open spans: [layer, child seconds, id]
        self._current = None
        self._keep_spans = False
        self._next_id = 0
        self._undo = []

    # -- passes ------------------------------------------------------------

    def begin_pass(self):
        self._current = {}
        self._keep_spans = not self.passes

    def end_pass(self):
        self.passes.append(self._current)
        self._current = None
        self._keep_spans = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        short = qualname.rsplit(".", 1)[1]
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [layer, 0.0, self._next_id]
            stack.append(frame)
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                stack.pop()
                current = self._current
                if current is not None:
                    c = current.get(layer)
                    if c is None:
                        c = current[layer] = Counter()
                    own = t1 - t0 - frame[1]
                    c["calls"] += 1
                    c["self_s"] += own
                    _count(layer, short, args, result, exc,
                           parent[0] if parent else None, c)
                    if self._keep_spans:
                        self.spans.append((frame[2], parent[2] if parent else None,
                                           self.op_id, layer, qualname,
                                           t0, t1, own))
                if parent is not None:
                    parent[1] += perf() - t0

        return traced

    def install(self):
        """Wrap every listed function and method; raise TracingError if any
        of them ends up with no binding to replace."""
        originals = {}              # id(function) -> (function, layer, qualname)
        for layer, modname, names in LAYER_FUNCTIONS:
            module = importlib.import_module(modname)
            if names is None:
                names = [n for n, v in vars(module).items()
                         if inspect.isfunction(v) and v.__module__ == modname
                         and not n.startswith("_")]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, layer, f"{modname}.{name}")
        wrappers = {key: self._wrap(layer, qual, fn)
                    for key, (fn, layer, qual) in originals.items()}
        counts = {qual: 0 for _, _, qual in originals.values()}
        for modname, module in sorted(sys.modules.items()):
            if modname != "pathgeom" and not modname.startswith("pathgeom."):
                continue
            for name, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is None:
                    continue
                setattr(module, name, wrappers[id(value)])
                self._undo.append((module, name, value))
                counts[entry[2]] += 1
        for layer, modname, clsname, meth in LAYER_METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            fn = cls.__dict__[meth]
            qual = f"{modname}.{clsname}.{meth}"
            setattr(cls, meth, self._wrap(layer, qual, fn))
            self._undo.append((cls, meth, fn))
            counts[qual] = 1
        self.bindings = counts
        unbound = sorted(q for q, n in counts.items() if n == 0)
        if unbound:
            self.uninstall()
            raise TracingError(f"no binding replaced for {', '.join(unbound)}")

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def check_layers(self, required):
        """Raise TracingError if a layer the workload must call recorded no
        span in the first traced pass."""
        first = self.passes[0] if self.passes else {}
        silent = [layer for layer in required
                  if first.get(layer, Counter())["calls"] == 0]
        if silent:
            raise TracingError(f"no spans recorded for {', '.join(silent)}")


# -- per-layer metrics ------------------------------------------------------------

# (metric, layer, counter, unit, better); `self_s` is summarised over the
# traced passes, every other counter is the first pass's and repeats exactly
# for a given seed
PER_LAYER = (
    ("expr.tape.exact.calls", "expr.tape.exact", "calls", "count", "lower"),
    ("expr.tape.exact.self_s", "expr.tape.exact", "self_s", "s", "lower"),
    ("expr.tape.exact.instr", "expr.tape.exact", "instr", "count", "lower"),
    ("expr.tape.f64.calls", "expr.tape.f64", "calls", "count", "lower"),
    ("expr.tape.f64.rows", "expr.tape.f64", "rows", "count", "lower"),
    ("expr.tape.f64.self_s", "expr.tape.f64", "self_s", "s", "lower"),
    ("expr.tape.f64.instr", "expr.tape.f64", "instr", "count", "lower"),
    ("expr.tape.f64.instr_per_s", "expr.tape.f64", "instr_per_s", "1/s",
     "higher"),
    ("expr.tape.mpf.calls", "expr.tape.mpf", "calls", "count", "lower"),
    ("expr.tape.mpf.self_s", "expr.tape.mpf", "self_s", "s", "lower"),
    ("expr.tape.mpf.instr", "expr.tape.mpf", "instr", "count", "lower"),
    ("expr.tape.compile.calls", "expr.tape.compile", "calls", "count", "lower"),
    ("expr.tape.compile.self_s", "expr.tape.compile", "self_s", "s", "lower"),
    ("expr.tape.compile.instr", "expr.tape.compile", "instr", "count", "lower"),
    ("expr.build.calls", "expr.build", "calls", "count", "lower"),
    ("expr.build.self_s", "expr.build", "self_s", "s", "lower"),
    ("expr.dag_nodes", "invariants", "dag_nodes", "count", "lower"),
    ("expr.zerotest.calls", "expr.zerotest", "calls", "count", "lower"),
    ("expr.zerotest.self_s", "expr.zerotest", "self_s", "s", "lower"),
    ("expr.zerotest.trials", "expr.zerotest", "trials", "count", "lower"),
    ("expr.zerotest.rejected", "expr.zerotest", "rejected", "count", "lower"),
    ("expr.zerotest.accept_ratio", "expr.zerotest", "accept_ratio", "ratio",
     "higher"),
    ("expr.zerotest.mode_exact", "expr.zerotest", "mode_exact", "count",
     "lower"),
    ("expr.zerotest.mode_mpf", "expr.zerotest", "mode_mpf", "count", "lower"),
    ("expr.zerotest.nonzero", "expr.zerotest", "nonzero", "count", "lower"),
    ("jets.calls", "jets", "calls", "count", "lower"),
    ("jets.self_s", "jets", "self_s", "s", "lower"),
    ("invariants.calls", "invariants", "calls", "count", "lower"),
    ("invariants.self_s", "invariants", "self_s", "s", "lower"),
    ("roots.calls", "roots", "calls", "count", "lower"),
    ("roots.self_s", "roots", "self_s", "s", "lower"),
    ("roots.exact", "roots", "exact", "count", "higher"),
    ("roots.numeric", "roots", "numeric", "count", "lower"),
    ("roots.ill_conditioned", "roots", "ill_conditioned", "count", "lower"),
    ("forms.calls", "forms", "calls", "count", "lower"),
    ("forms.self_s", "forms", "self_s", "s", "lower"),
    ("constructions.calls", "constructions", "calls", "count", "lower"),
    ("constructions.self_s", "constructions", "self_s", "s", "lower"),
    ("constructions.dancing_samples", "constructions", "dancing_samples",
     "count", "higher"),
    ("metrics.calls", "metrics", "calls", "count", "lower"),
    ("metrics.self_s", "metrics", "self_s", "s", "lower"),
    ("metrics.einstein_points", "metrics", "einstein_points", "count",
     "higher"),
    ("integrate.calls", "integrate", "calls", "count", "lower"),
    ("integrate.self_s", "integrate", "self_s", "s", "lower"),
    ("integrate.steps", "integrate", "steps", "count", "lower"),
    ("dsl.parse.calls", "dsl.parse", "calls", "count", "lower"),
    ("dsl.parse.self_s", "dsl.parse", "self_s", "s", "lower"),
    ("dsl.parse.bytes", "dsl.parse", "bytes", "B", "lower"),
    ("pipeline.calls", "pipeline", "calls", "count", "lower"),
    ("pipeline.self_s", "pipeline", "self_s", "s", "lower"),
    ("pipeline.report_bytes", "pipeline", "report_bytes", "B", "lower"),
    ("pipeline.classify_skipped", "pipeline", "classify_skipped", "count",
     "lower"),
)


def layer_values(passes, summarise):
    """Per-layer metric values from a traced phase's passes: the first pass's
    counters, and each layer's self seconds per pass, summarised over passes
    by `summarise`."""
    first = passes[0]
    values = {}
    for name, layer, counter, _unit, _better in PER_LAYER:
        c = first.get(layer, Counter())
        if counter in ("self_s", "instr_per_s"):
            self_s = summarise([p.get(layer, Counter())["self_s"]
                                for p in passes])
        if counter == "self_s":
            values[name] = self_s
        elif counter == "instr_per_s":
            values[name] = c["instr"] / self_s if self_s else 0.0
        elif counter == "accept_ratio":
            drawn = c["trials"] + c["rejected"]
            values[name] = c["trials"] / drawn if drawn else 0.0
        else:
            values[name] = c[counter]
    return values

