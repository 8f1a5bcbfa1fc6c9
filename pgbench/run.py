"""pathgeom benchmark: time to a verdict on three workloads, and a traced
per-layer breakdown.

    python3 pgbench/run.py --workload catalog_cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory, never from an installed copy.  Load comes from this one process
and thread, in a closed loop with one client: each op starts after the
previous one has returned its verdict and the verdict has been checked
against its known answer (see workloads.py).

`--trace 0` prints the end-to-end metrics, measured untraced:

  setup_s      median over separate processes of the time from process start
               to the first op (import pathgeom, generate the inputs, parse
               the .pg documents)
  ops_per_s    correct ops per second of time spent in ops
  op_p50_ms    median time to a verdict of the ops in a pass
  op_p90_ms    90th percentile of time to a verdict of the ops in a pass
  ok_share     correct ops / attempted ops (1 - failed share)
  peak_rss_mb  ru_maxrss of this process

The three timings are computed per pass of the op list and summarised by
the median over the passes; p50 and p90 are taken per pass because a pass
holds only 6 to 21 ops of a few kinds, and the p90 of all ops pooled sits at
the edge of one kind's cluster.  A run holds at least 10 passes and 100 ops,
so at least ten ops lie beyond each p90.

All four times are given at the speed of a reference host.  On a shared
machine other tenants slow this process down without taking its CPU away
(CPU time stays equal to wall time): on a 2-vCPU shared virtual machine the
same fixed work ran up to 1.7 times slower in spells of tens of seconds, so
whole runs moved by 20-40%.  Before every op the benchmark therefore times a
fixed kernel that calls no pathgeom code (`_kernel_seconds`), and once more
after the last op of a pass; each op's time is divided by its slowdown, the
mean of the kernel times just before and after it over `KERNEL_REF_S`, the
kernel's time on the reference host (the set-up probes likewise, with
several kernel runs around each).  Ops and kernel slow down together (correlation
0.89 between the logs of pass time and kernel time on that machine), so the
scaled figures of runs made in different spells agree far more closely than
the raw ones.  A change to pathgeom does not touch the kernel, so it moves
the scaled figures as it moves the op times.  The summary on stderr gives
the median slowdown of the run.

`--trace 1` prints the per-layer metrics (tracing.PER_LAYER).  It runs a
third of the time untraced, then wraps the pathgeom modules and runs the
rest traced; the two throughputs, both scaled to reference speed, give the
tracing overhead.  Layer self times are medians over the traced passes, in
seconds as measured, not scaled.

The run repeats whole passes of the workload's op list until `--seconds`
have passed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a human-readable summary goes to
stderr.  Known-defect ops (workloads.KNOWN_DEFECTS) count as failed; any
other failure makes the run incorrect.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".out"

MIN_OPS = 100           # at least ten samples beyond p90
MIN_PASSES = 10
SETUP_PROBES = 9        # setup_s is the median of this many processes
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run
KERNEL_REF_S = 0.0016   # _kernel_seconds() on the reference host
SETUP_KERNELS = 5       # kernel runs before and after each set-up probe


def _kernel_seconds():
    """Time of fixed work that calls no pathgeom code: building a dict keyed
    by tuples, then a float loop.  Of the kernels tried on a shared host
    (Fraction arithmetic, dicts, float math, function calls, and mixes of
    them), this pair's time followed the ops' time most closely."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = i * 0.5
    total = 0.0
    for i in range(6000):
        total += math.sqrt(i + 0.5) * 1.0001
    return time.perf_counter() - start


def _slowdown(kernel_times):
    """How much slower than the reference host this process is running."""
    return statistics.median(kernel_times) / KERNEL_REF_S


def _import_pathgeom():
    """Put the checkout's src first on the path and import the package from
    it; exit with an error if it is not there."""
    if not (SRC / "pathgeom" / "__init__.py").is_file():
        sys.exit(f"pgbench: no pathgeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathgeom

    if Path(pathgeom.__file__).resolve().parent != SRC / "pathgeom":
        sys.exit(f"pgbench: imported pathgeom from {pathgeom.__file__}, "
                 f"not from {SRC}")


def _setup(workload, seed):
    _import_pathgeom()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    return workloads, workloads.build(workload, seed, str(WORKDIR))


def _setup_seconds(workload, seed):
    """Median over fresh processes of process start to ready-for-first-op,
    each divided by the slowdown measured around it; one extra process first
    fills the bytecode caches."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        kernel = [_kernel_seconds() for _ in range(SETUP_KERNELS)]
        start = time.time()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"pgbench: setup probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        kernel += [_kernel_seconds() for _ in range(SETUP_KERNELS)]
        samples.append((ready - start) / _slowdown(kernel))
    return statistics.median(samples[1:])


# slowdown: the median of the pass's kernel runs over KERNEL_REF_S;
# results: (seconds at reference speed, ok) per op
Pass = collections.namedtuple("Pass", "slowdown results")


class Runner:
    """Runs and checks ops; keeps each repeated op's first --json report and
    every failure that is not a known defect."""

    def __init__(self, workloads, workload):
        self.known = workloads.KNOWN_DEFECTS
        self.workload = workload
        self.reports = {}       # repeat key -> first --json report bytes
        self.unexpected = []    # (label, reason) of failures not known
        self.passes = 0

    def run_op(self, op):
        start = time.perf_counter()
        try:
            raw = op.call()
            error = None
        except Exception as exc:   # a failed op is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is not None:
            reason, report = error, None
        else:
            reason, report = op.check(raw)
        if report is not None and op.repeat_key is not None:
            if self.reports.setdefault(op.repeat_key, report) != report:
                reason = "--json report differs from an earlier repeat"
        if reason is not None and op.label not in self.known:
            self.unexpected.append((op.label, reason))
        return elapsed, reason is None

    def run(self, stream, seconds, min_ops=0, min_passes=1, tracer=None):
        """Whole passes of `stream` until the time, the op count and the pass
        count are all reached; returns a Pass per pass."""
        passes = []
        ops_done = 0
        start = time.perf_counter()
        while (len(passes) < min_passes or ops_done < min_ops
               or time.perf_counter() - start < seconds):
            index = len(passes)
            if tracer is not None:
                tracer.begin_pass()
            results, kernel = [], [_kernel_seconds()]
            for k, op in enumerate(self.workload.ops(stream, index)):
                if tracer is not None:
                    tracer.op_id = f"{stream}:{index}:{k}"
                results.append(self.run_op(op))
                kernel.append(_kernel_seconds())
            if tracer is not None:
                tracer.end_pass()
            # each op at the slowdown of the kernel runs just before and after it
            scaled = [(t / _slowdown(kernel[i:i + 2]), ok)
                      for i, (t, ok) in enumerate(results)]
            passes.append(Pass(_slowdown(kernel), scaled))
            ops_done += len(results)
        self.passes += len(passes)
        return passes


def _ops_per_s(passes):
    """Median over passes of correct ops per second at reference speed."""
    return statistics.median(
        sum(ok for _, ok in p.results) / sum(t for t, _ in p.results)
        for p in passes)


def _pass_quantile(passes, decile):
    """Median over passes of a decile of the pass's op times, in ms at
    reference speed."""
    return statistics.median(
        statistics.quantiles([t for t, _ in p.results], n=10,
                             method="inclusive")[decile - 1] * 1e3
        for p in passes)


def _end_to_end(passes, setup_s):
    results = [r for p in passes for r in p.results]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (_ops_per_s(passes), "1/s"),
        "op_p50_ms": (_pass_quantile(passes, 5), "ms"),
        "op_p90_ms": (_pass_quantile(passes, 9), "ms"),
        "ok_share": (sum(ok for _, ok in results) / len(results), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _write_spans(tracer, path):
    """The first traced pass's spans, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("id", "parent", "op", "layer", "function", "start", "end",
                 "self_s"), span))) + "\n")


def _traced(workloads, runner, name, seed, seconds):
    import tracing

    untraced = runner.run("timed", seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run("traced", seconds * (1 - UNTRACED_SHARE),
                            tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.check_layers(workloads.WORKLOADS[name].required_layers)
    _write_spans(tracer, WORKDIR / f"trace-{name}.jsonl")
    units = {m: unit for m, _, _, unit, _ in tracing.PER_LAYER}
    metrics = {m: (v, units[m])
               for m, v in tracing.layer_values(tracer.passes,
                                                statistics.median).items()}
    fast, slow = _ops_per_s(untraced), _ops_per_s(traced)
    metrics["tracing.untraced_ops_per_s"] = (fast, "1/s")
    metrics["tracing.traced_ops_per_s"] = (slow, "1/s")
    metrics["tracing.overhead"] = (fast / slow, "ratio")
    dominant = max((m for m in metrics if m.endswith(".self_s")),
                   key=lambda m: metrics[m][0])
    notes = [f"traced passes {len(tracer.passes)}, largest self time "
             f"{dominant.removesuffix('.self_s')}",
             "bindings: " + ", ".join(f"{q.rsplit('.', 1)[1]}={n}"
                                      for q, n in sorted(tracer.bindings.items())
                                      if n > 1)]
    return untraced + traced, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog_cli", "random_systems", "numeric_curves"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print(repr(time.time()))
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    workloads, workload = _setup(args.workload, args.seed)
    runner = Runner(workloads, workload)
    runner.run("warmup", 0)
    if args.trace:
        import tracing

        try:
            passes, metrics, notes = _traced(workloads, runner, args.workload,
                                              args.seed, args.seconds)
        except tracing.TracingError as exc:
            sys.exit(f"pgbench: traced run aborted: {exc}")
    else:
        passes = runner.run("timed", args.seconds, min_ops=MIN_OPS,
                            min_passes=MIN_PASSES)
        metrics = _end_to_end(passes, setup_s)
        slowdown = statistics.median(p.slowdown for p in passes)
        notes = [f"median slowdown {slowdown:.3f} (op times are scaled by "
                 f"their own)"]

    results = [r for p in passes for r in p.results]
    failed = sum(not ok for _, ok in results)
    print(f"{args.workload} seed {args.seed}: {len(results)} ops in "
          f"{runner.passes} passes, {failed} failed", file=sys.stderr)
    for label, reason in runner.unexpected[:10]:
        print(f"  UNEXPECTED {label}: {reason}", file=sys.stderr)
    for note in notes:
        print(f"  {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
