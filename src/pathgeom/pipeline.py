"""Verification pipelines composing the modules, with deterministic reports.

Every command returns a Report whose machine-readable rendering is a single
JSON object {tool_version, command, seed, fingerprint, checks: [...]}; the
same document and seed produce byte-identical output.  Each check carries its
tolerance and sample provenance.

An identity claim is decided by `zero_verdicts` and becomes a record in one
place, `_claim`.  A "zero" claim holds when every entry vanishes; when it
fails, it names the sampled points where an entry is nonzero.  A "nonzero"
claim (`rho_wedge_rho_nonzero`) holds when some entry does not vanish; when
it fails there is no witness point.  `torsion_iff_flat_scalar` compares two
zero claims and names no witness either.  A failing `uniform_quartic_type`
names a point of the wrong type, and the numeric checks (`einstein`,
`constraint_residual`, `pair_residual`) report their residuals instead; a
pair with no value on the curve names the first such sample t.  The
torsion claims of a pair that declares a domain are decided on its cell,
pulled back to its parameters (`_on_domain`).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .constructions import (DANCING_RESIDUAL_TOL, SolutionFunction, catalog,
                            catalog_names, chain_pair_from_scalar,
                            dancing_curve_numeric, freestyle_pair)
from .dsl import Document
from .errors import (IllConditioned, PairUndefined, SamplingExhausted,
                     UnknownName)
from .expr import add, compile_tape, num, sub, to_text
# unused here; pgbench's tracer test calls the zero tester through this module
from .expr import is_zero_probabilistic  # noqa: F401
from .expr.sampling import branch_ranges, sample_points
from .expr.tape import MPF_PREC
from .expr.zerotest import (MAX_TRIALS, MPF_REL_TOL, TARGET_BITS,
                             target_trials, zero_verdicts)
from .forms import chain_pair_via_rho, exterior_derivative, rho_chain, wedge
from .invariants import (curvature_quartic, fels_invariants, scalar_invariants,
                         torsion_quadric)
from .jets import PairODE, ScalarODE
from .memo import memoized
from .metrics import (EINSTEIN_TOL, CoframeMetric, closedness_check,
                      einstein_check, null_planes_integrable)
from .roots import admissibility, classify_quadric, classify_quartic

DEFAULT_SAMPLES = 20      # sampled points per root-type or Einstein check
DEFAULT_CURVE_SAMPLES = 120  # points along a dancing curve
DRAWS_PER_SAMPLE = 150    # draw budget per point of a classification
PAIR_RESIDUAL_TOL = 1e-6  # largest pair residual along a dancing curve
_TORSION_LABELS = [f"T^{i+1}_{j+1}" for i in range(2) for j in range(2)]


@dataclass
class CheckRecord:
    name: str
    verdict: str                     # 'pass' | 'fail' | 'info' | 'error'
    tolerance: str | None = None
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    command: str
    seed: int
    fingerprint: str
    checks: list

    tool_version: str = __version__

    @property
    def passed(self) -> bool:
        return all(c.verdict in ("pass", "info") for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "checks": [{
                "name": c.name,
                "verdict": c.verdict,
                "tolerance": c.tolerance,
                "witnesses": c.witnesses,
                "details": c.details,
            } for c in self.checks],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"# {self.command} (seed {self.seed}, v{self.tool_version})"]
        for c in self.checks:
            mark = {"pass": "ok ", "fail": "FAIL", "info": "    ",
                    "error": "ERR "}[c.verdict]
            tol = f"  [tol {c.tolerance}]" if c.tolerance else ""
            lines.append(f"[{mark}] {c.name}{tol}")
            for key in sorted(c.details):
                lines.append(f"         {key}: {c.details[key]}")
            for w in c.witnesses:
                lines.append(f"         witness: {w}")
        status = "ALL CHECKS PASSED" if self.passed else "CHECKS FAILED"
        lines.append(status)
        return "\n".join(lines) + "\n"


def _fingerprint(doc: Document | None) -> str:
    source = doc.source if doc is not None else ""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _witness_str(witness):
    if witness is None:
        return []
    return [", ".join(f"{k} = {v}" for k, v in sorted(witness.items()))]


def _expr_text(e, limit=300):
    """Expression text for reports; large expressions are elided (they stay
    available programmatically), and only the text shown is built, once per
    expression and limit (`memo`)."""
    return memoized(e, ("report_text", limit), lambda: _elided(e, limit))


def _elided(e, limit):
    text = to_text(e, limit)
    if len(text) <= limit:
        return text
    from .expr import node_count
    return f"{text[:limit]} ... [elided; {node_count(e)} DAG nodes]"


def resolve(doc: Document | None, name: str, kinds=None):
    """Look a name up in the document, then the built-in catalog."""
    if doc is not None and name in doc:
        obj = doc.get(name)
    else:
        obj = catalog(name)   # raises UnknownName
    if kinds is not None and not isinstance(obj, kinds):
        want = ", ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple)
                                              else (kinds,)))
        raise UnknownName(f"{name!r} is a {type(obj).__name__}, expected {want}")
    return obj


MPF_TOLERANCE = f"mpf {MPF_PREC}-bit, relative {MPF_REL_TOL:g}"


def _claim(name, kind, verdicts, entries=None, domain=None):
    """The record of an identity claim, given its `zero_verdicts` (each entry
    at its own allotment): a "zero" claim holds when every verdict is zero,
    a "nonzero" claim when one is not.

    A nonzero claim that holds reads "nonzero witness": an exact nonzero
    value needs no trial count.  Otherwise the tolerance is exact only if
    every verdict was decided exactly, else mpf with its MAX_TRIALS trials,
    and "structural" when there was nothing to test.  An exact claim names
    its largest per-entry allotment and the target bound when every entry
    reaches that bound, else MAX_TRIALS trials and no bound.  A failing claim names the distinct witnesses of its nonzero
    verdicts, in order.  `entries` (label -> expression, one per verdict)
    puts each entry's value in the details.

    With `domain`, the verdicts are of the entries pulled back to its
    parameters (`_on_domain`), decided on its cell: the entries are rational
    there, so the claim is exact with its own bound, a witness is a
    parameter point, and the details state the parameters, the map and the
    cell (`Domain.describe`)."""
    nonzero = [v for v in verdicts if not v.is_zero]
    holds = bool(nonzero) == (kind == "nonzero")
    needed = [target_trials(v.degree_bound) for v in verdicts]
    if kind == "nonzero" and holds:
        tolerance = "nonzero witness"
    elif not verdicts:
        tolerance = "structural"
    elif any(v.mode != "exact" for v in verdicts):
        tolerance = f"{MPF_TOLERANCE}, {MAX_TRIALS} trials"
    elif None in needed:
        tolerance = f"exact identity, {MAX_TRIALS} trials"
    else:
        tolerance = (f"exact identity, {max(needed)} trials, "
                     f"bound 2^-{TARGET_BITS}")
    witnesses = [] if holds else list(dict.fromkeys(
        w for v in nonzero for w in _witness_str(v.witness)))
    details = {label: "0" if v.is_zero else f"nonzero ({_expr_text(e, 120)})"
               for (label, e), v in zip((entries or {}).items(), verdicts)}
    if domain is not None:
        details.update(domain.describe())
    return CheckRecord(name=name, verdict="pass" if holds else "fail",
                       tolerance=tolerance, witnesses=witnesses,
                       details=details)


def _on_domain(pair, entries):
    """A claim's entries on `pair` (label -> expression) as they are
    decided: pulled back to the parameters of the pair's domain, where its
    declared radicals are rational (`Domain.pullback`), once per pair and
    kept on it (`memo`); as they are when the pair has no domain."""
    if pair.domain is None:
        return entries
    return memoized(pair, ("pullback",) + tuple(entries), lambda: dict(
        zip(entries, pair.domain.pullback(entries.values()))))


def _torsion(pair, seed, every):
    """The torsion claim of a pair: its four entries by label, the same
    entries as decided (`_on_domain`), and their `zero_verdicts` (with
    `every`, one per entry)."""
    entries = dict(zip(_TORSION_LABELS,
                       sum(fels_invariants(pair).torsion, ())))
    decided = _on_domain(pair, entries)
    return entries, decided, zero_verdicts(decided.values(), seed=seed,
                                           every=every)


def _root_type_tape(pair):
    """The tape of a pair's W0..W4, A0..A2 over their sorted free
    variables, and that chart."""
    inv = fels_invariants(pair)
    exprs = (list(curvature_quartic(inv).coefficients)
             + list(torsion_quadric(inv).coefficients))
    names = tuple(sorted(set().union(*(e.free_variables for e in exprs))))
    return compile_tape(exprs, names), names


def _root_type_checks(pair, samples, seed, expect=None):
    """The `uniform_quartic_type` and `admissibility_flags` records of a pair
    at `samples` exact sampled points.

    A pair is evaluated and classified exactly, on the real branch where
    its radicands are all variables (`branch_ranges`), and in mpf where a
    radicand is anything else, whether or not the pair declares a domain.
    The type is uniform when every point's quartic has one describe(); the
    witness is the last point whose type differs from the first point's.
    With `expect`, a uniform type other than `expect` fails too, with the
    first point as its witness.
    An mpf point whose multiplicities do not add up (IllConditioned) is
    skipped and counted, at most `samples` times.  A construction is
    admissible only if it is at every sampled point.

    The tape is compiled once per pair, from the pair's Fels invariants,
    and kept on the pair (`memo`)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tape, names = memoized(pair, "root_type_tape",
                           lambda: _root_type_tape(pair))
    arithmetic = ("mpf" if branch_ranges(tape, [None] * len(names)) is None
                  else "exact")
    quartic_types, quadric_types, flags, witness = [], set(), [], []
    skipped = 0
    for point, values in sample_points(tape, names, seed,
                                       DRAWS_PER_SAMPLE * samples, arithmetic):
        try:
            q4 = classify_quartic(values[:5])
            q2 = classify_quadric(values[5:])
        except IllConditioned:
            skipped += 1
            if skipped > samples:
                raise
            continue
        if not flags:
            first = point
        quartic_types.append(q4.describe())
        quadric_types.add(q2.describe())
        flags.append(admissibility(q4, q2).as_dict())
        if quartic_types[-1] != quartic_types[0]:
            witness = _witness_str(dict(zip(names, point)))
        if len(flags) == samples:
            break
    if len(flags) < samples:
        raise SamplingExhausted(f"only {len(flags)}/{samples} admissible "
                                f"points classified")
    quartic_type = " | ".join(sorted(set(quartic_types)))
    if not witness and expect not in (None, quartic_type):
        witness = _witness_str(dict(zip(names, first)))
    details = {"quartic_type": quartic_type,
               "quadric_type": " | ".join(sorted(quadric_types)),
               "samples": str(samples), "arithmetic": arithmetic}
    if skipped:
        details["ill_conditioned_skipped"] = str(skipped)
    rec = CheckRecord(name="uniform_quartic_type",
                      verdict="fail" if witness else "pass",
                      tolerance="exact" if arithmetic == "exact"
                      else MPF_TOLERANCE,
                      witnesses=witness, details=details)
    frec = CheckRecord(name="admissibility_flags", verdict="info",
                       details={k: str(all(f[k] for f in flags))
                                for k in flags[0]})
    return [rec, frec]


# -- commands -------------------------------------------------------------------

def cmd_invariants(doc: Document | None, system_name: str,
                   seed: int = 0) -> Report:
    obj = resolve(doc, system_name, (PairODE, ScalarODE))
    checks = []
    if isinstance(obj, ScalarODE):
        si = scalar_invariants(obj)
        z1, z2 = zero_verdicts([si.t1, si.c1], seed=seed, every=True)
        checks.append(CheckRecord(
            name="scalar_invariants", verdict="info",
            details={"T1": _expr_text(si.t1), "C1": _expr_text(si.c1),
                     "T1_zero": str(z1.is_zero), "C1_zero": str(z2.is_zero)}))
        checks.append(CheckRecord(
            name="flat_point_equivalence", verdict="info",
            details={"flat": str(z1.is_zero and z2.is_zero)}))
    else:
        inv = fels_invariants(obj)
        entries, _, torsion = _torsion(obj, seed, False)
        cell = obj.domain.describe() if obj.domain else {}
        checks.append(CheckRecord(
            name="torsion", verdict="info",
            details={**{lbl: _expr_text(e) for lbl, e in entries.items()},
                     "torsion_zero": str(all(torsion)), **cell}))
        trace = _on_domain(obj, {"T^1_1 + T^2_2": add(entries["T^1_1"],
                                                      entries["T^2_2"])})
        checks.append(_claim("torsion_trace_identity", "zero", zero_verdicts(
            trace.values(), seed=seed, every=True), trace, obj.domain))
        quart = curvature_quartic(inv)
        quad = torsion_quadric(inv)
        checks.append(CheckRecord(
            name="binary_forms", verdict="info",
            details={**{f"W{k}": _expr_text(w)
                        for k, w in enumerate(quart.coefficients)},
                     **{f"A{k}": _expr_text(a)
                        for k, a in enumerate(quad.coefficients)}}))
    return Report(command=f"invariants {system_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_classify(doc: Document | None, system_name: str,
                 samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Report:
    pair = resolve(doc, system_name, PairODE)
    checks = _root_type_checks(pair, samples, seed)
    return Report(command=f"classify {system_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_verify_chains(doc: Document | None, scalar_name: str,
                      samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Report:
    sys = resolve(doc, scalar_name, ScalarODE)
    checks = []
    closed = chain_pair_from_scalar(sys)
    checks.append(CheckRecord(
        name="chain_pair", verdict="info",
        details={"F1": _expr_text(closed.rhs1), "F2": _expr_text(closed.rhs2),
                 "chart": " ".join(closed.chart)}))
    via = chain_pair_via_rho(sys)
    diff = {"F1 difference": sub(closed.rhs1, via.rhs1),
            "F2 difference": sub(closed.rhs2, via.rhs2)}
    checks.append(_claim("dual_derivation_equal", "zero", zero_verdicts(
        diff.values(), seed=seed, every=True), diff))
    rho = rho_chain(sys)
    drho = {f"d rho [{idx}]": e
            for idx, e in exterior_derivative(rho).comps.items()}
    rec = _claim("rho_closed", "zero", zero_verdicts(
        drho.values(), seed=seed, every=True), drho)
    if not drho:
        rec.details["d rho"] = "0"
    checks.append(rec)
    rec = _claim("rho_wedge_rho_nonzero", "nonzero", zero_verdicts(
        wedge(rho, rho).comps.values(), seed=seed))
    rec.details["rank"] = "4" if rec.verdict == "pass" else "degenerate"
    checks.append(rec)
    si = scalar_invariants(sys)
    scalar = zero_verdicts([si.t1, si.c1], seed=seed)
    torsion = _torsion(closed, seed, False)[2]
    # two zero claims compared, with the tolerance of both claims' verdicts
    rec = _claim("torsion_iff_flat_scalar", "zero", scalar + torsion)
    rec.verdict = "pass" if all(scalar) == all(torsion) else "fail"
    rec.witnesses, rec.details = [], {"scalar_invariants_zero": str(
        all(scalar)), "chain_torsion_zero": str(all(torsion))}
    checks.append(rec)
    checks.extend(_root_type_checks(closed, samples, seed, expect="D_r"))
    return Report(command=f"verify-chains {scalar_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_verify_cr(doc: Document | None, pair_name: str,
                  samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Report:
    """CR-chain admissibility (condition 1: a D_c curvature quartic) for a
    candidate pair, plus the torsion report."""
    pair = resolve(doc, pair_name, PairODE)
    checks = _root_type_checks(pair, samples, seed, expect="D_c")
    _, entries, torsion = _torsion(pair, seed, True)
    rec = _claim("torsion_zero", "zero", torsion, entries, pair.domain)
    if rec.verdict == "fail":
        rec.verdict = "info"
        rec.details["note"] = "nonzero torsion: CR structure is not flat"
    checks.append(rec)
    return Report(command=f"verify-cr {pair_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


# catalog solution function -> (anchor, span, Newton guess at the span's
# start, pair to check); 'flat' and 'sqrt' are short names for the entries
_DANCING = {"flat_dancing_phi": ((0.0, 1.0, 0.0, 0.0), (1.0, 2.0),
                                 (0.0, 1.0, -1.0), None),
            "sqrt_dancing_phi": ((0.0, 2.0, 1.0, 1.0), (2.0, 3.0),
                                 (19 / 6, 2.0, 0.4142135623730951),
                                 "dancing_sqrt_pair")}


@functools.cache
def _flat_freestyle_pair():
    """The default pair of the 'flat' dancing curves, freestyle_pair(F = 0):
    one per process, built on first use like the catalog entries, so its
    right-hand-side tape is compiled once (`integrate._rhs_tape`)."""
    return freestyle_pair(ScalarODE(num(0)))


def cmd_verify_dancing(doc: Document | None, phi_name: str = "flat",
                       anchor=None, span=None,
                       samples: int = DEFAULT_CURVE_SAMPLES,
                       seed: int = 0, pair_name: str | None = None,
                       csv_path=None) -> Report:
    """Trace a dancing curve of a catalog solution function and check it
    against a pair (by default, 'flat' against the flat freestyling pair and
    'sqrt' against the radical example pair).  `anchor` and `span` override
    the entry's window, and Newton starts from its guess only in that window.
    `constraint_residual` cannot fail: each sample is a Newton solution, of
    residual below NEWTON_TOL < DANCING_RESIDUAL_TOL (a nan never converges).
    `pair_residual` fails where the pair has no value, at its t."""
    name = {"flat": "flat_dancing_phi",
            "sqrt": "sqrt_dancing_phi"}.get(phi_name, phi_name)
    phi = resolve(doc, name, SolutionFunction)
    danchor, dspan, guess, pair_label = _DANCING[name]
    anchor, span = tuple(anchor or danchor), tuple(span or dspan)
    if (anchor, span) != (danchor, dspan):
        guess = None
    pair_label = pair_name or pair_label
    pair = resolve(doc, pair_label, PairODE) if pair_label \
        else _flat_freestyle_pair()
    checks = []
    curve = dancing_curve_numeric(phi, anchor, span, samples=samples,
                                  initial_guess=guess, seed=seed)
    res = float(np.max(curve.residual))
    checks.append(CheckRecord(
        name="constraint_residual",
        verdict="pass" if res < DANCING_RESIDUAL_TOL else "fail",
        tolerance=f"{DANCING_RESIDUAL_TOL:g}",
        details={"max_residual": f"{res:.3e}", "samples": str(samples),
                 "anchor": str(curve.anchor), "span": str(span)}))
    rec = CheckRecord(name="pair_residual", verdict="fail",
                      tolerance=f"{PAIR_RESIDUAL_TOL:g}",
                      details={"pair": pair_label or "freestyle_pair(F = 0)"})
    try:
        r1, r2 = curve.pair_residuals(pair)
    except PairUndefined as exc:
        rec.witnesses = _witness_str({"t": exc.t})
        rec.details["no_value"] = str(exc.__cause__)
    else:
        rec.verdict = "pass" if max(r1, r2) < PAIR_RESIDUAL_TOL else "fail"
        rec.details.update(first_equation=f"{r1:.3e}",
                           second_equation=f"{r2:.3e}")
    checks.append(rec)
    if csv_path:
        curve.to_csv(csv_path)
        checks.append(CheckRecord(name="csv_written", verdict="info",
                                  details={"path": str(csv_path)}))
    return Report(command=f"verify-dancing {phi_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_metric(doc: Document | None, coframe_name: str,
               points: int = DEFAULT_SAMPLES, seed: int = 0) -> Report:
    cm = resolve(doc, coframe_name, CoframeMetric)
    checks = []
    rep = einstein_check(cm, points=points, seed=seed)
    checks.append(CheckRecord(
        name="einstein",
        verdict="pass" if rep.is_einstein() else "fail",
        tolerance=f"residual {EINSTEIN_TOL:g}, lambda spread {EINSTEIN_TOL:g}",
        details={"lambda": f"{rep.lambdas[0]:.9g}",
                 "lambda_spread": f"{rep.lambda_spread:.3e}",
                 "max_residual": f"{rep.max_residual:.3e}",
                 "points": str(points),
                 "signature": str(rep.signature)}))
    rec = _claim("fundamental_form_closed", "zero", closedness_check(
        cm.fundamental_form(), seed=seed))
    rec.details["pairing"] = cm.structure
    checks.append(rec)
    checks.append(_claim("null_planes_integrable", "zero",
                         null_planes_integrable(cm, seed=seed)))
    return Report(command=f"metric {coframe_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_catalog(name: str | None = None) -> Report:
    checks = []
    if name is None:
        for n in catalog_names():
            checks.append(CheckRecord(name=n, verdict="info",
                                      details={"type": type(catalog(n)).__name__}))
    else:
        obj = catalog(name)
        details = {"type": type(obj).__name__, "chart": " ".join(obj.chart)}
        if isinstance(obj, PairODE):
            details.update(F1=to_text(obj.rhs1), F2=to_text(obj.rhs2))
        elif isinstance(obj, SolutionFunction):
            details["Phi"] = to_text(obj.phi)
        elif isinstance(obj, CoframeMetric):
            details["structure"] = obj.structure
            details.update((f"eta{k}", repr(e))
                           for k, e in enumerate(obj.etas, start=1))
        else:  # a ThirdOrderODE
            details["rhs"] = to_text(obj.rhs)
        checks.append(CheckRecord(name=name, verdict="info", details=details))
    return Report(command=f"catalog {name or ''}".strip(), seed=0,
                  fingerprint=_fingerprint(None), checks=checks)
