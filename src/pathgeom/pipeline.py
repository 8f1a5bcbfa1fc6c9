"""Verification pipelines composing the modules, with deterministic reports.

Every command returns a Report whose machine-readable rendering is a single
JSON object {tool_version, command, seed, fingerprint, checks: [...]}; the
same document and seed produce byte-identical output.  Each check carries its
tolerance and sample provenance, and every failure names a witness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .constructions import (SolutionFunction, catalog, catalog_names,
                            chain_pair_from_scalar, dancing_curve_numeric,
                            freestyle_pair)
from .dsl import CoframeDecl, Document
from .errors import IllConditioned, SamplingExhausted, UnknownName
from .expr import (add, compile_tape, is_zero_probabilistic, num, sub,
                   to_text)
from .expr.sampling import sample_points
from .expr.zerotest import MPF_PREC, MPF_REL_TOL
from .forms import chain_pair_via_rho, exterior_derivative, rho_chain, wedge
from .invariants import (curvature_quartic, fels_invariants, scalar_invariants,
                         torsion_quadric)
from .jets import PairODE, ScalarODE
from .metrics import (CoframeMetric, closedness_check, einstein_check,
                      null_planes_integrable)
from .roots import admissibility, classify_quadric, classify_quartic

DEFAULT_IDENTITY_TRIALS = 50
DEFAULT_TYPE_SAMPLES = 20
SAMPLE_BUDGET = 3000      # draws per pointwise classification


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
    available programmatically)."""
    text = to_text(e)
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
    if isinstance(obj, CoframeDecl):
        obj = obj.to_metric()
    if kinds is not None and not isinstance(obj, kinds):
        want = ", ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple)
                                              else (kinds,)))
        raise UnknownName(f"{name!r} is a {type(obj).__name__}, expected {want}")
    return obj


def _zero_matrix_check(name, entries, labels, trials, seed, constraints=()):
    """Identity-test a family of expressions; pass iff all are zero."""
    witnesses = []
    values = {}
    verdicts = []
    for label, e in zip(labels, entries):
        verdict = is_zero_probabilistic(e, constraints=constraints,
                                        trials=trials, seed=seed)
        verdicts.append(verdict)
        values[label] = "0" if verdict.is_zero else \
            f"nonzero ({_expr_text(e, 120)})"
        if not verdict.is_zero:
            for w in _witness_str(verdict.witness):
                if w not in witnesses:
                    witnesses.append(w)
    return CheckRecord(name=name,
                       verdict="pass" if not witnesses else "fail",
                       tolerance=_identity_tolerance(verdicts, trials),
                       witnesses=witnesses, details=values), not witnesses


def _identity_tolerance(verdicts, trials):
    """Exact only if every verdict was decided exactly (or mod p), else mpf."""
    if all(v.mode == "exact" for v in verdicts):
        return f"exact identity, {trials} trials"
    return f"mpf {MPF_PREC}-bit, relative {MPF_REL_TOL:g}, {trials} trials"


def _classify_pair_pointwise(pair: PairODE, samples, seed):
    """Quartic/quadric root profiles of a pair at sampled admissible points.

    Exact rational evaluation and exact classification whenever the system is
    radical-free; float evaluation otherwise.  Float samples too close to a
    type-degeneration locus to classify at the tolerance are skipped and
    counted (at most `samples` skips before giving up)."""
    inv = fels_invariants(pair)
    quartic = curvature_quartic(inv).coefficients
    quadric = torsion_quadric(inv).coefficients
    exprs = list(quartic) + list(quadric)
    exact = not any(e.has_radical for e in exprs)
    names = sorted(set().union(*(e.free_variables for e in exprs)))
    tape = compile_tape(exprs, names)
    results = []
    skipped = 0
    for point, values in sample_points(tape, names, seed, SAMPLE_BUDGET,
                                       exact=exact):
        try:
            q4 = classify_quartic(values[:5])
            q2 = classify_quadric(values[5:])
        except IllConditioned:
            skipped += 1
            if skipped > samples:
                raise
            continue
        results.append((dict(zip(names, point)), q4, q2))
        if len(results) == samples:
            break
    if len(results) < samples:
        raise SamplingExhausted(f"only {len(results)}/{samples} admissible "
                                f"points classified")
    return results, exact, skipped


def _uniform_type_records(results, exact, samples, expected_quartic=None,
                          skipped=0):
    def profile_key(p):
        return (p.zero_form, p.multiplicities(),
                tuple(m for _, m in p.real_roots))

    quartic_types = {results[0][1].describe()}
    quadric_types = {results[0][2].describe()}
    key0 = profile_key(results[0][1])
    uniform = True
    witness = []
    for assignment, q4, q2 in results[1:]:
        quartic_types.add(q4.describe())
        quadric_types.add(q2.describe())
        if profile_key(q4) != key0:
            uniform = False
            witness = _witness_str(assignment)
    details = {
        "quartic_type": " | ".join(sorted(quartic_types)),
        "quadric_type": " | ".join(sorted(quadric_types)),
        "samples": str(samples),
        "arithmetic": "exact" if exact else "float64",
    }
    if skipped:
        details["ill_conditioned_skipped"] = str(skipped)
    verdict = "pass" if uniform else "fail"
    if expected_quartic is not None and uniform:
        verdict = "pass" if quartic_types == {expected_quartic} else "fail"
    rec = CheckRecord(name="uniform_quartic_type", verdict=verdict,
                      tolerance="clustering 1e-08" if not exact else "exact",
                      witnesses=witness, details=details)
    # a construction is admissible only if it is at every sampled point
    flags = [admissibility(q4, q2).as_dict() for _, q4, q2 in results]
    frec = CheckRecord(name="admissibility_flags", verdict="info",
                       details={k: str(all(f[k] for f in flags))
                                for k in flags[0]})
    return [rec, frec]


# -- commands -------------------------------------------------------------------

def cmd_invariants(doc: Document | None, system_name: str,
                   trials: int = DEFAULT_IDENTITY_TRIALS, seed: int = 0) -> Report:
    obj = resolve(doc, system_name, (PairODE, ScalarODE))
    checks = []
    if isinstance(obj, ScalarODE):
        si = scalar_invariants(obj)
        z1 = is_zero_probabilistic(si.t1, trials=trials, seed=seed)
        z2 = is_zero_probabilistic(si.c1, trials=trials, seed=seed)
        checks.append(CheckRecord(
            name="scalar_invariants", verdict="info",
            details={"T1": _expr_text(si.t1), "C1": _expr_text(si.c1),
                     "T1_zero": str(z1.is_zero), "C1_zero": str(z2.is_zero)}))
        checks.append(CheckRecord(
            name="flat_point_equivalence", verdict="info",
            details={"flat": str(z1.is_zero and z2.is_zero)}))
    else:
        inv = fels_invariants(obj)
        T = inv.torsion
        labels = [f"T^{i+1}_{j+1}" for i in range(2) for j in range(2)]
        entries = [T[i][j] for i in range(2) for j in range(2)]
        torsion_zero = all(
            is_zero_probabilistic(e, trials=trials, seed=seed).is_zero
            for e in entries)
        checks.append(CheckRecord(
            name="torsion", verdict="info",
            details={**{lbl: _expr_text(e) for lbl, e in zip(labels, entries)},
                     "torsion_zero": str(torsion_zero)}))
        rec, _ = _zero_matrix_check(
            "torsion_trace_identity", [add(T[0][0], T[1][1])],
            ["T^1_1 + T^2_2"], trials, seed)
        checks.append(rec)
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
                 samples: int = DEFAULT_TYPE_SAMPLES, seed: int = 0) -> Report:
    pair = resolve(doc, system_name, PairODE)
    results, exact, skipped = _classify_pair_pointwise(pair, samples, seed)
    checks = _uniform_type_records(results, exact, samples, skipped=skipped)
    return Report(command=f"classify {system_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_verify_chains(doc: Document | None, scalar_name: str,
                      trials: int = DEFAULT_IDENTITY_TRIALS,
                      samples: int = DEFAULT_TYPE_SAMPLES,
                      seed: int = 0) -> Report:
    sys = resolve(doc, scalar_name, ScalarODE)
    checks = []
    closed = chain_pair_from_scalar(sys)
    checks.append(CheckRecord(
        name="chain_pair", verdict="info",
        details={"F1": _expr_text(closed.rhs1), "F2": _expr_text(closed.rhs2),
                 "chart": " ".join(closed.chart)}))
    via = chain_pair_via_rho(sys)
    rec, _ = _zero_matrix_check(
        "dual_derivation_equal",
        [sub(closed.rhs1, via.rhs1), sub(closed.rhs2, via.rhs2)],
        ["F1 difference", "F2 difference"], trials, seed)
    checks.append(rec)
    rho = rho_chain(sys)
    drho = exterior_derivative(rho)
    rec, _ = _zero_matrix_check(
        "rho_closed", list(drho.comps.values()) or [],
        [f"d rho [{idx}]" for idx in drho.comps], trials, seed)
    if not drho.comps:
        rec = CheckRecord(name="rho_closed", verdict="pass",
                          tolerance="structural", details={"d rho": "0"})
    checks.append(rec)
    rr = wedge(rho, rho)
    nonzero = any(not is_zero_probabilistic(c, trials=max(8, trials // 4),
                                            seed=seed).is_zero
                  for c in rr.comps.values())
    checks.append(CheckRecord(
        name="rho_wedge_rho_nonzero", verdict="pass" if nonzero else "fail",
        tolerance=f"nonzero witness, {max(8, trials // 4)} trials",
        details={"rank": "4" if nonzero else "degenerate"}))
    si = scalar_invariants(sys)
    verdicts = []

    def is_zero(e):
        verdicts.append(is_zero_probabilistic(e, trials=trials, seed=seed))
        return verdicts[-1].is_zero

    scalar_zero = is_zero(si.t1) and is_zero(si.c1)
    T = fels_invariants(closed).torsion
    torsion_zero = all(is_zero(T[i][j]) for i in range(2) for j in range(2))
    checks.append(CheckRecord(
        name="torsion_iff_flat_scalar",
        verdict="pass" if torsion_zero == scalar_zero else "fail",
        tolerance=_identity_tolerance(verdicts, trials),
        details={"scalar_invariants_zero": str(scalar_zero),
                 "chain_torsion_zero": str(torsion_zero)}))
    results, exact, skipped = _classify_pair_pointwise(closed, samples, seed)
    checks.extend(_uniform_type_records(results, exact, samples,
                                        expected_quartic="D_r",
                                        skipped=skipped))
    return Report(command=f"verify-chains {scalar_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_verify_cr(doc: Document | None, pair_name: str,
                  samples: int = DEFAULT_TYPE_SAMPLES,
                  trials: int = DEFAULT_IDENTITY_TRIALS,
                  seed: int = 0) -> Report:
    """CR-chain admissibility (condition 1: a D_c curvature quartic) for a
    candidate pair, plus the torsion report."""
    pair = resolve(doc, pair_name, PairODE)
    checks = []
    results, exact, skipped = _classify_pair_pointwise(pair, samples, seed)
    checks.extend(_uniform_type_records(results, exact, samples,
                                        expected_quartic="D_c",
                                        skipped=skipped))
    T = fels_invariants(pair).torsion
    rec, _ = _zero_matrix_check(
        "torsion_zero", [T[i][j] for i in range(2) for j in range(2)],
        [f"T^{i+1}_{j+1}" for i in range(2) for j in range(2)], trials, seed)
    if rec.verdict == "fail":
        rec.verdict = "info"
        rec.details["note"] = "nonzero torsion: CR structure is not flat"
    checks.append(rec)
    return Report(command=f"verify-cr {pair_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


_DANCING_BUILTINS = {
    "flat": ("flat_dancing_phi", (0.0, 1.0, 0.0, 0.0), (1.0, 2.0),
             (0.0, 1.0, -1.0), None),
    "sqrt": ("sqrt_dancing_phi", (0.0, 2.0, 1.0, 1.0), (2.0, 3.0),
             (19.0 / 6.0, 2.0, 0.4142135623730951), "dancing_sqrt_pair"),
}


def cmd_verify_dancing(doc: Document | None, phi_name: str = "flat",
                       anchor=None, span=None, samples: int = 120,
                       seed: int = 0, pair_name: str | None = None,
                       csv_path=None, residual_tol: float = 1e-6) -> Report:
    """Generate a dancing curve from a solution function and check it against
    the declared pair (builtins: 'flat' checks the flat pair, 'sqrt' the
    radical example pair)."""
    guess = None
    if phi_name in _DANCING_BUILTINS:
        cat_name, danchor, dspan, guess, dpair = _DANCING_BUILTINS[phi_name]
        phi = catalog(cat_name)
        anchor = anchor or danchor
        span = span or dspan
        if pair_name is None and dpair is not None:
            pair = catalog(dpair)
            pair_label = dpair
        elif pair_name is None:
            pair = freestyle_pair(ScalarODE(num(0)))
            pair_label = "freestyle_pair(F = 0)"
        else:
            pair = resolve(doc, pair_name, PairODE)
            pair_label = pair_name
    else:
        phi = resolve(doc, phi_name, SolutionFunction)
        if anchor is None or span is None:
            raise UnknownName("custom solution functions need --anchor and "
                              "--span")
        if pair_name is None:
            raise UnknownName("custom solution functions need --system to "
                              "name the pair to verify against")
        pair = resolve(doc, pair_name, PairODE)
        pair_label = pair_name
    checks = []
    curve = dancing_curve_numeric(phi, anchor, span, samples=samples,
                                  initial_guess=guess, seed=seed)
    res = float(np.max(curve.residual))
    checks.append(CheckRecord(
        name="constraint_residual", verdict="pass" if res < 1e-10 else "fail",
        tolerance="1e-10",
        details={"max_residual": f"{res:.3e}", "samples": str(samples),
                 "anchor": str(curve.anchor), "span": str(tuple(span))}))
    r1, r2 = curve.pair_residuals(pair)
    ok = max(r1, r2) < residual_tol
    checks.append(CheckRecord(
        name="pair_residual", verdict="pass" if ok else "fail",
        tolerance=f"{residual_tol:g}",
        details={"first_equation": f"{r1:.3e}", "second_equation": f"{r2:.3e}",
                 "pair": pair_label}))
    if csv_path:
        curve.to_csv(csv_path)
        checks.append(CheckRecord(name="csv_written", verdict="info",
                                  details={"path": str(csv_path)}))
    return Report(command=f"verify-dancing {phi_name}", seed=seed,
                  fingerprint=_fingerprint(doc), checks=checks)


def cmd_metric(doc: Document | None, coframe_name: str, points: int = 20,
               seed: int = 0, residual_tol: float = 1e-6,
               lambda_tol: float = 1e-6,
               trials: int = DEFAULT_IDENTITY_TRIALS) -> Report:
    cm = resolve(doc, coframe_name, CoframeMetric)
    checks = []
    rep = einstein_check(cm, points=points, seed=seed)
    checks.append(CheckRecord(
        name="einstein",
        verdict="pass" if rep.is_einstein(residual_tol, lambda_tol) else "fail",
        tolerance=f"residual {residual_tol:g}, lambda spread {lambda_tol:g}",
        details={"lambda": f"{rep.lambdas[0]:.9g}",
                 "lambda_spread": f"{rep.lambda_spread:.3e}",
                 "max_residual": f"{rep.max_residual:.3e}",
                 "points": str(points),
                 "signature": str(rep.signature)}))
    closed = closedness_check(cm.fundamental_form(), trials=trials, seed=seed)
    checks.append(CheckRecord(
        name="fundamental_form_closed", verdict="pass" if closed else "fail",
        tolerance=f"exact identity, {trials} trials",
        details={"pairing": cm.structure}))
    integrable = null_planes_integrable(cm, trials=trials, seed=seed)
    checks.append(CheckRecord(
        name="null_planes_integrable", verdict="pass" if integrable else "fail",
        tolerance=f"exact identity, {trials} trials"))
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
        details = {"type": type(obj).__name__}
        if isinstance(obj, PairODE):
            details.update({"chart": " ".join(obj.chart),
                            "F1": to_text(obj.rhs1), "F2": to_text(obj.rhs2)})
        elif isinstance(obj, ScalarODE):
            details.update({"chart": " ".join(obj.chart), "F": to_text(obj.rhs)})
        elif isinstance(obj, SolutionFunction):
            details.update({"chart": " ".join(obj.chart), "Phi": to_text(obj.phi)})
        elif isinstance(obj, CoframeMetric):
            details.update({"chart": " ".join(obj.chart),
                            "structure": obj.structure,
                            **{f"eta{k}": repr(e)
                               for k, e in enumerate(obj.etas, start=1)}})
        else:
            details["rhs"] = to_text(obj.rhs)
            details["chart"] = " ".join(obj.chart)
        checks.append(CheckRecord(name=name, verdict="info", details=details))
    return Report(command=f"catalog {name or ''}".strip(), seed=0,
                  fingerprint=_fingerprint(None), checks=checks)
