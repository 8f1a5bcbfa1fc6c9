"""Coframe metrics on 4-charts: Einstein verification, conformal structures
induced by torsion-free pairs, conformal equivalence, and closedness checks.

Curvature is never finite-differenced: the metric components and their first
and second derivatives are differentiated symbolically, and numerics enter
only when evaluating at sample points (the Christoffel/Ricci assembly at a
point is plain linear algebra).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, DivisionByZero, DomainError, TorsionNonzero
from .expr import (Rat, ZERO, add, compile_tape, differentiate,
                   is_zero_probabilistic, mul, num, substitute)
from .forms import DifferentialForm, d, exterior_derivative, one_form, wedge
from .invariants import fels_torsion
from .jets import PairODE


@dataclass(frozen=True)
class CoframeMetric:
    """Four independent 1-forms eta1..eta4 on a 4-chart, carrying the metric
    g = eta1 (.) eta4 - eta2 (.) eta3 (symmetric products, so g_ij picks up
    the factor 1/2) and a fundamental 2-form.

    structure 'para' pairs (eta1^eta4 + eta2^eta3); structure 'complex' pairs
    (eta1^eta3 + eta2^eta4), the combination compatible with the complex
    structure whose (1,0)-forms are eta1 + i eta2 and eta3 + i eta4.
    """

    chart: tuple
    etas: tuple
    structure: str = "para"

    def __post_init__(self):
        if len(self.chart) != 4 or len(self.etas) != 4:
            raise ValueError("need four 1-forms on a 4-dimensional chart")
        for e in self.etas:
            if e.degree != 1 or e.chart != tuple(self.chart):
                raise ValueError("coframe entries must be 1-forms on the chart")
        if self.structure not in ("para", "complex"):
            raise ValueError("structure must be 'para' or 'complex'")

    def coefficient_rows(self):
        """4x4 matrix: row a, column i = coefficient of d(chart[i]) in eta^a."""
        return tuple(tuple(e.comps.get((i,), ZERO) for i in range(4))
                     for e in self.etas)

    def metric_components(self):
        rows = self.coefficient_rows()

        def sym(u, v):
            half = num(Rat(1, 2))
            return [[mul(half, add(mul(u[i], v[j]), mul(u[j], v[i])))
                     for j in range(4)] for i in range(4)]

        s14 = sym(rows[0], rows[3])
        s23 = sym(rows[1], rows[2])
        return tuple(tuple(add(s14[i][j], mul(num(-1), s23[i][j]))
                           for j in range(4)) for i in range(4))

    def fundamental_form(self) -> DifferentialForm:
        e1, e2, e3, e4 = self.etas
        if self.structure == "para":
            return wedge(e1, e4) + wedge(e2, e3)
        return wedge(e1, e3) + wedge(e2, e4)

    def null_plane_systems(self):
        """Generators of the designated null 2-plane fields: two real Pfaffian
        systems for 'para', one complex system (as (re, im) pairs) for
        'complex'."""
        e1, e2, e3, e4 = self.etas
        if self.structure == "para":
            return [("real", (e1, e3)), ("real", (e2, e4))]
        return [("complex", ((e1, e2), (e3, e4)))]


@dataclass
class EinsteinReport:
    lambdas: list
    max_residual: float
    points: int
    seed: int
    signature: tuple

    @property
    def lambda_spread(self):
        return max(self.lambdas) - min(self.lambdas) if self.lambdas else 0.0

    def is_einstein(self, residual_tol=1e-6, lambda_tol=1e-6):
        return self.max_residual < residual_tol and self.lambda_spread < lambda_tol


def _sample_admissible(rng, tape_det, chart, box, min_det, size_tapes=(),
                       size_cap=1e3, budget=500):
    """Random point with |coframe det| > min_det; size_tapes (metric entries)
    are additionally capped so float64 curvature assembly keeps full accuracy
    away from blow-up loci."""
    lo, hi = box
    for _ in range(budget):
        pt = np.array([rng.uniform(lo, hi) for _ in chart])
        try:
            if abs(tape_det.eval_f64(pt)) <= min_det:
                continue
            if any(abs(t.eval_f64(pt)) > size_cap for t in size_tapes):
                continue
        except (DivisionByZero, DomainError, OverflowError):
            continue
        return pt
    raise DegeneratePoint(f"no sample with |coframe det| > {min_det} in {budget} draws")


def _det4(rows):
    """Symbolic determinant of a 4x4 Expr matrix by cofactor expansion."""
    def det2(m, r, c):
        (i, j), (k, l) = r, c
        return add(mul(m[i][k], m[j][l]), mul(num(-1), m[i][l], m[j][k]))

    def det3(m, rs, cs):
        i = rs[0]
        total = ZERO
        for pos, c in enumerate(cs):
            rest = tuple(x for x in cs if x != c)
            minor = det2(m, rs[1:], rest)
            term = mul(m[i][c], minor)
            if pos % 2 == 1:
                term = mul(num(-1), term)
            total = add(total, term)
        return total

    total = ZERO
    for pos, c in enumerate(range(4)):
        minor = det3(rows, (1, 2, 3), tuple(x for x in range(4) if x != c))
        term = mul(rows[0][c], minor)
        if pos % 2 == 1:
            term = mul(num(-1), term)
        total = add(total, term)
    return total


def einstein_check(cm: CoframeMetric, points: int = 20, seed: int = 0,
                   box=(-2.0, 2.0), min_det: float = 1e-8) -> EinsteinReport:
    """Evaluate Ric - lambda*g at random admissible points.

    Per point, lambda is the trace Ric:g/4 and the residual is the max-norm of
    Ric - lambda*g; the signature of g is verified to be (2,2) at every
    sample (DegeneratePoint otherwise).
    """
    chart = cm.chart
    g = cm.metric_components()
    names = list(chart)
    g_t = [[compile_tape(g[i][j], names) for j in range(4)] for i in range(4)]
    dg_t = [[[compile_tape(differentiate(g[i][j], chart[k]), names)
              for j in range(4)] for i in range(4)] for k in range(4)]
    ddg_t = [[[[compile_tape(
        differentiate(differentiate(g[i][j], chart[k]), chart[l]), names)
        for j in range(4)] for i in range(4)] for k in range(4)] for l in range(4)]
    det_t = compile_tape(_det4(cm.coefficient_rows()), names)

    rng = random.Random(seed)
    lambdas = []
    max_res = 0.0
    signature = None
    flat_g = [t for row in g_t for t in row]
    for _ in range(points):
        pt = _sample_admissible(rng, det_t, chart, box, min_det, size_tapes=flat_g)
        G = np.array([[g_t[i][j].eval_f64(pt) for j in range(4)] for i in range(4)])
        dG = np.array([[[dg_t[k][i][j].eval_f64(pt) for j in range(4)]
                        for i in range(4)] for k in range(4)])
        ddG = np.array([[[[ddg_t[l][k][i][j].eval_f64(pt) for j in range(4)]
                          for i in range(4)] for k in range(4)] for l in range(4)])
        eig = np.linalg.eigvalsh(G)
        sig = (int(np.sum(eig > 0)), int(np.sum(eig < 0)))
        if sig != (2, 2):
            raise DegeneratePoint(f"metric signature {sig} != (2, 2) at {pt}")
        signature = sig
        Ginv = np.linalg.inv(G)
        # S_{ijl} = d_i g_{jl} + d_j g_{il} - d_l g_{ij}; Gamma^k_ij = g^{kl} S_{ijl}/2
        S = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
        Gam = 0.5 * np.einsum("kl,ijl->kij", Ginv, S)
        dGinv = -np.einsum("ka,mab,bl->mkl", Ginv, dG, Ginv)
        dS = ddG + ddG.transpose(0, 2, 1, 3) - ddG.transpose(0, 2, 3, 1)
        dGam = 0.5 * (np.einsum("mkl,ijl->mkij", dGinv, S)
                      + np.einsum("kl,mijl->mkij", Ginv, dS))
        Ric = (np.einsum("kkij->ij", dGam)
               - np.einsum("jkik->ij", dGam)
               + np.einsum("kkl,lij->ij", Gam, Gam)
               - np.einsum("kjl,lik->ij", Gam, Gam))
        lam = float(np.einsum("ij,ij", Ginv, Ric) / 4.0)
        res = float(np.max(np.abs(Ric - lam * G)))
        lambdas.append(lam)
        max_res = max(max_res, res)
    return EinsteinReport(lambdas=lambdas, max_residual=max_res, points=points,
                          seed=seed, signature=signature)


def conformal_from_pair(pair: PairODE, x_value=0, trials: int = 12,
                        seed: int = 0) -> CoframeMetric:
    """Conformal structure induced on the solution space of a torsion-free
    pair, on the slice {independent variable = x_value}:
        eta1 = dY - (F_Y dy + F_P dp)/2,  eta2 = dP - (G_Y dy + G_P dp)/2,
        eta3 = dy, eta4 = dp,
    with (F, G) the right-hand sides in the chart (x, y, p, Y, P)."""
    T = fels_torsion(pair)
    for i in range(2):
        for j in range(2):
            if not is_zero_probabilistic(T[i][j], trials=trials, seed=seed).is_zero:
                raise TorsionNonzero(f"torsion component T^{i+1}_{j+1} is nonzero")
    xn, yn, pn, Yn, Pn = pair.chart
    chart = (yn, pn, Yn, Pn)
    half = num(Rat(1, 2))
    F = substitute(pair.rhs1, {xn: num(x_value)})
    G = substitute(pair.rhs2, {xn: num(x_value)})
    eta1 = one_form(chart, {Yn: num(1),
                            yn: mul(num(-1), half, differentiate(F, Yn)),
                            pn: mul(num(-1), half, differentiate(F, Pn))})
    eta2 = one_form(chart, {Pn: num(1),
                            yn: mul(num(-1), half, differentiate(G, Yn)),
                            pn: mul(num(-1), half, differentiate(G, Pn))})
    eta3 = d(chart, yn)
    eta4 = d(chart, pn)
    return CoframeMetric(chart=chart, etas=(eta1, eta2, eta3, eta4))


@dataclass
class ConformalVerdict:
    equivalent: bool
    factors: list
    witness: object = None

    def __bool__(self):
        return self.equivalent


def conformal_equiv_check(g1: CoframeMetric, g2: CoframeMetric, points: int = 20,
                          seed: int = 0, rel_tol: float = 1e-8,
                          box=(-2.0, 2.0), min_det: float = 1e-8) -> ConformalVerdict:
    """Pointwise proportionality test g1 = f * g2 at random admissible points."""
    if tuple(g1.chart) != tuple(g2.chart):
        raise ValueError(f"charts differ: {g1.chart} vs {g2.chart}")
    chart = g1.chart
    names = list(chart)
    m1 = g1.metric_components()
    m2 = g2.metric_components()
    t1 = [[compile_tape(m1[i][j], names) for j in range(4)] for i in range(4)]
    t2 = [[compile_tape(m2[i][j], names) for j in range(4)] for i in range(4)]
    det1 = compile_tape(_det4(g1.coefficient_rows()), names)
    det2 = compile_tape(_det4(g2.coefficient_rows()), names)
    rng = random.Random(seed)
    factors = []
    for _ in range(points):
        for _attempt in range(200):
            pt = np.array([rng.uniform(*box) for _ in chart])
            try:
                if abs(det1.eval_f64(pt)) > min_det and abs(det2.eval_f64(pt)) > min_det:
                    break
            except (DivisionByZero, DomainError, OverflowError):
                continue
        else:
            raise DegeneratePoint("no admissible sample for conformal check")
        A = np.array([[t1[i][j].eval_f64(pt) for j in range(4)] for i in range(4)])
        B = np.array([[t2[i][j].eval_f64(pt) for j in range(4)] for i in range(4)])
        ref = np.unravel_index(np.argmax(np.abs(B)), B.shape)
        f = A[ref] / B[ref]
        if not np.allclose(A, f * B, rtol=0, atol=rel_tol * max(1.0, np.max(np.abs(A)))):
            return ConformalVerdict(False, factors, witness=dict(zip(chart, pt)))
        factors.append(float(f))
    return ConformalVerdict(True, factors)


def closedness_check(form: DifferentialForm, trials: int = 20, seed: int = 0) -> bool:
    """Identity test: is the exterior derivative identically zero."""
    df = exterior_derivative(form)
    return all(is_zero_probabilistic(c, trials=trials, seed=seed).is_zero
               for c in df.comps.values())


def null_planes_integrable(cm: CoframeMetric, trials: int = 20, seed: int = 0) -> bool:
    """Frobenius integrability of the designated null 2-plane fields."""
    from .forms import frobenius_integrable

    for kind, system in cm.null_plane_systems():
        if kind == "real":
            if not frobenius_integrable(list(system), trials=trials, seed=seed):
                return False
        else:
            if not _complex_frobenius(system, trials=trials, seed=seed):
                return False
    return True


def _complex_frobenius(system, trials, seed):
    """Integrability of {a1 + i b1, a2 + i b2} via the real and imaginary
    parts of d(theta) ^ theta1 ^ theta2."""
    (a1, b1), (a2, b2) = system

    def cwedge(re1, im1, re2, im2):
        return (wedge(re1, re2) - wedge(im1, im2),
                wedge(re1, im2) + wedge(im1, re2))

    w12_re, w12_im = cwedge(a1, b1, a2, b2)
    for (re, im) in ((a1, b1), (a2, b2)):
        dre, dim = exterior_derivative(re), exterior_derivative(im)
        top_re, top_im = cwedge(dre, dim, w12_re, w12_im)
        for part in (top_re, top_im):
            for c in part.comps.values():
                if not is_zero_probabilistic(c, trials=trials, seed=seed).is_zero:
                    return False
    return True
