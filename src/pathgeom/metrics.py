"""Coframe metrics on 4-charts: Einstein verification, conformal structures
induced by torsion-free pairs, conformal equivalence, and closedness checks.

Conformal equivalence, closedness of the fundamental form and integrability
of the null planes are identity claims, decided by the zero tester.  Only
the Einstein check samples float points: curvature is never
finite-differenced, the metric components and their first and second
derivatives are differentiated symbolically, and numerics enter only when
evaluating at sample points (the Christoffel/Ricci assembly at a point is
plain linear algebra).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegeneratePoint, DependentGenerators, TorsionNonzero
from .expr import (Rat, ZERO, add, compile_tape, differentiate, div, mul, num,
                   sub, substitute)
from .expr.sampling import sample_points
from .expr.zerotest import zero_verdicts
from .forms import DifferentialForm, d, exterior_derivative, one_form, wedge
from .invariants import fels_torsion
from .jets import PairODE

MIN_DET = 1e-8      # smallest |coframe det| at a sample point
SIZE_CAP = 1e3      # largest |metric entry| at an Einstein sample point
EINSTEIN_TOL = 1e-6  # largest residual |Ric - lambda g| and lambda spread
STRUCTURES = ("para", "complex")


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
        if self.structure not in STRUCTURES:
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

    def is_einstein(self):
        return (self.max_residual < EINSTEIN_TOL
                and self.lambda_spread < EINSTEIN_TOL)


def einstein_check(cm: CoframeMetric, points: int = 20,
                   seed: int = 0) -> EinsteinReport:
    """Evaluate Ric - lambda*g at random admissible points.

    A point is admissible where |coframe det| > MIN_DET and every metric
    entry is at most SIZE_CAP in size, so that float64 curvature assembly
    keeps full accuracy away from blow-up loci.  Per point, lambda is the
    trace Ric:g/4 and the residual is the max-norm of Ric - lambda*g; the
    signature of g is verified to be (2,2) at every sample (DegeneratePoint
    otherwise).
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    chart = cm.chart
    names = list(chart)
    coef = [c for row in cm.coefficient_rows() for c in row]
    g = [e for row in cm.metric_components() for e in row]
    dg = [differentiate(e, x) for x in chart for e in g]
    ddg = [differentiate(e, x) for x in chart for e in dg]
    tape = compile_tape(coef + g + dg + ddg, names)

    def admissible():
        for pt, vals in sample_points(tape, names, seed, 500 * points):
            c, G, dG, ddG = np.split(np.array(vals), [16, 32, 96])
            if abs(np.linalg.det(c.reshape(4, 4))) > MIN_DET \
                    and np.max(np.abs(G)) <= SIZE_CAP:
                yield (pt, G.reshape(4, 4), dG.reshape(4, 4, 4),
                       ddG.reshape(4, 4, 4, 4))

    samples = admissible()
    lambdas = []
    max_res = 0.0
    signature = None
    for _ in range(points):
        pt, G, dG, ddG = next(samples, (None,) * 4)
        if pt is None:
            raise DegeneratePoint(f"no {points} samples with |coframe det| > "
                                  f"{MIN_DET} in {500 * points} draws")
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
    verdicts = zero_verdicts([e for row in T for e in row], trials, seed)
    if not verdicts[-1].is_zero:
        i, j = divmod(len(verdicts) - 1, 2)
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
    factor: object = None    # f with g1 = f * g2, when equivalent
    witness: object = None   # a point where a cross minor is nonzero

    def __bool__(self):
        return self.equivalent


def conformal_equiv_check(g1: CoframeMetric, g2: CoframeMetric,
                          trials: int = 20, seed: int = 0) -> ConformalVerdict:
    """Identity test that g1 = f * g2 for a function f: the 45 cross minors
    g1_a g2_b - g1_b g2_a of the 10 entries a, b = (i, j) with i <= j
    vanish identically (`zero_verdicts`).  When they do, `factor` is the
    exact quotient g1_ij / g2_ij at the first entry of g2 that is not
    structurally zero; otherwise `witness` is a point where a minor is
    nonzero.  Raises ValueError when g2 is structurally zero."""
    if tuple(g1.chart) != tuple(g2.chart):
        raise ValueError(f"charts differ: {g1.chart} vs {g2.chart}")
    m1, m2 = g1.metric_components(), g2.metric_components()
    entries = [(m1[i][j], m2[i][j]) for i in range(4) for j in range(i, 4)]
    ref = next((e for e in entries if e[1] is not ZERO), None)
    if ref is None:
        raise ValueError("g2 is the zero metric")
    minors = [sub(mul(a1, b2), mul(b1, a2))
              for (a1, a2), (b1, b2) in combinations(entries, 2)]
    verdicts = zero_verdicts(minors, trials, seed)
    if not verdicts[-1].is_zero:
        return ConformalVerdict(False, witness=verdicts[-1].witness)
    return ConformalVerdict(True, factor=div(*ref))


def closedness_check(form: DifferentialForm, trials: int = 20,
                     seed: int = 0) -> list:
    """Identity test that the exterior derivative is identically zero: the
    ZeroVerdicts of its coefficients up to the first nonzero one, all zero
    iff the form is closed."""
    df = exterior_derivative(form)
    return zero_verdicts(df.comps.values(), trials=trials, seed=seed)


def null_planes_integrable(cm: CoframeMetric, trials: int = 20,
                           seed: int = 0) -> list:
    """Frobenius integrability of the designated null 2-plane fields: the
    ZeroVerdicts computed up to the first nonzero one, all zero iff the
    fields are integrable."""
    from .forms import frobenius_integrable

    verdicts = []
    for kind, system in cm.null_plane_systems():
        if kind == "real":
            verdicts += frobenius_integrable(list(system), trials=trials,
                                             seed=seed)
        else:
            verdicts += _complex_frobenius(system, trials=trials, seed=seed)
        if not all(verdicts):
            break
    return verdicts


def _complex_frobenius(system, trials, seed):
    """Integrability of {a1 + i b1, a2 + i b2} via the real and imaginary
    parts of d(theta) ^ theta1 ^ theta2: their coefficients' ZeroVerdicts up
    to the first nonzero one.  As in `frobenius_integrable`, the generators
    must be independent: DependentGenerators when theta1 ^ theta2 is decided
    zero."""
    (a1, b1), (a2, b2) = system

    def cwedge(re1, im1, re2, im2):
        return (wedge(re1, re2) - wedge(im1, im2),
                wedge(re1, im2) + wedge(im1, re2))

    w12_re, w12_im = cwedge(a1, b1, a2, b2)
    span = [*w12_re.comps.values(), *w12_im.comps.values()]
    if all(zero_verdicts(span, trials=trials, seed=seed)):
        raise DependentGenerators("the wedge of the generators vanishes "
                                  "identically")
    coefficients = (c for re, im in ((a1, b1), (a2, b2))
                    for part in cwedge(exterior_derivative(re),
                                       exterior_derivative(im), w12_re, w12_im)
                    for c in part.comps.values())
    return zero_verdicts(coefficients, trials=trials, seed=seed)
