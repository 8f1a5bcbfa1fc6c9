"""Coframe metrics on 4-charts: Einstein verification, conformal structures
induced by torsion-free pairs, conformal equivalence, and closedness checks.

Conformal equivalence, closedness of the fundamental form and integrability
of the null planes are identity claims, decided by the zero tester at its
own allotment per entry (`target_trials`); the null planes of both
structures go through the one Frobenius test `forms.frobenius_integrable`,
the complex structure's as (re, im) pairs.  Only the Einstein check samples
float points: curvature is never finite-differenced, the metric components
and their first and second derivatives are differentiated symbolically, and
numerics enter only when evaluating at sample points (the Christoffel/Ricci
assembly over the points is plain linear algebra).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SamplingExhausted, TorsionNonzero
from .expr import (Rat, ZERO, add, compile_tape, differentiate, div, mul, num,
                   sub, substitute)
from .expr.sampling import sample_points
from .expr.zerotest import zero_verdicts
from .forms import (DifferentialForm, d, exterior_derivative,
                    frobenius_integrable, one_form, wedge)
from .invariants import fels_torsion
from .jets import PairODE
from .memo import memoized

MIN_DET = 1e-8      # smallest |coframe det| / max|coefficient|^4 at a sample
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
        # tuples, so that a coframe hashes and can key its Einstein tape
        object.__setattr__(self, "chart", tuple(self.chart))
        object.__setattr__(self, "etas", tuple(self.etas))
        if len(self.chart) != 4 or len(self.etas) != 4:
            raise ValueError("need four 1-forms on a 4-dimensional chart")
        for e in self.etas:
            if e.degree != 1 or e.chart != self.chart:
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
        """Generators of the designated null 2-plane fields, one list per
        Pfaffian system: two real systems for 'para', one complex system
        for 'complex', whose generators eta1 + i eta2 and eta3 + i eta4 are
        (re, im) pairs."""
        e1, e2, e3, e4 = self.etas
        if self.structure == "para":
            return [[e1, e3], [e2, e4]]
        return [[(e1, e2), (e3, e4)]]


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

    A point is admissible where the coframe matrix C (row a = eta^a) has
    |det C| > MIN_DET * max|C_ij|^4.  The determinant has degree 4 in the
    entries, so the test does not depend on the scale of the coframe, and
    it keeps float64 curvature assembly away from the blow-up loci.  The
    Christoffel/Ricci assembly runs once over all admissible points, with
    per-point values bit for bit those of a point-by-point assembly.  Per
    point, lambda is the trace Ric:g/4 and the residual is the max-norm of
    Ric - lambda*g.

    The signature is (2, 2) by construction, not by a test: g = C^T J C
    with J = (eta1 eta4 + eta4 eta1 - eta2 eta3 - eta3 eta2)/2, whose
    eigenvalues are 1/2, 1/2, -1/2, -1/2, so by Sylvester's law of inertia
    g has signature (2, 2) wherever det C != 0, at every admissible point.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    names = list(cm.chart)
    tape = memoized(cm, "einstein_tape", lambda: _einstein_tape(cm))

    rows = []
    for _, vals in sample_points(tape, names, seed, 500 * points):
        c = np.array(vals[:16]).reshape(4, 4)
        if abs(np.linalg.det(c)) > MIN_DET * np.max(np.abs(c)) ** 4:
            rows.append(vals[16:])
            if len(rows) == points:
                break
    else:
        raise SamplingExhausted(f"no {points} samples with |coframe det| > "
                                f"{MIN_DET} max|coefficient|^4 in "
                                f"{500 * points} draws")
    # one assembly over the points, n the point index
    batch = np.array(rows)
    G = batch[:, :16].reshape(points, 4, 4)
    dG = batch[:, 16:80].reshape(points, 4, 4, 4)
    ddG = batch[:, 80:].reshape(points, 4, 4, 4, 4)
    Ginv = np.linalg.inv(G)
    # S_{ijl} = d_i g_{jl} + d_j g_{il} - d_l g_{ij}; Gamma^k_ij = g^{kl} S_{ijl}/2
    S = dG + dG.transpose(0, 2, 1, 3) - dG.transpose(0, 2, 3, 1)
    Gam = 0.5 * np.einsum("nkl,nijl->nkij", Ginv, S)
    dGinv = -np.einsum("nka,nmab,nbl->nmkl", Ginv, dG, Ginv)
    dS = ddG + ddG.transpose(0, 1, 3, 2, 4) - ddG.transpose(0, 1, 3, 4, 2)
    dGam = 0.5 * (np.einsum("nmkl,nijl->nmkij", dGinv, S)
                  + np.einsum("nkl,nmijl->nmkij", Ginv, dS))
    Ric = (np.einsum("nkkij->nij", dGam)
           - np.einsum("njkik->nij", dGam)
           + np.einsum("nkkl,nlij->nij", Gam, Gam)
           - np.einsum("nkjl,nlik->nij", Gam, Gam))
    lam = np.einsum("nij,nij->n", Ginv, Ric) / 4.0
    res = np.max(np.abs(Ric - lam[:, None, None] * G), axis=(1, 2))
    return EinsteinReport(lambdas=lam.tolist(),
                          max_residual=max(0.0, *res.tolist()), points=points,
                          seed=seed, signature=(2, 2))


def _einstein_tape(cm: CoframeMetric):
    """The tape of the 16 coframe coefficients, the 16 metric components
    and their 64 first and 256 second derivatives, derived and compiled
    once per coframe and kept on it (`memo`)."""
    chart = cm.chart
    coef = [c for row in cm.coefficient_rows() for c in row]
    g = [e for row in cm.metric_components() for e in row]
    dg = [differentiate(e, x) for x in chart for e in g]
    ddg = [differentiate(e, x) for x in chart for e in dg]
    return compile_tape(coef + g + dg + ddg, chart)


def conformal_from_pair(pair: PairODE, x_value=0,
                        seed: int = 0) -> CoframeMetric:
    """Conformal structure induced on the solution space of a torsion-free
    pair, on the slice {independent variable = x_value}:
        eta1 = dY - (F_Y dy + F_P dp)/2,  eta2 = dP - (G_Y dy + G_P dp)/2,
        eta3 = dy, eta4 = dp,
    with (F, G) the right-hand sides in the chart (x, y, p, Y, P)."""
    T = fels_torsion(pair)
    verdicts = zero_verdicts([e for row in T for e in row], seed=seed)
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
                          seed: int = 0) -> ConformalVerdict:
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
    verdicts = zero_verdicts(minors, seed=seed)
    if not verdicts[-1].is_zero:
        return ConformalVerdict(False, witness=verdicts[-1].witness)
    return ConformalVerdict(True, factor=div(*ref))


def closedness_check(form: DifferentialForm, seed: int = 0) -> list:
    """Identity test that the exterior derivative is identically zero: the
    ZeroVerdicts of its coefficients up to the first nonzero one, all zero
    iff the form is closed."""
    df = exterior_derivative(form)
    return zero_verdicts(df.comps.values(), seed=seed)


def null_planes_integrable(cm: CoframeMetric, seed: int = 0) -> list:
    """Frobenius integrability of the designated null 2-plane fields: the
    ZeroVerdicts computed up to the first nonzero one, all zero iff the
    fields are integrable."""
    verdicts = []
    for system in cm.null_plane_systems():
        verdicts += frobenius_integrable(system, seed=seed)
        if not all(verdicts):
            break
    return verdicts
