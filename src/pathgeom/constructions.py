"""Generators for the canonical systems: chain pairs of 2D path geometries,
freestyling pairs, the built-in example catalog, and numeric dancing curves
traced from a solution function."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DivisionByZero, DomainError, JacobianSingular,
                     NewtonDiverged, NonTransverse, PairUndefined,
                     SeedNotFound, UnknownName)
from .expr import (Expr, Rat, add, compile_tape, differentiate, div, mul, num,
                   rename_variables, sqrt_, sub, substitute, var)
from .expr.domain import Domain
from .expr.sampling import draw_float
from .expr.zerotest import zero_verdicts
from .forms import CHAIN_PAIR_CHART, one_form
from .integrate import _rhs_tape
from .jets import PairODE, ScalarODE
from .memo import memoized
from .metrics import CoframeMetric


def chain_pair_from_scalar(sys: ScalarODE) -> PairODE:
    """Pair of 2nd-order ODEs for the chains of the 2D path geometry of
    z'' = F, in the chart (x, y, p, Y, P) with x the independent variable
    (Y = y', P = p', Delta = Y - p):

        y'' = F + F_p D + F_pp D^2/2 + F_ppp D^3/6
        p'' = -2 (P - F)^2 / D + F_p (3P - 2F) + F_x + p F_y
              + (F_pp (P - F) + 2 F_y) D
              + (F_ppp (P - 2F) - F_xpp + 4 F_yp - p F_ypp) D^2 / 6

    The D = 0 locus (directions tangent to the contact distribution) is
    intrinsic to the construction and left in place, not rejected.
    """
    F = rename_variables(sys.rhs, {sys.chart[0]: "x", sys.chart[1]: "y",
                                   sys.chart[2]: "p"})
    x, y, p, Y, P = (var(n) for n in CHAIN_PAIR_CHART)
    Fx = differentiate(F, "x")
    Fy = differentiate(F, "y")
    Fp = differentiate(F, "p")
    Fpp = differentiate(Fp, "p")
    Fppp = differentiate(Fpp, "p")
    Fxpp = differentiate(Fpp, "x")
    Fyp = differentiate(Fp, "y")
    Fypp = differentiate(Fpp, "y")
    D = sub(Y, p)
    rhs1 = add(F, mul(Fp, D), mul(num(Rat(1, 2)), Fpp, D**2),
               mul(num(Rat(1, 6)), Fppp, D**3))
    PmF = sub(P, F)
    rhs2 = add(mul(num(-2), div(PmF**2, D)),
               mul(Fp, sub(mul(num(3), P), mul(num(2), F))),
               Fx, mul(p, Fy),
               mul(add(mul(Fpp, PmF), mul(num(2), Fy)), D),
               mul(num(Rat(1, 6)),
                   add(mul(Fppp, sub(P, mul(num(2), F))),
                       mul(num(-1), Fxpp), mul(num(4), Fyp),
                       mul(num(-1), p, Fypp)),
                   D**2))
    return PairODE(rhs1, rhs2, chart=CHAIN_PAIR_CHART)


FREESTYLE_CHART = ("t", "z", "b", "Z", "B")


def freestyle_pair(sys: ScalarODE) -> PairODE:
    """Freestyling built from one arbitrary 2D path geometry z'' = F and two
    flat ones, as the pair (z'' = F, b'' = b'(F - 2b')/(z' - b)) in the chart
    (t, z, b, Z, B) with Z = z', B = b'."""
    tname, zname, pname = sys.chart
    F = rename_variables(sys.rhs, {tname: "t", zname: "z", pname: "Z"})
    b, Z, B = var("b"), var("Z"), var("B")
    rhs2 = div(mul(B, sub(F, mul(num(2), B))), sub(Z, b))
    return PairODE(F, rhs2, chart=FREESTYLE_CHART)


@dataclass(frozen=True)
class ThirdOrderODE:
    """Scalar 3rd-order ODE u''' = rhs(x, u, u', u'') over a named 4-chart."""

    rhs: Expr
    chart: tuple  # (independent, dependent, first, second derivative)


@dataclass(frozen=True)
class SolutionFunction:
    """Implicit general solution Phi(t, z, a, b) = 0 of a scalar 2nd-order ODE,
    with (a, b) the constants of integration."""

    phi: Expr
    chart: tuple = ("t", "z", "a", "b")

    def __post_init__(self):
        # a tuple, so that the function hashes and can key its curve tape
        object.__setattr__(self, "chart", tuple(self.chart))
        extra = self.phi.free_variables - set(self.chart)
        if extra:
            raise ValueError(f"solution function uses {sorted(extra)} "
                             f"outside chart {self.chart}")
        da = differentiate(self.phi, self.chart[2])
        db = differentiate(self.phi, self.chart[3])
        if all(zero_verdicts([da, db])):
            raise ValueError("solution function is independent of both constants")


# -- the example catalog -------------------------------------------------------

# each builder runs once per process and its entry is shared (`catalog`)

@functools.cache
def _flat_chain_pair():
    p, Y, P = var("p"), var("Y"), var("P")
    return PairODE(num(0), div(mul(num(2), P**2), sub(p, Y)),
                   chart=CHAIN_PAIR_CHART)


@functools.cache
def _cr_sphere_pair():
    x, y, Y, P = var("x"), var("y"), var("Y"), var("P")
    den = add(mul(Y, x), P, mul(num(-1), y))
    rhs1 = div((Y**2 + 1)**2, den)
    rhs2 = div(mul(Y**2 + 1, add(mul(P, Y), mul(num(-1), y, Y), mul(num(-1), x))),
               den)
    return PairODE(rhs1, rhs2, chart=CHAIN_PAIR_CHART)


@functools.cache
def _cr_y3_pair():
    y, Y, P = var("y"), var("Y"), var("P")
    num1 = add(mul(num(16), Y**4, y**6), mul(num(22), Y**2, y**6),
               mul(num(12), P, Y**2, y**4), mul(num(-2), P**2, Y**2, y**2),
               mul(num(5), y**6), mul(num(15), P, y**4),
               mul(num(-5), P**2, y**2), P**3)
    rhs1 = div(num1, mul(num(16), y**5, sub(P, y**2)))
    rhs2 = div(mul(add(mul(num(8), Y**2, y**4), mul(num(15), y**4),
                       mul(num(10), P, y**2), mul(num(-1), P**2)), Y),
               mul(num(8), y**3))
    return PairODE(rhs1, rhs2, chart=CHAIN_PAIR_CHART)


@functools.cache
def _dancing_sqrt_pair():
    # freestyling/dancing pair of z'' = sqrt(z'), on the real branch.  Its
    # domain maps (t, z, b, s, w) to the chart by Z = s^2 and
    # B = ((t + b)^2 - 4 s^2)/(w^2 - (t + b)^2); then rad = B^2 w^2, so
    # sqrt(Z) = s and sqrt(rad) = B w on the cell s > 0, B w > 0, and the
    # pair's identity claims are rational in the parameters.  The cell maps
    # onto the pair's real domain Z > 0, rad > 0, B (4Z - (t + b)^2) != 0:
    # take s = sqrt(Z) and w = sqrt(rad)/B.  Root types are still sampled
    # in mpf over the chart, where draws with a negative radicand are
    # dropped.
    t, b, Z, B, s, w = (var(n) for n in ("t", "b", "Z", "B", "s", "w"))
    tb = add(t, b)
    rad = sub(mul(tb**2, B, add(B, num(1))), mul(num(4), Z, B))
    numerator = add(mul(num(-2), B**2, (B + 1)**2, tb),
                    mul(num(4), sqrt_(Z), B**2),
                    mul(num(2), B**3, sqrt_(rad)))
    denominator = mul(B, sub(mul(num(4), Z), tb**2))
    B_of = div(sub(tb**2, mul(num(4), s**2)), sub(w**2, tb**2))
    domain = Domain(params=("t", "z", "b", "s", "w"),
                    chart_map={"Z": s**2, "B": B_of},
                    roots=((Z, 2, s), (rad, 2, mul(B_of, w))))
    return PairODE(sqrt_(Z), div(numerator, denominator),
                   chart=FREESTYLE_CHART, domain=domain)


@functools.cache
def _submax_ode_1():
    p1, p2 = var("p1"), var("p2")
    return ThirdOrderODE(div(mul(num(3), p2**2), mul(num(2), p1)),
                         chart=("x", "p", "p1", "p2"))


@functools.cache
def _submax_ode_2():
    y1, y2 = var("y1"), var("y2")
    return ThirdOrderODE(div(mul(num(3), y1, y2**2), add(num(1), y1**2)),
                         chart=("x", "y", "y1", "y2"))


@functools.cache
def _dancing_metric_coframe():
    chart = ("y", "p", "Y", "P")
    y, p, Y, P = (var(n) for n in chart)
    D = sub(Y, p)
    e1 = one_form(chart, {"Y": num(1)})
    e2 = one_form(chart, {"Y": div(mul(num(-1), P), D**3),
                          "P": div(num(1), D**2),
                          "y": div(mul(num(-1), P**2), D**4),
                          "p": div(mul(num(2), P), D**3)})
    e3 = one_form(chart, {"y": num(1)})
    e4 = one_form(chart, {"y": div(mul(num(-1), P), D**3),
                          "p": div(num(1), D**2)})
    return CoframeMetric(chart=chart, etas=(e1, e2, e3, e4), structure="para")


@functools.cache
def _fubini_study_coframe():
    chart = ("y", "p", "Y", "P")
    y, p, Y, P = (var(n) for n in chart)
    D = sub(P, y)
    e1 = one_form(chart, {"Y": div(num(1), D),
                          "P": div(mul(num(-1), Y), D**2),
                          "y": div(mul(num(-1), Y, add(Y**2, num(3))),
                                   mul(num(2), D**2)),
                          "p": div((Y**2 + 1)**2, mul(num(2), D**3))})
    e2 = one_form(chart, {"P": div(num(1), D**2),
                          "y": div(mul(num(-1), add(mul(num(3), Y**2), num(1))),
                                   mul(num(2), D**2))})
    e3 = one_form(chart, {"y": num(1), "p": div(mul(num(-1), Y), D)})
    e4 = one_form(chart, {"p": div(num(1), D)})
    return CoframeMetric(chart=chart, etas=(e1, e2, e3, e4), structure="complex")


@functools.cache
def _flat_dancing_phi():
    t, z, a, b = (var(n) for n in ("t", "z", "a", "b"))
    return SolutionFunction(sub(z, add(mul(b, t), a)))


@functools.cache
def _sqrt_dancing_phi():
    t, z, a, b = (var(n) for n in ("t", "z", "a", "b"))
    poly = add(div(t**3, num(12)), div(mul(b, t**2), num(4)),
               div(mul(b**2, t), num(4)), a)
    return SolutionFunction(sub(z, poly))


_CATALOG = {
    "flat_chain_pair": _flat_chain_pair,
    "cr_sphere_pair": _cr_sphere_pair,
    "cr_y3_pair": _cr_y3_pair,
    "dancing_sqrt_pair": _dancing_sqrt_pair,
    "submax_ode_1": _submax_ode_1,
    "submax_ode_2": _submax_ode_2,
    "dancing_metric_coframe": _dancing_metric_coframe,
    "fubini_study_coframe": _fubini_study_coframe,
    "flat_dancing_phi": _flat_dancing_phi,
    "sqrt_dancing_phi": _sqrt_dancing_phi,
}


def catalog(name: str):
    """Built-in example systems and coframes, by name (UnknownName otherwise).

    Each name has one entry for the whole process, built on first use, so
    the caches on its expression nodes (derivatives, degree bounds, tapes,
    Fels invariants) serve every later call.  Entries are shared and
    read-only: the systems are frozen, and a coframe's forms hold their
    coefficients in read-only mappings."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"no catalog entry {name!r}; "
                          f"known: {', '.join(sorted(_CATALOG))}") from None
    return builder()


def catalog_names():
    return tuple(sorted(_CATALOG))


# -- numeric dancing curves ------------------------------------------------------

@dataclass
class DancingCurve:
    """Samples of one dancing path (t, z(t), b(t)) with implicit first and
    second derivatives and per-sample constraint residuals."""

    t: np.ndarray
    z: np.ndarray
    b: np.ndarray
    a: np.ndarray
    z1: np.ndarray
    b1: np.ndarray
    z2: np.ndarray
    b2: np.ndarray
    residual: np.ndarray
    anchor: tuple

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,z,b,res\n")
            for k in range(len(self.t)):
                fh.write(f"{self.t[k]:.17g},{self.z[k]:.17g},"
                         f"{self.b[k]:.17g},{self.residual[k]:.17g}\n")

    def pair_residuals(self, pair: PairODE):
        """Max residuals of (z'' - F1, b'' - F2) along the curve, evaluating
        the pair's right-hand sides at (t, z, b, z', b') on the pair's one
        right-hand-side tape, the one `integrate_pair` runs.  Raises
        PairUndefined from the first sample t where the pair has no value
        or leaves float range."""
        pts = np.column_stack([self.t, self.z, self.b, self.z1, self.b1])
        tape = _rhs_tape(pair)
        values = []
        for t, row in zip(self.t, pts.tolist()):
            try:
                values.append(tape.eval_f64(row)[:2])
            except (DivisionByZero, DomainError, OverflowError) as exc:
                raise PairUndefined(float(t)) from exc
        f1, f2 = np.array(values).T
        r1 = np.abs(self.z2 - f1)
        r2 = np.abs(self.b2 - f2)
        return float(np.max(r1)), float(np.max(r2))


NEWTON_TOL = 1e-12           # max-norm of the constraints at a Newton solution
NEWTON_MAX_ITER = 25
DANCING_RESIDUAL_TOL = 1e-10  # largest constraint residual along a curve


def _max_abs(v):
    """max |v_i|, or nan when some v_i is nan, so that a nan fails every
    comparison (Python's max passes over a nan that does not come first)."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _lu3(J):
    """Gaussian elimination with partial pivoting (LAPACK's getrf) of the
    3x3 matrix J, given row-major as 9 floats.  Returns det J and a function
    that solves J x = b for any right-hand side b.  Like numpy's det, det is
    exactly 0.0 when a pivot is; the solver is then None.  Written out for
    3x3: the same elimination as a loop over the columns took three times as
    long (4.5 against 1.5 us; Intel Xeon, CPython 3.11), longer than numpy's
    det."""
    r0, r1, r2 = J[0:3], J[3:6], J[6:9]
    p0, p1, p2 = 0, 1, 2  # row k of the factors is row p_k of J
    sign = 1.0
    # each pivot is the first entry of largest magnitude in its column
    if abs(r1[0]) > abs(r0[0]) and abs(r1[0]) >= abs(r2[0]):
        r0, r1, p0, p1, sign = r1, r0, 1, 0, -1.0
    elif abs(r2[0]) > abs(r0[0]):
        r0, r2, p0, p2, sign = r2, r0, 2, 0, -1.0
    u00, u01, u02 = r0
    if u00 == 0.0:
        return 0.0, None
    l10, l20 = r1[0] / u00, r2[0] / u00
    u11, u12 = r1[1] - l10 * u01, r1[2] - l10 * u02
    v21, v22 = r2[1] - l20 * u01, r2[2] - l20 * u02
    if abs(v21) > abs(u11):
        u11, u12, v21, v22 = v21, v22, u11, u12
        l10, l20, p1, p2, sign = l20, l10, p2, p1, -sign
    if u11 == 0.0:
        return 0.0, None
    l21 = v21 / u11
    u22 = v22 - l21 * u12
    if u22 == 0.0:
        return 0.0, None

    def solve(b):
        y0, y1, y2 = b[p0], b[p1], b[p2]
        y1 -= l10 * y0
        y2 = y2 - l20 * y0 - l21 * y1
        x2 = y2 / u22
        x1 = (y1 - u12 * x2) / u11
        return [(y0 - u02 * x2 - u01 * x1) / u00, x1, x2]

    return sign * u00 * u11 * u22, solve


def _newton_solve(GJ, t, state):
    """Damped Newton on G(t, .) = 0 from `state`: (s, GJ(t, s)) at the
    solution s, or None; GJ gives the curve tape's list, G in out[0:3] and
    J row-major in out[3:12].  One LU of J per step gives both the
    singularity test (JacobianSingular when |det J| < 1e-14
    max(1, max|J|)^3) and the step.  A nan or inf in G never converges and
    is never accepted."""
    s = [float(v) for v in state]
    out = GJ(t, s)
    norm = _max_abs(out[0:3])
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return s, out
        Jm = out[3:12]
        det, solve = _lu3(Jm)
        scale = max(1.0, _max_abs(Jm))
        if abs(det) < 1e-14 * (scale * scale * scale):
            raise JacobianSingular(t)
        step = solve(out[0:3])
        lam = 1.0
        while lam >= 1.0 / 64.0:
            cand = [x - lam * d for x, d in zip(s, step)]
            try:
                out_new = GJ(t, cand)
            except (DivisionByZero, DomainError):
                out_new = [math.nan]
            norm_new = _max_abs(out_new[0:3])
            if math.isfinite(norm_new) and \
                    norm_new <= (1 - lam / 2) * norm + NEWTON_TOL:
                s, out, norm = cand, out_new, norm_new
                break
            lam /= 2
        else:
            return None
    return (s, out) if norm < NEWTON_TOL else None


def _dancing_tape(phi: SolutionFunction):
    """The curve tape [G, J, Gt, Gtt, Jt, H] of `dancing_curve_numeric`
    over (t, z, a, b) and the anchor (t^, z^, a^, b^): the incidence
    constraints G = (Phi(t, z, a, b), Phi(t^, z^, a, b), Phi(t, z, a^, b^)),
    J = dG/d(z, a, b) row-major, Gt and Gtt their first and second
    t-derivatives, Jt = dJ/dt and H the Hessian of each G_k in the state.
    The anchor is an input, not a constant, so the tape is derived and
    compiled once per solution function, kept on it (`memo`), and serves
    every anchor."""
    chart = phi.chart
    hats = [name + "^" for name in chart]
    while set(hats) & set(chart):
        hats = [name + "^" for name in hats]
    tn, zn, an, bn = chart
    g1 = phi.phi
    g2 = substitute(g1, {tn: var(hats[0]), zn: var(hats[1])})
    g3 = substitute(g1, {an: var(hats[2]), bn: var(hats[3])})
    gs = [g1, g2, g3]
    Js = [differentiate(g, v) for g in gs for v in (zn, an, bn)]
    Gts = [differentiate(g, tn) for g in gs]
    return compile_tape(
        gs + Js + Gts + [differentiate(e, tn) for e in Gts + Js]
        + [differentiate(e, v) for e in Js for v in (zn, an, bn)],
        (*chart, *hats))


def dancing_curve_numeric(phi: SolutionFunction, anchor, t_range,
                          samples: int = 200, initial_guess=None,
                          seed: int = 0) -> DancingCurve:
    """Trace the dancing path determined by a non-incident anchor
    (t^, z^, a^, b^): continuation in t solving the three incidence
    constraints G = 0 for (z, a, b) by damped Newton on one tape, [G, J,
    Gt, Gtt, Jt, H] with J = dG/d(z, a, b), compiled once per solution
    function with the anchor as input (`_dancing_tape`).  A sample is
    Newton's converged evaluation (of residual below NEWTON_TOL); one LU of
    its J gives the orientation (the sign of det J) and both Taylor solves,
    for the first and second t-derivatives s1, s2 of the state.  Newton
    toward the next sample starts from state + h s1 + h^2/2 s2; on failure
    h halves (down to 1e-9), and past an accepted shorter step it starts
    from the state.

    The start at t0 is Newton from `initial_guess`, then, if that fails
    (no convergence, or a singular J), from up to 300 guesses drawn around
    the anchor with `seed`.

    Raises NonTransverse for an incident anchor, JacobianSingular /
    NewtonDiverged on continuation failure (NewtonDiverged at the last t
    Newton tried), SeedNotFound when no starting point on the curve can be
    located.  The samples must lie on one branch: J is regular along a
    branch, so JacobianSingular names the first sample whose det J is zero
    or has the other sign than at the first sample (the curve crossed a
    pole, say).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    that, zhat, ahat, bhat = (float(v) for v in anchor)
    # the anchor's inputs: each coordinate as the nearest rational of
    # denominator at most 10^12, in float64
    fixed = [float(Fraction(v).limit_denominator(10 ** 12))
             for v in (that, zhat, ahat, bhat)]
    tape = memoized(phi, "dancing_tape", lambda: _dancing_tape(phi))

    def GJ(t, s):
        return tape.eval_f64([t, *s, *fixed])

    if abs(GJ(that, (zhat, ahat, bhat))[0]) < 1e-12:
        raise NonTransverse("anchor is incident: the solution function "
                            "vanishes on it")

    t0, t1 = float(t_range[0]), float(t_range[1])
    ts = np.linspace(t0, t1, samples)

    def guesses():
        if initial_guess is not None:
            yield [float(v) for v in initial_guess]
        rng = random.Random(seed)
        spread = 2.0 + 2.0 * max(abs(zhat), abs(ahat), abs(bhat))
        for _ in range(300):
            offset = draw_float(rng, [(-spread, spread)] * 3)
            yield [zhat + offset[0], ahat + offset[1], bhat + offset[2]]

    # locate a point on the curve at t0
    for guess in guesses():
        try:
            found = _newton_solve(GJ, t0, guess)
        except JacobianSingular:
            continue
        if found is not None:
            break
    else:
        raise SeedNotFound(f"no starting point found on the dancing "
                           f"curve at t = {t0}")

    state, out = found
    rows = []
    t_cur = t0
    snap = 1e-14 * max(1.0, abs(t0), abs(t1))
    for i, t_next in enumerate(ts.tolist()):
        # continuation from the Taylor predictor, halving h on Newton failure
        while abs(t_next - t_cur) > snap:
            h = t_next - t_cur
            while True:
                guess = [x + h * d1 + h * h / 2 * d2
                         for x, d1, d2 in zip(state, s1, s2)]
                t_try = t_cur + h
                found = _newton_solve(GJ, t_try, guess)
                if found is not None:
                    break
                h /= 2
                if abs(h) < 1e-9:
                    raise NewtonDiverged(t_try)
            state, out = found
            t_cur = t_try
            s1 = s2 = (0.0, 0.0, 0.0)  # off the samples, start at the state
        t_cur = t_next
        gv, Jm, Gt, Gtt = out[0:3], out[3:12], out[12:15], out[15:18]
        Jt, H = out[18:27], out[27:54]
        det, solve = _lu3(Jm)
        sign = (det > 0) - (det < 0)
        if i == 0:
            first_sign = sign
        if sign == 0 or sign != first_sign:
            raise JacobianSingular(t_cur)
        s1 = solve([-x for x in Gt])
        rhs = []
        for k in range(3):
            # -(Gtt + 2 Jt s1 + s1 H s1), H[9k + 3v + w] = d2 G_k / dv dw
            Hk = H[9 * k:9 * k + 9]
            s1Hk = [_dot(s1, Hk[w::3]) for w in range(3)]
            rhs.append(-(Gtt[k] + 2 * _dot(Jt[3 * k:3 * k + 3], s1)
                         + _dot(s1Hk, s1)))
        s2 = solve(rhs)
        rows.append((*state, s1[0], s1[2], s2[0], s2[2], _max_abs(gv)))
    z, a, b, z1, b1, z2, b2, res = np.array(rows).T.copy()
    return DancingCurve(t=ts, z=z, b=b, a=a, z1=z1, b1=b1, z2=z2, b2=b2,
                        residual=res, anchor=(that, zhat, ahat, bhat))
