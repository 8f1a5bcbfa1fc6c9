"""Generators for the canonical systems: chain pairs of 2D path geometries,
freestyling pairs, the built-in example catalog, and numeric dancing curves
traced from a solution function."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (DivisionByZero, DomainError, JacobianSingular,
                     NewtonDiverged, NonTransverse, PairUndefined,
                     SeedNotFound, UnknownName)
from .expr import (Expr, Rat, add, compile_tape, differentiate, div, mul, num,
                   rename_variables, sqrt_, sub, substitute, var)
from .expr.sampling import draw_float
from .expr.zerotest import zero_verdicts
from .forms import CHAIN_PAIR_CHART, one_form
from .jets import PairODE, ScalarODE
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
        extra = self.phi.free_variables - set(self.chart)
        if extra:
            raise ValueError(f"solution function uses {sorted(extra)} "
                             f"outside chart {self.chart}")
        da = differentiate(self.phi, self.chart[2])
        db = differentiate(self.phi, self.chart[3])
        if all(zero_verdicts([da, db])):
            raise ValueError("solution function is independent of both constants")


# -- the example catalog -------------------------------------------------------

def _flat_chain_pair():
    p, Y, P = var("p"), var("Y"), var("P")
    return PairODE(num(0), div(mul(num(2), P**2), sub(p, Y)),
                   chart=CHAIN_PAIR_CHART)


def _cr_sphere_pair():
    x, y, Y, P = var("x"), var("y"), var("Y"), var("P")
    den = add(mul(Y, x), P, mul(num(-1), y))
    rhs1 = div((Y**2 + 1)**2, den)
    rhs2 = div(mul(Y**2 + 1, add(mul(P, Y), mul(num(-1), y, Y), mul(num(-1), x))),
               den)
    return PairODE(rhs1, rhs2, chart=CHAIN_PAIR_CHART)


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


def _dancing_sqrt_pair():
    # freestyling/dancing pair of z'' = sqrt(z'), real branch; no sampler
    # keeps t + b > 0, draws where a radicand is negative are dropped
    t, b, Z, B = var("t"), var("b"), var("Z"), var("B")
    tb = add(t, b)
    rad = sub(mul(tb**2, B, add(B, num(1))), mul(num(4), Z, B))
    numerator = add(mul(num(-2), B**2, (B + 1)**2, tb),
                    mul(num(4), sqrt_(Z), B**2),
                    mul(num(2), B**3, sqrt_(rad)))
    denominator = mul(B, sub(mul(num(4), Z), tb**2))
    return PairODE(sqrt_(Z), div(numerator, denominator), chart=FREESTYLE_CHART)


def _submax_ode_1():
    p1, p2 = var("p1"), var("p2")
    return ThirdOrderODE(div(mul(num(3), p2**2), mul(num(2), p1)),
                         chart=("x", "p", "p1", "p2"))


def _submax_ode_2():
    y1, y2 = var("y1"), var("y2")
    return ThirdOrderODE(div(mul(num(3), y1, y2**2), add(num(1), y1**2)),
                         chart=("x", "y", "y1", "y2"))


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


def _flat_dancing_phi():
    t, z, a, b = (var(n) for n in ("t", "z", "a", "b"))
    return SolutionFunction(sub(z, add(mul(b, t), a)))


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
    """Built-in example systems and coframes, by name (UnknownName otherwise)."""
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
        the pair's right-hand sides at (t, z, b, z', b').  Raises
        PairUndefined from the first sample t where the pair has no value
        or leaves float range."""
        pts = np.column_stack([self.t, self.z, self.b, self.z1, self.b1])
        tape = compile_tape(pair.rhs, pair.chart)
        values = []
        for t, row in zip(self.t, pts):
            try:
                values.append(tape.eval_f64(row))
            except (DivisionByZero, DomainError, OverflowError) as exc:
                raise PairUndefined(float(t)) from exc
        f1, f2 = np.array(values).T
        r1 = np.abs(self.z2 - f1)
        r2 = np.abs(self.b2 - f2)
        return float(np.max(r1)), float(np.max(r2))


NEWTON_TOL = 1e-12           # max-norm of the constraints at a Newton solution
NEWTON_MAX_ITER = 25
DANCING_RESIDUAL_TOL = 1e-10  # largest constraint residual along a curve


def _newton_solve(GJ, t, state):
    """Damped Newton on G(t, .) = 0 from `state`, or None; GJ(t, s) gives
    G and J together, so an accepted candidate's J is the next step's."""
    s = np.array(state, dtype=np.float64)
    gv, Jm = GJ(t, s)
    norm = np.max(np.abs(gv))
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return s
        det = np.linalg.det(Jm)
        scale = max(1.0, np.max(np.abs(Jm)))
        if abs(det) < 1e-14 * scale ** 3:
            raise JacobianSingular(t)
        step = np.linalg.solve(Jm, gv)
        lam = 1.0
        while lam >= 1.0 / 64.0:
            cand = s - lam * step
            try:
                gv_new, J_new = GJ(t, cand)
            except (DivisionByZero, DomainError):
                gv_new = None
            if gv_new is not None and np.all(np.isfinite(gv_new)) and \
                    np.max(np.abs(gv_new)) <= (1 - lam / 2) * norm + NEWTON_TOL:
                s, gv, Jm = cand, gv_new, J_new
                norm = np.max(np.abs(gv))
                break
            lam /= 2
        else:
            return None
    return s if norm < NEWTON_TOL else None


def dancing_curve_numeric(phi: SolutionFunction, anchor, t_range,
                          samples: int = 200, initial_guess=None,
                          seed: int = 0) -> DancingCurve:
    """Trace the dancing path determined by a non-incident anchor
    (t^, z^, a^, b^): continuation in t solving the three incidence
    constraints G = 0 for (z, a, b) by damped Newton.  Two tapes: Newton
    evaluates [G, J] with J = dG/d(z, a, b), every line-search candidate
    included; each sample evaluates [G, J, Gt, Gtt, Jt, H] once, for the
    orientation of J, the Taylor solves for the first and second
    derivatives, and the residual.

    Raises NonTransverse for an incident anchor, JacobianSingular /
    NewtonDiverged on continuation failure (after step halving down to 1e-9),
    SeedNotFound when no starting point on the curve can be located.  The
    samples must lie on one branch: J is regular along a branch, so
    JacobianSingular names the first sample whose det J has the other sign
    than at the first sample (the curve crossed a pole, say).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    tn, zn, an, bn = phi.chart
    that, zhat, ahat, bhat = (float(v) for v in anchor)

    def exact(v):
        from fractions import Fraction
        return num(Fraction(v).limit_denominator(10 ** 12))

    g1 = phi.phi
    g2 = substitute(phi.phi, {tn: exact(that), zn: exact(zhat)})
    g3 = substitute(phi.phi, {an: exact(ahat), bn: exact(bhat)})
    gs = [g1, g2, g3]
    state_vars = (zn, an, bn)
    order = (tn, zn, an, bn)
    # the Newton tape [G, J]; the sample tape adds the t-derivatives Gt,
    # Gtt, Jt and the state Hessian H for the Taylor coefficients
    Js = [differentiate(g, v) for g in gs for v in state_vars]
    Gts = [differentiate(g, tn) for g in gs]
    newton_tape = compile_tape(gs + Js, order)
    sample_tape = compile_tape(
        gs + Js + Gts + [differentiate(e, tn) for e in Gts + Js]
        + [differentiate(e, v) for e in Js for v in state_vars], order)

    def GJ(t, s):
        gj = np.array(newton_tape.eval_f64(np.array([t, *s])))
        return gj[:3], gj[3:].reshape(3, 3)

    if abs(GJ(that, (zhat, ahat, bhat))[0][0]) < 1e-12:
        raise NonTransverse("anchor is incident: the solution function "
                            "vanishes on it")

    t0, t1 = float(t_range[0]), float(t_range[1])
    ts = np.linspace(t0, t1, samples)

    # locate a point on the curve at t0
    state = None
    if initial_guess is not None:
        state = _newton_solve(GJ, t0, [float(v) for v in initial_guess])
    if state is None:
        rng = random.Random(seed)
        spread = 2.0 + 2.0 * max(abs(zhat), abs(ahat), abs(bhat))
        for _ in range(300):
            offset = draw_float(rng, [(-spread, spread)] * 3)
            guess = [zhat + offset[0], ahat + offset[1], bhat + offset[2]]
            try:
                state = _newton_solve(GJ, t0, guess)
            except JacobianSingular:
                state = None
            if state is not None:
                break
        if state is None:
            raise SeedNotFound(f"no starting point found on the dancing "
                               f"curve at t = {t0}")

    rows = {k: np.zeros(samples) for k in
            ("z", "a", "b", "z1", "b1", "z2", "b2", "res")}
    t_cur = t0
    snap = 1e-14 * max(1.0, abs(t0), abs(t1))
    for i, t_next in enumerate(ts):
        # continuation with step halving on Newton failure
        while abs(t_next - t_cur) > snap:
            step = t_next - t_cur
            while True:
                cand = _newton_solve(GJ, t_cur + step, state)
                if cand is not None:
                    break
                step /= 2
                if abs(step) < 1e-9:
                    raise NewtonDiverged(t_cur + step)
            state = cand
            t_cur = t_cur + step
        t_cur = float(t_next)
        pt = np.array([t_cur, state[0], state[1], state[2]])
        gv, Jm, Gt, Gtt, Jt, H = np.split(
            np.array(sample_tape.eval_f64(pt)), [3, 12, 15, 18, 27])
        Jm, Jt, H = Jm.reshape(3, 3), Jt.reshape(3, 3), H.reshape(3, 3, 3)
        orientation = np.sign(np.linalg.det(Jm))
        if i == 0:
            first_orientation = orientation
        elif orientation != first_orientation:
            raise JacobianSingular(t_cur)
        s1 = np.linalg.solve(Jm, -Gt)
        Hq = np.array([s1 @ H[i] @ s1 for i in range(3)])
        s2 = np.linalg.solve(Jm, -(Gtt + 2 * Jt @ s1 + Hq))
        rows["z"][i], rows["a"][i], rows["b"][i] = state
        rows["z1"][i], rows["b1"][i] = s1[0], s1[2]
        rows["z2"][i], rows["b2"][i] = s2[0], s2[2]
        rows["res"][i] = float(np.max(np.abs(gv)))
    if np.max(rows["res"]) >= DANCING_RESIDUAL_TOL:
        raise NewtonDiverged(float(ts[int(np.argmax(rows['res']))]))
    return DancingCurve(t=ts, z=rows["z"], b=rows["b"], a=rows["a"],
                        z1=rows["z1"], b1=rows["b1"], z2=rows["z2"],
                        b2=rows["b2"], residual=rows["res"],
                        anchor=(that, zhat, ahat, bhat))
