"""Adaptive Runge-Kutta integration of ODE pairs and symbolic third-order
reduction checks.

The stepper is the Dormand-Prince embedded 5(4) pair with PI-free standard
step control; right-hand sides are evaluated through compiled tapes.
Approaches to the singular locus (any syntactic denominator below 1e-8 in
magnitude) truncate the trajectory and set a flag rather than integrating
blindly across a pole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DivisionByZero, DomainError, EliminationInvalid,
                     SingularEncounter, StepUnderflow)
from .expr import (Add, Expr, Mul, Pow, add, compile_tape, differentiate,
                   div, exprs_equal, is_zero_probabilistic, mul, sub,
                   substitute, var)
from .jets import PairODE
from .constructions import ThirdOrderODE

_DP_A = (
    (),
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)),
    (Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)),
    (Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)),
)
_DP_C = (Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5),
         Fraction(8, 9), Fraction(1), Fraction(1))
_DP_B5 = _DP_A[6] + (Fraction(0),)
_DP_B4 = (Fraction(5179, 57600), Fraction(0), Fraction(7571, 16695),
          Fraction(393, 640), Fraction(-92097, 339200), Fraction(187, 2100),
          Fraction(1, 40))
_A = [np.array([float(x) for x in row]) for row in _DP_A]
_C = np.array([float(x) for x in _DP_C])
_B5 = np.array([float(x) for x in _DP_B5])
_ERR = np.array([float(b5 - b4) for b5, b4 in zip(_DP_B5, _DP_B4)])

SINGULAR_FLOOR = 1e-8   # |denominator| at which a trajectory is truncated
MAX_STEPS = 200_000


def denominator_bases(e: Expr):
    """Sub-expressions appearing with negative exponents (syntactic poles)."""
    out = []
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Pow):
            if n.exponent < 0:
                out.append(n.base)
            stack.append(n.base)
        elif isinstance(n, (Add, Mul)):
            stack.extend(n.args)
    return out


def _near_singular(min_denominator, t, y):
    """Step-control failure close to a syntactic pole (within 1e5 times
    SINGULAR_FLOOR) counts as a singular encounter, not a controller
    defect."""
    try:
        return min_denominator(t, y) <= SINGULAR_FLOOR * 1e5
    except (DivisionByZero, DomainError):
        return True


@dataclass
class Trajectory:
    """Accepted integration steps of an ODE pair: monotone sample times,
    states (u1, u2, q1, q2), and per-step local error estimates."""

    chart: tuple
    t: np.ndarray
    states: np.ndarray
    error_estimates: np.ndarray
    singular_at: float | None = None

    @property
    def truncated_by_singularity(self):
        return self.singular_at is not None

    def evaluate_along(self, e: Expr) -> np.ndarray:
        """Evaluate an expression over the pair chart at every sample."""
        tape = compile_tape(e, self.chart)
        pts = np.column_stack([self.t, self.states])
        return tape.eval_f64_many(pts)

    def to_csv(self, path):
        names = ",".join(self.chart[1:])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.chart[0]},{names},err\n")
            for k in range(len(self.t)):
                row = ",".join(f"{v:.17g}" for v in self.states[k])
                fh.write(f"{self.t[k]:.17g},{row},"
                         f"{self.error_estimates[k]:.17g}\n")


def integrate_pair(sys: PairODE, ic, span, rel_tol: float = 1e-9,
                   abs_tol: float = 1e-11,
                   fixed_step: float | None = None) -> Trajectory:
    """Integrate (u1'', u2'') = (F1, F2) from ic = (u1, u2, q1, q2) over
    span = (t0, t1) with the Dormand-Prince 5(4) pair.

    fixed_step disables adaptivity (used by the order-of-convergence test).
    When any syntactic denominator of the right-hand sides drops below
    SINGULAR_FLOOR in magnitude, the trajectory is truncated and flagged.
    """
    f = compile_tape(sys.rhs, sys.chart)
    dens = compile_tape(denominator_bases(sys.rhs1)
                        + denominator_bases(sys.rhs2), sys.chart)

    def rhs(t, y):
        pt = np.array([t, y[0], y[1], y[2], y[3]])
        return np.array([y[2], y[3], *f.eval_f64(pt)])

    def min_denominator(t, y):
        pt = np.array([t, y[0], y[1], y[2], y[3]])
        return min((abs(v) for v in dens.eval_f64(pt)), default=np.inf)

    t0, t1 = float(span[0]), float(span[1])
    direction = 1.0 if t1 >= t0 else -1.0
    y = np.array([float(v) for v in ic], dtype=np.float64)
    try:
        if min_denominator(t0, y) <= SINGULAR_FLOOR:
            raise SingularEncounter(t0)
        f_now = rhs(t0, y)
    except (DivisionByZero, DomainError):
        raise SingularEncounter(t0) from None
    except OverflowError:
        raise StepUnderflow(f"solution left float range at t = {t0}") from None

    ts = [t0]
    states = [y.copy()]
    errors = [0.0]
    singular_at = None
    h = fixed_step if fixed_step is not None else min(abs(t1 - t0) / 100.0, 0.1)
    h_min = 1e-13 * max(1.0, abs(t1 - t0))
    t = t0
    steps = 0
    while direction * (t1 - t) > 1e-14 * max(1.0, abs(t1)):
        steps += 1
        if steps > MAX_STEPS:
            raise StepUnderflow(f"exceeded {MAX_STEPS} steps")
        h = min(h, abs(t1 - t))
        hs = direction * h
        try:
            k = np.zeros((7, 4))
            k[0] = f_now
            # a stage that leaves float range is a non-finite step, below
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(1, 7):
                    ys = y + hs * (_A[s] @ k[:s])
                    k[s] = rhs(t + float(_C[s]) * hs, ys)
                y_new = y + hs * (_B5 @ k)
                err_vec = hs * (_ERR @ k)
            finite = np.all(np.isfinite(y_new)) and np.all(np.isfinite(err_vec))
        except (DivisionByZero, DomainError):
            if fixed_step is not None:
                singular_at = t
                break
            h /= 2
            if h < h_min:
                singular_at = t
                break
            continue
        except OverflowError:
            # a stage left float range (an overflowing fractional power)
            finite = False
        if not finite:
            if fixed_step is not None:
                raise StepUnderflow(f"solution left float range at t = {t}")
            h /= 2
            if h < h_min:
                if _near_singular(min_denominator, t, y):
                    singular_at = t
                    break
                raise StepUnderflow(f"solution left float range at t = {t}")
            continue
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if fixed_step is None and err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < h_min:
                if _near_singular(min_denominator, t, y):
                    singular_at = t
                    break
                raise StepUnderflow(f"step size underflow at t = {t}")
            continue
        t = t + hs
        y = y_new
        f_now = k[6]  # FSAL
        ts.append(t)
        states.append(y.copy())
        errors.append(float(np.max(np.abs(err_vec))))
        try:
            near = min_denominator(t, y)
        except (DivisionByZero, DomainError):
            near = 0.0
        if near <= SINGULAR_FLOOR:
            singular_at = t
            break
        if fixed_step is None:
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
    return Trajectory(chart=sys.chart, t=np.array(ts), states=np.array(states),
                      error_estimates=np.array(errors), singular_at=singular_at)


# -- third-order reductions ------------------------------------------------------

@dataclass
class ReductionVerdict:
    matches: bool
    derived_rhs: Expr
    witness: dict | None = None

    def __bool__(self):
        return self.matches


def third_order_reduction_check(pair: PairODE, solve_for: str, elim: Expr,
                                target: ThirdOrderODE, trials: int = 16,
                                seed: int = 0) -> ReductionVerdict:
    """Verify that eliminating one first-derivative variable reduces the pair
    to the scalar 3rd-order ODE `target`.

    solve_for 'q1': elim gives q1 algebraically from the second equation, over
    the variables (t, u2, q2, w) with w standing for u2''; the reduced ODE is
    in u2.  solve_for 'q2' mirrors this using the first equation, reducing to
    an ODE in u1.  elim is validated first (EliminationInvalid otherwise).
    """
    tn, u1n, u2n, q1n, q2n = pair.chart
    w = "__jet2"
    v = "__jet3"
    if solve_for == q1n or solve_for == "q1":
        solved_var, dep, dep1 = q1n, u2n, q2n
        designated, remaining = pair.rhs2, pair.rhs1
        other_dep, other_rate = u1n, elim
    elif solve_for == q2n or solve_for == "q2":
        solved_var, dep, dep1 = q2n, u1n, q1n
        designated, remaining = pair.rhs1, pair.rhs2
        other_dep, other_rate = u2n, elim
    else:
        raise ValueError(f"solve_for must name a first-derivative variable, "
                         f"got {solve_for!r}")
    allowed = {tn, dep, dep1, w, other_dep}
    extra = elim.free_variables - allowed
    if extra:
        raise EliminationInvalid(f"elimination uses {sorted(extra)}; allowed "
                                 f"{sorted(allowed)}")
    # the designated equation must become the identity w == rhs once the
    # solved variable is replaced
    check = sub(var(w), substitute(designated, {solved_var: elim}))
    if not is_zero_probabilistic(check, trials=trials, seed=seed).is_zero:
        raise EliminationInvalid("elimination does not solve the designated "
                                 "equation")
    dE_dw = differentiate(elim, w)
    if is_zero_probabilistic(dE_dw, trials=max(4, trials // 2), seed=seed).is_zero:
        raise EliminationInvalid("elimination has no dependence on the second "
                                 "derivative")
    # total derivative of solved_var = elim on the third-order jet of dep:
    # d(dep)=dep1, d(dep1)=w, d(w)=v, d(other_dep)=solved_var=elim
    DE = add(differentiate(elim, tn),
             mul(var(dep1), differentiate(elim, dep)),
             mul(var(w), differentiate(elim, dep1)),
             mul(var(v), dE_dw),
             mul(elim, differentiate(elim, other_dep)))
    lhs = substitute(remaining, {solved_var: elim})
    derived = div(sub(lhs, sub(DE, mul(var(v), dE_dw))), dE_dw)
    tgt = substitute(target.rhs, {target.chart[0]: var(tn),
                                  target.chart[1]: var(dep),
                                  target.chart[2]: var(dep1),
                                  target.chart[3]: var(w)})
    verdict = exprs_equal(derived, tgt, trials=trials, seed=seed)
    return ReductionVerdict(matches=verdict.is_zero, derived_rhs=derived,
                            witness=verdict.witness)
