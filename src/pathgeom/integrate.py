"""Adaptive Runge-Kutta integration of ODE pairs and symbolic third-order
reduction checks.

The stepper is the Dormand-Prince embedded 5(4) pair (`_dp_step`) with
PI-free standard step control at fixed tolerances (REL_TOL, ABS_TOL).  One
tape, compiled once per pair (`_rhs_tape`), evaluates the right-hand sides
and their syntactic denominators (the poles); the last,
first-same-as-last stage of an accepted step gives both at the new state.
A |denominator| at most SINGULAR_FLOOR truncates the trajectory and sets a
flag rather than integrating blindly across a pole, and every failed step
is rejected by one rule (`integrate_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DivisionByZero, DomainError, EliminationInvalid,
                     SingularEncounter, StepUnderflow)
from .expr import (Expr, Pow, compile_tape, differentiate, div, exprs_equal,
                   is_zero_probabilistic, mul, sub, substitute, var)
from .expr.nodes import postorder
from .jets import PairODE, _total_derivative
from .memo import memoized

if TYPE_CHECKING:
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
REL_TOL = 1e-9          # local error per step, relative to |y|
ABS_TOL = 1e-11         # local error per step, absolute


def denominator_bases(e: Expr):
    """Sub-expressions appearing with negative exponents (syntactic poles)."""
    return [n.base for n in postorder((e,))
            if isinstance(n, Pow) and n.exponent < 0]


def _rhs_tape(sys: PairODE):
    """The tape of F1, F2 and their denominator bases, in that order,
    compiled once per pair and kept on it (`memo`).  The bases are nodes of
    F1 and F2, so the tape runs exactly their DAG, and F1 and F2 come out as
    from a tape of the two alone."""
    return memoized(sys, "rhs_tape", lambda: compile_tape(
        [*sys.rhs, *denominator_bases(sys.rhs1),
         *denominator_bases(sys.rhs2)], sys.chart))


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


def _dp_step(rhs, t, y, k0, hs):
    """One Dormand-Prince 5(4) step of signed size hs from y at t, given the
    derivative k0 there, for rhs(t, y) = (derivative, extra): the 5th-order
    state, its local error estimate, and rhs at the last (FSAL) stage."""
    k = np.zeros((7, 4))
    k[0] = k0
    for s in range(1, 7):
        ys = y + hs * (_A[s] @ k[:s])
        last = rhs(t + float(_C[s]) * hs, ys)
        k[s] = last[0]
    return y + hs * (_B5 @ k), hs * (_ERR @ k), last


def integrate_pair(sys: PairODE, ic, span) -> Trajectory:
    """Integrate (u1'', u2'') = (F1, F2) from ic = (u1, u2, q1, q2) over
    span = (t0, t1) with the Dormand-Prince 5(4) pair at REL_TOL, ABS_TOL.

    Each evaluation gives y' and the smallest |denominator|.  A state where
    it is at most SINGULAR_FLOOR ends the trajectory, flagged
    (SingularEncounter at t0).  A step is rejected when a stage has no value
    (DivisionByZero, DomainError) or leaves float range, halving h, or when
    its scaled error exceeds 1, shrinking h by the controller's factor.
    Below h_min the trajectory is truncated if a stage had no value or the
    state is within 1e5 SINGULAR_FLOOR of a pole; else StepUnderflow.
    """
    tape = _rhs_tape(sys)

    def rhs(t, y):
        f1, f2, *dens = tape.eval_f64([t, *y])
        return (np.array([y[2], y[3], f1, f2]),
                min(map(abs, dens), default=np.inf))

    t0, t1 = float(span[0]), float(span[1])
    direction = 1.0 if t1 >= t0 else -1.0
    y = np.array([float(v) for v in ic], dtype=np.float64)
    try:
        f_now, near = rhs(t0, y)
    except (DivisionByZero, DomainError):
        raise SingularEncounter(t0) from None
    except OverflowError:
        raise StepUnderflow(f"solution left float range at t = {t0}") from None
    if near <= SINGULAR_FLOOR:
        raise SingularEncounter(t0)

    ts, states, errors = [t0], [y.copy()], [0.0]
    singular_at = None
    h = min(abs(t1 - t0) / 100.0, 0.1)
    h_min = 1e-13 * max(1.0, abs(t1 - t0))
    t, steps = t0, 0
    while direction * (t1 - t) > 1e-14 * max(1.0, abs(t1)):
        steps += 1
        if steps > MAX_STEPS:
            raise StepUnderflow(f"exceeded {MAX_STEPS} steps")
        h = min(h, abs(t1 - t))
        hs = direction * h
        try:
            # a stage that leaves float range gives a non-finite step
            with np.errstate(over="ignore", invalid="ignore"):
                y_new, err_vec, last = _dp_step(rhs, t, y, f_now, hs)
            finite = np.all(np.isfinite(y_new)) and np.all(np.isfinite(err_vec))
            failure = ("step size underflow" if finite
                       else "solution left float range")
        except (DivisionByZero, DomainError):
            finite, failure = False, None  # a stage had no value
        except OverflowError:
            # an overflowing fractional power
            finite, failure = False, "solution left float range"
        if finite:
            scale = ABS_TOL + REL_TOL * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not finite or err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2) if finite else 0.5
            if h < h_min:
                if failure is None or near <= SINGULAR_FLOOR * 1e5:
                    singular_at = t
                    break
                raise StepUnderflow(f"{failure} at t = {t}")
            continue
        t = t + hs
        y = y_new
        f_now, near = last  # FSAL
        ts.append(t)
        states.append(y.copy())
        errors.append(float(np.max(np.abs(err_vec))))
        if near <= SINGULAR_FLOOR:
            singular_at = t
            break
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
                                target: ThirdOrderODE,
                                seed: int = 0) -> ReductionVerdict:
    """Verify that eliminating one first-derivative variable reduces the pair
    to the scalar 3rd-order ODE `target`.

    solve_for 'q1': elim gives q1 algebraically from the second equation, over
    the variables (t, u2, q2, w) with w standing for u2''; the reduced ODE is
    in u2.  solve_for 'q2' mirrors this using the first equation, reducing to
    an ODE in u1.  elim is validated first (EliminationInvalid otherwise).
    Its identity tests draw the zero tester's default allotment per entry.
    """
    tn, u1n, u2n, q1n, q2n = pair.chart
    w, v = "__jet2", "__jet3"
    if solve_for == q1n or solve_for == "q1":
        solved_var, dep, dep1, other_dep = q1n, u2n, q2n, u1n
        designated, remaining = pair.rhs2, pair.rhs1
    elif solve_for == q2n or solve_for == "q2":
        solved_var, dep, dep1, other_dep = q2n, u1n, q1n, u2n
        designated, remaining = pair.rhs1, pair.rhs2
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
    if not is_zero_probabilistic(check, seed=seed).is_zero:
        raise EliminationInvalid("elimination does not solve the designated "
                                 "equation")
    dE_dw = differentiate(elim, w)
    if is_zero_probabilistic(dE_dw, seed=seed).is_zero:
        raise EliminationInvalid("elimination has no dependence on the second "
                                 "derivative")
    # total derivative of solved_var = elim on the third-order jet of dep:
    # d(dep)=dep1, d(dep1)=w, d(w)=v, d(other_dep)=solved_var=elim
    DE = _total_derivative(elim, (tn, dep, dep1, w, other_dep),
                           (var(dep1), var(w), var(v), elim))
    lhs = substitute(remaining, {solved_var: elim})
    derived = div(sub(lhs, sub(DE, mul(var(v), dE_dw))), dE_dw)
    tgt = substitute(target.rhs, {target.chart[0]: var(tn),
                                  target.chart[1]: var(dep),
                                  target.chart[2]: var(dep1),
                                  target.chart[3]: var(w)})
    verdict = exprs_equal(derived, tgt, seed=seed)
    return ReductionVerdict(matches=verdict.is_zero, derived_rhs=derived,
                            witness=verdict.witness)
