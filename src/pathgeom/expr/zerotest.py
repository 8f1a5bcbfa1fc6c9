"""Randomized zero testing of expressions.

Rational-function expressions are tested at random rational points
(Schwartz-Zippel); expressions containing radicals fall back to 256-bit
floating evaluation (`tape.MPF_PREC`) with relative tolerance 1e-30.  A draw
at a pole of the tested expression, or outside the domain of its radicals,
is rejected and redrawn.

A rational point n/d is evaluated mod the prime p = 2^61 - 1 at the residue
n * d^-1 (`tape.MODULUS`).  Where no denominator vanishes mod p, a nonzero
residue proves the value nonzero over Q; the nonzero verdict's witness value
is then evaluated exactly.  A zero residue counts as a zero value.  A pole
mod p is decided by exact evaluation, so the draws and the rejected samples
are those of exact arithmetic.  An expression whose tape has no mod-p value
(a fractional power, or a nonzero constant that is 0 or undefined mod p:
`Tape.reducible_mod_p`) is evaluated exactly throughout, as is a point with
a coordinate undefined mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import DivisionByZero, DomainError, SamplingExhausted
from .nodes import Expr, sub
from .sampling import RESAMPLE_BUDGET, draw_exact
from .tape import compile_tape, residue

DEFAULT_BOUND = 10 ** 6
DEFAULT_TRIALS = 20
MPF_REL_TOL = 1e-30


@dataclass
class ZeroVerdict:
    is_zero: bool
    witness: dict | None = None
    witness_value: object = None
    trials: int = 0
    mode: str = "exact"
    degree_bound: int | None = None
    failure_bound: float | None = None
    constraints_rejected: int = 0

    def __bool__(self):
        return self.is_zero


def _residues(point):
    """The residues of a point's coordinates, or None when one has none."""
    residues = [residue(q) for q in point]
    return None if None in residues else residues


def _modp(tape, residues):
    """The value mod p at a point given by its residues, or None when there
    are no residues or the point is a pole mod p (which may not be one over
    Q)."""
    if residues is None:
        return None
    try:
        return tape.eval_modp(residues)
    except DivisionByZero:
        return None


def is_zero_probabilistic(e: Expr, trials: int = DEFAULT_TRIALS, seed=0,
                          var_ranges: dict | None = None) -> ZeroVerdict:
    """Decide e == 0 by evaluation at `trials` random points where e has a
    value.

    Returns a nonzero verdict with a witness assignment as soon as any
    evaluation is nonzero (exact) or exceeds the relative tolerance (mpf).
    var_ranges maps variable names to (lo, hi) sampling intervals, useful to
    keep radicands positive.  `constraints_rejected` counts the draws
    rejected at poles or outside the domain of a radical.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    names = sorted(e.free_variables)
    mode = "mpf" if e.has_radical else "exact"
    tape = compile_tape(e, names)
    ranges = [(var_ranges or {}).get(n) for n in names]
    rejected = 0
    modular = mode == "exact" and tape.reducible_mod_p

    for trial in range(trials):
        for _ in range(RESAMPLE_BUDGET):
            point = draw_exact(rng, ranges, DEFAULT_BOUND)
            try:
                if mode == "exact":
                    # a zero residue counts as zero; otherwise the value
                    # (a nonzero verdict's witness value) is exact
                    residues = _residues(point) if modular else None
                    value = (0 if _modp(tape, residues) == 0
                             else tape.eval_exact(point))
                else:
                    value, scale = tape.eval_mpf(point, with_scale=True)
            except (DivisionByZero, DomainError):
                rejected += 1
                continue
            break
        else:
            raise SamplingExhausted(
                f"no sample point with a value in {RESAMPLE_BUDGET} attempts")
        if mode == "exact":
            nonzero = value != 0
        else:
            nonzero = abs(value) > MPF_REL_TOL * max(1, scale)
        if nonzero:
            return ZeroVerdict(False, witness=dict(zip(names, point)),
                               witness_value=value, trials=trial + 1, mode=mode,
                               degree_bound=e.degree_bound,
                               constraints_rejected=rejected)
    deg = e.degree_bound
    failure = None
    if mode == "exact" and deg is not None:
        # Schwartz-Zippel: a draw from the default box takes any one value
        # with probability at most 1/(2 bound + 1) <= 1/bound, and
        # n/d -> n * d^-1 mod p keeps distinct draws apart while
        # 2 bound^2 < p, so a trial misses a nonzero value with probability
        # <= deg/bound, over Q and mod p alike unless p divides every
        # coefficient of the cleared numerator (bound = DEFAULT_BOUND)
        per = min(1.0, deg / DEFAULT_BOUND)
        failure = per ** trials
    return ZeroVerdict(True, trials=trials, mode=mode, degree_bound=deg,
                       failure_bound=failure, constraints_rejected=rejected)


def exprs_equal(a: Expr, b: Expr, trials: int = DEFAULT_TRIALS,
                seed=0) -> ZeroVerdict:
    """Identity test a == b via is_zero_probabilistic(a - b)."""
    return is_zero_probabilistic(sub(a, b), trials=trials, seed=seed)


def zero_verdicts(exprs, trials: int, seed) -> list:
    """The verdicts of is_zero_probabilistic on the expressions in turn, up
    to and including the first nonzero one: every expression is zero iff
    all the verdicts are."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    verdicts = []
    for e in exprs:
        verdicts.append(is_zero_probabilistic(e, trials=trials, seed=seed))
        if not verdicts[-1].is_zero:
            break
    return verdicts
