"""Randomized zero testing of expressions.

Rational-function expressions are tested at exact random rational points
(Schwartz-Zippel); expressions containing radicals fall back to 256-bit
floating evaluation with relative tolerance 1e-30.  Constraint expressions
mark excluded loci: a sample is admissible only where every constraint is
nonzero, and poles of the tested expression trigger resampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..errors import DivisionByZero, DomainError, SamplingExhausted
from .nodes import Expr, sub
from .rational import Rat
from .tape import compile_tape

DEFAULT_BOUND = 10 ** 6
DEFAULT_TRIALS = 20
RESAMPLE_BUDGET = 100
MPF_REL_TOL = 1e-30
MPF_PREC = 256


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


def _sample_rational(rng: random.Random, lo, hi, bound):
    """Random rational n/d with d uniform over [1, bound] and n uniform over
    [-bound, bound], or, given an interval, over the n with lo < n/d <= hi.

    A denominator with no such numerator is redrawn; an interval that none
    of RESAMPLE_BUDGET denominators fits is sampled at its midpoint."""
    den = rng.randint(1, bound)
    if lo is None:
        numer = rng.randint(-bound, bound)
        return Rat(numer, den)
    lo, hi = Rat(lo), Rat(hi)
    if lo > hi:
        raise ValueError(f"empty sampling interval ({lo}, {hi})")
    for _ in range(RESAMPLE_BUDGET):
        lo_n = math.floor(lo * den) + 1
        hi_n = math.floor(hi * den)
        if lo_n <= hi_n:
            return Rat(rng.randint(lo_n, hi_n), den)
        den = rng.randint(1, bound)
    return (lo + hi) / 2


def is_zero_probabilistic(e: Expr, constraints=(), trials: int = DEFAULT_TRIALS,
                          seed=0, rng: random.Random | None = None,
                          bound: int = DEFAULT_BOUND,
                          var_ranges: dict | None = None) -> ZeroVerdict:
    """Decide e == 0 by evaluation at `trials` admissible random points.

    Returns a nonzero verdict with a witness assignment as soon as any
    evaluation is nonzero (exact) or exceeds the relative tolerance (mpf).
    var_ranges maps variable names to (lo, hi) sampling intervals, useful to
    keep radicands positive.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rng is None:
        rng = random.Random(seed)
    constraints = tuple(constraints)
    names = sorted(set(e.free_variables).union(*(c.free_variables for c in constraints))
                   if constraints else e.free_variables)
    radical = e.has_radical or any(c.has_radical for c in constraints)
    mode = "mpf" if radical else "exact"
    tape = compile_tape(e, names)
    ctapes = [compile_tape(c, names) for c in constraints]
    ranges = var_ranges or {}
    rejected = 0

    def admissible(point):
        for ct in ctapes:
            try:
                if mode == "exact":
                    if ct.eval_exact(point) == 0:
                        return False
                else:
                    value, scale = ct.eval_mpf(point, MPF_PREC)
                    if abs(value) <= MPF_REL_TOL * max(1, scale):
                        return False
            except (DivisionByZero, DomainError):
                return False
        return True

    for trial in range(trials):
        point = None
        value = scale = None
        for _ in range(RESAMPLE_BUDGET):
            cand = []
            for n in names:
                lo, hi = ranges.get(n, (None, None))
                cand.append(_sample_rational(rng, lo, hi, bound))
            if not admissible(cand):
                rejected += 1
                continue
            try:
                if mode == "exact":
                    value = tape.eval_exact(cand)
                    scale = None
                else:
                    value, scale = tape.eval_mpf(cand, MPF_PREC)
            except (DivisionByZero, DomainError):
                rejected += 1
                continue
            point = cand
            break
        if point is None:
            raise SamplingExhausted(
                f"no admissible sample point in {RESAMPLE_BUDGET} attempts "
                f"(constraints rejected {rejected} candidates)")
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
        # Schwartz-Zippel: per-trial failure <= deg/|S| with |S| = bound
        per = min(1.0, deg / bound)
        failure = per ** trials
    return ZeroVerdict(True, trials=trials, mode=mode, degree_bound=deg,
                       failure_bound=failure, constraints_rejected=rejected)


def exprs_equal(a: Expr, b: Expr, constraints=(), trials: int = DEFAULT_TRIALS,
                seed=0, rng=None, var_ranges=None) -> ZeroVerdict:
    """Identity test a == b via is_zero_probabilistic(a - b)."""
    return is_zero_probabilistic(sub(a, b), constraints=constraints, trials=trials,
                                 seed=seed, rng=rng, var_ranges=var_ranges)
