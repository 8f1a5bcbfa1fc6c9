"""Randomized zero testing of expressions, one claim at a time.

Rational-function expressions are tested at random rational points
(Schwartz-Zippel).  So is an expression whose radicands are all chart
variables: each such variable v is drawn on the real branch as v = s^K
(`sampling.branch_ranges`), where every power v^(j/k) is the rational
s^(K j/k), and the expression is a rational function of s of degree at
most K times its degree bound, v^(j/k) counted as j/k (`Expr.degree_bound`).
An expression with any other radicand (v + 1, say, or a variable with a
sampling range) falls back to 256-bit floating evaluation
(`tape.MPF_PREC`) with relative tolerance 1e-30.  A draw at a pole of the
tested expression, or outside the domain of its radicals, is rejected and
redrawn.

A rational point n/d is evaluated mod the prime p = 2^61 - 1 at the residue
n * d^-1 (`tape.MODULUS`).  Where no denominator vanishes mod p, a nonzero
residue proves the value nonzero over Q; the nonzero verdict's witness value
is then evaluated exactly.  A zero residue counts as a zero value.  A pole
mod p is decided by exact evaluation, so the draws and the rejected samples
are those of exact arithmetic.  An expression whose tape has no mod-p value
(a fractional power, or a nonzero constant that is 0 or undefined mod p:
`Tape.reducible_mod_p`) is evaluated exactly throughout, as is a point with
a coordinate undefined mod p.

A claim is a sequence of expressions, its entries (`zero_verdicts`), and
each entry is decided alone (`is_zero_probabilistic`): its own tape, and its
own draw stream from `random.Random(seed)`, drawn as int pairs with their
residues.  With `every` the claim decides every entry; otherwise it stops at
its first nonzero entry in claim order, and an entry it never reaches is
never compiled.

Without a trial count (`trials=None`, the package's one default), an entry
draws its own allotment (`target_trials`): the fewest trials whose
Schwartz-Zippel bound reaches 2^-TARGET_BITS at its degree bound (K times
it on the real branch), at most MAX_TRIALS, and MAX_TRIALS for an entry
decided in mpf or of no degree.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from ..errors import DivisionByZero, DomainError, SamplingExhausted
from .nodes import Expr, sub
from .rational import Rat
from .sampling import RESAMPLE_BUDGET, branch_ranges, draw_pairs
from .tape import compile_tape, pair_residue

DEFAULT_BOUND = 10 ** 6
MPF_REL_TOL = 1e-30
TARGET_BITS = 100       # an entry's default failure bound is 2^-TARGET_BITS
MAX_TRIALS = 50         # at most this many default trials per entry


@dataclass
class ZeroVerdict:
    """A zero test's verdict.  `degree_bound` is the degree its trials are
    allotted for: the expression's, K times it on the real branch, None in
    mpf."""
    is_zero: bool
    trials: int
    witness: dict | None = None
    witness_value: object = None
    mode: str = "exact"
    degree_bound: int | None = None
    failure_bound: float | None = None
    constraints_rejected: int = 0

    def __bool__(self):
        return self.is_zero


def _residues(pairs):
    """The residues of a point's (numerator, denominator) coordinates, or
    None when one has none."""
    residues = [pair_residue(n, d) for n, d in pairs]
    return None if None in residues else residues


def _modp(tape, residues):
    """The values mod p at a point given by its residues, or None when there
    are no residues or the point is a pole mod p (which may not be one over
    Q)."""
    if residues is None:
        return None
    try:
        return tape.eval_modp(residues)
    except DivisionByZero:
        return None


def _failure_bound(deg, trials):
    """Schwartz-Zippel: a draw from the default box takes any one value with
    probability at most 1/(2 bound + 1) <= 1/bound (a draw of s on the real
    branch at most 1/bound: n has bound or more values), and n/d -> n * d^-1
    mod p keeps distinct draws apart while 2 bound^2 < p, so a trial misses
    a nonzero value with probability <= deg/bound, over Q and mod p alike
    unless p divides every coefficient of the cleared numerator (bound =
    DEFAULT_BOUND)."""
    return min(1.0, deg / DEFAULT_BOUND) ** trials


@functools.cache
def _degree_limits(bound):
    """For n = 1 .. MAX_TRIALS, the largest deg with (deg/bound)^n <=
    2^-TARGET_BITS, i.e. deg^n <= bound^n / 2^TARGET_BITS (nondecreasing
    in n, found in ints by bisection)."""
    limits = []
    for n in range(1, MAX_TRIALS + 1):
        top = bound ** n >> TARGET_BITS
        lo, hi = 0, bound
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid ** n <= top:
                lo = mid
            else:
                hi = mid - 1
        limits.append(lo)
    return tuple(limits)


def target_trials(deg):
    """The fewest trials n with (deg/DEFAULT_BOUND)^n <= 2^-TARGET_BITS, or
    None when deg is None or more than MAX_TRIALS would be needed."""
    if deg is None:
        return None
    n = bisect_left(_degree_limits(DEFAULT_BOUND), deg) + 1
    return n if n <= MAX_TRIALS else None


def _run(e, names, trials, seed, ranges):
    """The verdict of e over the chart `names`, from its tape and one draw
    stream per `ranges` (a (lo, hi) or None per name).  It draws `trials`
    trials, or with None its own allotment (module docstring)."""
    tape = compile_tape(e, names)
    branch = branch_ranges(tape, ranges)
    mpf = branch is None
    if mpf:
        deg = None
    else:
        ranges = branch
        # at v = s^K the expression has degree at most K times its bound
        k = max((r for r in branch if type(r) is int), default=1)
        deg = math.ceil(k * e.degree_bound)
    mode = "mpf" if mpf else "exact"
    modular = not mpf and tape.reducible_mod_p
    allotted = trials or target_trials(deg) or MAX_TRIALS
    rng = random.Random(seed)
    rejected = 0
    for trial in range(1, allotted + 1):
        for _ in range(RESAMPLE_BUDGET):
            pairs = draw_pairs(rng, ranges, DEFAULT_BOUND)
            point = None
            # a zero residue counts as zero; otherwise the value (a nonzero
            # verdict's witness value) is exact
            value = _modp(tape, _residues(pairs) if modular else None)
            if value is None:
                point = [Rat(n, d) for n, d in pairs]
                try:
                    if mpf:
                        value, scale = tape.eval_mpf(point, with_scale=True)
                        # the threshold is at least MPF_REL_TOL, so a value
                        # below it is zero without the scale
                        size = abs(value)
                        if not (size > MPF_REL_TOL
                                and size > MPF_REL_TOL * max(1, scale())):
                            value = 0
                    else:
                        value = tape.eval_exact(point)
                except (DivisionByZero, DomainError):
                    rejected += 1
                    continue
            break
        else:
            raise SamplingExhausted(
                f"no sample point with a value in {RESAMPLE_BUDGET} attempts")
        if value:
            if point is None:
                point = [Rat(n, d) for n, d in pairs]
                value = tape.eval_exact(point)
            return ZeroVerdict(
                False, witness=dict(zip(names, point)), witness_value=value,
                trials=trial, mode=mode, degree_bound=deg,
                constraints_rejected=rejected)
    return ZeroVerdict(
        True, trials=allotted, mode=mode, degree_bound=deg,
        failure_bound=None if deg is None else _failure_bound(deg, allotted),
        constraints_rejected=rejected)


def is_zero_probabilistic(e: Expr, trials: int | None = None, seed=0,
                          var_ranges: dict | None = None) -> ZeroVerdict:
    """Decide e == 0 by evaluation at `trials` random points where e has a
    value, or with None at its own allotment (module docstring).

    Returns a nonzero verdict with a witness assignment as soon as any
    evaluation is nonzero (exact) or exceeds the relative tolerance (mpf).
    var_ranges maps variable names to (lo, hi) sampling intervals, useful to
    keep radicands positive.  `constraints_rejected` counts the draws
    rejected at poles or outside the domain of a radical.
    """
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    names = sorted(e.free_variables)
    ranges = [(var_ranges or {}).get(n) for n in names]
    return _run(e, names, trials, seed, ranges)


def exprs_equal(a: Expr, b: Expr, trials: int | None = None,
                seed=0) -> ZeroVerdict:
    """Identity test a == b via is_zero_probabilistic(a - b)."""
    return is_zero_probabilistic(sub(a, b), trials=trials, seed=seed)


def zero_verdicts(exprs, trials: int | None = None, seed=0,
                  every=False) -> list:
    """The verdicts of the claim that every expression of `exprs` is zero,
    one `is_zero_probabilistic` verdict per entry in claim order: up to and
    including the first nonzero one (every expression is zero iff all the
    verdicts are), or with `every` one per expression.

    Each entry draws `trials` trials, or with None its own allotment."""
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    verdicts = []
    for e in exprs:
        verdicts.append(is_zero_probabilistic(e, trials, seed))
        if not (every or verdicts[-1].is_zero):
            break
    return verdicts
