"""Randomized zero testing of expressions, one claim at a time.

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

A claim is a sequence of expressions, its entries (`zero_verdicts`).  Its
radical-free entries over one sorted free-variable chart form a group that
shares one multi-output tape and one draw stream: each draw comes from
`random.Random(seed)` once, as int pairs with their residues, all the
group's outputs are evaluated mod p in one pass, and an output's first
nonzero residue is its witness, confirmed by one exact evaluation.  Every
entry sees the draws it would see alone, so its verdict is the one-entry
verdict (`is_zero_probabilistic`) field by field.  That holds while a draw
has residues and is no pole mod p on a tape that is `reducible_mod_p`: the
first draw or tape that is not ends the group's run, and its undecided
entries are then run alone, where a rejected draw moves only their own
stream.  An entry with a radical is always run alone: its mpf tolerance is
relative to the largest value on its own tape.

Without a trial count (`trials=None`, the package's one default), each
entry draws its own allotment (`target_trials`): the fewest trials whose
Schwartz-Zippel bound reaches 2^-TARGET_BITS at its degree bound, at most
MAX_TRIALS, and MAX_TRIALS for an entry decided in mpf or of no degree.
In a group an entry closes as zero after its own allotment and the run
ends once no entry is open, so each verdict is still the one-entry
verdict.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from dataclasses import dataclass

from ..errors import DivisionByZero, DomainError, SamplingExhausted
from .nodes import Expr, sub
from .rational import Rat
from .sampling import RESAMPLE_BUDGET, draw_pairs
from .tape import compile_tape, pair_residue

DEFAULT_BOUND = 10 ** 6
MPF_REL_TOL = 1e-30
TARGET_BITS = 100       # an entry's default failure bound is 2^-TARGET_BITS
MAX_TRIALS = 50         # at most this many default trials per entry


@dataclass
class ZeroVerdict:
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
    probability at most 1/(2 bound + 1) <= 1/bound, and n/d -> n * d^-1 mod
    p keeps distinct draws apart while 2 bound^2 < p, so a trial misses a
    nonzero value with probability <= deg/bound, over Q and mod p alike
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


def _run(exprs, names, trials, seed, ranges, every):
    """The verdicts of the entries `exprs` over the chart `names`, from one
    tape and one draw stream per `ranges` (a (lo, hi) or None per name): a
    list in entry order, None where an entry is left undecided.  Each entry
    draws `trials` trials, or with None its own allotment (module docstring).

    One entry is always decided.  Several entries share each draw while it
    has residues and no pole mod p; the first draw that does not, or a tape
    that is not `reducible_mod_p` or does not compile, ends the run with
    the open entries undecided.  Unless `every`, an entry found nonzero
    closes the entries after it, which the claim never reaches."""
    single = len(exprs) == 1
    verdicts = [None] * len(exprs)
    try:
        tape = compile_tape(exprs, names)
    except ValueError:
        if single:
            raise
        return verdicts
    mpf = single and exprs[0].has_radical
    mode = "mpf" if mpf else "exact"
    modular = not mpf and tape.reducible_mod_p
    if not (single or modular):
        return verdicts
    allotted = [trials or (None if mpf else target_trials(e.degree_bound))
                or MAX_TRIALS for e in exprs]
    rng = random.Random(seed)
    open_ = list(range(len(exprs)))
    rejected = 0
    for trial in range(1, max(allotted) + 1):
        for _ in range(RESAMPLE_BUDGET):
            pairs = draw_pairs(rng, ranges, DEFAULT_BOUND)
            point = None
            # a zero residue counts as zero; otherwise the value (a nonzero
            # verdict's witness value) is exact
            values = _modp(tape, _residues(pairs) if modular else None)
            if values is None:
                if not single:
                    return verdicts
                point = [Rat(n, d) for n, d in pairs]
                try:
                    if mpf:
                        (value,), scale = tape.eval_mpf(point, with_scale=True)
                        # the threshold is at least MPF_REL_TOL, so a value
                        # below it is zero without the scale
                        size = abs(value)
                        values = [value if size > MPF_REL_TOL and size
                                  > MPF_REL_TOL * max(1, scale()) else 0]
                    else:
                        values = tape.eval_exact(point)
                except (DivisionByZero, DomainError):
                    rejected += 1
                    continue
            break
        else:
            raise SamplingExhausted(
                f"no sample point with a value in {RESAMPLE_BUDGET} attempts")
        hits = [i for i in open_ if values[i]]
        if hits:
            if point is None:
                point = [Rat(n, d) for n, d in pairs]
                values = tape.eval_exact(point)
            for i in hits:
                verdicts[i] = ZeroVerdict(
                    False, witness=dict(zip(names, point)),
                    witness_value=values[i], trials=trial, mode=mode,
                    degree_bound=exprs[i].degree_bound,
                    constraints_rejected=rejected)
            open_ = [i for i in open_
                     if verdicts[i] is None and (every or i < hits[0])]
        for i in open_:
            if allotted[i] == trial:
                deg = exprs[i].degree_bound
                verdicts[i] = ZeroVerdict(
                    True, trials=trial, mode=mode, degree_bound=deg,
                    failure_bound=(None if mpf or deg is None
                                   else _failure_bound(deg, trial)),
                    constraints_rejected=rejected)
        open_ = [i for i in open_ if verdicts[i] is None]
        if not open_:
            break
    return verdicts


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
    return _run([e], names, trials, seed, ranges, True)[0]


def exprs_equal(a: Expr, b: Expr, trials: int | None = None,
                seed=0) -> ZeroVerdict:
    """Identity test a == b via is_zero_probabilistic(a - b)."""
    return is_zero_probabilistic(sub(a, b), trials=trials, seed=seed)


def zero_verdicts(exprs, trials: int | None = None, seed=0,
                  every=False) -> list:
    """The verdicts of the claim that every expression of `exprs` is zero,
    each equal to its one-entry verdict: up to and including the first
    nonzero one in claim order (every expression is zero iff all the
    verdicts are), or with `every` one per expression.

    Each entry draws `trials` trials, or with None its own allotment.  The
    expressions are decided in groups (see the module docstring); a group
    runs when the claim reaches its first entry."""
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    exprs = list(exprs)
    charts = [tuple(sorted(e.free_variables)) for e in exprs]
    keys = [i if e.has_radical else chart
            for i, (e, chart) in enumerate(zip(exprs, charts))]
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    verdicts = [None] * len(exprs)
    end = len(exprs)
    for i in range(len(exprs)):
        if i >= end:
            break
        members = groups.pop(keys[i], ())
        if members:
            members = [j for j in members if j < end]
            got = _run([exprs[j] for j in members], charts[i], trials, seed,
                       [None] * len(charts[i]), every)
            for j, v in zip(members, got):
                verdicts[j] = v
                if not (every or v is None or v.is_zero):
                    end = min(end, j + 1)
        if verdicts[i] is None:
            # left undecided by its group: the entry runs alone
            verdicts[i] = _run([exprs[i]], charts[i], trials, seed,
                               [None] * len(charts[i]), True)[0]
            if not (every or verdicts[i].is_zero):
                end = i + 1
    return verdicts[:end]
