"""Random sample points: the one place where points are drawn.

A point is drawn one coordinate per variable, each over its own (lo, hi)
range or, given None, over the default:

  * exact -- a rational n/d with d uniform over [1, bound] and n uniform
             over [-bound, bound] (or over the n with lo < n/d <= hi),
             drawn by `draw_pairs` as the int pair (n, d), not reduced,
             which `Tape.eval_exact` takes as it is; `draw_exact` draws the
             same point, with the same rng calls, as rationals;
  * float -- `rng.uniform` over (lo, hi), by default over DEFAULT_BOX.

The real branch: where every fractional power of a tape has a variable with
no range as its base (`branch_ranges`), that variable v gets the root index
K, the lcm of the denominators of its exponents, and is drawn exactly as
v = s^K, with s = n/d drawn as above but with n over [1, bound] when K is
even (an even root needs v > 0) and over [-bound, bound] when K is odd (the
real branch of an odd root takes v < 0).  Every power v^(j/k) is then the
rational s^(K j/k), so the tape has an exact value at every such draw.  A
tape with any other radicand, such as v + 1 or a constant, is evaluated in
mpf at the default draws.

`sample_points` evaluates one compiled sequence tape at successive draws
from one seed, in one arithmetic: "exact" and "mpf" evaluate exact draws
(bound EXACT_BOUND) with `Tape.eval_exact` (on the real branch, at the int
pairs, whose rationals are built only for a point that has a value) and
`Tape.eval_mpf`, "float64" evaluates float draws with `Tape.eval_f64`.  It
yields only the points where every output has a value (and, in float64, a
finite one).  A point that raises DivisionByZero, DomainError or
OverflowError is dropped, not fatal; the caller chooses the total number of
draws and what to do when they run out.
"""

from __future__ import annotations

import math
import random

from ..errors import DivisionByZero, DomainError
from .rational import Rat
from .tape import OP_POW_FRAC, OP_VAR

DEFAULT_BOX = (-2.0, 2.0)
EXACT_BOUND = 40          # exact draws of sample_points
RESAMPLE_BUDGET = 100


def _sample_pair(rng: random.Random, lo, hi, bound):
    """Random rational n/d, as the int pair (n, d) with d > 0, not reduced:
    d uniform over [1, bound] and n uniform over [-bound, bound], or, given
    an interval, over the n with lo < n/d <= hi.

    A denominator with no such numerator is redrawn; an interval that none
    of RESAMPLE_BUDGET denominators fits is sampled at its midpoint."""
    den = rng.randint(1, bound)
    if lo is None:
        return rng.randint(-bound, bound), den
    lo, hi = Rat(lo), Rat(hi)
    if lo > hi:
        raise ValueError(f"empty sampling interval ({lo}, {hi})")
    for _ in range(RESAMPLE_BUDGET):
        lo_n = math.floor(lo * den) + 1
        hi_n = math.floor(hi * den)
        if lo_n <= hi_n:
            return rng.randint(lo_n, hi_n), den
        den = rng.randint(1, bound)
    mid = (lo + hi) / 2
    return mid.numerator, mid.denominator


def _root_pair(rng: random.Random, k: int, bound):
    """s^k for a random rational s = n/d, as the int pair (n^k, d^k): d
    uniform over [1, bound], and n uniform over [1, bound] for even k,
    over [-bound, bound] for odd k."""
    den = rng.randint(1, bound)
    return rng.randint(1 if k % 2 == 0 else -bound, bound) ** k, den ** k


def branch_ranges(tape, ranges):
    """The draws of `tape` on the real branch: `ranges` (a (lo, hi) or None
    per chart variable) with the None of each variable under a fractional
    power replaced by its root index, the lcm of the denominators of its
    exponents.  None when a fractional power has a base other than a
    variable, or a variable with a range.  A tape with no fractional power
    keeps `ranges`."""
    if not tape.exps_exact:
        return list(ranges)
    code, roots = tape.code, {}
    for op, a, b in code:
        if op == OP_POW_FRAC:
            base_op, slot, _ = code[a]
            if base_op != OP_VAR or ranges[slot] is not None:
                return None
            roots[slot] = math.lcm(roots.get(slot, 1),
                                   tape.exps_exact[b].denominator)
    return [roots.get(k, r) for k, r in enumerate(ranges)]


def draw_pairs(rng: random.Random, ranges, bound: int) -> list:
    """One exact point, a coordinate per entry of `ranges`: (lo, hi), None,
    or a root index K (an int, from `branch_ranges`) for s^K; each as an
    int pair (n, d) with d > 0, not reduced, which `Tape.eval_exact` takes
    as it is."""
    return [_root_pair(rng, r, bound) if type(r) is int
            else _sample_pair(rng, *(r or (None, None)), bound)
            for r in ranges]


def rationals(pairs) -> list:
    """The coordinates of a `draw_pairs` point as rationals."""
    return [Rat(n, d) for n, d in pairs]


def draw_exact(rng: random.Random, ranges, bound: int) -> list:
    """The point `draw_pairs` draws from `rng`, as rationals."""
    return rationals(draw_pairs(rng, ranges, bound))


def draw_float(rng: random.Random, ranges) -> list:
    """One float point, a coordinate per entry of `ranges` ((lo, hi) or None
    for DEFAULT_BOX)."""
    return [rng.uniform(*(r or DEFAULT_BOX)) for r in ranges]


def sample_points(tape, names, seed, budget: int,
                  arithmetic: str = "float64"):
    """Yield (point, values) at up to `budget` draws over the default box,
    where `point` holds a coordinate per name (the tape's variable order):
    a list of rationals, or of floats; `values` is the list of the
    sequence tape's outputs there in `arithmetic` ("exact", "mpf" or
    "float64"; float64 values are finite).  Exact draws are on the real
    branch (`branch_ranges`) where the tape has one."""
    evaluate = {"exact": tape.eval_exact,
                "mpf": tape.eval_mpf,
                "float64": tape.eval_f64}[arithmetic]
    rng = random.Random(seed)
    box = [None] * len(names)
    if arithmetic == "exact":
        box = branch_ranges(tape, box) or box
    for _ in range(budget):
        if arithmetic == "float64":
            point = draw_float(rng, box)
        elif arithmetic == "exact":
            point = draw_pairs(rng, box, EXACT_BOUND)
        else:
            point = draw_exact(rng, box, EXACT_BOUND)
        try:
            values = evaluate(point)
        except (DivisionByZero, DomainError, OverflowError):
            continue
        if arithmetic == "exact":
            yield rationals(point), values
        elif arithmetic == "mpf" or all(map(math.isfinite, values)):
            yield point, values
