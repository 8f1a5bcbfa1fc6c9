"""Random sample points: the one place where points are drawn.

A point is drawn one coordinate per variable, each over its own (lo, hi)
range or, given None, over the default:

  * exact -- a rational n/d with d uniform over [1, bound] and n uniform
             over [-bound, bound] (or over the n with lo < n/d <= hi);
  * float -- `rng.uniform` over (lo, hi), by default over DEFAULT_BOX.

`sample_points` evaluates one compiled sequence tape at successive draws
from one seed (exact ones with bound EXACT_BOUND) and yields only the points
where every output has a value (and, in float64, a finite one).  A point
that raises DivisionByZero, DomainError or OverflowError is dropped, not
fatal; the caller chooses the total number of draws and what to do when they
run out.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..errors import DivisionByZero, DomainError
from .rational import Rat

DEFAULT_BOX = (-2.0, 2.0)
EXACT_BOUND = 40          # exact draws of sample_points
RESAMPLE_BUDGET = 100


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


def draw_exact(rng: random.Random, ranges, bound: int) -> list:
    """One exact point, a coordinate per entry of `ranges` ((lo, hi) or
    None)."""
    return [_sample_rational(rng, *(r or (None, None)), bound) for r in ranges]


def draw_float(rng: random.Random, ranges) -> list:
    """One float point, a coordinate per entry of `ranges` ((lo, hi) or None
    for DEFAULT_BOX)."""
    return [rng.uniform(*(r or DEFAULT_BOX)) for r in ranges]


def sample_points(tape, names, seed, budget: int, exact: bool = False):
    """Yield (point, values) at up to `budget` draws over the default box,
    where `point` holds a coordinate per name (the tape's variable order):
    a list of rationals, or a float64 array; `values` is the list of the
    sequence tape's outputs there, exact or finite float64."""
    rng = random.Random(seed)
    box = [None] * len(names)
    for _ in range(budget):
        if exact:
            point = draw_exact(rng, box, EXACT_BOUND)
        else:
            point = np.array(draw_float(rng, box))
        try:
            values = tape.eval_exact(point) if exact else tape.eval_f64(point)
        except (DivisionByZero, DomainError, OverflowError):
            continue
        if exact or all(math.isfinite(v) for v in values):
            yield point, values
