"""Exact rational arithmetic: `Rat` is the stdlib Fraction, and
`rat_pow_exact` is the one exact-root routine."""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DivisionByZero, DomainError

Rat = Fraction
RZERO = Rat(0)
RONE = Rat(1)


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer of any size, or None."""
    if k == 2:
        root = math.isqrt(n)
    elif n < 2:
        root = n
    else:
        # integer Newton from 2^ceil(bits/k) >= the root, decreasing to the
        # floor of the root
        root = 1 << -(-n.bit_length() // k)
        while True:
            step = ((k - 1) * root + n // root ** (k - 1)) // k
            if step >= root:
                break
            root = step
    return root if root ** k == n else None


def as_rat(value) -> Rat:
    """Coerce an int, a Fraction or an exact-decimal string to a Rat."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, (int, str)):
        return Rat(value)
    raise TypeError(f"not an exact rational: {value!r}")


def is_int(q) -> bool:
    return q.denominator == 1


def rat_pow_exact(base: Rat, exp: Rat):
    """base**exp as an exact rational, or None when irrational.

    Raises DivisionByZero for 0**negative and DomainError for an even root
    of a negative base.  Odd roots of negatives take the real branch.
    """
    if is_int(exp):
        e = int(exp)
        if base == 0 and e < 0:
            raise DivisionByZero("0 raised to a negative power")
        return base ** e
    p, q = exp.numerator, exp.denominator
    if base == 0:
        if p < 0:
            raise DivisionByZero("0 raised to a negative power")
        return RZERO
    sign = 1
    if base < 0:
        if q % 2 == 0:
            raise DomainError("negative base under an even root")
        sign = -1 if p % 2 else 1
        base = -base
    num, den = base.numerator, base.denominator
    if p < 0:
        num, den, p = den, num, -p
    rn = _int_nth_root(num ** p, q)
    if rn is None:
        return None
    rd = _int_nth_root(den ** p, q)
    if rd is None:
        return None
    return Rat(sign * rn, rd)
