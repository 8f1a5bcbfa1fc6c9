"""Exact rational arithmetic on ints and `Rat`, the stdlib Fraction (an
expression constant is an int when integral): `rat_pow_exact` is the one
exact-root routine, and `real_branch_sign` is the one real-branch rule for a
fractional power of a negative base.

Three limits keep exact powers finite: a compiled integer power has an
exponent below MAX_INT_EXPONENT in absolute value; `rat_pow_exact` refuses
a power whose value could exceed 2^MAX_FOLD_BITS (so a folded constant such
as 10^400 stays cheap to build and to print); and `Tape.eval_exact` refuses
an integer power n^b of a value n/d when |b| * (bits of n + bits of d)
exceeds MAX_POWER_BITS, the size of the power's numerator and denominator
together, before computing it (so q^3000000 at a sampled point fails at
once instead of building a multi-megabit integer)."""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DivisionByZero, DomainError

Rat = Fraction

MAX_INT_EXPONENT = 2 ** 31  # a compiled integer power has |exponent| below it
MAX_FOLD_BITS = 2 ** 13     # bits of the largest exact constant power
MAX_POWER_BITS = 2 ** 16    # bits of the largest integer power at evaluation


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


def real_branch_sign(exp: Rat) -> int:
    """The sign of base**exp on the real branch at a negative base, for an
    exponent p/q in lowest terms: (-1)^p when q is odd, and 0 when q is even,
    where a negative base has no real value."""
    if exp.denominator % 2 == 0:
        return 0
    return -1 if exp.numerator % 2 else 1


def rat_pow_exact(base: Rat, exp: Rat):
    """base**exp as an exact rational (an int or a Fraction), or None when
    irrational; base and exp may be ints or Fractions.

    Raises DivisionByZero for 0**negative and DomainError for an even root
    of a negative base.  Odd roots of negatives take the real branch.
    Raises ValueError, before any arithmetic, when the numerator or the
    denominator of |base|^|exp| could exceed 2^MAX_FOLD_BITS: with m the
    larger of |numerator| and denominator, log2 m <= (m - 1).bit_length().
    """
    size = max(abs(base.numerator), base.denominator) - 1
    if abs(exp) * size.bit_length() > MAX_FOLD_BITS:
        raise ValueError(f"constant power ({base})^({exp}) too large: "
                         f"beyond 2^{MAX_FOLD_BITS}")
    if is_int(exp):
        e = int(exp)
        if e < 0:
            if base == 0:
                raise DivisionByZero("0 raised to a negative power")
            # an int base to a negative power would give a float
            return Rat(base) ** e
        return base ** e
    p, q = exp.numerator, exp.denominator
    if base == 0:
        if p < 0:
            raise DivisionByZero("0 raised to a negative power")
        return 0
    sign = 1
    if base < 0:
        sign = real_branch_sign(exp)
        if not sign:
            raise DomainError("negative base under an even root")
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
