"""Exact rational arithmetic on ints and `Rat`, the stdlib Fraction (an
expression constant is an int when integral): `rat_pow_exact` is the one
exact-root routine, and `real_branch_sign` is the one real-branch rule for a
fractional power of a negative base.

Three limits keep exact powers finite: a compiled integer power has an
exponent below MAX_INT_EXPONENT in absolute value; `rat_pow_exact` refuses
a power whose numerator or denominator exceeds 2^MAX_FOLD_BITS (so a folded
constant such as 10^400 stays cheap to build and to print); and
`Tape.eval_exact` refuses a power (n/d)^b, integer or fractional, when |b| *
(bits of n + bits of d) exceeds MAX_POWER_BITS, the size of the power's
numerator and denominator together, before computing it (so q^3000000 at a
sampled point fails at once instead of building a multi-megabit integer)."""

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
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():
        # 1 < root < 2 would be needed: 2^k > n
        return None
    if k == 2:
        root = math.isqrt(n)
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


def rat_pow_exact(base: Rat, exp: Rat, limit_bits: int = MAX_FOLD_BITS):
    """base**exp as an exact rational (an int or a Fraction), or None when
    irrational; base and exp may be ints or Fractions.

    Raises DivisionByZero for 0**negative and DomainError for an even root
    of a negative base.  Odd roots of negatives take the real branch.
    Raises ValueError when the numerator or the denominator of the value
    exceeds 2^limit_bits: 2^MAX_FOLD_BITS for a folded constant, and
    2^MAX_POWER_BITS at a sampled point (`Tape.eval_exact`).  With m the
    larger of |numerator| and denominator of the base and exp = p/q, the
    root is taken before the power, and m^(|p|/q) >= 2^((bits of m - 1)
    |p|/q) refuses a power that certainly exceeds the bound before any
    arithmetic; a power that passes has at most twice the bound's bits, so
    its exact size is checked once it is built.
    """
    p, q = exp.numerator, exp.denominator
    if base == 0:
        if p < 0:
            raise DivisionByZero("0 raised to a negative power")
        return 0 if p else 1
    sign = 1
    if base < 0:
        sign = real_branch_sign(exp)
        if not sign:
            raise DomainError("negative base under an even root")
    num, den = abs(base.numerator), base.denominator
    if p < 0:
        num, den, p = den, num, -p
    if (max(num, den).bit_length() - 1) * p > limit_bits * q:
        raise ValueError(f"constant power ({base})^({exp}) too large: "
                         f"beyond 2^{limit_bits}")
    rn, rd = _int_nth_root(num, q), _int_nth_root(den, q)
    if rn is None or rd is None:
        return None
    rn, rd = rn ** p, rd ** p
    if max(rn, rd) > 1 << limit_bits:
        raise ValueError(f"constant power ({base})^({exp}) too large: "
                         f"beyond 2^{limit_bits}")
    # an int base with an integral value stays an int
    return sign * rn if rd == 1 and type(base) is int else Rat(sign * rn, rd)
