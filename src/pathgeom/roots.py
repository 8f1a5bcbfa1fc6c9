"""Root-type classification of binary quadrics and quartics on the real
projective line, and the pointwise admissibility predicates built on it.

One algorithm decides the root structure: Yun's square-free decomposition by
gcd gives the multiplicities, and a Sturm sequence counts the real roots of
each square-free factor of degree >= 3.  It is written once; a number domain
enters only through a table (`_Domain`) of its arithmetic and root placement:

  * `_Z`   -- int or Fraction coefficients, scaled by the lcm of their
              denominators to one vector of ints and decided over Z[x]
              without rational arithmetic: primitive normalisation, gcds by
              primitive pseudo-remainder sequences (Brown, J. ACM 18, 1971),
              exact integer quotients, and Sturm links -prem/content, whose
              pseudo-remainders are multiplied by |lc|^(d+1) and so keep their
              signs.  Degree-1 and degree-2 factors are solved from their
              integer discriminant: one Fraction per rational position,
              floats otherwise;
  * `_MPF` -- mpmath floats, the values of a radical system
              (`Tape.eval_mpf`), computed at `tape.MPF_PREC` bits: monic
              normalisation, division and subtraction whose results count as
              zero at most `zerotest.MPF_REL_TOL` times the scale of the
              operation, and Sturm links -rem.  Root multiplicities that do
              not add up to the degree raise IllConditioned.

Factors of degree >= 3 get numeric root positions in either domain (their
roots are simple, hence well conditioned); in `_Z`, the root 0 of a zero
constant term is split off first as the exact Fraction(0), and where a
float ratio of the coefficients would overflow or underflow to 0.0 the
positions come from the companion matrix in mpf instead (`_wide_roots`).
Float coefficients are refused with TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import IllConditioned
from .expr.tape import MPF_PREC
from .expr.zerotest import MPF_REL_TOL

INF = math.inf  # the projective root [1:0]

@dataclass(frozen=True)
class RootProfile:
    """Roots of a binary form on RP^1 with multiplicities.

    real_roots: ((position, multiplicity), ...) ascending, INF for [1:0];
    complex_pairs: (((re, im), multiplicity), ...) with im > 0, each entry
    standing for the conjugate pair.  Multiplicities sum to the degree unless
    zero_form is set.  With exact coefficients, a linear or quadratic
    factor's rational roots, and re = -b/2a and a rational im of its pair,
    are Fractions at any size, as is the root 0 of any factor; other values
    are floats, or MPF_PREC-bit mpfs beyond float range.  With mpf ones a
    linear factor's root is mpf, and a quadratic factor's positions are
    floats, or mpfs beyond float range.
    """

    degree: int
    zero_form: bool
    real_roots: tuple = ()
    complex_pairs: tuple = ()

    def multiplicities(self):
        ms = [m for _, m in self.real_roots]
        ms.extend(m for _, m in self.complex_pairs for _ in range(2))
        return tuple(sorted(ms, reverse=True))

    @property
    def distinct_real_count(self):
        return len(self.real_roots)

    @property
    def max_multiplicity(self):
        ms = self.multiplicities()
        return ms[0] if ms else 0

    @property
    def has_repeated_root(self):
        return self.max_multiplicity > 1

    @property
    def is_D_r(self):
        """Two distinct real roots, each of multiplicity two."""
        return (not self.zero_form and not self.complex_pairs
                and len(self.real_roots) == 2
                and all(m == 2 for _, m in self.real_roots))

    @property
    def is_D_c(self):
        """A non-real conjugate pair of multiplicity two."""
        return (not self.zero_form and not self.real_roots
                and len(self.complex_pairs) == 1
                and self.complex_pairs[0][1] == 2)

    def describe(self):
        """The root type, read from the multiplicities alone (each kind in
        descending order): the positions, and so their order, depend on
        the chart."""
        if self.zero_form:
            return "zero form"
        if self.is_D_r:
            return "D_r"
        if self.is_D_c:
            return "D_c"
        real = sorted((m for _, m in self.real_roots), reverse=True)
        pairs = sorted((m for _, m in self.complex_pairs), reverse=True)
        parts = [f"real x{m}" if m > 1 else "real" for m in real]
        parts += [f"complex pair x{m}" if m > 1 else "complex pair"
                  for m in pairs]
        return ", ".join(parts) if parts else "no roots"


# -- the one algorithm (dense polynomials, descending coefficients) ------------
#
# The zero polynomial is [].  Each number domain supplies its arithmetic in a
# `_Domain` table; the functions below run unchanged over either.

class _Domain(NamedTuple):
    normal: Callable  # (c) -> the canonical gcd or square-free factor of c
    rem: Callable     # (a, b) -> the next remainder of a gcd sequence
    quo: Callable     # (a, b) -> a / b, for b dividing a
    sub: Callable     # (a, b) -> a - b
    link: Callable    # (a, b) -> the Sturm chain entry after a, b
    place: Callable   # (factor, n_real) -> (real roots, complex pairs)


def _trim(c):
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    return c[k:]


def _deg(c):
    return len(c) - 1


def _deriv(c):
    n = _deg(c)
    return [c[i] * (n - i) for i in range(n)]


def _gcd(dom, a, b):
    """The canonical gcd, by a remainder sequence."""
    while b:
        a, b = b, dom.rem(a, b)
    return dom.normal(a)


def _squarefree(dom, c):
    """Yun's decomposition of a canonical c of degree >= 1: list of
    (canonical square-free factor, multiplicity)."""
    n = _deg(c)
    d = _deriv(c)
    g = _gcd(dom, c, d)
    if _deg(g) == 0:
        return [(c, 1)]
    w = dom.quo(c, g)
    z = dom.sub(dom.quo(d, g), _deriv(w))
    out = []
    i = 1
    while _deg(w) > 0 and i <= n:
        gi = _gcd(dom, w, z)
        if _deg(gi) > 0:
            out.append((gi, i))
        w = dom.quo(w, gi)
        z = dom.sub(dom.quo(z, gi), _deriv(w))
        i += 1
    return out


def _sturm_real_count(dom, c):
    """Number of distinct real roots of a square-free c: the sign variations
    of its Sturm chain at -inf minus those at +inf."""
    chain = [c, _deriv(c)]
    while _deg(chain[-1]) > 0:
        r = dom.link(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)

    def variations(at_plus_inf):
        signs = []
        for p in chain:
            s = 1 if p[0] > 0 else -1
            if not at_plus_inf and _deg(p) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def _numeric_roots(roots, n_real, position=float):
    """(real roots, complex pairs) of a square-free polynomial with `n_real`
    real roots from its numeric `roots`, each value made a `position`; they
    are simple, hence well conditioned."""
    roots = sorted(roots, key=lambda r: abs(r.imag))
    real = [(position(r.real), 1) for r in roots[:n_real]]
    # the other roots are conjugate pairs, also where rounding makes a
    # pair's imaginary parts zero
    rest = sorted(roots[n_real:], key=lambda r: r.imag, reverse=True)
    pairs = [((position(r.real), abs(position(r.imag))), 1)
             for r in rest[:len(rest) // 2]]
    return real, pairs


def _exact(pos):
    """A position to compare exactly with the others: an mpf as a Fraction."""
    if not hasattr(pos, "man_exp"):
        return pos
    man, exp = pos.man_exp  # |pos| = man 2^exp
    return (-man if pos < 0 else man) * Fraction(2) ** exp


def _classify(coeffs, degree, dom):
    """Profile of the form with descending coefficients `coeffs` in the
    domain `dom`.  Raises IllConditioned when the multiplicities found do
    not add up to the degree, which exact arithmetic rules out."""
    c = _trim(coeffs)
    real = [(INF, len(coeffs) - len(c))] if len(c) < len(coeffs) else []
    pairs = []
    factors = _squarefree(dom, dom.normal(c)) if _deg(c) >= 1 else []
    for factor, mult in factors:
        n_real = _sturm_real_count(dom, factor) if _deg(factor) >= 3 else None
        r, cp = dom.place(factor, n_real)
        real.extend((pos, mult) for pos, _ in r)
        pairs.extend((z, mult) for z, _ in cp)
    real.sort(key=lambda rm: _exact(rm[0]))
    prof = RootProfile(degree=degree, zero_form=False,
                       real_roots=tuple(real), complex_pairs=tuple(pairs))
    if sum(prof.multiplicities()) != degree:
        raise IllConditioned(f"root multiplicities {prof.multiplicities()} "
                             f"do not add up to degree {degree}")
    return prof


# -- the exact domain: polynomials over Z ----------------------------------------
#
# A gcd or a square-free factor is primitive (content 1, positive leading
# coefficient); it stands for the monic polynomial over Q with the same
# roots, which is unique, so the factors and multiplicities are those of the
# decomposition over Q.

def _z_primitive(c):
    if not c:
        return c
    g = math.gcd(*c)
    if c[0] < 0:
        g = -g
    return c if g == 1 else [x // g for x in c]


def _z_sub(a, b):
    k = len(a) - len(b)
    if k >= 0:
        diff = a[:k] + [x - y for x, y in zip(a[k:], b)]
    else:
        diff = [-y for y in b[:-k]] + [x - y for x, y in zip(a, b[-k:])]
    return _trim(diff)


def _z_prem(a, b):
    """|lc(b)|^(deg a - deg b + 1) a mod b: a pseudo-remainder with the sign
    of the remainder over Q."""
    lead = b[0]
    m, s = abs(lead), (1 if lead > 0 else -1)
    r = list(a)
    steps = len(a) - len(b) + 1
    for i in range(steps):
        f = r[i] * s
        if m != 1:
            for j in range(i + 1, len(r)):
                r[j] *= m
        if f:
            for j in range(1, len(b)):
                r[i + j] -= f * b[j]
    return _trim(r[max(steps, 0):])


def _z_quo(a, b):
    """a / b for a primitive b that divides a over Q; by Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    r = list(a)
    lead = b[0]
    q = []
    for i in range(len(a) - len(b) + 1):
        f = r[i] // lead
        q.append(f)
        if f:
            for j in range(1, len(b)):
                r[i + j] -= f * b[j]
    return q


def _z_sturm_link(a, b):
    """Minus the pseudo-remainder over its (positive) content, which keeps
    the sign of the remainder over Q."""
    r = _z_prem(a, b)
    g = math.gcd(*r)
    return [-x // g for x in r]


def _z_place(g, n_real):
    """Roots of a primitive square-free factor: degrees 1 and 2 from its
    integer discriminant, one Fraction per rational position and floats
    from the rationals b/a, c/a and disc/a^2 rounded; higher degrees
    numeric, after splitting off the exact root 0 of a zero constant term.
    Where a float ratio leaves float range, the roots come from
    `_wide_roots`."""
    n = _deg(g)
    if n == 1:
        return [(Fraction(-g[1], g[0]), 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        r = math.isqrt(abs(disc))
        if r * r == disc:
            return [(Fraction(-b - r, 2 * a), 1),
                    (Fraction(-b + r, 2 * a), 1)], []
        if r * r == -disc:
            return [], [((Fraction(-b, 2 * a), Fraction(r, 2 * a)), 1)]
        n_real = 2 if disc > 0 else 0
    elif g[-1] == 0:
        # x divides the square-free g once
        real, pairs = _z_place(g[:-1], n_real - 1)
        return real + [(Fraction(0), 1)], pairs
    try:
        if n > 2:
            return _numeric_roots(np.roots([_ratio(x, g[0]) for x in g]),
                                  n_real)
        if disc > 0:
            # B and sign(B) sqrt(D) have one sign: the root q has no
            # cancellation, and neither has the other root (c/a)/q
            B = _ratio(b, a)
            q = -(B + math.copysign(math.sqrt(_ratio(disc, a * a)), B)) / 2
            return [(q, 1), (_ratio(_ratio(c, a), q), 1)], []
        return [], [((Fraction(-b, 2 * a),
                      math.sqrt(_ratio(-disc, a * a)) / 2), 1)]
    except OverflowError:
        real, pairs = _wide_roots(g, n_real)
        if n == 2 and disc < 0:  # re = -b/2a stays exact
            pairs = [((Fraction(-b, 2 * a), pairs[0][0][1]), 1)]
        return real, pairs


def _ratio(x, y) -> float:
    """x / y as a float; OverflowError where it leaves float range: inf, or
    0.0 for a nonzero x."""
    q = x / y
    if math.isinf(q) or x and not q:
        raise OverflowError("ratio beyond float range")
    return q


def _wide_roots(g, n_real):
    """Roots of an integer square-free factor as eigenvalues of its companion
    matrix, at MPF_PREC + 2B bits for B the largest coefficient bit length:
    nonzero roots lie within 2^(B+1) of 1 either way and move by about
    2^(B - prec).  Positions as `_position` makes them."""
    import mpmath

    n = _deg(g)
    with mpmath.workprec(MPF_PREC + 2 * max(abs(x).bit_length() for x in g)):
        companion = mpmath.matrix([[mpmath.mpf(-x) / g[0] for x in g[1:]]] + [
            [int(i == j) for i in range(n)] for j in range(n - 1)])
        roots = mpmath.eig(companion, left=False, right=False)

    with mpmath.workprec(MPF_PREC):
        return _numeric_roots(roots, n_real, _position)


def _position(x):
    """An mpf position as a float, unless float64 makes it inf or 0: then
    as an mpf at the working precision."""
    f = float(x)
    return f if math.isfinite(f) and bool(f) == bool(x) else +x


_Z = _Domain(normal=_z_primitive,
             rem=lambda a, b: _z_primitive(_z_prem(a, b)),
             quo=_z_quo, sub=_z_sub, link=_z_sturm_link, place=_z_place)


# -- the mpf domain --------------------------------------------------------------
#
# A gcd or a square-free factor is monic.  The result of a subtraction or a
# division step counts as zero when it is at most MPF_REL_TOL times the scale
# of that operation: the largest |input entry| of a subtraction; the largest
# |dividend entry| or |quotient x divisor entry| of a division.

def _monic(c):
    lead = c[0]
    return [x / lead for x in c]


def _zeroed(values, threshold):
    return [0 if abs(v) <= threshold else v for v in values]


def _divmod_poly(a, b):
    dividend, a = a, list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(q)):
        f = a[i] / b[0]
        q[i] = f
        if f:
            for j in range(len(b)):
                a[i + j] -= f * b[j]
    rem = a[len(q):] if q else a
    scale = max(max(map(abs, dividend), default=0),
                max(map(abs, q), default=0) * max(map(abs, b)))
    return q, _trim(_zeroed(rem, MPF_REL_TOL * scale))


def _mpf_sub(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    diff = _zeroed([x - y for x, y in zip(a, b)],
                   MPF_REL_TOL * max(map(abs, a + b), default=0))
    return _trim(diff)


def _mpf_place(g, n_real):
    """Roots of a monic square-free factor: degree 1 as an mpf, degree 2 as
    `_position` makes them, higher degrees numeric."""
    import mpmath

    n = _deg(g)
    if n == 1:
        return [(-g[1] / g[0], 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        if disc > 0:
            # b and sign(b) sqrt(disc) have one sign: q has no cancellation,
            # and neither has the smaller root c/q
            q = -(b + (1 if b >= 0 else -1) * mpmath.sqrt(disc)) / 2
            return [(_position(q / a), 1), (_position(c / q), 1)], []
        im = mpmath.sqrt(-disc) / (2 * abs(a))
        return [], [((-b / (2 * a), _position(im)), 1)]
    return _numeric_roots(np.roots([float(x) for x in g]), n_real)


_MPF = _Domain(normal=_monic,
               rem=lambda a, b: _divmod_poly(a, b)[1],
               quo=lambda a, b: _divmod_poly(a, b)[0],
               sub=_mpf_sub,
               link=lambda a, b: [-x for x in _divmod_poly(a, b)[1]],
               place=_mpf_place)


# -- classification ----------------------------------------------------------------

def _classify_packed(packed, weights):
    """Profile of sum_k weights[k] packed[k] x^(n-k) y^k, exact for int and
    Fraction entries, in MPF_PREC-bit mpf when some entry is an mpf."""
    degree = len(packed) - 1
    exact = all(isinstance(v, (int, Fraction)) for v in packed)
    if not exact:
        import mpmath

        if not all(isinstance(v, (int, mpmath.mpf)) for v in packed):
            raise TypeError("coefficients must be exact rationals or mpf "
                            "values")
    if all(v == 0 for v in packed):
        return RootProfile(degree=degree, zero_form=True)
    if exact:
        # one integer vector: the weighted coefficients times the lcm of
        # their denominators
        scale = math.lcm(*(v.denominator for v in packed))
        return _classify([v.numerator * (scale // v.denominator) * k
                          for v, k in zip(packed, weights)], degree, _Z)
    # the weights too are applied at MPF_PREC bits, not at the context's
    with mpmath.workprec(MPF_PREC):
        return _classify([mpmath.mpf(v) * k for v, k in zip(packed, weights)],
                         degree, _MPF)


# -- public API ----------------------------------------------------------------

def classify_quartic(w) -> RootProfile:
    """Root profile of W0 x^4 + 4 W1 x^3 y + 6 W2 x^2 y^2 + 4 W3 x y^3 + W4 y^4
    on RP^1 (the root [1:0] reported as INF)."""
    w = tuple(w)
    if len(w) != 5:
        raise ValueError("need the five quartic packaging coefficients")
    return _classify_packed(w, (1, 4, 6, 4, 1))


def classify_quadric(a) -> RootProfile:
    """Root profile of A0 x^2 + 2 A1 x y + A2 y^2 on RP^1."""
    a = tuple(a)
    if len(a) != 3:
        raise ValueError("need the three quadric packaging coefficients")
    return _classify_packed(a, (1, 2, 1))


@dataclass(frozen=True)
class AdmissibilityFlags:
    """Pointwise admissibility of the four constructions, decided from the
    root types of the curvature quartic and torsion quadric."""

    chain_2Dpath: bool
    chain_CR: bool
    dancing: bool
    freestyling: bool

    def as_dict(self):
        return {"chain_2Dpath": self.chain_2Dpath, "chain_CR": self.chain_CR,
                "dancing": self.dancing, "freestyling": self.freestyling}


def admissibility(quartic_profile: RootProfile,
                  quadric_profile: RootProfile) -> AdmissibilityFlags:
    q4, q2 = quartic_profile, quadric_profile
    quadric_two_real = (not q2.zero_form and q2.distinct_real_count == 2
                        and q2.max_multiplicity == 1)
    quadric_ok = q2.zero_form or quadric_two_real
    quartic_two_real = q4.distinct_real_count >= 2 and not q4.zero_form
    return AdmissibilityFlags(
        chain_2Dpath=q4.is_D_r,
        chain_CR=q4.is_D_c,
        dancing=quadric_ok and quartic_two_real and not q4.has_repeated_root,
        freestyling=quadric_ok and quartic_two_real and q4.max_multiplicity <= 2,
    )
