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
roots are simple, hence well conditioned).  Float coefficients are refused
with TypeError.
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

    real_roots: ((position, multiplicity), ...) -- position INF for [1:0];
    complex_pairs: (((re, im), multiplicity), ...) with im > 0, each entry
    standing for the conjugate pair.  Multiplicities sum to the degree unless
    zero_form is set.
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
        if self.zero_form:
            return "zero form"
        if self.is_D_r:
            return "D_r"
        if self.is_D_c:
            return "D_c"
        parts = [f"real x{m}" if m > 1 else "real" for _, m in self.real_roots]
        parts += [f"complex pair x{m}" if m > 1 else "complex pair"
                  for _, m in self.complex_pairs]
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


def _numeric_roots(coeffs, n_real):
    """Roots of a square-free polynomial with float coefficients `coeffs`
    and `n_real` real roots, by numpy; they are simple, hence well
    conditioned."""
    roots = sorted(np.roots(coeffs), key=lambda r: abs(r.imag))
    real = [(float(r.real), 1) for r in roots[:n_real]]
    # the other roots are conjugate pairs, also where float64 rounds a
    # pair's imaginary parts to zero
    rest = sorted(roots[n_real:], key=lambda r: r.imag, reverse=True)
    pairs = [((float(r.real), abs(float(r.imag))), 1)
             for r in rest[:len(rest) // 2]]
    return real, pairs


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
    real.sort(key=lambda rm: (math.inf if rm[0] == INF else float(rm[0])))
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
    rounded from the rational -b/a and disc/a^2; higher degrees numeric."""
    n = _deg(g)
    if n == 1:
        return [(Fraction(-g[1], g[0]), 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        r = math.isqrt(abs(disc))
        if disc > 0:
            if r * r == disc:
                return [(Fraction(-b - r, 2 * a), 1),
                        (Fraction(-b + r, 2 * a), 1)], []
            re = -b / a
            sf = math.sqrt(disc / (a * a))
            return [((re - sf) / 2, 1), ((re + sf) / 2, 1)], []
        im = (Fraction(r, 2 * a) if r * r == -disc
              else math.sqrt(-disc / (a * a)) / 2)
        return [], [((Fraction(-b, 2 * a), im), 1)]
    return _numeric_roots([x / g[0] for x in g], n_real)


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
    floats, higher degrees numeric."""
    n = _deg(g)
    if n == 1:
        return [(-g[1] / g[0], 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        if disc > 0:
            sf = math.sqrt(disc)
            return [(float((-b - sf) / (2 * a)), 1),
                    (float((-b + sf) / (2 * a)), 1)], []
        im = math.sqrt(-disc) / (2 * abs(float(a)))
        return [], [((-b / (2 * a), im), 1)]
    return _numeric_roots([float(x) for x in g], n_real)


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
