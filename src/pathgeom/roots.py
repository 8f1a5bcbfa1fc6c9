"""Root-type classification of binary quadrics and quartics on the real
projective line, and the pointwise admissibility predicates built on it.

One algorithm decides the root structure: Yun's square-free decomposition by
gcd gives the multiplicities, and a Sturm sequence counts the real roots of
each square-free factor; only factors of degree >= 3 get numeric root
positions (their roots are simple, hence well conditioned).  It runs over two
number domains:

  * exact -- int or Fraction coefficients, scaled by the lcm of their
             denominators to one vector of ints and decided over Z[x]
             without rational arithmetic: gcds by primitive
             pseudo-remainder sequences (Brown, J. ACM 18, 1971), exact
             integer quotients, and Sturm chains of pseudo-remainders
             multiplied by |lc|^(d+1), which keeps their signs.  Each
             square-free factor becomes a monic Fraction polynomial only to
             place its roots; monic factors are unique, so the positions are
             those of the decomposition over Q;
  * mpf   -- mpmath floats, the values of a radical system
             (`Tape.eval_mpf`), computed at `tape.MPF_PREC` bits.  A value
             produced by a subtraction or a division step counts as zero
             when it is at most `zerotest.MPF_REL_TOL` times the scale of
             that operation: the largest |input entry| of a subtraction; the
             largest |dividend entry| or |quotient x divisor entry| of a
             division.  Root multiplicities that do not add up to the degree
             raise IllConditioned.

Float coefficients are refused with TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllConditioned
from .expr.rational import rat_pow_exact
from .expr.tape import MPF_PREC
from .expr.zerotest import MPF_REL_TOL

INF = math.inf  # the projective root [1:0]
HALF = Fraction(1, 2)

_EXACT_TYPES = (int, Fraction)


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


# -- polynomial helpers (dense, descending coefficients) ------------------------

def _trim(c):
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    return c[k:]


def _deg(c):
    return len(c) - 1


def _sturm_count(chain):
    """Distinct real roots of the first polynomial of a Sturm chain: the sign
    variations at -inf minus those at +inf."""

    def variations(at_plus_inf):
        signs = []
        for p in chain:
            lead = p[0]
            if lead == 0:
                continue
            s = 1 if lead > 0 else -1
            if not at_plus_inf and _deg(p) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


# -- the exact domain: polynomials over Z ----------------------------------------
#
# The zero polynomial is [].  A gcd or a square-free factor is primitive
# (content 1, positive leading coefficient); it stands for the monic
# polynomial over Q with the same roots, which is unique, so the factors and
# multiplicities are those of the decomposition over Q.

def _z_primitive(c):
    c = _trim(c)
    if not c:
        return c
    g = math.gcd(*c)
    if c[0] < 0:
        g = -g
    return c if g == 1 else [x // g for x in c]


def _z_deriv(c):
    n = _deg(c)
    return [c[i] * (n - i) for i in range(n)]


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


def _z_gcd(a, b):
    """The primitive gcd, by a primitive pseudo-remainder sequence."""
    while b:
        a, b = b, _z_primitive(_z_prem(a, b))
    return _z_primitive(a)


def _z_squarefree(c):
    """Yun's decomposition of a primitive c of degree >= 1: list of
    (primitive square-free factor, multiplicity)."""
    n = _deg(c)
    d = _z_deriv(c)
    g = _z_gcd(c, d)
    if _deg(g) == 0:
        return [(c, 1)]
    w = _z_quo(c, g)
    z = _z_sub(_z_quo(d, g), _z_deriv(w))
    out = []
    i = 1
    while _deg(w) > 0 and i <= n:
        gi = _z_gcd(w, z)
        if _deg(gi) > 0:
            out.append((gi, i))
        w = _z_quo(w, gi)
        z = _z_sub(_z_quo(z, gi), _z_deriv(w))
        i += 1
    return out


def _z_sturm_real_count(c):
    """Number of distinct real roots of a square-free c: each link of the
    chain is minus a pseudo-remainder over its (positive) content."""
    chain = [c, _z_deriv(c)]
    while _deg(chain[-1]) > 0:
        r = _z_prem(chain[-2], chain[-1])
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-x // g for x in r])
    return _sturm_count(chain)


def _z_factors(c):
    """(monic Fraction factor, multiplicity, real-root count or None below
    degree 3) for each square-free factor of the integer polynomial c."""
    if _deg(c) < 1:
        return []
    out = []
    for g, mult in _z_squarefree(_z_primitive(c)):
        n_real = _z_sturm_real_count(g) if _deg(g) >= 3 else None
        out.append(([Fraction(x, g[0]) for x in g], mult, n_real))
    return out


# -- the mpf domain --------------------------------------------------------------
#
# The result of a subtraction or a division step counts as zero when it is
# at most MPF_REL_TOL times the scale of that operation.

def _monic(c):
    lead = c[0]
    return [x / lead for x in c]


def _deriv(c):
    n = _deg(c)
    return _trim([c[i] * (n - i) for i in range(n)]) or [0]


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
    scale = max(max(map(abs, dividend)),
                max(map(abs, q), default=0) * max(map(abs, b)))
    rem = _zeroed(rem, MPF_REL_TOL * scale)
    return q, (_trim(rem) or [0])


def _sub_poly(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    diff = _zeroed([x - y for x, y in zip(a, b)],
                   MPF_REL_TOL * max(map(abs, a + b)))
    return _trim(diff) or [0]


def _gcd_poly(a, b):
    a, b = _trim(a) or [0], _trim(b) or [0]
    while b != [0]:
        _, r = _divmod_poly(a, b)
        a, b = b, r
    if a == [0]:
        return [1]
    return _monic(a)


def _squarefree(c):
    """Yun's decomposition: list of (monic square-free factor,
    multiplicity)."""
    c = _monic(_trim(c))
    n = _deg(c)
    if n == 0:
        return []
    d = _deriv(c)
    g = _gcd_poly(c, d)
    if _deg(g) == 0:
        return [(c, 1)]
    w, _ = _divmod_poly(c, g)
    y, _ = _divmod_poly(d, g)
    z = _sub_poly(y, _deriv(w))
    out = []
    i = 1
    while _deg(w) > 0 and i <= n:
        gi = _gcd_poly(w, z)
        if _deg(gi) > 0:
            out.append((gi, i))
        w, _ = _divmod_poly(w, gi)
        y, _ = _divmod_poly(z, gi)
        z = _sub_poly(y, _deriv(w))
        i += 1
    return out


def _sturm_real_count(c):
    """Number of distinct real roots of a square-free polynomial."""
    chain = [list(c), _deriv(c)]
    while _deg(chain[-1]) > 0:
        _, r = _divmod_poly(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append([-x for x in r])
    return _sturm_count(chain)


def _mpf_factors(c):
    """(monic factor, multiplicity, real-root count or None below degree 3)
    for each square-free factor of the mpf polynomial c."""
    return [(g, mult, _sturm_real_count(g) if _deg(g) >= 3 else None)
            for g, mult in _squarefree(c)]


# -- classification ----------------------------------------------------------------

def _roots_of_squarefree(g, n_real, exact):
    """Roots of a monic square-free factor with `n_real` real roots:
    ([(real position, 1)...], [((re, im), 1)...]).  Degree <= 2 solved
    exactly when `exact` (rational or float positions); higher degrees get
    numeric positions."""
    n = _deg(g)
    if n == 1:
        return [(-g[1] / g[0], 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        if disc > 0:
            s = rat_pow_exact(disc, HALF) if exact else None
            if s is not None:
                return [((-b - s) / (2 * a), 1), ((-b + s) / (2 * a), 1)], []
            sf = math.sqrt(disc)
            return [(float((-b - sf) / (2 * a)), 1),
                    (float((-b + sf) / (2 * a)), 1)], []
        re = -b / (2 * a)
        s = rat_pow_exact(-disc, HALF) if exact else None
        im = s / (2 * abs(a)) if s is not None else math.sqrt(-disc) / (2 * abs(float(a)))
        return [], [((re, im), 1)]
    roots = sorted(np.roots([float(x) for x in g]), key=lambda r: abs(r.imag))
    real = [(float(r.real), 1) for r in roots[:n_real]]
    # the other roots are conjugate pairs, also where float64 rounds a
    # pair's imaginary parts to zero
    rest = sorted(roots[n_real:], key=lambda r: r.imag, reverse=True)
    pairs = [((float(r.real), abs(float(r.imag))), 1)
             for r in rest[:len(rest) // 2]]
    return real, pairs


def _classify(coeffs, degree, exact):
    """Profile of the form with descending coefficients `coeffs`: ints when
    `exact`, else mpf values.  Raises IllConditioned when the multiplicities
    found do not add up to the degree, which exact arithmetic rules out."""
    c = list(coeffs)
    inf_mult = 0
    while c and c[0] == 0:
        inf_mult += 1
        c = c[1:]
    real, pairs = [], []
    if inf_mult:
        real.append((INF, inf_mult))
    for factor, mult, n_real in (_z_factors if exact else _mpf_factors)(c):
        r, cp = _roots_of_squarefree(factor, n_real, exact)
        real.extend((pos, mult) for pos, _ in r)
        pairs.extend((z, mult) for z, _ in cp)
    real.sort(key=lambda rm: (math.inf if rm[0] == INF else float(rm[0])))
    prof = RootProfile(degree=degree, zero_form=False,
                       real_roots=tuple(real), complex_pairs=tuple(pairs))
    if sum(prof.multiplicities()) != degree:
        raise IllConditioned(f"root multiplicities {prof.multiplicities()} "
                             f"do not add up to degree {degree}")
    return prof


def _classify_packed(packed, weights):
    """Profile of sum_k weights[k] packed[k] x^(n-k) y^k, exact for int and
    Fraction entries, in MPF_PREC-bit mpf when some entry is an mpf."""
    degree = len(packed) - 1
    exact = all(isinstance(v, _EXACT_TYPES) for v in packed)
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
                          for v, k in zip(packed, weights)], degree, True)
    # the weights too are applied at MPF_PREC bits, not at the context's
    with mpmath.workprec(MPF_PREC):
        return _classify([mpmath.mpf(v) * k for v, k in zip(packed, weights)],
                         degree, False)


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
