"""Root-type classification of binary quadrics and quartics on the real
projective line, and the pointwise admissibility predicates built on it.

Exact rational coefficients take an exact path: square-free decomposition by
gcd over Q gives multiplicities exactly, and only square-free factors of
degree >= 3 fall back to numerics (their roots are simple, hence well
conditioned).  Float coefficients use companion-matrix eigenvalues in the
better-conditioned affine chart, reconciled against the other chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllConditioned
from .expr.rational import rat_pow_exact

INF = math.inf  # the projective root [1:0]
HALF = Fraction(1, 2)

_EXACT_TYPES = (int, Fraction)


def _is_exact(values):
    return all(isinstance(v, _EXACT_TYPES) for v in values)


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


# -- exact polynomial helpers (dense, descending coefficients, Fraction) ------

def _trim(c):
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    return c[k:]


def _deg(c):
    return len(c) - 1


def _monic(c):
    lead = c[0]
    return [x / lead for x in c]


def _deriv(c):
    n = _deg(c)
    return _trim([c[i] * (n - i) for i in range(n)]) or [Fraction(0)]


def _divmod_poly(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(q)):
        f = a[i] / b[0]
        q[i] = f
        if f:
            for j in range(len(b)):
                a[i + j] -= f * b[j]
    rem = _trim(a[len(q):] if len(q) else a)
    return q, (rem or [Fraction(0)])


def _gcd_poly(a, b):
    a, b = _trim(a) or [Fraction(0)], _trim(b) or [Fraction(0)]
    while b != [0] and b != [Fraction(0)]:
        _, r = _divmod_poly(a, b)
        a, b = b, r
    if a == [Fraction(0)]:
        return [Fraction(1)]
    return _monic(a)


def _squarefree(c):
    """Yun's decomposition: list of (square-free factor, multiplicity)."""
    c = _monic(_trim(c))
    if _deg(c) == 0:
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
    while _deg(w) > 0:
        gi = _gcd_poly(w, z)
        if _deg(gi) > 0:
            out.append((gi, i))
        w, _ = _divmod_poly(w, gi)
        y, _ = _divmod_poly(z, gi)
        z = _sub_poly(y, _deriv(w))
        i += 1
    return out


def _sub_poly(a, b):
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + list(a)
    b = [Fraction(0)] * (n - len(b)) + list(b)
    return _trim([x - y for x, y in zip(a, b)]) or [Fraction(0)]


def _sturm_real_count(c):
    """Number of distinct real roots of a square-free polynomial."""
    chain = [list(c), _deriv(c)]
    while _deg(chain[-1]) > 0:
        _, r = _divmod_poly(chain[-2], chain[-1])
        if r == [Fraction(0)]:
            break
        chain.append([-x for x in r])

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


def _roots_of_squarefree(g):
    """Roots of an exact square-free factor: ([(real position, 1)...],
    [((re, im), 1)...]).  Degree <= 2 solved exactly; higher degrees get
    exact real counts (Sturm) with numeric positions."""
    n = _deg(g)
    if n == 1:
        return [(-g[1] / g[0], 1)], []
    if n == 2:
        a, b, c = g
        disc = b * b - 4 * a * c
        if disc > 0:
            s = rat_pow_exact(disc, HALF)
            if s is not None:
                return [((-b - s) / (2 * a), 1), ((-b + s) / (2 * a), 1)], []
            sf = math.sqrt(disc)
            return [(float((-b - sf) / (2 * a)), 1),
                    (float((-b + sf) / (2 * a)), 1)], []
        re = -b / (2 * a)
        s = rat_pow_exact(-disc, HALF)
        im = s / (2 * abs(a)) if s is not None else math.sqrt(-disc) / (2 * abs(float(a)))
        return [], [((re, im), 1)]
    n_real = _sturm_real_count(g)
    roots = np.roots([float(x) for x in g])
    order = np.argsort(np.abs(roots.imag))
    real = [(float(roots[i].real), 1) for i in order[:n_real]]
    complex_part = [roots[i] for i in order[n_real:] if roots[i].imag > 0]
    pairs = [((float(r.real), float(r.imag)), 1) for r in complex_part]
    return real, pairs


def _classify_exact(coeffs, degree):
    c = [Fraction(v) for v in coeffs]
    inf_mult = 0
    while c and c[0] == 0:
        inf_mult += 1
        c = c[1:]
    real, pairs = [], []
    if inf_mult:
        real.append((INF, inf_mult))
    if c and _deg(c) > 0:
        for factor, mult in _squarefree(c):
            r, cp = _roots_of_squarefree(factor)
            real.extend((pos, mult) for pos, _ in r)
            pairs.extend((z, mult) for z, _ in cp)
    real.sort(key=lambda rm: (math.inf if rm[0] == INF else float(rm[0])))
    return RootProfile(degree=degree, zero_form=False,
                       real_roots=tuple(real), complex_pairs=tuple(pairs))


# -- numeric path --------------------------------------------------------------

def _cluster(points, tol, scale):
    """Union-find clustering of complex roots at relative threshold tol."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol * max(1.0, abs(points[i]),
                                                       abs(points[j])):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


def _profile_from_chart(coeffs, tol, degree):
    """Numeric profile from one affine chart; coeffs descending, leading
    entries may be ~0 (roots at infinity in this chart)."""
    scale = max(abs(v) for v in coeffs)
    inf_mult = 0
    c = list(coeffs)
    while c and abs(c[0]) < tol * scale:
        inf_mult += 1
        c = c[1:]
    real, pairs = [], []
    if inf_mult:
        real.append((INF, inf_mult))
    if len(c) > 1:
        roots = list(np.roots(c))
        rscale = max(1.0, max(abs(r) for r in roots))
        clusters = _cluster(roots, tol, rscale)
        centers = [(sum(g) / len(g), len(g)) for g in clusters]
        used = [False] * len(centers)
        for i, (z, m) in enumerate(centers):
            if used[i]:
                continue
            if abs(z.imag) <= tol * max(1.0, abs(z)):
                real.append((z.real, m))
                used[i] = True
                continue
            mate = None
            for j in range(len(centers)):
                if j != i and not used[j] and \
                        abs(centers[j][0] - z.conjugate()) <= tol * max(1.0, abs(z)) * 10:
                    mate = j
                    break
            if mate is None or centers[mate][1] != m:
                raise IllConditioned("unpaired complex roots at this tolerance")
            used[i] = used[mate] = True
            zz = z if z.imag > 0 else centers[mate][0]
            pairs.append(((zz.real, abs(zz.imag)), m))
    real.sort(key=lambda rm: (math.inf if rm[0] == INF else rm[0]))
    return RootProfile(degree=degree, zero_form=False,
                       real_roots=tuple(real), complex_pairs=tuple(pairs))


def _classify_numeric(coeffs, tol, degree):
    vals = [float(v) for v in coeffs]
    primary_first = abs(vals[0]) >= abs(vals[-1])
    primary = vals if primary_first else vals[::-1]
    secondary = vals[::-1] if primary_first else vals

    profiles = {}
    for t in (tol, 10 * tol):
        profiles[t] = _profile_from_chart(primary, t, degree)
    if profiles[tol].multiplicities() != profiles[10 * tol].multiplicities():
        raise IllConditioned(
            f"clusterings at {tol:g} and {10 * tol:g} disagree: "
            f"{profiles[tol].multiplicities()} vs {profiles[10 * tol].multiplicities()}")
    prof = profiles[tol]
    other = _profile_from_chart(secondary, tol, degree)
    if prof.multiplicities() != other.multiplicities() or \
            len(prof.real_roots) != len(other.real_roots):
        raise IllConditioned("affine charts disagree on the root structure")
    if not primary_first:
        # positions were computed for the reversed variable: map r -> 1/r
        real = []
        for pos, m in prof.real_roots:
            if pos == INF:
                real.append((0.0, m))
            elif pos == 0.0:
                real.append((INF, m))
            else:
                real.append((1.0 / pos, m))
        real.sort(key=lambda rm: (math.inf if rm[0] == INF else rm[0]))
        pairs = []
        for (re, im), m in prof.complex_pairs:
            z = 1.0 / complex(re, im)
            pairs.append(((z.real, abs(z.imag)), m))
        prof = RootProfile(degree=degree, zero_form=False,
                           real_roots=tuple(real), complex_pairs=tuple(pairs))
    return prof


# -- public API ----------------------------------------------------------------

def classify_quartic(w, tol: float = 1e-8) -> RootProfile:
    """Root profile of W0 x^4 + 4 W1 x^3 y + 6 W2 x^2 y^2 + 4 W3 x y^3 + W4 y^4
    on RP^1 (the root [1:0] reported as INF)."""
    w = tuple(w)
    if len(w) != 5:
        raise ValueError("need the five quartic packaging coefficients")
    if all(v == 0 for v in w):
        return RootProfile(degree=4, zero_form=True)
    coeffs = (w[0], 4 * w[1], 6 * w[2], 4 * w[3], w[4])
    if _is_exact(w):
        return _classify_exact(coeffs, 4)
    return _classify_numeric(coeffs, tol, 4)


def classify_quadric(a, tol: float = 1e-8) -> RootProfile:
    """Root profile of A0 x^2 + 2 A1 x y + A2 y^2 on RP^1."""
    a = tuple(a)
    if len(a) != 3:
        raise ValueError("need the three quadric packaging coefficients")
    if all(v == 0 for v in a):
        return RootProfile(degree=2, zero_form=True)
    coeffs = (a[0], 2 * a[1], a[2])
    if _is_exact(a):
        return _classify_exact(coeffs, 2)
    return _classify_numeric(coeffs, tol, 2)


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
