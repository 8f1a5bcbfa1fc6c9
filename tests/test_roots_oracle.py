"""`classify_quartic` and `classify_quadric` against an independent oracle:
sympy's square-free decomposition (`sqf_list`) and its real roots; and the
exact (Z[x]) and mpf arithmetic of the classifier against each other.

The forms are products of integer linear and quadratic factors, each to a
power 1 to 4, times a power of y (roots at [1:0]).  The root 0 of a
square-free factor, and a rational root of what is left of the factor when
it has degree <= 2, must come back as that exact Fraction; every other
position is compared in floating point.
"""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from pathgeom.expr.tape import MPF_PREC
from pathgeom.roots import INF, classify_quadric, classify_quartic

X = sympy.Symbol("x")

_LINEAR = st.tuples(st.integers(-5, 5).filter(bool), st.integers(-6, 6))
_QUADRATIC = st.tuples(st.integers(-4, 4).filter(bool), st.integers(-6, 6),
                       st.integers(-6, 6))


@st.composite
def _factored_forms(draw, degree):
    """(scale, [(factor coefficients, multiplicity)], multiplicity of
    [1:0]) with the factor degrees times multiplicities adding up to at
    most `degree`; the rest is the power of y."""
    factors, left = [], degree
    while left and draw(st.booleans()):
        quadratic = left >= 2 and draw(st.booleans())
        coeffs = draw(_QUADRATIC if quadratic else _LINEAR)
        fdeg = len(coeffs) - 1
        mult = draw(st.integers(1, min(4, left // fdeg)))
        factors.append((coeffs, mult))
        left -= fdeg * mult
    return draw(st.integers(-3, 3).filter(bool)), factors, left


def _rational(v):
    return Fraction(int(v.p), int(v.q))


def _position(root, exact):
    """A sympy root as the profile must report it: a Fraction when it is 0,
    or rational and its square-free factor is solved exactly, else a
    float."""
    if root == 0 or exact and root.is_Rational:
        return _rational(root)
    return float(root)


def _oracle(scale, factors, inf_mult):
    """The dense coefficients of the form and its expected real roots and
    complex pairs, each with its multiplicity, from sympy alone."""
    p = sympy.Integer(scale)
    for coeffs, mult in factors:
        p *= sympy.Poly(list(coeffs), X).as_expr() ** mult
    poly = sympy.Poly(sympy.expand(p), X)
    dense = [0] * inf_mult + [int(c) for c in poly.all_coeffs()]
    real = [(INF, inf_mult)] if inf_mult else []
    pairs = []
    _, sqf = sympy.sqf_list(poly)
    for f, mult in sqf:
        # the root 0 is split off; what is left is solved exactly up to
        # degree 2
        exact = f.degree() - (f.eval(0) == 0) <= 2
        real += [(_position(r, exact), mult) for r in f.real_roots()]
        for r in f.all_roots():
            if r.is_real:
                continue
            if exact:
                re, im = r.as_real_imag()
            else:
                z = complex(r.evalf(30))
                re, im = sympy.Float(z.real), sympy.Float(z.imag)
            if im > 0:
                pairs.append(((_position(re, exact), _position(im, exact)),
                              mult))
    return dense, real, pairs


def _same_position(got, want):
    if isinstance(want, Fraction) or want == INF:
        return type(got) is type(want) and got == want
    return isinstance(got, float) and got == pytest.approx(want, rel=1e-9,
                                                           abs=1e-9)


def _same_pair(got, want):
    return all(_same_position(a, b) for a, b in zip(got, want))


def _match(got, want, same):
    """Pair each got entry with a want entry of the same multiplicity whose
    position it matches.  Sorting both sides by float position instead can
    pair them crosswise: two complex pairs with one real part come back
    from np.roots with real parts that differ in the last bits."""
    assert len(got) == len(want), (got, want)
    left = list(want)
    for pos, mult in got:
        hit = next((k for k, (w, m) in enumerate(left)
                    if m == mult and same(pos, w)), None)
        assert hit is not None, (got, want)
        del left[hit]


def _check(profile, real, pairs):
    assert not profile.zero_form
    _match(profile.real_roots, real, _same_position)
    _match(profile.complex_pairs, pairs, _same_pair)


@settings(max_examples=200, deadline=None)
@given(_factored_forms(4))
# (x^2 + x + 1)(x^2 + x + 3): two complex pairs with real part -1/2
@example((1, [((1, 1, 1), 1), ((1, 1, 3), 1)], 0))
# x (x^2 - 1) y: the root 0 split off leaves x^2 - 1, solved exactly
@example((1, [((1, 1), 1), ((-1, 1, 0), 1)], 1))
def test_quartic_against_sympy(form):
    dense, real, pairs = _oracle(*form)
    c0, c1, c2, c3, c4 = dense
    _check(classify_quartic((c0, Fraction(c1, 4), Fraction(c2, 6),
                             Fraction(c3, 4), c4)), real, pairs)


@settings(max_examples=100, deadline=None)
@given(_factored_forms(2))
def test_quadric_against_sympy(form):
    dense, real, pairs = _oracle(*form)
    c0, c1, c2 = dense
    _check(classify_quadric((c0, Fraction(c1, 2), c2)), real, pairs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(_factored_forms))
def test_exact_and_mpf_arithmetic_give_one_profile(form):
    """One form classified from its int/Fraction packaging coefficients and
    from the same values as MPF_PREC-bit mpf, as a radical system delivers
    them: the root types, multiplicities and real roots in order agree."""
    dense, _, _ = _oracle(*form)
    n = len(dense) - 1
    packed = [Fraction(c, math.comb(n, k)) for k, c in enumerate(dense)]
    with mpmath.workprec(MPF_PREC):
        as_mpf = [mpmath.mpf(v.numerator) / v.denominator for v in packed]
    classify = classify_quartic if n == 4 else classify_quadric
    exact, numeric = classify(packed), classify(as_mpf)
    assert numeric.describe() == exact.describe()
    assert numeric.multiplicities() == exact.multiplicities()
    assert len(numeric.real_roots) == len(exact.real_roots)
    for (g, gm), (w, wm) in zip(numeric.real_roots, exact.real_roots):
        assert gm == wm
        assert (g == w == INF) or float(g) == pytest.approx(
            float(w), rel=1e-9, abs=1e-9), (numeric, exact)
