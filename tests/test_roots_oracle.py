"""`classify_quartic` and `classify_quadric` against an independent oracle:
sympy's square-free decomposition (`sqf_list`) and its real roots.

The forms are products of integer linear and quadratic factors, each to a
power 1 to 4, times a power of y (roots at [1:0]).  A root of a square-free
factor of degree <= 2 that is rational must come back as that exact
Fraction; every other position is compared in floating point.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
    """A sympy root as the profile must report it: a Fraction when it is
    rational and its square-free factor is solved exactly, else a float."""
    return _rational(root) if exact and root.is_Rational else float(root)


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
        exact = f.degree() <= 2
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


def _key(entry):
    pos, _ = entry
    if isinstance(pos, tuple):
        return tuple(float(v) for v in pos)
    return float(pos)


def _check(profile, real, pairs):
    assert not profile.zero_form
    got_real = sorted(profile.real_roots, key=_key)
    want_real = sorted(real, key=_key)
    assert [m for _, m in got_real] == [m for _, m in want_real]
    for (g, _), (w, _) in zip(got_real, want_real):
        assert _same_position(g, w), (got_real, want_real)
    got_pairs = sorted(profile.complex_pairs, key=_key)
    want_pairs = sorted(pairs, key=_key)
    assert [m for _, m in got_pairs] == [m for _, m in want_pairs]
    for (g, _), (w, _) in zip(got_pairs, want_pairs):
        assert all(_same_position(a, b) for a, b in zip(g, w)), \
            (got_pairs, want_pairs)


@settings(max_examples=200, deadline=None)
@given(_factored_forms(4))
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
