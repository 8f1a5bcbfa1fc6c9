import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from pathgeom.expr.tape import MPF_PREC
from pathgeom.roots import (INF, admissibility, classify_quadric,
                            classify_quartic)


def expand_quartic(real_roots, complex_pairs, scale=Fraction(1), inf_mult=0):
    """Exact coefficients of scale * prod (x - r)^m * prod (x^2 - 2a x + a^2+b^2)^m,
    homogenized with inf_mult factors of y (roots at [1:0])."""
    coeffs = [scale]
    for r, m in real_roots:
        for _ in range(m):
            coeffs = [c for c in coeffs] + [Fraction(0)]
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] -= Fraction(r) * coeffs[i - 1]
    for (a, b), m in complex_pairs:
        quad = [Fraction(1), -2 * Fraction(a), Fraction(a) ** 2 + Fraction(b) ** 2]
        for _ in range(m):
            new = [Fraction(0)] * (len(coeffs) + 2)
            for i, c in enumerate(coeffs):
                for j, qc in enumerate(quad):
                    new[i + j] += c * qc
            coeffs = new
    coeffs = [Fraction(0)] * inf_mult + coeffs
    assert len(coeffs) == 5
    c0, c1, c2, c3, c4 = coeffs
    return (c0, c1 / 4, c2 / 6, c3 / 4, c4)


class TestQuarticExamples:
    def test_six_x2_y2_is_D_r(self):
        prof = classify_quartic((0, 0, 1, 0, 0))
        assert prof.is_D_r
        assert {r for r, _ in prof.real_roots} == {Fraction(0), INF}

    def test_complex_double_pair_is_D_c(self):
        prof = classify_quartic((1, 0, Fraction(1, 3), 0, 1))
        assert prof.is_D_c
        ((re, im), mult), = prof.complex_pairs
        assert (re, im, mult) == (0, 1, 2)

    def test_four_distinct_real(self):
        w = expand_quartic([(0, 1), (1, 1), (-1, 1)], [], inf_mult=1)
        prof = classify_quartic(w)
        assert prof.distinct_real_count == 4
        assert not prof.has_repeated_root

    def test_zero_form(self):
        assert classify_quartic((0, 0, 0, 0, 0)).zero_form

    @pytest.mark.parametrize("real, inf_mult", [
        ([(-1, 2), (0, 1), (1, 1)], 0),
        ([(-1, 1), (0, 2), (1, 1)], 0),
        ([(-1, 1), (0, 1), (1, 2)], 0),
        ([(-1, 1), (1, 1)], 2)])   # the double root at [1:0]
    def test_type_does_not_depend_on_which_root_is_double(self, real,
                                                          inf_mult):
        w = expand_quartic(real, [], inf_mult=inf_mult)
        assert classify_quartic(w).describe() == "real x2, real, real"


class TestQuadricExamples:
    def test_two_distinct_real(self):
        prof = classify_quadric((1, 0, -1))
        assert prof.distinct_real_count == 2
        assert prof.max_multiplicity == 1

    def test_conjugate_pair(self):
        prof = classify_quadric((1, 0, 1))
        assert not prof.real_roots
        assert len(prof.complex_pairs) == 1

    def test_zero(self):
        assert classify_quadric((0, 0, 0)).zero_form

    def test_root_at_infinity(self):
        prof = classify_quadric((0, Fraction(1, 2), 1))
        assert prof.distinct_real_count == 2
        assert any(r == INF for r, _ in prof.real_roots)


class TestExactPath:
    def test_double_rational_roots(self):
        w = expand_quartic([(Fraction(1, 3), 2), (-2, 2)], [])
        prof = classify_quartic(w)
        assert prof.is_D_r
        positions = {r for r, _ in prof.real_roots}
        assert positions == {Fraction(1, 3), Fraction(-2)}

    def test_triple_root(self):
        w = expand_quartic([(1, 3), (4, 1)], [])
        prof = classify_quartic(w)
        assert prof.multiplicities() == (3, 1)

    def test_irrational_double_pair(self):
        # (x^2 - 2)^2: double roots at +-sqrt(2)
        w = (1, 0, Fraction(-2, 3), 0, 4)
        prof = classify_quartic(w)
        assert prof.is_D_r
        got = sorted(float(r) for r, _ in prof.real_roots)
        assert abs(got[0] + math.sqrt(2)) < 1e-10
        assert abs(got[1] - math.sqrt(2)) < 1e-10

    def test_complex_pair_closer_to_the_axis_than_float_resolution(self):
        # (x - 1/2)^2 (x - 3) (x + 1) - 10^-20: the double root becomes a
        # conjugate pair with imaginary parts ~1e-10, which float64 root
        # positions round onto the real axis
        w = list(expand_quartic([(Fraction(1, 2), 2), (3, 1), (-1, 1)], []))
        w[4] -= Fraction(1, 10 ** 20)
        for coeffs in (w, as_mpf(w)):
            prof = classify_quartic(coeffs)
            assert prof.distinct_real_count == 2
            assert len(prof.complex_pairs) == 1

    @pytest.mark.parametrize("w, n_real", [
        ((1, 0, 0, 2, 0), 2),                   # x^4 + 8 x y^3
        ((1, 0, 0, Fraction(1, 4), -1), 2),     # x^4 + x y^3 - y^4
        ((1, 0, 0, Fraction(1, 4), 1), 0),      # x^4 + x y^3 + y^4
        ((-1, 0, 0, Fraction(-1, 4), 1), 2),
    ])
    def test_sturm_chain_with_a_degree_gap(self, w, n_real):
        # the chain of x^4 + b x + c drops from degree 3 to 1, so its next
        # pseudo-remainder takes an odd power of a leading coefficient whose
        # sign is -sign(b)
        prof = classify_quartic(w)
        assert prof.distinct_real_count == n_real
        assert prof.multiplicities() == (1, 1, 1, 1)

    def test_irrational_roots_whose_float_intermediates_overflow(self):
        # x^2 + 2 10^200 x + 1: both roots are floats, disc/a^2 is not
        prof = classify_quadric((1, 10 ** 200, 1))
        (low, _), (high, _) = prof.real_roots
        assert type(low) is type(high) is float
        assert low == pytest.approx(-2e200, rel=1e-12)
        assert high == pytest.approx(-5e-201, rel=1e-12)
        # x^2 + 2 x + 10^400: the pair -1 +- sqrt(10^400 - 1) i
        (re, im), mult = classify_quadric((1, 1, 10 ** 400)).complex_pairs[0]
        assert (re, mult) == (Fraction(-1), 1)
        assert im == pytest.approx(1e200, rel=1e-12)

    def test_positions_beyond_float_range(self):
        # exact rational roots 1 and 10^400, sorted without a float
        prof = classify_quadric((1, Fraction(-(10 ** 400 + 1), 2), 10 ** 400))
        assert prof.real_roots == ((Fraction(1), 1), (Fraction(10 ** 400), 1))
        # x^2 + 2 10^400 x + 1: roots near -2 10^400 and -5 10^-401, which
        # float64 cannot hold, as MPF_PREC-bit mpfs
        prof = classify_quadric((1, 10 ** 400, 1))
        (low, _), (high, _) = prof.real_roots
        for pos in (low, high):
            assert isinstance(pos, mpmath.mpf)
            assert pos.man_exp[0].bit_length() <= MPF_PREC
        with mpmath.workprec(MPF_PREC):
            assert abs(low / (-2 * mpmath.mpf(10) ** 400) - 1) < 2 ** -250
            assert abs(high / (-5 * mpmath.mpf(10) ** -401) - 1) < 2 ** -250

    def test_small_irrational_root_keeps_its_digits(self):
        # x^2 + 2 10^8 x + 3: -b/2a and sqrt(disc)/2a cancel in the root
        # near -1.5e-8, which (c/a)/q places
        (low, _), (high, _) = classify_quadric((1, 10 ** 8, 3)).real_roots
        assert low == pytest.approx(-2e8, rel=1e-12)
        assert high == pytest.approx(-1.5e-8, rel=1e-12)

    def test_zero_root_and_ratios_that_underflow(self):
        # 10^400 x^4 - x^2 + x: the root 0 is exact; the ratios -1/10^400
        # and 1/10^400 of the cubic left are 0.0 in float64, so its roots,
        # the cube roots of -10^-400, come from the companion matrix
        prof = classify_quartic((10 ** 400, 0, Fraction(-1, 6),
                                 Fraction(1, 4), 0))
        (low, m1), (zero, m2) = prof.real_roots
        assert (m1, m2) == (1, 1)
        assert type(zero) is Fraction and zero == 0
        size = 10 ** (-400 / 3)
        assert low == pytest.approx(-size, rel=1e-12)
        [((re, im), m)] = prof.complex_pairs
        assert m == 1
        assert re == pytest.approx(size / 2, rel=1e-12)
        assert im == pytest.approx(size * math.sqrt(3) / 2, rel=1e-12)
        # 10^400 x^2 + x - 1: -b/a underflows; the roots are near +-10^-200
        (low, _), (high, _) = classify_quadric((10 ** 400, Fraction(1, 2),
                                                -1)).real_roots
        assert low == pytest.approx(-1e-200, rel=1e-12)
        assert high == pytest.approx(1e-200, rel=1e-12)

    def test_mixed_complex(self):
        w = expand_quartic([], [((Fraction(1, 2), Fraction(3, 2)), 1),
                                ((0, 1), 1)])
        prof = classify_quartic(w)
        assert len(prof.complex_pairs) == 2
        assert not prof.real_roots


def as_mpf(w):
    """Rational coefficients as 256-bit mpf values, as `Tape.eval_mpf`
    returns them (outside its precision context)."""
    with mpmath.workprec(MPF_PREC):
        return [mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator
                for v in w]


class TestNumericPath:
    def test_double_root_detected(self):
        w = as_mpf(expand_quartic([(Fraction(1, 2), 2), (3, 1), (-1, 1)], []))
        prof = classify_quartic(w)
        assert prof.multiplicities() == (2, 1, 1)
        assert any(abs(r - 0.5) < 1e-20 and m == 2 for r, m in prof.real_roots)

    def test_complex_pairs(self):
        prof = classify_quartic(as_mpf((1, 0, Fraction(5, 6), 0, 4)))
        assert len(prof.complex_pairs) == 2

    def test_root_at_infinity_numeric(self):
        w = as_mpf(expand_quartic([(2, 1), (5, 1)], [], inf_mult=2))
        prof = classify_quartic(w)
        assert any(r == INF and m == 2 for r, m in prof.real_roots)

    def test_close_roots_stay_distinct(self):
        # roots 3e-8 apart are far above the 1e-30 relative zero threshold
        w = as_mpf(expand_quartic([(1, 1), (Fraction(10 ** 8 + 3, 10 ** 8), 1),
                                   (5, 1), (-3, 1)], []))
        prof = classify_quartic(w)
        assert prof.multiplicities() == (1, 1, 1, 1)
        assert prof.distinct_real_count == 4

    def test_quadric_roots_far_apart(self):
        # x^2 + 2 10^200 x + 1 in mpf: the smaller root keeps its digits
        prof = classify_quadric(as_mpf((1, 10 ** 200, 1)))
        (low, _), (high, _) = prof.real_roots
        assert low == pytest.approx(-2e200, rel=1e-12)
        assert high == pytest.approx(-5e-201, rel=1e-12)
        # roots near -2 10^400 and -5 10^-401, and the pair +-10^350 i,
        # beyond float range: as mpfs
        with mpmath.workprec(MPF_PREC):
            big = mpmath.mpf(10) ** 400
            (low, _), (high, _) = classify_quadric(
                [mpmath.mpf(1), big, mpmath.mpf(1)]).real_roots
            assert abs(low / (-2 * big) - 1) < 2 ** -250
            assert abs(high / (-5 / (10 * big)) - 1) < 2 ** -250
            [((re, im), _)] = classify_quadric(
                [mpmath.mpf(1), mpmath.mpf(0), big ** 2]).complex_pairs
            assert re == 0 and abs(im / big - 1) < 2 ** -250

    def test_float_coefficients_refused(self):
        with pytest.raises(TypeError):
            classify_quartic((1.0, 0.0, 5 / 6, 0.0, 4.0))
        with pytest.raises(TypeError):
            classify_quadric((1.0, 0.0, -1.0))


class TestProperties:
    def test_scaling_invariance(self):
        rng = random.Random(1)
        for k in range(40):
            w = expand_quartic([(rng.randint(-5, 5), 1)],
                               [((rng.randint(-3, 3), rng.randint(1, 3)), 1)],
                               inf_mult=1)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * \
                rng.choice([-1, 1])
            a = classify_quartic(w)
            b = classify_quartic(tuple(lam * v for v in w))
            assert a.multiplicities() == b.multiplicities()
            assert len(a.real_roots) == len(b.real_roots)

    def test_gl2_equivariance(self):
        rng = random.Random(2)
        for _ in range(20):
            roots = rng.sample(range(-8, 9), 3)
            mults = [2, 1, 1]
            w = expand_quartic(list(zip(roots, mults)), [])
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            transformed = _substitute_gl2(w, a, b, c, d)
            p1 = classify_quartic(w)
            p2 = classify_quartic(transformed)
            assert p1.multiplicities() == p2.multiplicities()
            # root positions move by the inverse Moebius map
            # [r:1] is a root of q(x, y) iff [r~:1] with (a r~ + b)/(c r~ + d) = r
            # is a root of q(ax+by, cx+dy)
            moved = set()
            for r, m in p1.real_roots:
                if r == INF:
                    img = (Fraction(-d, c) if c else INF)
                else:
                    den = a - c * Fraction(r)
                    img = (Fraction(d * Fraction(r) - b, den) if den else INF)
                moved.add((img, m))
            assert moved == {(r, m) for r, m in p2.real_roots}

    def test_round_trip_multiplicities(self):
        rng = random.Random(3)
        for k in range(80):
            prof_in, w, _, _ = _random_factored_quartic(rng)
            prof = classify_quartic(w)
            assert prof.multiplicities() == prof_in


def _substitute_gl2(w, a, b, c, d):
    """Coefficients of q(a x + b y, c x + d y) for the packaged quartic q."""
    c0, c1, c2, c3, c4 = (w[0], 4 * w[1], 6 * w[2], 4 * w[3], w[4])
    mono = [Fraction(v) for v in (c0, c1, c2, c3, c4)]
    out = [Fraction(0)] * 5
    for k, coeff in enumerate(mono):      # term x^(4-k) y^k
        # (a x + b y)^(4-k) (c x + d y)^k
        poly = [Fraction(1)]
        for _ in range(4 - k):
            poly = _mul_lin(poly, a, b)
        for _ in range(k):
            poly = _mul_lin(poly, c, d)
        for i, v in enumerate(poly):
            out[i] += coeff * v
    return (out[0], out[1] / 4, out[2] / 6, out[3] / 4, out[4])


def _mul_lin(poly, u, v):
    new = [Fraction(0)] * (len(poly) + 1)
    for i, cval in enumerate(poly):
        new[i] += cval * u
        new[i + 1] += cval * v
    return new


def _random_factored_quartic(rng):
    pattern = rng.choice(["1111", "211", "22", "31", "4",
                          "c11", "c2", "cc", "c^2"])
    real, cpx = [], []
    pool = []
    while len(pool) < 6:
        cand = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if cand not in pool:
            pool.append(cand)
    if pattern == "1111":
        real = [(pool[i], 1) for i in range(4)]
    elif pattern == "211":
        real = [(pool[0], 2), (pool[1], 1), (pool[2], 1)]
    elif pattern == "22":
        real = [(pool[0], 2), (pool[1], 2)]
    elif pattern == "31":
        real = [(pool[0], 3), (pool[1], 1)]
    elif pattern == "4":
        real = [(pool[0], 4)]
    elif pattern == "c11":
        cpx = [((pool[0], abs(pool[1]) + 1), 1)]
        real = [(pool[2], 1), (pool[3], 1)]
    elif pattern == "c2":
        cpx = [((pool[0], abs(pool[1]) + 1), 1)]
        real = [(pool[2], 2)]
    elif pattern == "cc":
        cpx = [((pool[0], abs(pool[1]) + 1), 1),
               ((pool[2], abs(pool[3]) + 2), 1)]
    else:
        cpx = [((pool[0], abs(pool[1]) + 1), 2)]
    mults = tuple(sorted([m for _, m in real] + [m for _, m in cpx
                                                 for _ in range(2)],
                         reverse=True))
    return mults, expand_quartic(real, cpx), real, cpx


def _profile_key(profile):
    """The root type of a profile: zero form, and the sorted real and
    complex multiplicities (root positions depend on the chart)."""
    return (profile.zero_form,
            tuple(sorted(m for _, m in profile.real_roots)),
            tuple(sorted(m for _, m in profile.complex_pairs)))


# a factored quartic (or, one time in ten, the zero form) moved by an
# invertible integer substitution, so that roots also land at infinity
_GL2 = st.tuples(*[st.integers(-3, 3)] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2])
_QUARTIC = st.tuples(st.integers(0, 2 ** 32), _GL2, st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(st.lists(_QUARTIC, min_size=2, max_size=10))
def test_describe_equal_exactly_when_profile_key_equal(quartics):
    profiles = []
    for seed, gl2, zero in quartics:
        w = _random_factored_quartic(random.Random(seed))[1]
        profiles.append(classify_quartic(
            (0,) * 5 if zero == 0 else _substitute_gl2(w, *gl2)))
    for a in profiles:
        for b in profiles:
            assert (a.describe() == b.describe()) == \
                (_profile_key(a) == _profile_key(b))


class TestAdmissibility:
    def test_flat_chain_profile(self):
        q4 = classify_quartic((48, -12, 2, 0, 0))   # sampled flat-chain quartic
        q2 = classify_quadric((0, 0, 0))
        flags = admissibility(q4, q2)
        assert flags.chain_2Dpath
        assert not flags.chain_CR
        assert not flags.dancing      # repeated quartic roots
        assert flags.freestyling      # torsion-free special case

    def test_cr_profile(self):
        q4 = classify_quartic((3, 0, 1, 0, 3))
        flags = admissibility(q4, classify_quadric((0, 0, 0)))
        assert flags.chain_CR
        assert not flags.chain_2Dpath

    def test_dancing_profile(self):
        w = expand_quartic([(0, 1), (1, 1), (2, 1), (-1, 1)], [])
        flags = admissibility(classify_quartic(w), classify_quadric((1, 0, -1)))
        assert flags.dancing
        assert flags.freestyling

    def test_triple_root_not_freestyling(self):
        w = expand_quartic([(1, 3), (0, 1)], [])
        flags = admissibility(classify_quartic(w), classify_quadric((1, 0, -1)))
        assert not flags.freestyling
        assert not flags.dancing
