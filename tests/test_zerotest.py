import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathgeom.errors import SamplingExhausted
from pathgeom.expr import (div, is_zero_probabilistic, mul, num, pow_, sqrt_,
                           sub, variables)
from pathgeom.expr.zerotest import _sample_rational

p, q, y = variables("p q y")


def test_algebraic_identity_declared_zero():
    e = (p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2
    verdict = is_zero_probabilistic(e, trials=50)
    assert verdict.is_zero
    assert verdict.mode == "exact"


def test_distinct_variables_nonzero_with_witness():
    verdict = is_zero_probabilistic(sub(p, q), trials=50)
    assert not verdict.is_zero
    assert verdict.witness is not None
    assert verdict.witness["p"] != verdict.witness["q"]
    assert verdict.witness_value != 0


def test_pole_cancellation_with_constraint():
    e = div(num(1), p - y) - div(num(1), p - y)
    assert is_zero_probabilistic(e, constraints=[p - y], trials=20).is_zero


def test_sampling_exhausted_on_unsatisfiable_constraint():
    with pytest.raises(SamplingExhausted):
        is_zero_probabilistic(p, constraints=[num(0) * p], trials=3)


def test_radical_falls_back_to_mpf():
    e = sqrt_(p * p * q * q) - p * q   # equal only where pq >= 0
    verdict = is_zero_probabilistic(e, trials=30,
                                    var_ranges={"p": (0, 3), "q": (0, 3)})
    assert verdict.is_zero
    assert verdict.mode == "mpf"
    assert verdict.degree_bound is None


def test_radical_nonzero_detected():
    verdict = is_zero_probabilistic(sqrt_(p) - p, trials=20,
                                    var_ranges={"p": (2, 5)})
    assert not verdict.is_zero


def test_degree_bound_tracking():
    e = (p + q) ** 3 * div(num(1), y ** 2)
    assert e.degree_bound == 5
    assert not e.has_radical


def test_schwartz_zippel_failure_bound_reported():
    e = (p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2
    verdict = is_zero_probabilistic(e, trials=20)
    assert verdict.failure_bound is not None
    assert verdict.failure_bound <= (2 / 10 ** 6) ** 20


def test_never_declares_nonzero_zero():
    rng = random.Random(5)
    for k in range(30):
        coeff = rng.randint(1, 9)
        e = mul(num(coeff), pow_(p, rng.randint(1, 4)), pow_(q, rng.randint(0, 3)))
        e = sub(e, num(rng.randint(10, 20)))
        assert not is_zero_probabilistic(e, trials=5, seed=k).is_zero


def test_deterministic_given_seed():
    v1 = is_zero_probabilistic(sub(p, q), trials=5, seed=123)
    v2 = is_zero_probabilistic(sub(p, q), trials=5, seed=123)
    assert v1.witness == v2.witness


# negative, straddling and narrow intervals, with exact and float ends
_FRACTIONS = st.fractions(-20, 20, max_denominator=50)
_INTERVALS = st.one_of(
    st.lists(_FRACTIONS, min_size=2, max_size=2).map(sorted),
    st.lists(st.floats(-20, 20), min_size=2, max_size=2).map(sorted),
    st.tuples(_FRACTIONS,
              st.sampled_from([0, Fraction(1, 10 ** 6), Fraction(1, 997)]))
    .map(lambda t: (t[0], t[0] + t[1])))


@given(_INTERVALS, st.sampled_from([1, 7, 100, 10 ** 6]),
       st.integers(0, 2 ** 32))
@example((-2, Fraction(-1, 2)), 7, 0)
@example((-0.5, 0.5), 10 ** 6, 0)
@settings(max_examples=150, deadline=None)
def test_interval_draws_stay_in_interval(interval, bound, seed):
    lo, hi = interval
    rng = random.Random(seed)
    for _ in range(40):
        x = _sample_rational(rng, lo, hi, bound)
        assert Fraction(lo) <= x <= Fraction(hi)
