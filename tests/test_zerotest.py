import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathgeom.errors import DivisionByZero, SamplingExhausted
from pathgeom.expr import (compile_tape, div, is_zero_probabilistic, mul, num,
                           pow_, sqrt_, sub, variables)
from pathgeom.expr.sampling import _sample_rational
from pathgeom.expr.tape import MODULUS
from pathgeom.expr.zerotest import (DEFAULT_BOUND, DEFAULT_TRIALS,
                                    RESAMPLE_BUDGET)

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


def _fraction_reference(e, constraints=(), trials=DEFAULT_TRIALS, seed=0,
                        bound=DEFAULT_BOUND, var_ranges=None):
    """The exact-mode zero test in Fraction arithmetic over the same draws:
    (witness, witness value, trials, constraints rejected)."""
    rng = random.Random(seed)
    names = sorted(set(e.free_variables).union(
        *(c.free_variables for c in constraints)))
    tape = compile_tape(e, names)
    ctapes = [compile_tape(c, names) for c in constraints]
    ranges = var_ranges or {}
    rejected = 0
    for trial in range(trials):
        for _ in range(RESAMPLE_BUDGET):
            point = [_sample_rational(rng, *ranges.get(n, (None, None)), bound)
                     for n in names]
            try:
                if any(ct.eval_exact(point) == 0 for ct in ctapes):
                    rejected += 1
                    continue
                value = tape.eval_exact(point)
            except DivisionByZero:
                rejected += 1
                continue
            break
        else:
            raise SamplingExhausted("reference ran out of samples")
        if value != 0:
            return dict(zip(names, point)), value, trial + 1, rejected
    return None, None, trials, rejected


_SAME_DRAWS_CASES = {
    "zero": ((p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2, {}),
    "nonzero": ((p - q) * (p + 1) * q, {"bound": 3}),
    "pole_with_constraint": (div(p, q) + div(num(1), p - y) - p * y,
                             {"constraints": [p - y], "bound": 3}),
    "pole_with_constraint_zero": (div(p * p - y * y, q * (p - y))
                                  - div(p + y, q),
                                  {"constraints": [p - y], "bound": 3}),
    "var_ranges": (div(p * p - 4, q - 1) - div(q, p),
                   {"var_ranges": {"p": (Fraction(-3), Fraction(-1, 2)),
                                   "q": (0, 2)}, "bound": 5}),
    # no n/d with d <= bound fits, so p is the midpoint 3/(2 MODULUS)
    "range_undefined_mod_p": ((p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2 + p,
                              {"var_ranges": {"p": (Fraction(1, MODULUS),
                                                    Fraction(2, MODULUS))}}),
}


@pytest.mark.parametrize("case", sorted(_SAME_DRAWS_CASES))
@pytest.mark.parametrize("seed", range(8))
def test_same_draws_as_fraction_reference(case, seed):
    e, kwargs = _SAME_DRAWS_CASES[case]
    verdict = is_zero_probabilistic(e, seed=seed, **kwargs)
    assert verdict.mode == "exact"
    witness, value, trials, rejected = _fraction_reference(e, seed=seed, **kwargs)
    assert verdict.witness == witness
    assert verdict.witness_value == value
    assert type(verdict.witness_value) is type(value)
    assert verdict.trials == trials
    assert verdict.constraints_rejected == rejected
    assert verdict.is_zero == (witness is None)


def test_same_draws_cases_reach_every_branch():
    # the cases above must hold nonzero witnesses found after a zero value,
    # and rejections both by a constraint and by a pole
    def run(case, seed):
        e, kwargs = _SAME_DRAWS_CASES[case]
        return _fraction_reference(e, seed=seed, **kwargs)
    assert any(run("nonzero", s)[2] > 1 for s in range(8))
    assert all(run("pole_with_constraint_zero", s)[3] > 0 for s in range(8))
    for case in ("zero", "pole_with_constraint_zero"):
        assert all(run(case, s)[0] is None for s in range(8))
    assert all(run("var_ranges", s)[0] is not None for s in range(8))


def test_constant_with_p_in_denominator_is_tested_exactly():
    c = Fraction(1, MODULUS)
    zero = (p + c) ** 2 - p ** 2 - 2 * c * p - c * c
    nonzero = (p + c) ** 2 - p ** 2 - 2 * c * p
    assert is_zero_probabilistic(zero).is_zero
    verdict = is_zero_probabilistic(nonzero)
    assert not verdict.is_zero
    assert verdict.witness_value == c * c
    assert verdict.trials == 1


def test_multiple_of_p_is_not_zero():
    # MODULUS * p is 0 mod p at every point; such a constant is tested exactly
    verdict = is_zero_probabilistic(num(MODULUS) * p - num(MODULUS) * q)
    assert not verdict.is_zero
