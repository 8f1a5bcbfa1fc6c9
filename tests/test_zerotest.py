import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathgeom.errors import DivisionByZero, DomainError, SamplingExhausted
from pathgeom.expr import (compile_tape, div, is_zero_probabilistic, mul, num,
                           pow_, sqrt_, sub, variables)
from pathgeom.expr import zerotest
from pathgeom.expr.sampling import _sample_pair
from pathgeom.expr.tape import MODULUS
from pathgeom.expr.zerotest import (DEFAULT_BOUND, MPF_REL_TOL,
                                    RESAMPLE_BUDGET, ZeroVerdict,
                                    zero_verdicts)

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


def test_sampling_exhausted_when_no_draw_has_a_value():
    with pytest.raises(SamplingExhausted):
        is_zero_probabilistic(sqrt_(-1 - p * p), trials=3)


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
        x = Fraction(*_sample_pair(rng, lo, hi, bound))
        assert Fraction(lo) <= x <= Fraction(hi)


def _fraction_reference(e, trials, seed=0, bound=DEFAULT_BOUND,
                        var_ranges=None):
    """The exact-mode zero test in Fraction arithmetic over the same draws
    (for an expression with a radical, the mpf test): (witness, witness
    value, trials, draws rejected at poles or outside the real domain)."""
    rng = random.Random(seed)
    names = sorted(e.free_variables)
    tape = compile_tape(e, names)
    ranges = var_ranges or {}
    rejected = 0
    for trial in range(trials):
        for _ in range(RESAMPLE_BUDGET):
            point = [Fraction(*_sample_pair(rng, *ranges.get(n, (None, None)),
                                            bound))
                     for n in names]
            try:
                if e.has_radical:
                    value, scale = tape.eval_mpf(point, with_scale=True)
                    if abs(value) <= MPF_REL_TOL * max(1, scale()):
                        value = 0
                else:
                    value = tape.eval_exact(point)
            except (DivisionByZero, DomainError):
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
                             {"bound": 3}),
    "pole_with_constraint_zero": (div(p * p - y * y, q * (p - y))
                                  - div(p + y, q), {"bound": 3}),
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
def test_same_draws_as_fraction_reference(case, seed, monkeypatch):
    e, kwargs = _SAME_DRAWS_CASES[case]
    # a small draw bound makes poles and repeated draws likely
    monkeypatch.setattr(zerotest, "DEFAULT_BOUND",
                        kwargs.get("bound", DEFAULT_BOUND))
    verdict = is_zero_probabilistic(e, trials=20, seed=seed,
                                    var_ranges=kwargs.get("var_ranges"))
    assert verdict.mode == "exact"
    witness, value, trials, rejected = _fraction_reference(e, 20, seed=seed,
                                                           **kwargs)
    assert verdict.witness == witness
    assert verdict.witness_value == value
    assert type(verdict.witness_value) is type(value)
    assert verdict.trials == trials
    assert verdict.constraints_rejected == rejected
    assert verdict.is_zero == (witness is None)


def test_same_draws_cases_reach_every_branch():
    # the cases above must hold nonzero witnesses found after a zero value,
    # and rejections at poles
    def run(case, seed):
        e, kwargs = _SAME_DRAWS_CASES[case]
        return _fraction_reference(e, 20, seed=seed, **kwargs)
    assert any(run("nonzero", s)[2] > 1 for s in range(8))
    assert all(run("pole_with_constraint_zero", s)[3] > 0 for s in range(8))
    for case in ("zero", "pole_with_constraint_zero"):
        assert all(run(case, s)[0] is None for s in range(8))
    assert all(run("var_ranges", s)[0] is not None for s in range(8))


def _reference_verdict(e, trials, seed, bound):
    """The one-output verdict of e, from `_fraction_reference`."""
    witness, value, used, rejected = _fraction_reference(e, trials, seed,
                                                         bound)
    mode = "mpf" if e.has_radical else "exact"
    deg = e.degree_bound
    if witness is not None:
        return ZeroVerdict(False, witness=witness, witness_value=value,
                           trials=used, mode=mode, degree_bound=deg,
                           constraints_rejected=rejected)
    failure = None if deg is None else min(1.0, deg / bound) ** trials
    return ZeroVerdict(True, trials=trials, mode=mode, degree_bound=deg,
                       failure_bound=failure, constraints_rejected=rejected)


_IDENTITY = (p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2
_IDENTITY_PY = div(p * p - y * y, q * (p - y)) - div(p + y, q)

# claims: (entries, draw bound)
_CLAIM_CASES = {
    # a small bound makes draws at poles likely: the union tape meets a pole
    # mod p and its undecided entries run alone
    "poles": ([_IDENTITY_PY, div(p, q) + div(num(1), p - y) - p * y,
               div(q * q - q, q) - (q - 1), div(num(1), q) - p], 3),
    # two charts: each entry draws over its own chart, (p, q) or (q, y)
    "two_charts": ([_IDENTITY, sub(q, y), (q + y) ** 2 - q ** 2 - 2 * q * y
                    - y ** 2, sub(p, q) * (p + 1), mul(q, y) - mul(y, q)
                    + q * y * (y - 1)], 2),
    # MODULUS * (p - q) is 0 mod p: the union tape is not reducible mod p
    "constant_zero_mod_p": ([_IDENTITY, num(MODULUS) * p - num(MODULUS) * q,
                             sub(p, q) * q], DEFAULT_BOUND),
    # a radical entry runs alone in mpf, between exact entries of its chart
    "radical": ([_IDENTITY, sqrt_(p * p) - p, sqrt_(p ** 4) - p ** 2,
                 sqrt_(q) * sqrt_(q + 1) - sqrt_(q * q + q), sub(p, q)], 5),
    "constants": ([num(0), _IDENTITY, num(Fraction(3, 7)), sub(p, q)],
                  DEFAULT_BOUND),
    # the nonzero entry comes first: zero_verdicts stops there
    "nonzero_first": ([sub(p, q) * (p - 1), _IDENTITY, _IDENTITY_PY,
                       (p - q) * y], 2),
}


@pytest.mark.parametrize("case", sorted(_CLAIM_CASES))
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("every", [False, True])
def test_claim_verdicts_equal_one_output_references(case, seed, every,
                                                    monkeypatch):
    entries, bound = _CLAIM_CASES[case]
    monkeypatch.setattr(zerotest, "DEFAULT_BOUND", bound)
    trials = 12
    got = zero_verdicts(entries, trials, seed, every=every)
    want = []
    for e in entries:
        want.append(_reference_verdict(e, trials, seed, bound))
        if not (every or want[-1].is_zero):
            break
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert dataclasses.asdict(g) == dataclasses.asdict(w), (case, k)
        assert type(g.witness_value) is type(w.witness_value)


def test_claim_cases_reach_every_branch():
    # the claims above hold pole rejections, zero and nonzero entries, mpf
    # verdicts and entries whose witness comes after a zero value
    verdicts = {case: [_reference_verdict(e, 12, s, bound)
                       for s in range(6) for e in entries]
                for case, (entries, bound) in _CLAIM_CASES.items()}
    assert any(v.constraints_rejected for v in verdicts["poles"])
    assert any(v.mode == "mpf" and v.is_zero for v in verdicts["radical"])
    assert any(v.mode == "mpf" and not v.is_zero for v in verdicts["radical"])
    assert any(v.trials > 1 and not v.is_zero
               for case in ("two_charts", "nonzero_first")
               for v in verdicts[case])
    for case, vs in verdicts.items():
        assert {v.is_zero for v in vs} == {True, False}, case


def test_claim_of_one_chart_compiles_one_tape(monkeypatch):
    compiled = []
    real = zerotest.compile_tape
    monkeypatch.setattr(zerotest, "compile_tape",
                        lambda exprs, names: compiled.append(len(exprs))
                        or real(exprs, names))
    entries = [_IDENTITY, _IDENTITY * p, sub(p, q), _IDENTITY - q]
    verdicts = zero_verdicts(entries, 10, 0, every=True)
    assert [v.is_zero for v in verdicts] == [True, True, False, False]
    assert compiled == [4]
    compiled.clear()
    # the claim stops at its first nonzero entry, before the other chart
    assert len(zero_verdicts([sub(p, q), _IDENTITY, sub(q, y)], 10, 0)) == 1
    assert compiled == [2]


def test_an_entry_the_claim_never_reaches_is_never_compiled():
    # the tape compiles no power of 2^31: the claim stops before that entry,
    # as it does one entry at a time
    huge = pow_(p, 2 ** 31) - q
    assert len(zero_verdicts([sub(p, q), huge], 5, 0)) == 1
    with pytest.raises(ValueError, match="too large to compile"):
        zero_verdicts([sub(p, q), huge], 5, 0, every=True)


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


# -- trials from the target failure bound (trials=None) -------------------------

def test_target_trials_is_the_least_count_reaching_the_bound():
    # brute force in ints over every degree up to the draw bound: n grows
    # with deg, so a sweep finds the least n with deg^n 2^T <= bound^n
    tops = [None] + [DEFAULT_BOUND ** n >> zerotest.TARGET_BITS
                     for n in range(1, zerotest.MAX_TRIALS + 1)]
    n = 1
    for deg in range(DEFAULT_BOUND + 1):
        while n <= zerotest.MAX_TRIALS and deg ** n > tops[n]:
            n += 1
        want = n if n <= zerotest.MAX_TRIALS else None
        assert zerotest.target_trials(deg) == want, deg
        # the float bound a zero verdict reports reaches the target too
        assert want is None or (zerotest._failure_bound(deg, want)
                                <= 2.0 ** -zerotest.TARGET_BITS), deg
    assert zerotest.target_trials(None) is None
    assert [zerotest.target_trials(d) for d in (0, 1, 9, 10, 50, 51)] == [
        1, 6, 6, 7, 7, 8]


def _zero_of_degree(a, b, k):
    """((a+1)(b+1))^k - (ab+a+b+1)^k: zero, with degree bound 4k."""
    return pow_(mul(a + 1, b + 1), k) - pow_(a * b + a + b + 1, k)


@st.composite
def _default_claims(draw):
    """Claims over the charts (p, q) and (q, y) whose zero entries have
    degree bounds from 4 to 160, so their allotments differ, with nonzero
    entries, poles and radical (mpf) entries among them."""
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.sampled_from([(p, q), (q, y)]))
        zero = _zero_of_degree(a, b, draw(st.integers(1, 40)))
        kind = draw(st.sampled_from(["zero", "nonzero", "pole", "radical"]))
        if kind == "nonzero":
            zero = zero + num(draw(st.integers(1, 3))) * a ** draw(
                st.integers(1, 3)) - b
        elif kind == "pole":
            zero = div(zero, a - b) + div(a * a - b * b, a - b) - (a + b)
        elif kind == "radical":
            zero = zero + sqrt_(a ** 4) - a ** 2
        entries.append(zero)
    return entries


@given(_default_claims(), st.integers(0, 2 ** 16),
       st.sampled_from([DEFAULT_BOUND, 7]))
@settings(max_examples=60, deadline=None)
def test_default_claim_verdicts_equal_one_entry_verdicts(entries, seed, bound):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zerotest, "DEFAULT_BOUND", bound)
        got = zero_verdicts(entries, None, seed, every=True)
        want = [zero_verdicts([e], None, seed)[0] for e in entries]
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert dataclasses.asdict(g) == dataclasses.asdict(w), k
        assert type(g.witness_value) is type(w.witness_value)
        if g.mode == "mpf" or bound != DEFAULT_BOUND:
            continue
        assert g.trials <= zerotest.MAX_TRIALS
        if g.is_zero:
            assert g.trials == zerotest.target_trials(g.degree_bound)
            assert g.failure_bound <= 2.0 ** -zerotest.TARGET_BITS
