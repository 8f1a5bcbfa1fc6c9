import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathgeom.dsl import parse_expression
from pathgeom.errors import DivisionByZero, DomainError, SamplingExhausted
from pathgeom.expr import (compile_tape, div, evaluate, is_zero_probabilistic,
                           mul, num, pow_, sqrt_, sub, variables)
from pathgeom.expr import zerotest
from pathgeom.expr.nodes import Pow, postorder
from pathgeom.expr.rational import rat_pow_exact
from pathgeom.expr.sampling import (_sample_pair, branch_ranges, draw_exact,
                                    sample_points)
from pathgeom.expr.zerotest import (DEFAULT_BOUND, MPF_REL_TOL,
                                    RESAMPLE_BUDGET, ZeroVerdict,
                                    zero_verdicts)

p, q, y = variables("p q y")

# the Mersenne prime 2^61 - 1: a value that it divides reads zero mod it,
# so a zero test that reduced values mod this fixed prime would misread the
# multiples of it below
P61 = 2 ** 61 - 1


def _has_radical(e):
    """Whether some power in e has a non-integer exponent."""
    return any(isinstance(n, Pow) and type(n.exponent) is not int
               for n in postorder((e,)))


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
    # a radicand with a sampling range is not drawn on the real branch
    assert verdict.mode == "mpf"


# -- radicands that are chart variables: exact draws on the real branch ------------

# sqrt(p)^2 - p, p^(3/2) - p*sqrt(p) and (p^(1/3))^3 - p fold to 0 as they
# are built; these identities hold the same powers inside a sum
_BRANCH_IDENTITIES = {
    "sqrt(p)^2": ((sqrt_(p) + 1) ** 2 - p - 2 * sqrt_(p) - 1, 2),
    "p^(3/2)": ((p + 1) * sqrt_(p) - pow_(p, Fraction(3, 2)) - sqrt_(p), 2),
    "p^(1/3)^3": ((pow_(p, Fraction(1, 3)) + 1) ** 3 - p
                  - 3 * pow_(p, Fraction(2, 3)) - 3 * pow_(p, Fraction(1, 3))
                  - 1, 3),
}


@pytest.mark.parametrize("case", sorted(_BRANCH_IDENTITIES))
def test_branch_identities_read_zero_exactly_with_a_bound(case):
    e, k = _BRANCH_IDENTITIES[case]
    assert _has_radical(e)
    verdict = is_zero_probabilistic(e)
    assert verdict.is_zero
    assert verdict.mode == "exact"
    assert verdict.degree_bound == k * e.degree_bound
    assert verdict.trials == zerotest.target_trials(verdict.degree_bound)
    assert verdict.failure_bound <= 2.0 ** -zerotest.TARGET_BITS


def test_branch_draws_are_powers_negative_only_for_odd_roots():
    for e, k in _BRANCH_IDENTITIES.values():
        assert branch_ranges(compile_tape(e, ["p"]), [None]) == [k]
    rng = random.Random(0)
    for k in (2, 3, 4, 6):
        draws = [draw_exact(rng, [k], 50)[0] for _ in range(200)]
        # every draw is a k-th power, so p^(j/k) is rational
        assert all(rat_pow_exact(v, Fraction(1, k)) is not None
                   for v in draws)
        if k % 2:
            assert any(v < 0 for v in draws)
        else:
            assert all(v > 0 for v in draws)


def test_branch_ranges_take_the_lcm_and_refuse_other_radicands():
    q_third = pow_(q, Fraction(-1, 3))
    tape = compile_tape([sqrt_(p) + pow_(p, Fraction(1, 3)), q_third * y],
                        ["p", "q", "y"])
    assert branch_ranges(tape, [None] * 3) == [6, 3, None]
    # a ranged radicand, a sum or a constant under the root: no branch
    assert branch_ranges(tape, [(0, 1), None, None]) is None
    assert branch_ranges(tape, [None, None, (0, 1)]) == [6, 3, (0, 1)]
    for e in (sqrt_(p + 1), sqrt_(num(2)) * p, sqrt_(p) * sqrt_(p * q)):
        names = sorted(e.free_variables)
        assert branch_ranges(compile_tape(e, names),
                             [None] * len(names)) is None
    # no fractional power: the ranges stand
    tape = compile_tape(p * q, ["p", "q"])
    assert branch_ranges(tape, [None, (0, 1)]) == [None, (0, 1)]


def test_branch_nonzero_witness_is_exact_at_a_perfect_square():
    verdict = is_zero_probabilistic(sqrt_(p) - p)
    assert not verdict.is_zero
    assert verdict.mode == "exact"
    w = verdict.witness["p"]
    root = rat_pow_exact(w, Fraction(1, 2))
    assert root is not None and root > 0
    assert verdict.witness_value == root - w
    assert type(verdict.witness_value) is Fraction


def test_sample_points_exact_on_the_branch():
    tape = compile_tape([sqrt_(p) * q, pow_(q, Fraction(1, 3))], ["p", "q"])
    points = list(sample_points(tape, ["p", "q"], 0, 30, "exact"))
    assert len(points) == 30
    assert any(pt[1] < 0 for pt, _ in points)
    for (vp, vq), (a, b) in points:
        assert a == rat_pow_exact(vp, Fraction(1, 2)) * vq
        assert b ** 3 == vq


@st.composite
def _branch_claims(draw):
    """(entry, whether it is zero): (A + B)^2 - A^2 - 2AB - B^2 for terms
    A and B with powers of p or q of root index 1, 2, 3 or 6, perhaps over
    a pole, perhaps plus a nonzero term."""
    def term():
        base = draw(st.sampled_from([p, q]))
        exp = Fraction(draw(st.integers(-3, 4)), draw(st.sampled_from([1, 2, 3,
                                                                      6])))
        return num(draw(st.integers(1, 5))) * pow_(base, exp) * draw(
            st.sampled_from([num(1), y, p, q + 1]))
    a, b = term(), term()
    e = (a + b) ** 2 - a * a - 2 * a * b - b * b
    if draw(st.booleans()):
        e = div(e, q - 2) + div(p * p - 4, p - 2) - (p + 2)
    zero = draw(st.booleans())
    if not zero:
        e = e + term()
    return e, zero


@given(_branch_claims(), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_branch_verdict_equals_mpf_verdict(claim, seed):
    e, zero = claim
    verdict = is_zero_probabilistic(e, seed=seed)
    assert verdict.mode == "exact"
    with pytest.MonkeyPatch.context() as mp:
        # the same entry with the real branch rule switched off: a tape
        # with a fractional power has no branch
        mp.setattr(zerotest, "branch_ranges", lambda tape, ranges: (
            None if tape.exps_exact else ranges))
        mpf = is_zero_probabilistic(e, seed=seed)
    assert mpf.mode == ("mpf" if _has_radical(e) else "exact")
    assert verdict.is_zero == mpf.is_zero == zero
    if not zero:
        assert compile_tape(e, sorted(verdict.witness)).eval_exact(
            list(verdict.witness.values())) == verdict.witness_value != 0


def test_degree_bound_tracking():
    e = (p + q) ** 3 * div(num(1), y ** 2)
    assert e.degree_bound == 5
    assert not _has_radical(e)


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
    (for an expression with a radicand that is not a chart variable, the
    mpf test): (witness, witness value, trials, draws rejected at poles or
    outside the real domain)."""
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
                if _has_radical(e):
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
    # no n/d with d <= bound fits, so p is the midpoint 3/(2 P61), whose
    # denominator P61 divides
    "range_undefined_mod_p": ((p + q) ** 2 - p ** 2 - 2 * p * q - q ** 2 + p,
                              {"var_ranges": {"p": (Fraction(1, P61),
                                                    Fraction(2, P61))}}),
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
    mode = "mpf" if _has_radical(e) else "exact"
    deg = None if _has_radical(e) else e.degree_bound
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
    # a small bound makes draws at poles likely: an entry rejects a draw at
    # a pole and draws again
    "poles": ([_IDENTITY_PY, div(p, q) + div(num(1), p - y) - p * y,
               div(q * q - q, q) - (q - 1), div(num(1), q) - p], 3),
    # two charts: each entry draws over its own chart, (p, q) or (q, y)
    "two_charts": ([_IDENTITY, sub(q, y), (q + y) ** 2 - q ** 2 - 2 * q * y
                    - y ** 2, sub(p, q) * (p + 1), mul(q, y) - mul(y, q)
                    + q * y * (y - 1)], 2),
    # P61 * (p - q) is nonzero over Q and a multiple of P61 at every point
    "constant_zero_mod_p": ([_IDENTITY, num(P61) * p - num(P61) * q,
                             sub(p, q) * q], DEFAULT_BOUND),
    # a radical entry is decided in mpf, between exact entries of its chart
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


def test_claim_decides_each_entry_through_is_zero_probabilistic(monkeypatch):
    # one call per verdict returned, in claim order, so a tracer that wraps
    # is_zero_probabilistic sees every entry the claim decides
    calls = []
    real = zerotest.is_zero_probabilistic

    def counting(e, *args, **kwargs):
        calls.append(e)
        return real(e, *args, **kwargs)

    monkeypatch.setattr(zerotest, "is_zero_probabilistic", counting)
    entries = [_IDENTITY, _IDENTITY * p, sub(p, q), _IDENTITY - q]
    verdicts = zero_verdicts(entries, 10, 0, every=True)
    assert [v.is_zero for v in verdicts] == [True, True, False, False]
    assert calls == entries
    calls.clear()
    # the second entry is the first nonzero one: the claim stops there
    verdicts = zero_verdicts([_IDENTITY, sub(p, q), _IDENTITY_PY, sub(q, y)],
                             10, 0)
    assert [v.is_zero for v in verdicts] == [True, False]
    assert calls == [_IDENTITY, sub(p, q)]


def test_an_entry_the_claim_never_reaches_is_never_compiled():
    # the tape compiles no power of 2^31: the claim stops before that entry,
    # as it does one entry at a time
    huge = pow_(p, 2 ** 31) - q
    assert len(zero_verdicts([sub(p, q), huge], 5, 0)) == 1
    with pytest.raises(ValueError, match="too large to compile"):
        zero_verdicts([sub(p, q), huge], 5, 0, every=True)


def test_constant_with_p_in_denominator_is_tested_exactly():
    c = Fraction(1, P61)
    zero = (p + c) ** 2 - p ** 2 - 2 * c * p - c * c
    nonzero = (p + c) ** 2 - p ** 2 - 2 * c * p
    assert is_zero_probabilistic(zero).is_zero
    verdict = is_zero_probabilistic(nonzero)
    assert not verdict.is_zero
    assert verdict.witness_value == c * c
    assert verdict.trials == 1


def test_multiple_of_p_is_not_zero():
    # P61 * (p - q) is a multiple of P61 at every point, and nonzero
    verdict = is_zero_probabilistic(num(P61) * p - num(P61) * q)
    assert not verdict.is_zero


def test_numerator_with_content_p_is_not_zero():
    # (P61 + 1)(x + 1)^2 - (x^2 + 2x + 1) is P61 (x + 1)^2: every coefficient
    # of its numerator is a multiple of P61, and none of its constants is
    x = variables("x")[0]
    e = num(2 ** 61) * (x + 1) ** 2 - (x ** 2 + 2 * x + 1)
    [verdict] = zero_verdicts([e])
    assert not verdict.is_zero
    value = evaluate(e, verdict.witness, "exact")
    assert value != 0
    assert value == verdict.witness_value


_LINEAR = st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                    st.integers(-5, 5)).filter(lambda c: c[0] or c[1])


@given(st.lists(_LINEAR, min_size=1, max_size=3), st.integers(1, 5),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_multiple_of_p_of_an_expanded_product_is_not_zero(factors, k, seed):
    # E is a product of linear factors and E' its expansion, so c E - E' is
    # k P61 E: nonzero, with every coefficient of its numerator a multiple
    # of P61 once E' is expanded
    sympy = pytest.importorskip("sympy")
    x, y_ = variables("x y")
    sx, sy = sympy.symbols("x y")
    e = mul(*(a * x + b * y_ + num(c) for a, b, c in factors))
    expanded = sympy.expand(sympy.Mul(*(a * sx + b * sy + c
                                        for a, b, c in factors)))
    e2 = parse_expression(str(expanded).replace("**", "^"))
    c = 1 + k * P61
    assert not is_zero_probabilistic(num(c) * e - e2, seed=seed).is_zero


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
    entries, poles, radical (mpf) entries and entries on the real branch
    among them."""
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.sampled_from([(p, q), (q, y)]))
        zero = _zero_of_degree(a, b, draw(st.integers(1, 40)))
        kind = draw(st.sampled_from(["zero", "nonzero", "pole", "radical",
                                     "branch"]))
        if kind == "nonzero":
            zero = zero + num(draw(st.integers(1, 3))) * a ** draw(
                st.integers(1, 3)) - b
        elif kind == "pole":
            zero = div(zero, a - b) + div(a * a - b * b, a - b) - (a + b)
        elif kind == "radical":
            zero = zero + sqrt_(a ** 4) - a ** 2
        elif kind == "branch":
            zero = zero + (a + 1) * sqrt_(a) - pow_(a, Fraction(3, 2)) \
                - sqrt_(a)
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
