import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathgeom.errors import DivisionByZero, DomainError, UnboundVariable
from pathgeom.expr import (add, as_rat, compile_tape, differentiate, div,
                           evaluate, exprs_equal, is_zero_probabilistic, mul,
                           neg, node_count, num, pow_, sqrt_, sub, substitute,
                           to_text, var, variables)

t, z, p, q, x, y = variables("t z p q x y")


class TestConstruction:
    def test_interning_makes_equality_identity(self):
        assert (p + q) is (p + q)
        assert p * q * 2 is mul(num(2), p, q)
        assert (p + q) is not (q + p)  # no canonical ordering, by design

    def test_constant_folding(self):
        assert (num(2) + num(3)) is num(5)
        assert (num("1/2") * num("2/3")) is num(Fraction(1, 3))
        assert pow_(num("9/4"), as_rat("1/2")) is num(Fraction(3, 2))
        assert pow_(num(2), 3) is num(8)

    def test_like_term_collection(self):
        assert (p + p) is (2 * p)
        assert (p - p) is num(0)
        assert substitute(p - y, {"y": p}) is num(0)
        assert (3 * p * q - p * q) is (2 * p * q)

    def test_power_merging(self):
        assert (p * p) is p ** 2
        assert (p ** 3 / p) is p ** 2
        assert (p / p) is num(1)
        assert pow_(pow_(p, 2), 3) is pow_(p, 6)
        assert pow_(sqrt_(p), 2) is p
        # (p^2)^(1/2) must NOT merge to p
        e = pow_(pow_(p, 2), as_rat("1/2"))
        assert e is not p

    def test_division_by_zero_constant(self):
        with pytest.raises(DivisionByZero):
            div(num(1), num(0))

    def test_zero_annihilates(self):
        assert (num(0) * (p + q)) is num(0)
        assert pow_(p, 0) is num(1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            p + 0.5


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(p ** 2 * t, p) is (2 * p * t)

    def test_fractional_power(self):
        d = differentiate(pow_(p, as_rat("1/2")), p)
        assert exprs_equal(d, num("1/2") * pow_(p, as_rat("-1/2")),
                           trials=6).is_zero

    def test_independence(self):
        assert differentiate(t ** 3, z) is num(0)

    def test_quotient(self):
        d = differentiate(div(num(1), p - y), p)
        assert exprs_equal(d, neg(div(num(1), (p - y) ** 2)), trials=8).is_zero

    def test_product_rule_property(self):
        rng = random.Random(7)
        for _ in range(20):
            e = _random_rational_expr(rng, depth=3)
            f = _random_rational_expr(rng, depth=3)
            claim = sub(differentiate(mul(e, f), "p"),
                        add(mul(differentiate(e, "p"), f),
                            mul(e, differentiate(f, "p"))))
            assert is_zero_probabilistic(claim, trials=5, seed=11).is_zero

    def test_finite_difference_agreement(self):
        rng = random.Random(3)
        for _ in range(10):
            e = _random_rational_expr(rng, depth=3)
            d = differentiate(e, "p")
            point = {"t": 0.37, "z": -0.81, "p": 0.55, "q": 1.21}
            h = 1e-6
            up = dict(point, p=point["p"] + h)
            dn = dict(point, p=point["p"] - h)
            try:
                fd = (evaluate(e, up, "floating")
                      - evaluate(e, dn, "floating")) / (2 * h)
                exact = evaluate(d, point, "floating")
            except (DivisionByZero, DomainError):
                continue
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestSubstitute:
    def test_renaming(self):
        F = t * p ** 2 + z
        assert substitute(F, {"p": var("Y")}) is (t * var("Y") ** 2 + z)

    def test_shift(self):
        assert substitute(x ** 2, {"x": x + 1}) is ((x + 1) ** 2)

    def test_unbound_pass_through(self):
        assert substitute(p + q, {"w": t}) is (p + q)


class TestEvaluate:
    def test_exact_rational(self):
        assert evaluate(div(num(1), p - y), {"p": 2, "y": 1}, "exact") == 1

    def test_floating_radical(self):
        assert evaluate(pow_(num("9/4"), as_rat("1/2")), {}, "floating") == 1.5

    def test_pole(self):
        with pytest.raises(DivisionByZero):
            evaluate(div(num(1), p - y), {"p": 1, "y": 1}, "exact")

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            evaluate(p + q, {"p": 1}, "exact")

    def test_domain_error_fractional_negative(self):
        with pytest.raises(DomainError):
            evaluate(sqrt_(x), {"x": -2}, "floating")

    def test_exact_requires_perfect_power(self):
        with pytest.raises(DomainError):
            evaluate(sqrt_(x), {"x": 2}, "exact")
        assert evaluate(sqrt_(x), {"x": Fraction(9, 4)}, "exact") == Fraction(3, 2)

    def test_mpf_precision(self):
        v = evaluate(sqrt_(x), {"x": 2}, "mpf")
        assert abs(float(v) - math.sqrt(2)) < 1e-15


class TestBatchTape:
    """eval_f64_many runs each instruction over all rows; per-row eval_f64
    is the reference it must match."""

    def test_matches_rows_on_catalog_pairs(self):
        from pathgeom import PairODE, catalog, catalog_names
        rng = np.random.default_rng(5)
        pairs = [catalog(n) for n in catalog_names()]
        pairs = [c for c in pairs if isinstance(c, PairODE)]
        assert pairs
        for pair in pairs:
            for rhs in pair.rhs:
                tape = compile_tape(rhs, pair.chart)
                assert len(tape) == node_count(rhs)
                pts = rng.uniform(1, 4, size=(40, len(pair.chart)))
                rows = np.array([tape.eval_f64(pt) for pt in pts])
                np.testing.assert_allclose(tape.eval_f64_many(pts), rows,
                                           rtol=1e-12, atol=0)

    def test_constant_and_variable_outputs_have_one_entry_per_row(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        const = compile_tape(num(Fraction(3, 4)), ("p", "q"))
        assert const.eval_f64_many(pts).tolist() == [0.75] * 3
        assert compile_tape(q, ("p", "q")).eval_f64_many(pts).tolist() == \
            [2.0, 4.0, 6.0]

    def test_zero_rows(self):
        out = compile_tape(p * q + 1, ("p", "q")).eval_f64_many(
            np.zeros((0, 2)))
        assert out.shape == (0,)

    def test_pole_in_any_row_raises(self):
        tape = compile_tape(div(num(1), p - q), ("p", "q"))
        with pytest.raises(DivisionByZero):
            tape.eval_f64_many([[2.0, 1.0], [3.0, 3.0], [4.0, 1.0]])

    def test_negative_radicand_in_any_row_raises(self):
        tape = compile_tape(sqrt_(p), ("p",))
        with pytest.raises(DomainError):
            tape.eval_f64_many([[4.0], [-1.0], [9.0]])

    def test_overflow(self):
        # an integer power saturates to a signed infinity; a fractional
        # power raises, as math.pow does
        for e, x, want in ((2, 1e200, math.inf), (3, -1e200, -math.inf),
                           (-2, 1e-200, math.inf)):
            tape = compile_tape(pow_(p, e), ("p",))
            assert tape.eval_f64([x]) == want
            assert tape.eval_f64_many([[1.0], [x]]).tolist() == [1.0, want]
        tape = compile_tape(pow_(p, as_rat("3/2")), ("p",))
        with pytest.raises(OverflowError):
            tape.eval_f64([1e300])
        with pytest.raises(OverflowError):
            tape.eval_f64_many([[1.0], [1e300]])


class TestPrinting:
    @pytest.mark.parametrize("e", [
        p ** 2,
        neg(p ** 2),
        div(x, y - 3),
        div(x ** 2, (y - 3) ** 2),
        num("3/4") * x + 1,
        sqrt_(p) * num("-1/4"),
        div(num(1), p),
        (x + 1) ** 3 / (y * p),
    ])
    def test_text_reparses_to_same_node(self, e):
        from pathgeom.dsl import parse_expression
        assert parse_expression(to_text(e)) is e


def _random_rational_expr(rng, depth):
    leaves = [t, z, p, q, num(rng.randint(-4, 4)),
              num(Fraction(rng.randint(1, 5), rng.randint(1, 5)))]
    if depth == 0:
        return rng.choice(leaves)
    op = rng.randrange(4)
    a = _random_rational_expr(rng, depth - 1)
    b = _random_rational_expr(rng, depth - 1)
    if op == 0:
        return add(a, b)
    if op == 1:
        return mul(a, b)
    if op == 2:
        return pow_(a, rng.randint(1, 3))
    return div(a, add(b, num(rng.randint(5, 9))))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_hypothesis_arithmetic_consistency(a, b, d):
    e = add(mul(num(a), p), div(num(b), num(d)))
    got = evaluate(e, {"p": Fraction(1, 3)}, "exact")
    assert got == Fraction(a, 3) + Fraction(b, d)


def test_node_count_counts_dag_nodes():
    e = (p + q) ** 2 + (p + q)
    assert node_count(e) < 8
