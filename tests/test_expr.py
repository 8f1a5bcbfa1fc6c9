import functools
import gc
import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pathgeom.errors import DivisionByZero, DomainError, UnboundVariable
from pathgeom.expr import (add, as_rat, compile_tape, differentiate, div,
                           evaluate, exprs_equal, is_zero_probabilistic, mul,
                           neg, node_count, num, pow_, sqrt_, sub, substitute,
                           to_text, var, variables)
from pathgeom.expr.nodes import Add, Mul, Num, Pow, Var, postorder
from pathgeom.expr import nodes, rational
from pathgeom.expr.rational import rat_pow_exact

t, z, p, q, x, y = variables("t z p q x y")


def _has_radical(e):
    """Whether some power in e has a non-integer exponent."""
    return any(isinstance(n, Pow) and type(n.exponent) is not int
               for n in postorder((e,)))


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


def _combine(op, a, b):
    """A random DAG's inner node; a constant that folds to no value keeps a."""
    try:
        return op(a, b)
    except (DivisionByZero, DomainError):
        return a


_EXPONENTS = [2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]
_DAG_LEAVES = (st.sampled_from([t, z, p, q])
               | st.integers(-4, 4).map(num)
               | st.fractions(-3, 3, max_denominator=4).map(num))
# sums, products, quotients and rational powers (radicals, negative powers
# and constants under radicals among them) of smaller random DAGs
_DAGS = st.recursive(_DAG_LEAVES, lambda kids: st.one_of(
    st.tuples(kids, kids).map(lambda ab: _combine(add, *ab)),
    st.tuples(kids, kids).map(lambda ab: _combine(mul, *ab)),
    st.tuples(kids, kids).map(lambda ab: _combine(sub, *ab)),
    st.tuples(kids, kids).map(lambda ab: _combine(div, *ab)),
    st.tuples(kids, st.sampled_from(_EXPONENTS)).map(
        lambda be: _combine(pow_, *be))), max_leaves=16)


class TestCanonicalNodes:
    """`add` builds a collected term c*core directly from its canonical
    core; that shortcut holds only while every product and sum is a fixed
    point of its constructor."""

    @given(_DAGS)
    @settings(max_examples=300, deadline=None)
    def test_products_and_sums_are_fixed_points(self, e):
        for node in postorder((e, differentiate(e, "p"))):
            if isinstance(node, Mul):
                assert mul(*node.args) is node
            elif isinstance(node, Add):
                assert add(*node.args) is node

    @pytest.mark.parametrize("terms, coefficient, core", [
        ((x * y, 2 * x * y), 3, x * y),
        ((sqrt_(p) * q, sqrt_(p) * q), 2, sqrt_(p) * q),
        ((sqrt_(num(2)), sqrt_(num(2))), 2, sqrt_(num(2))),
        ((pow_(num(2), Fraction(1, 3)) * x, -pow_(num(2), Fraction(1, 3)) * x
          / 3), Fraction(2, 3), pow_(num(2), Fraction(1, 3)) * x),
        ((div(num(1), p ** 2), div(num(1), p ** 2)), 2, pow_(p, -2)),
        ((div(x, y), div(3 * x, 2 * y)), Fraction(5, 2), div(x, y)),
        ((x / (y - 3) ** 2, -3 * x / (y - 3) ** 2), -2, x / (y - 3) ** 2),
        ((p ** 2, p ** 2, p ** 2), 3, p ** 2),
    ])
    def test_collected_coefficient_is_the_product_mul_builds(
            self, terms, coefficient, core):
        assert add(*terms) is mul(num(coefficient), core)

    @given(_DAGS, st.fractions(-3, 3, max_denominator=4))
    @example(-(t + z), Fraction(-2))
    @example(x * y, Fraction(-1))
    @settings(max_examples=200, deadline=None)
    def test_collected_coefficient_property(self, e, k):
        assume(not isinstance(e, (Add, Num)))
        c, core = nodes._split_coefficient(e)
        # k*e is the bare sum `core` when k*c = 1, and a sum is flattened
        assume(k * c != 1 or not isinstance(core, Add))
        total = c * (1 + k)
        want = (num(0) if total == 0 else core if total == 1
                else mul(num(total), core))
        assert add(e, mul(num(k), e)) is want


class TestDeepDag:
    """The kernel's walks use explicit stacks: a DAG far deeper than
    Python's recursion limit differentiates, substitutes and prints."""

    DEPTH = 1000

    @staticmethod
    def _deep(depth):
        """e_(k+1) = z*(e_k + 1) or p*e_k + z alternately from e_0 = z, with
        its text, and its value and z-derivative at z = 2, p = -1."""
        e, text, value, slope = z, "z", 2, 1
        for k in range(depth):
            if k % 2 == 0:
                e = mul(z, add(e, 1))
                text = f"z*({text} + 1)"
                value, slope = 2 * (value + 1), value + 1 + 2 * slope
            else:
                e = add(mul(p, e), z)
                text = f"p*{text} + z"
                value, slope = -value + 2, -slope + 1
        return e, text, value, slope

    def test_deeper_than_the_recursion_limit(self):
        assert self.DEPTH >= sys.getrecursionlimit()
        e, text, value, slope = self._deep(self.DEPTH)
        assert to_text(e) == text
        point = {"z": 2, "p": -1}
        assert substitute(e, point) is num(value)
        d = differentiate(e, "z")
        assert substitute(d, point) is num(slope)
        assert evaluate(d, point, "exact") == slope
        assert differentiate(e, "z") is d   # cached on the nodes

    def test_shallow_text_reparses(self):
        from pathgeom.dsl import parse_expression
        e, text, _, _ = self._deep(40)
        assert to_text(e) == text
        assert parse_expression(text) is e


class TestRepresentation:
    """Integral constants and exponents are ints, other rationals Fractions;
    the intern table holds its nodes weakly, one node per key."""

    def test_integral_constants_and_exponents_are_ints(self):
        assert type(num(3).value) is int
        assert type(num(Fraction(6, 2)).value) is int
        assert type(num("4/2").value) is int
        assert type(num(Fraction(1, 2)).value) is Fraction
        assert type(pow_(x, Fraction(4, 2)).exponent) is int
        assert type(sqrt_(x).exponent) is Fraction
        assert type(add(num(Fraction(1, 2)), num(Fraction(1, 2))).value) is int

    def test_one_node_per_rational(self):
        assert num(Fraction(6, 2)) is num(3)
        assert num("3") is num(3)
        assert pow_(x, Fraction(4, 2)) is pow_(x, 2)
        assert mul(num(Fraction(1, 2)), num(2), x) is x

    def test_negative_integer_power_of_an_int_stays_exact(self):
        assert pow_(num(2), -3) is num(Fraction(1, 8))
        got = rat_pow_exact(2, -3)
        assert type(got) is Fraction and got == Fraction(1, 8)
        assert type(rat_pow_exact(2, 3)) is int

    def test_interning_stays_weak(self):
        gc.collect()
        before = len(nodes._TABLE)
        w = var("w_weak")
        throwaway = [add(w, num(10 ** 12 + k)) for k in range(10_000)]
        assert len(nodes._TABLE) >= before + 20_000
        del throwaway
        gc.collect()
        assert len(nodes._TABLE) <= before + 10

    def test_threads_interning_one_key_get_one_node(self):
        # nodes die and are re-interned while other threads look them up;
        # a removal that is not atomic would let one key reach two nodes
        keys = range(300)
        w = var("w_thread")
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                kept = [None] * 8

                def work(slot):
                    got = []
                    for k in random.Random(slot).sample(keys, len(keys)):
                        mul(num(k + 2), w, w)   # built and dropped at once
                        got.append((k, mul(num(k + 2), w, w)))
                    kept[slot] = dict(got)

                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                    assert not th.is_alive()
                assert all(got is not None for got in kept)
                for k in keys:
                    assert len({id(got[k]) for got in kept}) == 1
                del kept
        finally:
            sys.setswitchinterval(saved)


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


class TestExactRoots:
    """Exact k-th roots of integers of any size (`rat_pow_exact`)."""

    def test_square_root_beyond_float_range_folds(self):
        assert sqrt_(num(10 ** 400)) is num(10 ** 200)

    def test_cube_root_beyond_float_precision_folds(self):
        assert pow_(num(2 ** 180), Fraction(1, 3)) is num(2 ** 60)

    def test_exact_evaluation_of_a_large_square(self):
        r = 10 ** 17 + 3
        assert evaluate(sqrt_(x), {"x": r * r}, "exact") == r

    def test_odd_root_of_a_negative_base_to_a_negative_power(self):
        assert rat_pow_exact(Fraction(-8), Fraction(-1, 3)) == Fraction(-1, 2)
        assert rat_pow_exact(Fraction(-8), Fraction(-2, 3)) == Fraction(1, 4)
        assert pow_(num(-8), Fraction(-1, 3)) is num(Fraction(-1, 2))

    # exponents small enough that folding them takes seconds, not hours
    @pytest.mark.parametrize("base, exponent", [
        (3, 10 ** 7), (Fraction(1, 3), -10 ** 7), (-7, 10 ** 7 + 1),
        (2, Fraction(10 ** 7 + 1, 2)), (5, 10 ** 4)])
    def test_oversized_constant_power_raises_at_once(self, base, exponent):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            pow_(num(base), exponent)
        assert time.perf_counter() - start < 0.5

    def test_oversized_power_of_a_constant_factor_raises_at_once(self):
        # (c*x)^n folds c^n
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            pow_(mul(num(3), x), 10 ** 7)
        assert time.perf_counter() - start < 0.5

    def test_large_constant_powers_within_the_bound_fold(self):
        assert pow_(num(10), 400) is num(10 ** 400)
        bits = rational.MAX_FOLD_BITS
        assert pow_(num(2), bits) is num(2 ** bits)
        assert pow_(num(-1), 2000000001) is num(-1)
        assert pow_(num(1), Fraction(-1999999999, 3)) is num(1)

    def test_power_bound_is_exact(self):
        bits = rational.MAX_FOLD_BITS
        # log2 10 = 3.32: 10^2466 has 8,192 bits, 10^2467 has 8,196
        assert rat_pow_exact(10, 2466) == 10 ** 2466
        with pytest.raises(ValueError, match="too large"):
            rat_pow_exact(10, 2467)
        assert rat_pow_exact(Fraction(1, 2), -bits) == 2 ** bits
        with pytest.raises(ValueError, match="too large"):
            rat_pow_exact(Fraction(1, 2), -bits - 1)
        assert rat_pow_exact(4, Fraction(bits, 2)) == 2 ** bits
        with pytest.raises(ValueError, match="too large"):
            rat_pow_exact(4, Fraction(bits + 1, 2))

    @pytest.mark.parametrize("base, exponent", [
        (7, Fraction(100000001, 100000000)),
        (10, Fraction(1000001, 1000000)),
        (Fraction(2, 3), Fraction(-10 ** 9 - 1, 10 ** 9))])
    def test_root_before_power(self, base, exponent):
        # the root fails before the numerator's 10^8-th power is built
        start = time.perf_counter()
        assert rat_pow_exact(Fraction(base), exponent) is None
        assert time.perf_counter() - start < 0.5

    @given(st.integers(2, 10 ** 60), st.integers(2, 7))
    @settings(max_examples=300, deadline=None)
    def test_perfect_powers_and_their_neighbours(self, r, k):
        root = Fraction(1, k)
        assert rat_pow_exact(Fraction(r ** k), root) == r
        assert rat_pow_exact(Fraction(r ** k + 1), root) is None
        assert rat_pow_exact(Fraction(r ** k - 1), root) is None

    @pytest.mark.parametrize("k", range(2, 8))
    def test_small_integers_match_brute_force(self, k):
        powers = {r ** k: r for r in range(72)}
        for n in range(5000):
            assert rat_pow_exact(Fraction(n), Fraction(1, k)) == powers.get(n)


class TestNegativeBase:
    """An odd root of a negative base takes the real branch in every domain
    with fractional powers, as constant folding does; an even root raises
    DomainError in every domain."""

    @pytest.mark.parametrize("e, want", [
        ("1/3", -2), ("-2/3", Fraction(1, 4)), ("5/3", -32),
        ("2/3", 4), ("-1/3", Fraction(-1, 2)),
    ])
    def test_odd_root_agrees_across_domains(self, e, want):
        tape = compile_tape(pow_(x, as_rat(e)), ("x",))
        assert pow_(num(-8), as_rat(e)) is num(want)
        assert tape.eval_exact([-8]) == want
        assert float(tape.eval_mpf([-8])) == pytest.approx(want, rel=1e-15)
        assert tape.eval_f64([-8.0]) == pytest.approx(want, rel=1e-15)
        column = tape.eval_f64_many([[-8.0], [8.0], [-8.0]])
        w = float(want)
        np.testing.assert_allclose(column, [w, abs(w), w], rtol=1e-15)

    @pytest.mark.parametrize("e", ["1/2", "-3/2", "3/4"])
    def test_even_root_raises_in_every_domain(self, e):
        tape = compile_tape(pow_(x, as_rat(e)), ("x",))
        for run in (lambda: tape.eval_exact([-8]),
                    lambda: tape.eval_mpf([-8]),
                    lambda: tape.eval_f64([-8.0]),
                    lambda: tape.eval_f64_many([[8.0], [-8.0]])):
            with pytest.raises(DomainError):
                run()

    @given(base=st.one_of(
               st.just(Fraction(0)),
               st.builds(lambda sign, r, k: sign * r ** k,
                         st.sampled_from((-1, 1)),
                         st.fractions(min_value=Fraction(1, 8), max_value=5,
                                      max_denominator=8),
                         st.sampled_from((1, 2, 3, 6)))),
           p=st.integers(-9, 9), q=st.integers(2, 6))
    @example(base=Fraction(-8), p=-2, q=3)
    @example(base=Fraction(-2), p=2, q=6)
    @example(base=Fraction(-2), p=1, q=2)
    @example(base=Fraction(0), p=-5, q=3)
    @settings(max_examples=300, deadline=None)
    def test_real_branch_in_every_domain(self, base, p, q):
        # a perfect power base = r**k has a rational root when e's
        # denominator divides k; the oracle for an irrational root is the
        # root of |base| raised to the power, with the sign (-1)^p of an odd
        # root of a negative base, for e = p/q in lowest terms
        e = Fraction(p, q)
        assume(e.denominator != 1)
        p, q = e.numerator, e.denominator
        tape = compile_tape(pow_(x, e), ("x",))
        runs = {"f64": lambda: tape.eval_f64([float(base)]),
                "mpf": lambda: tape.eval_mpf([base]),
                "many": lambda: tape.eval_f64_many([[float(base)]])[0]}
        try:
            want = rat_pow_exact(base, e)
        except (DivisionByZero, DomainError) as exc:
            for run in runs.values():
                with pytest.raises(type(exc)):
                    run()
            return
        with mpmath.workprec(400):
            if want is None:
                sign = (-1) ** p if base < 0 else 1
                size = mpmath.mpf(abs(base.numerator)) / base.denominator
                want = sign * mpmath.root(size, q) ** p
            else:
                want = mpmath.mpf(want.numerator) / want.denominator
            got = runs["mpf"]()
            assert abs(got - want) <= mpmath.mpf("1e-60") * abs(want)
        for name in ("f64", "many"):
            assert math.isclose(runs[name](), float(want), rel_tol=1e-12,
                                abs_tol=0), name


class TestBatchTape:
    """eval_f64_many runs the interpreter of eval_f64 row by row: its values
    are per-row eval_f64's bit for bit, and it raises what the first row
    that raises raises."""

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
                np.testing.assert_array_equal(tape.eval_f64_many(pts), rows)

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

    def test_first_row_that_raises_decides_the_error(self):
        tape = compile_tape(div(sqrt_(p), q), ("p", "q"))
        rows = [[4.0, 1.0], [-1.0, 1.0], [4.0, 0.0]]
        with pytest.raises(DomainError):
            tape.eval_f64_many(rows)
        with pytest.raises(DivisionByZero):
            tape.eval_f64_many(rows[::-1])

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

    def test_point_converts_as_a_float64_array(self):
        # each coordinate is float(x): the value numpy's float64 conversion
        # gives, bit for bit, for ints, rationals, numpy scalars and strings;
        # an int beyond float range raises OverflowError, as numpy does
        tape = compile_tape([p, div(p, q), p * q - q], ("p", "q"))
        points = [[1, 3], [Fraction(1, 3), Fraction(-10 ** 30, 7)],
                  np.array([0.1, -2.5]), [np.float32(0.1), np.int64(7)],
                  ["0.1", "1e-3"], [10 ** 308, 2 ** -1074]]
        for pt in points:
            want = tape.eval_f64(np.asarray(pt, dtype=np.float64).tolist())
            assert [v.hex() for v in tape.eval_f64(pt)] == \
                [v.hex() for v in want]
        with pytest.raises(OverflowError):
            np.asarray([10 ** 309, 1], dtype=np.float64)
        with pytest.raises(OverflowError):
            tape.eval_f64([10 ** 309, 1])


@functools.cache
def _expression_lists():
    """(chart, expressions) of the callers' sequence tapes: the quartic and
    quadric coefficients of each catalog pair, and the coframe coefficients,
    metric and its first and second derivatives of each catalog coframe."""
    from pathgeom import PairODE, catalog, catalog_names
    from pathgeom.invariants import (curvature_quartic, fels_invariants,
                                     torsion_quadric)
    from pathgeom.metrics import CoframeMetric
    out = []
    for name in catalog_names():
        obj = catalog(name)
        if isinstance(obj, PairODE):
            inv = fels_invariants(obj)
            out.append((obj.chart, list(curvature_quartic(inv).coefficients
                                        + torsion_quadric(inv).coefficients)))
        elif isinstance(obj, CoframeMetric):
            g = [e for row in obj.metric_components() for e in row]
            dg = [differentiate(e, v) for v in obj.chart for e in g]
            ddg = [differentiate(e, v) for v in obj.chart for e in dg]
            coef = [c for row in obj.coefficient_rows() for c in row]
            out.append((obj.chart, coef + g + dg + ddg))
    return out


def _raised(f):
    """The class of the evaluation error f raises, or None."""
    try:
        f()
    except (DivisionByZero, DomainError, OverflowError) as exc:
        return type(exc)
    return None


class TestSequenceTape:
    """A tape of a sequence of expressions returns, in every domain, what
    the expressions' own tapes return, each shared node compiled once."""

    def _cases(self, radical_free=False):
        for chart, exprs in _expression_lists():
            if radical_free and any(_has_radical(e) for e in exprs):
                continue
            seq = compile_tape(exprs, chart)
            singles = [compile_tape(e, chart) for e in exprs]
            assert len(seq) < sum(len(t) for t in singles)
            yield chart, seq, singles

    def test_cases_cover_pairs_and_coframes(self):
        sizes = sorted(len(exprs) for _, exprs in _expression_lists())
        assert sizes[0] == 8 and sizes[-1] == 16 + 16 + 64 + 256

    def test_exact_and_modp(self):
        rng = random.Random(3)
        compared = 0
        for chart, seq, singles in self._cases(radical_free=True):
            for _ in range(3):
                point = [Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                         for _ in chart]
                errors = {_raised(lambda: t.eval_exact(point))
                          for t in singles} - {None}
                if errors:
                    assert _raised(lambda: seq.eval_exact(point)) in errors
                    continue
                assert seq.eval_exact(point) == [t.eval_exact(point)
                                                 for t in singles]
                compared += 1
        assert compared >= 10

    def test_float_rows_and_columns(self):
        rng = np.random.default_rng(4)
        compared = 0
        for chart, seq, singles in self._cases():
            pts = rng.uniform(1, 4, size=(12, len(chart)))
            for pt in pts:
                errors = {_raised(lambda: t.eval_f64(pt)) for t in singles}
                if errors != {None}:
                    assert _raised(lambda: seq.eval_f64(pt)) in errors
                    continue
                assert [repr(v) for v in seq.eval_f64(pt)] == \
                    [repr(t.eval_f64(pt)) for t in singles]
                compared += 1
            rows = np.array([pt for pt in pts
                             if _raised(lambda: seq.eval_f64(pt)) is None])
            columns = seq.eval_f64_many(rows)
            assert len(columns) == len(singles)
            for column, t in zip(columns, singles):
                np.testing.assert_array_equal(column, t.eval_f64_many(rows))
        assert compared >= 20

    def test_mpf_values_and_scale(self):
        rng = random.Random(5)
        compared = 0
        for chart, seq, singles in self._cases():
            for _ in range(2):
                point = [Fraction(rng.randint(10, 40), rng.randint(1, 10))
                         for _ in chart]
                if _raised(lambda: seq.eval_mpf(point)) is not None:
                    continue
                values, scale = seq.eval_mpf(point, with_scale=True)
                assert seq.eval_mpf(point) == values
                got = [t.eval_mpf(point, with_scale=True) for t in singles]
                assert values == [v for v, _ in got]
                # the scale runs over every node, so over all the outputs'
                assert scale() == max(s() for _, s in got)
                compared += 1
        assert compared >= 5

    @pytest.mark.parametrize("bad, point", [
        (div(num(1), p - q), (2, 2)),
        (sqrt_(p - q), (1, 2)),
        (pow_(mul(num(10 ** 205), p ** 2), as_rat("3/2")), (1.9, 0)),
    ])
    def test_raising_output_raises_same_class(self, bad, point):
        single = compile_tape(bad, ("p", "q"))
        seq = compile_tape([p + q, bad, p * q], ("p", "q"))
        exact = [Fraction(c) for c in point]
        domains = (lambda t: t.eval_exact(exact),
                   lambda t: t.eval_f64(point),
                   lambda t: t.eval_f64_many([[3.0, 1.0], point]),
                   lambda t: t.eval_mpf(exact))
        raised = [_raised(lambda: run(single)) for run in domains]
        assert raised[1] is not None
        assert [_raised(lambda: run(seq)) for run in domains] == raised

    def test_empty_sequence(self):
        tape = compile_tape([], ("p",))
        assert len(tape) == 0
        assert tape.eval_exact([Fraction(1)]) == []
        assert tape.eval_f64([1.0]) == []
        assert tape.eval_f64_many([[1.0], [2.0]]) == []
        assert tape.eval_mpf([1.0]) == []

    def test_exact_values_are_rationals_at_int_points(self):
        values = compile_tape([div(num(1), x), x], ("x",)).eval_exact([2])
        assert values == [Fraction(1, 2), 2]
        assert all(type(v) is Fraction for v in values)

    def test_constant_beyond_float_range(self):
        # constants are converted to float on the first float evaluation
        tape = compile_tape([mul(num(10 ** 400), p), p], ("p",))
        assert tape.eval_exact([Fraction(1, 2)]) == [Fraction(10 ** 400, 2),
                                                      Fraction(1, 2)]
        with pytest.raises(OverflowError):
            tape.eval_f64([0.5])


_CONSTANTS = (1, -2, Fraction(-3, 7), Fraction(5, 4), 10 ** 400,
              Fraction(1, 2 ** 61 - 1))


def _fraction_value(roots, point):
    """Plain recursive Fraction evaluation of the roots at {name: value}.

    Children and roots are visited first to last, the order of a tape's
    instructions (`nodes.postorder`), so that where two nodes would raise,
    the one that raises is the one the tape reaches first."""
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            v = Fraction(node.value)
        elif isinstance(node, Var):
            v = Fraction(point[node.name])
        elif isinstance(node, (Add, Mul)):
            vals = [ev(a) for a in node.args]
            v = sum(vals, Fraction(0)) if isinstance(node, Add) else math.prod(vals)
        else:
            base, e = ev(node.base), node.exponent
            if e.denominator == 1:
                if base == 0 and e < 0:
                    raise DivisionByZero("0 to a negative power")
                bits = base.numerator.bit_length() + base.denominator.bit_length()
                if abs(e) * bits > rational.MAX_POWER_BITS:
                    raise ValueError("integer power too large")
                v = base ** int(e)
            else:
                bits = base.numerator.bit_length() + base.denominator.bit_length()
                if abs(e) * bits > rational.MAX_POWER_BITS:
                    raise ValueError("fractional power too large")
                v = rat_pow_exact(base, e, rational.MAX_POWER_BITS)
                if v is None:
                    raise DomainError("irrational power")
        memo[id(node)] = v
        return v

    return [ev(r) for r in roots]


@st.composite
def _exact_dags(draw):
    """One to three outputs of a random DAG over x, y, z whose nodes share
    subterms: n-ary sums and products, integer powers of either sign,
    rational constants, and fractional powers of perfect powers (plus plain
    square roots, which may leave the rationals)."""
    pool = [x, y, z]
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("add", "mul", "pow", "frac", "sqrt")))
        if kind in ("add", "mul"):
            args = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
            args += [num(c) for c in draw(st.lists(st.sampled_from(_CONSTANTS),
                                                   max_size=1))]
        else:
            base = draw(st.sampled_from(pool))
        try:
            if kind == "add":
                node = add(*args)
            elif kind == "mul":
                node = mul(*args)
            elif kind == "pow":
                node = pow_(base, draw(st.sampled_from((-3, -2, -1, 2, 3))))
            elif kind == "frac":
                q = draw(st.sampled_from((2, 3)))
                e = Fraction(draw(st.sampled_from((-3, -1, 1, 2, 5))), q)
                node = pow_(pow_(base, q), e)
            else:
                node = sqrt_(base)
        except (DivisionByZero, DomainError):
            continue   # folded to a constant that has no value
        except ValueError:
            continue   # a constant power beyond MAX_FOLD_BITS is refused
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool[-3:]), min_size=1, max_size=3))


class TestExactTape:
    """eval_exact against a recursive Fraction evaluator."""

    @given(_exact_dags(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, roots, int_point, data):
        if int_point:
            coords = st.integers(-4, 4)
        else:
            coords = st.fractions(-4, 4, max_denominator=12)
        point = {n: data.draw(coords) for n in ("x", "y", "z")}
        try:
            want = _fraction_value(roots, point)
        except (DivisionByZero, DomainError, ValueError) as exc:
            want = type(exc)
        exprs = roots[0] if len(roots) == 1 else roots
        tape = compile_tape(exprs, ("x", "y", "z"))
        try:
            got = tape.eval_exact([point[n] for n in ("x", "y", "z")])
        except (DivisionByZero, DomainError, ValueError) as exc:
            got = type(exc)
        if isinstance(want, type):
            assert got is want
            return
        got = [got] if len(roots) == 1 else got
        assert got == want
        assert all(type(v) is Fraction for v in got)

    def test_fractional_power_is_bounded_like_an_integer_power(self):
        # at a point drawn on the real branch, p^(601/2) = s^601 has more than
        # 2^MAX_FOLD_BITS in numerator and denominator, which only a folded
        # constant is refused for; MAX_POWER_BITS refuses it before the root
        s = Fraction(10 ** 6 - 1, 10 ** 6 - 3)
        tape = compile_tape(pow_(x, Fraction(601, 2)), ("x",))
        assert tape.eval_exact([s ** 2]) == s ** 601
        tape = compile_tape(pow_(x, Fraction(3001, 2)), ("x",))
        with pytest.raises(ValueError, match=f"beyond "
                           f"{rational.MAX_POWER_BITS} bits"):
            tape.eval_exact([s ** 2])

    def test_first_node_to_raise_matches_the_reference(self):
        # two children raise at this point: both sides reach the pole of the
        # first child before the negative radicand of the second
        e = add(pow_(pow_(y, 2), Fraction(-3, 2)), pow_(x, Fraction(1, 2)))
        with pytest.raises(DivisionByZero):
            _fraction_value([e], {"x": -1, "y": 0, "z": 0})
        with pytest.raises(DivisionByZero):
            compile_tape(e, ("x", "y", "z")).eval_exact([-1, 0, 0])


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

    @given(_DAGS, st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_limited_text_is_a_prefix_of_the_text(self, e, limit):
        # each node keeps limit + 1 characters of its text; the root's are
        # those of the whole text, also where a sum drops a term's "-"
        for node in (e, differentiate(e, "p"), neg(e)):
            assert to_text(node, limit) == to_text(node)[:limit + 1]


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
