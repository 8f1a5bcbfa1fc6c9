"""Exact tape evaluation on unreduced int pairs (`Tape.eval_exact`) and the
int-pair draws that feed it (`sampling.draw_pairs`)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathgeom.errors import DivisionByZero, DomainError
from pathgeom.expr import add, compile_tape, mul, num, pow_, variables
from pathgeom.expr import rational, sampling, tape as tape_module
from pathgeom.expr.nodes import Add, Mul, Num, Var
from pathgeom.expr.rational import rat_pow_exact

x, y, z = variables("x y z")
NAMES = ("x", "y", "z")


def _reference(roots, point):
    """Plain recursive Fraction evaluation of the roots at {name: value},
    children first, in the order of a tape's instructions, so that where
    two nodes would raise, the one that raises is the one the tape reaches
    first.  Every value is a Fraction, in lowest terms."""
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            v = Fraction(node.value)
        elif isinstance(node, Var):
            v = Fraction(point[node.name])
        elif isinstance(node, Add):
            v = sum((ev(a) for a in node.args), Fraction(0))
        elif isinstance(node, Mul):
            v = math.prod((ev(a) for a in node.args), start=Fraction(1))
        else:
            base, e = ev(node.base), Fraction(node.exponent)
            bits = base.numerator.bit_length() + base.denominator.bit_length()
            if abs(e) * bits > rational.MAX_POWER_BITS:
                raise ValueError("power too large")
            if e.denominator == 1:
                if base == 0 and e < 0:
                    raise DivisionByZero("0 to a negative power")
                v = base ** int(e)
            else:
                v = rat_pow_exact(base, e, rational.MAX_POWER_BITS)
                if v is None:
                    raise DomainError("irrational power")
                v = Fraction(v)
        memo[id(node)] = v
        return v

    return [ev(r) for r in roots]


def _outcome(run):
    try:
        return run()
    except (DivisionByZero, DomainError, ValueError) as exc:
        return type(exc)


@st.composite
def _dags(draw):
    """One to three outputs of a random DAG over x, y, z with shared
    subterms: n-ary sums and products (long ones too), integer powers of
    either sign, and fractional powers on the real branch, as the rational
    (b^q)^(j/q), negative for odd q and negative b."""
    pool = [x, y, z]
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(("add", "mul", "pow", "frac")))
        if kind in ("add", "mul"):
            args = draw(st.lists(st.sampled_from(pool), min_size=2,
                                 max_size=6))
            if draw(st.booleans()):
                args.append(num(draw(st.sampled_from(
                    (-1, 3, Fraction(-5, 7), Fraction(2, 9))))))
            node = (add if kind == "add" else mul)(*args)
        else:
            base = draw(st.sampled_from(pool))
            if kind == "pow":
                node = pow_(base, draw(st.sampled_from((-3, -2, -1, 2, 3))))
            else:
                q = draw(st.sampled_from((2, 3)))
                j = draw(st.sampled_from((-2, -1, 1, 4, 5)))
                node = pow_(pow_(base, q), Fraction(j, q))
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool[-4:]), min_size=1, max_size=3))


# coordinates up to 2^200 in numerator and denominator, so a product of a
# few of them passes NORMALIZE_BITS
_BIG = 2 ** 200
_coordinates = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.fractions(-4, 4, max_denominator=12),
    st.tuples(st.integers(-_BIG, _BIG), st.integers(1, _BIG))
    .map(lambda nd: Fraction(*nd)))


@given(_dags(), st.lists(_coordinates, min_size=3, max_size=3),
       st.lists(st.integers(1, 2 ** 64), min_size=3, max_size=3))
@example([mul(*(add(v, 1) for v in (x, y, z, x * y, y * z, x * z)))],
         [Fraction(_BIG - 1, _BIG - 3)] * 3, [1, 3, 2 ** 64])
@settings(max_examples=300, deadline=None)
def test_matches_the_fraction_reference(roots, coords, factors):
    point = dict(zip(NAMES, coords))
    want = _outcome(lambda: _reference(roots, point))
    tape = compile_tape(roots[0] if len(roots) == 1 else roots, NAMES)
    # the same point as rationals, as reduced pairs and as unreduced pairs
    as_pairs = [(q.numerator, q.denominator) for q in coords]
    unreduced = [(n * c, d * c) for (n, d), c in zip(as_pairs, factors)]
    for given_point in (coords, as_pairs, unreduced):
        got = _outcome(lambda: tape.eval_exact(given_point))
        if isinstance(want, type):
            assert got is want
            continue
        got = [got] if len(roots) == 1 else got
        assert got == want
        assert all(type(v) is Fraction for v in got)


def test_values_past_the_normalization_size_are_exact():
    # a product of six sums at 200-bit coordinates has a denominator of
    # about 1,600 bits, past NORMALIZE_BITS, so the loop reduces it
    e = mul(*(add(v, 1) for v in (x, y, z, x * y, y * z, x * z)))
    point = [Fraction(_BIG - 1, _BIG - 3), Fraction(-_BIG + 5, _BIG + 7),
             Fraction(3, _BIG + 1)]
    want, = _reference([e], dict(zip(NAMES, point)))
    assert want.denominator.bit_length() > tape_module.NORMALIZE_BITS
    assert compile_tape(e, NAMES).eval_exact(point) == want


@pytest.mark.parametrize("base", [mul(x, y), add(x, y)])
def test_a_power_sees_its_reduced_operand(base):
    # x = a/b and y = b/a (or (b - a)/b): their product (sum) is 1, held
    # unreduced as (ab, ab) (or (b, b)), below NORMALIZE_BITS; ^250 of that
    # pair would pass MAX_POWER_BITS, ^250 of 1 does not
    a, b = 3 ** 160 + 2, 7 ** 90 + 4
    second = Fraction(b, a) if base is mul(x, y) else Fraction(b - a, b)
    assert 250 * 2 * b.bit_length() > rational.MAX_POWER_BITS
    assert (a * b).bit_length() <= tape_module.NORMALIZE_BITS
    tape = compile_tape(pow_(base, 250), ("x", "y"))
    assert tape.eval_exact([Fraction(a, b), second]) == 1
    # also when the coordinates themselves come unreduced
    c = 2 ** 30 + 1
    assert tape.eval_exact([(a * c, b * c), (second.numerator * c,
                                            second.denominator * c)]) == 1


@pytest.mark.parametrize("ranges", [
    [None, None, None],                       # the default box
    [2, 3, None],                             # root indices, on the branch
    [(Fraction(-1, 3), Fraction(5, 2)), None, 4],
    [(Fraction(1, 10 ** 9), Fraction(2, 10 ** 9)), (0, 1), None],  # midpoint
])
@pytest.mark.parametrize("bound", [7, 40, 10 ** 6])
def test_draw_pairs_and_draw_exact_draw_the_same_points(ranges, bound):
    pairs_rng, exact_rng = random.Random(11), random.Random(11)
    for _ in range(50):
        pairs = sampling.draw_pairs(pairs_rng, ranges, bound)
        assert all(type(n) is int and type(d) is int and d > 0
                   for n, d in pairs)
        assert sampling.rationals(pairs) == sampling.draw_exact(
            exact_rng, ranges, bound)
    # the two streams made the same rng calls
    assert pairs_rng.random() == exact_rng.random()


def test_an_interval_no_denominator_fits_is_drawn_at_its_midpoint():
    lo, hi = Fraction(1, 10 ** 9), Fraction(2, 10 ** 9)
    pairs = sampling.draw_pairs(random.Random(0), [(lo, hi)], 7)
    assert sampling.rationals(pairs) == [(lo + hi) / 2]


def test_a_pair_needs_a_positive_denominator():
    tape = compile_tape(add(x, 1), ("x",))
    assert tape.eval_exact([(-6, 4)]) == Fraction(-1, 2)
    for bad in [(1, 0), (1, -2), (1.0, 2)]:
        with pytest.raises(TypeError):
            tape.eval_exact([bad])
