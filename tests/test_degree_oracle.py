"""Degree bounds against sympy.

`Expr.degree_bound` must bound the total degree of the numerator plus that
of the denominator of the cancelled rational function.  With radicands that
are variables, v^(j/k) counts as j/k, and K times the bound must bound that
degree after v = s^K, for K a multiple of every root index of v: the zero
tester allots its trials for K times the bound on the real branch."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from pathgeom.expr import add, div, is_zero_probabilistic, num, pow_, var
from pathgeom.expr import zerotest

P, Q, Y = var("p"), var("q"), var("y")
S, SQ, SY = sympy.symbols("s q y", positive=True)


def _total_degree(e):
    """deg numerator + deg denominator of a sympy rational function, in
    lowest terms."""
    n, d = sympy.fraction(sympy.cancel(sympy.together(e)))
    return sum(sympy.Poly(f, S, SQ, SY).total_degree() for f in (n, d))


@st.composite
def _dags(draw, k):
    """(Expr, sympy expression at p = s^k): a random DAG over p, q and y,
    its powers of p with denominators dividing k, built bottom up from a
    pool, so that subterms are shared."""
    def atom():
        which = draw(st.sampled_from("pqyc"))
        if which == "p":
            exp = Fraction(draw(st.integers(-3, 3)),
                           draw(st.sampled_from([d for d in (1, 2, 3, 6)
                                                 if k % d == 0])))
            if exp == 0:
                return num(1), sympy.Integer(1)
            return pow_(P, exp), S ** int(exp * k)
        if which == "c":
            c = draw(st.integers(-3, 3))
            return num(c), sympy.Integer(c)
        return {"q": (Q, SQ), "y": (Y, SY)}[which]

    pool = [atom() for _ in range(draw(st.integers(2, 4)))]
    for _ in range(draw(st.integers(2, 8))):
        (a, sa), (b, sb) = draw(st.sampled_from(pool)), draw(
            st.sampled_from(pool))
        op = draw(st.sampled_from(["add", "sub", "mul", "div", "pow"]))
        if op == "add":
            pool.append((add(a, b), sa + sb))
        elif op == "sub":
            pool.append((a - b, sa - sb))
        elif op == "mul":
            pool.append((a * b, sa * sb))
        elif op == "div":
            if sympy.cancel(sb) != 0:
                pool.append((div(a, b), sa / sb))
        elif op == "pow":
            n = draw(st.integers(-2, 3))
            if n >= 0 or sympy.cancel(sa) != 0:
                pool.append((pow_(a, n), sa ** n))
    return pool[-1]


@given(_dags(1))
@settings(max_examples=150, deadline=None)
def test_rational_degree_bound_bounds_the_cancelled_degree(dag):
    e, se = dag
    assert not e.has_radical
    assert e.degree_bound >= _total_degree(se)


@given(st.sampled_from([2, 3, 6]).flatmap(
    lambda k: st.tuples(st.just(k), _dags(k))))
@settings(max_examples=150, deadline=None)
def test_branch_degree_bound_bounds_the_degree_in_s(case):
    k, (e, se) = case
    assert k * e.degree_bound >= _total_degree(se)


def test_sum_of_sixty_fractions():
    # 1/(y - 1) + ... + 1/(y - 60) is N/D in lowest terms, with D the product
    # of the y - i and N = 60 y^59 + ...: the largest degree of its terms, 1,
    # undercounts deg N + deg D = 119
    total = add(*(div(num(1), Y - i) for i in range(1, 61)))
    assert total.degree_bound == 119
    # (y - 1) S - 1 - (y - 1) (S - 1/(y - 1)) is zero; its allotment reaches
    # the target bound at its own degree
    rest = add(*(div(num(1), Y - i) for i in range(2, 61)))
    zero = (Y - 1) * total - 1 - (Y - 1) * rest
    verdict = is_zero_probabilistic(zero)
    assert verdict.is_zero
    assert verdict.degree_bound >= 119
    assert verdict.trials == zerotest.target_trials(verdict.degree_bound) >= 8
    assert verdict.failure_bound <= 2.0 ** -zerotest.TARGET_BITS
