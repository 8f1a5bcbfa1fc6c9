"""The Fels torsion and curvature of random polynomial pairs, re-derived in
sympy from the formulas of `pathgeom.invariants` and compared exactly.

The pairs are drawn as the `random_systems` benchmark draws them: each of F1
and F2 has 4 terms with coefficients +-(1..6)/(1..4) and monomials of total
degree at most 2, 3 or 4 in t, u1, u2, q1, q2.  sympy parses the same text on
its own and differentiates it; the torsion

    T^i_j = F^i_j - (1/2) d^i_j F^k_k,
    F^i_j = -dF^i/du^j + (1/2) D(dF^i/dq^j) - (1/4) sum_k dF^i/dq^k dF^k/dq^j,

and the curvature

    C^i_{jkl} = d^3 F^i/dq^j dq^k dq^l - (3/4) Sym_(jkl)[ G_{jk} d^i_l ],
    G_{jk}    = sum_r d^3 F^r / dq^r dq^j dq^k,

with Sym the average over the six orderings of (j, k, l), must equal
`evaluate(..., "exact")` of the package's expressions at random rational
points.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
import sympy

from pathgeom.dsl import parse
from pathgeom.expr import evaluate
from pathgeom.invariants import fels_invariants

NAMES = ("t", "u1", "u2", "q1", "q2")
TERMS = 4
POINTS = 3


def _monomial(rng, degree):
    factors = []
    budget = degree
    for n in rng.sample(NAMES, len(NAMES)):
        e = rng.randint(0, budget)
        budget -= e
        if e:
            factors.append(n if e == 1 else f"{n}^{e}")
    return factors


def _polynomial(rng, degree):
    terms = []
    for _ in range(TERMS):
        c = f"({rng.choice((-1, 1)) * rng.randint(1, 6)}/{rng.randint(1, 4)})"
        terms.append("*".join([c] + _monomial(rng, degree)))
    return " + ".join(terms)


def _sympy_invariants(f1, f2):
    """{label: sympy expression} of the four torsion entries and the eight
    curvature components, keyed as `FelsInvariants` keys them."""
    symbols = sympy.symbols(NAMES)
    t, u1, u2, q1, q2 = symbols
    u, q = (u1, u2), (q1, q2)
    F = [sympy.sympify(f.replace("^", "**"), locals=dict(zip(NAMES, symbols)))
         for f in (f1, f2)]

    def D(e):
        return (e.diff(t) + q1 * e.diff(u1) + q2 * e.diff(u2)
                + F[0] * e.diff(q1) + F[1] * e.diff(q2))

    half, quarter = sympy.Rational(1, 2), sympy.Rational(1, 4)
    FM = [[-F[i].diff(u[j]) + half * D(F[i].diff(q[j]))
           - quarter * sum(F[i].diff(q[k]) * F[k].diff(q[j]) for k in range(2))
           for j in range(2)] for i in range(2)]
    trace = FM[0][0] + FM[1][1]
    out = {("T", i + 1, j + 1): FM[i][j] - (half * trace if i == j else 0)
           for i in range(2) for j in range(2)}

    def d3(i, j, k, l):
        return F[i].diff(q[j], q[k], q[l])

    def G(j, k):
        return sum(d3(r, r, j, k) for r in range(2))

    for i in range(2):
        for jkl in combinations_with_replacement(range(2), 3):
            sym = sum(G(a, b) * (1 if i == c else 0)
                      for a, b, c in permutations(jkl)) / 6
            out[("C", i + 1, tuple(n + 1 for n in jkl))] = (
                d3(i, *jkl) - sympy.Rational(3, 4) * sym)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_fels_invariants_against_sympy(seed):
    rng = random.Random(f"invariants_oracle/{seed}")
    degree = 2 + seed % 3
    f1, f2 = _polynomial(rng, degree), _polynomial(rng, degree)
    pair = parse(f"pair_ode pair {{ vars {' '.join(NAMES)}; "
                 f"F1 = {f1}; F2 = {f2}; }}").get("pair")
    inv = fels_invariants(pair)
    ours = {("T", i + 1, j + 1): inv.torsion[i][j]
            for i in range(2) for j in range(2)}
    ours.update({("C", i, jkl): e for (i, jkl), e in inv.curvature.items()})
    oracle = _sympy_invariants(f1, f2)
    assert ours.keys() == oracle.keys()
    for _ in range(POINTS):
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for n in NAMES}
        subs = {sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
                for n, v in point.items()}
        for label, e in ours.items():
            want = sympy.Rational(oracle[label].xreplace(subs))
            got = evaluate(e, point, "exact")
            assert got == Fraction(int(want.p), int(want.q)), (label, point)
