"""Fundamental invariants of ODE pairs and scalar 2nd-order ODEs under point
transformations, packaged as binary forms.

For a pair (u^i)'' = F^i(t, u, q) the torsion is the trace-free matrix

    T^i_j = F^i_j - (1/2) d^i_j F^k_k,
    F^i_j = -dF^i/du^j + (1/2) D(dF^i/dq^j) - (1/4) sum_k dF^i/dq^k dF^k/dq^j,

with D the total derivative, and the curvature is the totally symmetric

    C^i_{jkl} = d^3 F^i/dq^j dq^k dq^l - (3/4) * Sym_(jkl)[ G_{jk} d^i_l ],
    G_{jk}    = sum_r d^3 F^r / dq^r dq^j dq^k,

where the round-bracket symmetrizer is the average over permutations; this is
the unique weight under which both trace identities T^i_i = 0 and
sum_i C^i_{ijk} = 0 hold, and the property suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .expr import Expr, Rat, add, differentiate, mul, num, sub
from .jets import PairODE, ScalarODE, total_derivative, total_derivative_scalar
from .memo import memoized

HALF = num(Rat(1, 2))
QUARTER = num(Rat(1, 4))


def fels_F_matrix(sys: PairODE):
    """The 2x2 matrix F^i_j entering both torsion and its trace."""
    _, u1, u2, q1, q2 = sys.chart
    u = (u1, u2)
    q = (q1, q2)
    F = sys.rhs
    Fq = [[differentiate(F[i], q[j]) for j in range(2)] for i in range(2)]
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            quad = add(*[mul(Fq[i][k], Fq[k][j]) for k in range(2)])
            row.append(add(mul(num(-1), differentiate(F[i], u[j])),
                           mul(HALF, total_derivative(Fq[i][j], sys)),
                           mul(num(Rat(-1, 4)), quad)))
        out.append(tuple(row))
    return tuple(out)


def fels_torsion(sys: PairODE):
    """Trace-free torsion matrix T^i_j (2x2 tuple of Expr)."""
    FM = fels_F_matrix(sys)
    trace = add(FM[0][0], FM[1][1])
    return tuple(tuple(sub(FM[i][j], mul(HALF, trace)) if i == j else FM[i][j]
                       for j in range(2)) for i in range(2))


def fels_curvature(sys: PairODE):
    """Curvature components C^i_{jkl}, keyed by (i, (j, k, l)) with
    1-based indices and (j, k, l) sorted; totally symmetric by construction."""
    q = (sys.chart[3], sys.chart[4])
    F = sys.rhs

    def d3(i, j, k, l):
        return differentiate(differentiate(differentiate(F[i], q[j]), q[k]), q[l])

    G = {}
    for j in range(2):
        for k in range(j, 2):
            G[(j, k)] = add(*[d3(r, r, j, k) for r in range(2)])

    def g(j, k):
        return G[(j, k) if j <= k else (k, j)]

    out = {}
    for i in range(2):
        for jkl in combinations_with_replacement(range(2), 3):
            j, k, l = jkl
            delta = lambda a, b: 1 if a == b else 0
            correction = add(mul(g(j, k), num(delta(i, l))),
                             mul(g(k, l), num(delta(i, j))),
                             mul(g(j, l), num(delta(i, k))))
            comp = sub(d3(i, j, k, l), mul(QUARTER, correction))
            out[(i + 1, tuple(n + 1 for n in jkl))] = comp
    return out


@dataclass(frozen=True)
class FelsInvariants:
    system: PairODE
    torsion: tuple         # 2x2 tuple of Expr, trace-free
    curvature: dict        # (i, (j,k,l)) -> Expr


def fels_invariants(sys: PairODE) -> FelsInvariants:
    """The torsion and curvature of a pair, derived once per system: they
    are kept weakly on `sys` (`memo`), without `sys` itself, and each call
    returns a fresh wrapper with its own curvature dict."""
    torsion, curvature = memoized(
        sys, "fels", lambda: (fels_torsion(sys), fels_curvature(sys)))
    return FelsInvariants(sys, torsion, dict(curvature))


@dataclass(frozen=True)
class TorsionQuadric:
    """Coefficients of the binary quadric A0 x^2 + 2 A1 x y + A2 y^2
    packaging the torsion: A0 = T^2_1, A1 = T^2_2, A2 = -T^1_2."""

    a0: Expr
    a1: Expr
    a2: Expr

    @property
    def coefficients(self):
        return (self.a0, self.a1, self.a2)


@dataclass(frozen=True)
class CurvatureQuartic:
    """Coefficients of the binary quartic
    W0 x^4 + 4 W1 x^3 y + 6 W2 x^2 y^2 + 4 W3 x y^3 + W4 y^4
    packaging the curvature: W0 = C^2_111, W1 = C^2_211, W2 = C^2_221,
    W3 = C^2_222, W4 = -C^1_222."""

    w0: Expr
    w1: Expr
    w2: Expr
    w3: Expr
    w4: Expr

    @property
    def coefficients(self):
        return (self.w0, self.w1, self.w2, self.w3, self.w4)


def torsion_quadric(inv: FelsInvariants) -> TorsionQuadric:
    T = inv.torsion
    return TorsionQuadric(a0=T[1][0], a1=T[1][1], a2=mul(num(-1), T[0][1]))


def curvature_quartic(inv: FelsInvariants) -> CurvatureQuartic:
    C = inv.curvature
    return CurvatureQuartic(w0=C[(2, (1, 1, 1))],
                            w1=C[(2, (1, 1, 2))],
                            w2=C[(2, (1, 2, 2))],
                            w3=C[(2, (2, 2, 2))],
                            w4=mul(num(-1), C[(1, (2, 2, 2))]))


@dataclass(frozen=True)
class ScalarInvariants:
    """The two fundamental invariants of a scalar 2nd-order ODE; both vanish
    exactly for the point-equivalence class of z'' = 0."""

    t1: Expr
    c1: Expr


def scalar_invariants(sys: ScalarODE) -> ScalarInvariants:
    F = sys.rhs
    _, z, p = sys.chart

    def D(e):
        return total_derivative_scalar(e, sys)

    Fz = differentiate(F, z)
    Fp = differentiate(F, p)
    Fzp = differentiate(Fz, p)
    Fpp = differentiate(Fp, p)
    Fzz = differentiate(Fz, z)
    t1 = add(D(D(Fpp)),
             mul(num(-4), D(Fzp)),
             mul(num(-1), Fp, D(Fpp)),
             mul(num(4), Fp, Fzp),
             mul(num(-3), Fz, Fpp),
             mul(num(6), Fzz))
    c1 = differentiate(differentiate(Fpp, p), p)
    return ScalarInvariants(t1=t1, c1=c1)
