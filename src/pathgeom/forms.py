"""Exterior calculus over coordinate charts with symbolic coefficients, the
quasi-symplectic 2-form cutting out chains of a 2D path geometry.

Forms are stored sparsely over strictly increasing index tuples; the chart
order fixes the sign conventions once.  Structural facts are decided
symbolically, with no float linear algebra: the kernel of a 2-form on an odd
chart is the vector of Pfaffian cofactors of its coefficient matrix
(`kernel_field`), and the generators of a Pfaffian system are independent
when their wedge is not identically zero, an identity claim decided by the
zero tester (`frobenius_integrable`).  That test takes a complex generator
as its (re, im) pair of real 1-forms and wedges every generator as a
complex form, a real one with imaginary part 0.  Its zero tests draw the
zero tester's allotment per entry (`target_trials`).
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import ChartMismatch, DependentGenerators, RankDeficient
from .expr import (Expr, Rat, ZERO, add, differentiate, div,
                   is_zero_probabilistic, mul, num, rename_variables, sub,
                   substitute, var)
from .expr.zerotest import zero_verdicts
from .jets import PairODE, ScalarODE

CHAIN_RHO_CHART = ("x", "y", "p", "b1", "b2")
CHAIN_PAIR_CHART = ("x", "y", "p", "Y", "P")


def _sort_index(idx):
    """Sort an index tuple, tracking permutation sign; None sign if repeated."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, None
    return tuple(idx), sign


class DifferentialForm:
    """Degree-k form: map from strictly increasing k-tuples of chart indices
    to coefficient expressions (zero coefficients dropped), read-only once
    built, so that a form can be shared (a catalog coframe's, say)."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps=None):
        self.chart = tuple(chart)
        self.degree = degree
        own = {}
        allowed = set(self.chart)
        for idx, c in (comps or {}).items():
            key, sign = _sort_index(idx)
            if key is None or isinstance(c, Expr) and c is ZERO:
                continue
            if not isinstance(c, Expr):
                c = num(c)
            extra = c.free_variables - allowed
            if extra:
                raise ChartMismatch(f"coefficient uses {sorted(extra)} "
                                    f"outside chart {self.chart}")
            c = c if sign == 1 else mul(num(-1), c)
            if key in own:
                c = add(own[key], c)
            if c is ZERO:
                own.pop(key, None)
            else:
                own[key] = c
        self.comps = MappingProxyType(own)

    def __eq__(self, other):
        return (isinstance(other, DifferentialForm) and self.chart == other.chart
                and self.degree == other.degree and self.comps == other.comps)

    __hash__ = None

    def __repr__(self):
        if not self.comps:
            return f"<0-form 0 on {self.chart}>" if self.degree == 0 else \
                   f"<{self.degree}-form 0 on {self.chart}>"
        terms = []
        for idx in sorted(self.comps):
            basis = "^".join(f"d{self.chart[i]}" for i in idx)
            terms.append(f"({self.comps[idx]}) {basis}")
        return " + ".join(terms)

    def coefficient(self, *names):
        idx = tuple(self.chart.index(n) for n in names)
        key, sign = _sort_index(idx)
        c = self.comps.get(key, ZERO)
        return c if sign in (1, None) else mul(num(-1), c)

    def _binary_check(self, other):
        if not isinstance(other, DifferentialForm):
            raise TypeError("expected a DifferentialForm")
        if other.chart != self.chart:
            raise ChartMismatch(f"charts differ: {self.chart} vs {other.chart}")

    def __add__(self, other):
        self._binary_check(other)
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            comps[idx] = add(comps[idx], c) if idx in comps else c
        return DifferentialForm(self.chart, self.degree, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        f = factor if isinstance(factor, Expr) else num(factor)
        return DifferentialForm(self.chart, self.degree,
                                {idx: mul(f, c) for idx, c in self.comps.items()})

    def is_structurally_zero(self):
        return not self.comps


def zero_form(chart, degree):
    return DifferentialForm(chart, degree)


def d(chart, name):
    """The coordinate differential d(name) as a 1-form."""
    chart = tuple(chart)
    return DifferentialForm(chart, 1, {(chart.index(name),): num(1)})


def one_form(chart, coeffs: dict):
    """1-form from {variable name: coefficient}."""
    chart = tuple(chart)
    return DifferentialForm(chart, 1,
                            {(chart.index(n),): c for n, c in coeffs.items()})


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    a._binary_check(b)
    comps = {}
    for i1, c1 in a.comps.items():
        for i2, c2 in b.comps.items():
            key, sign = _sort_index(i1 + i2)
            if key is None:
                continue
            term = mul(c1, c2) if sign == 1 else mul(num(-1), c1, c2)
            comps[key] = add(comps[key], term) if key in comps else term
    return DifferentialForm(a.chart, a.degree + b.degree, comps)


def wedge_all(*forms):
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    comps = {}
    for idx, c in a.comps.items():
        for k, name in enumerate(a.chart):
            dc = differentiate(c, name)
            if dc is ZERO:
                continue
            key, sign = _sort_index((k,) + idx)
            if key is None:
                continue
            term = dc if sign == 1 else mul(num(-1), dc)
            comps[key] = add(comps[key], term) if key in comps else term
    return DifferentialForm(a.chart, a.degree + 1, comps)


def pullback(a: DifferentialForm, target_chart, component_map: dict) -> DifferentialForm:
    """Pullback under the map whose components express each source variable as
    an expression over the target chart (substitution plus the chain rule)."""
    target_chart = tuple(target_chart)
    images = {}
    for name in a.chart:
        img = component_map.get(name)
        if img is None:
            img = var(name)
        images[name] = img if isinstance(img, Expr) else num(img)
    diffs = {}
    for name, img in images.items():
        diffs[name] = one_form(target_chart,
                               {m: differentiate(img, m) for m in target_chart})
    out = zero_form(target_chart, a.degree)
    subs = dict(images)
    for idx, c in a.comps.items():
        pulled_coeff = substitute(c, subs)
        if idx:
            basis = wedge_all(*[diffs[a.chart[i]] for i in idx])
            out = out + basis.scale(pulled_coeff)
        else:
            out = out + DifferentialForm(target_chart, 0, {(): pulled_coeff})
    return out


# -- the chain 2-form and its characteristic system ---------------------------

def rho_chain(sys: ScalarODE) -> DifferentialForm:
    """Quasi-symplectic 2-form whose characteristic curves are the chains of
    the 2D path geometry of z'' = F, on the chart (x, y, p, b1, b2)."""
    chart = CHAIN_RHO_CHART
    F = rename_variables(sys.rhs, {sys.chart[0]: "x", sys.chart[1]: "y",
                                   sys.chart[2]: "p"})
    x, y, p, b1, b2 = (var(n) for n in chart)
    Fx, Fy, Fp = (differentiate(F, n) for n in ("x", "y", "p"))
    Fpp = differentiate(Fp, "p")
    Fppp = differentiate(Fpp, "p")
    Fxpp = differentiate(Fpp, "x")
    Fyp = differentiate(Fp, "y")
    Fypp = differentiate(Fpp, "y")
    comps = {
        ("p", "b1"): num(-1),
        ("p", "y"): mul(num(Rat(-1, 6)), Fppp),
        ("x", "p"): add(mul(b2, b1), mul(num(Rat(1, 2)), Fpp), mul(b1, Fp),
                        mul(num(Rat(-1, 6)), p, Fppp)),
        ("x", "b2"): add(mul(b1, p), num(1)),
        ("x", "b1"): add(mul(p, b2), F),
        ("x", "y"): add(mul(num(Rat(-1, 6)), Fxpp), mul(num(Rat(2, 3)), Fyp),
                        mul(b1, Fy), mul(num(Rat(-1, 6)), p, Fypp)),
        ("y", "b2"): mul(num(-1), b1),
        ("y", "b1"): mul(num(-1), b2),
    }
    indexed = {tuple(chart.index(n) for n in names): c for names, c in comps.items()}
    return DifferentialForm(chart, 2, indexed)


def coefficient_matrix(a: DifferentialForm):
    """Antisymmetric matrix M with M[i][j] the coefficient of dx_i ^ dx_j."""
    n = len(a.chart)
    M = [[ZERO] * n for _ in range(n)]
    for (i, j), c in a.comps.items():
        M[i][j] = c
        M[j][i] = mul(num(-1), c)
    return M


def _pfaffian(M, rows):
    """Pfaffian of the principal submatrix of M on `rows` (an even number of
    indices), expanded along its first row."""
    if not rows:
        return num(1)
    first, rest = rows[0], rows[1:]
    terms = []
    for k, r in enumerate(rest):
        minor = _pfaffian(M, rest[:k] + rest[k + 1:])
        terms.append(mul(M[first][r], minor) if k % 2 == 0
                     else mul(num(-1), M[first][r], minor))
    return add(*terms)


def kernel_field(a: DifferentialForm):
    """Symbolic kernel of a 2-form on an odd chart via Pfaffian cofactors:
    v_i = (-1)^i Pf(M with row/column i removed).  Mv = 0 identically, and
    v != 0 exactly where the matrix has corank 1."""
    n = len(a.chart)
    if n % 2 == 0 or a.degree != 2:
        raise ValueError("expected a 2-form on an odd-dimensional chart")
    M = coefficient_matrix(a)
    rows = tuple(range(n))
    comps = []
    for i in rows:
        pf = _pfaffian(M, rows[:i] + rows[i + 1:])
        comps.append(pf if i % 2 == 0 else mul(num(-1), pf))
    return comps


def chain_pair_via_rho(sys: ScalarODE) -> PairODE:
    """Chains of z'' = F as a pair of 2nd-order ODEs, derived from the
    characteristic direction of the quasi-symplectic 2-form after the change
    of variables Y = (p b1 + 1)/b1, P = (F b1 - b2)/b1.

    The derivation is independent of the closed-form generator in
    constructions.chain_pair_from_scalar; pipelines compare the two.  Its
    zero tests draw the default allotment at seed 0, whatever a command's.
    """
    rho = rho_chain(sys)
    chart = CHAIN_PAIR_CHART
    x, y, p, Y, P = (var(n) for n in chart)
    F = rename_variables(sys.rhs, {sys.chart[0]: "x", sys.chart[1]: "y",
                                   sys.chart[2]: "p"})
    inv_delta = div(num(1), sub(Y, p))
    bmap = {"b1": inv_delta, "b2": mul(sub(F, P), inv_delta)}
    pulled = pullback(rho, chart, bmap)
    v = kernel_field(pulled)
    vx = v[0]
    if is_zero_probabilistic(vx).is_zero:
        raise RankDeficient("characteristic field is tangent to x = const")
    verdicts = zero_verdicts([sub(v[1], mul(Y, vx)), sub(v[2], mul(P, vx))])
    if not verdicts[-1].is_zero:
        label = ("dy/dx", "dp/dx")[len(verdicts) - 1]
        raise RankDeficient(f"characteristic field has {label} != "
                            "the expected jet coordinate")
    return PairODE(div(v[3], vx), div(v[4], vx), chart=chart)


def _complex_wedge(a, b):
    """The wedge of two complex forms, each given as its (re, im) pair of
    real forms, as the (re, im) pair of the product."""
    (a_re, a_im), (b_re, b_im) = a, b
    return (wedge(a_re, b_re) - wedge(a_im, b_im),
            wedge(a_re, b_im) + wedge(a_im, b_re))


def frobenius_integrable(generators, seed=0) -> list:
    """Frobenius test for the Pfaffian system spanned by the given 1-forms:
    integrable iff d(theta) ^ theta_1 ^ ... ^ theta_k == 0 for every
    generator theta.  A generator is a real 1-form, or a complex one given
    as its (re, im) pair of real 1-forms; a real generator g counts as
    (g, 0).  Returns the ZeroVerdicts of the coefficients (of the real, then
    the imaginary part of each wedge) up to the first nonzero one, all zero
    iff the system is integrable.

    The generators must be independent: DependentGenerators when every
    coefficient of theta_1 ^ ... ^ theta_k is decided zero, at once when
    the wedge is structurally zero."""
    gens = list(generators)
    if not gens:
        raise DependentGenerators("no generators")
    first = gens[0] if isinstance(gens[0], DifferentialForm) else gens[0][0]
    zero = zero_form(first.chart, 1)
    gens = [(g, zero) if isinstance(g, DifferentialForm) else tuple(g)
            for g in gens]
    for re, im in gens:
        if any(f.degree != 1 or f.chart != first.chart for f in (re, im)):
            raise ChartMismatch("generators must be 1-forms on a common chart")
    span = gens[0]
    for g in gens[1:]:
        span = _complex_wedge(span, g)
    if all(zero_verdicts([c for part in span for c in part.comps.values()],
                         seed=seed)):
        raise DependentGenerators("the wedge of the generators vanishes "
                                  "identically")
    coefficients = (c for re, im in gens
                    for part in _complex_wedge((exterior_derivative(re),
                                                exterior_derivative(im)), span)
                    for c in part.comps.values())
    return zero_verdicts(coefficients, seed=seed)
