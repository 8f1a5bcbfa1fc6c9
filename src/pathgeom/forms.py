"""Exterior calculus over coordinate charts with symbolic coefficients, the
quasi-symplectic 2-form cutting out chains of a 2D path geometry, and
characteristic/kernel extraction.

Forms are stored sparsely over strictly increasing index tuples; the chart
order fixes the sign conventions once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatch, DependentGenerators, RankDeficient
from .expr import (Expr, Rat, ZERO, add, compile_tape, differentiate, div,
                   is_zero_probabilistic, mul, num, rename_variables, sub,
                   substitute, var)
from .expr.sampling import sample_points
from .expr.zerotest import zero_verdicts
from .jets import PairODE, ScalarODE

CHAIN_RHO_CHART = ("x", "y", "p", "b1", "b2")
CHAIN_PAIR_CHART = ("x", "y", "p", "Y", "P")
KERNEL_TOL = 1e-10        # relative singular value counted as 0 (floats)
RHO_CHECK_TRIALS = 8      # trials of chain_pair_via_rho's identity checks
INDEPENDENCE_POINTS = 10  # draws of _check_independent


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
    to coefficient expressions (zero coefficients dropped)."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart, degree, comps=None):
        self.chart = tuple(chart)
        self.degree = degree
        self.comps = {}
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
            if key in self.comps:
                c = add(self.comps[key], c)
            if c is ZERO:
                self.comps.pop(key, None)
            else:
                self.comps[key] = c

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


def interior_product(components, a: DifferentialForm) -> DifferentialForm:
    """Contraction with the vector field sum_i components[i] d/d(chart[i]);
    components are expressions (or numbers) in chart order."""
    comps = [c if isinstance(c, Expr) else num(c) for c in components]
    if len(comps) != len(a.chart):
        raise ChartMismatch("vector components must match the chart dimension")
    out = {}
    for idx, c in a.comps.items():
        for pos, i in enumerate(idx):
            if comps[i] is ZERO:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = mul(comps[i], c)
            if pos % 2 == 1:
                term = mul(num(-1), term)
            out[rest] = add(out[rest], term) if rest in out else term
    return DifferentialForm(a.chart, a.degree - 1, out)


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


def _pfaffian4(M, rows):
    a, b, c, e = rows
    return add(mul(M[a][b], M[c][e]),
               mul(num(-1), M[a][c], M[b][e]),
               mul(M[a][e], M[b][c]))


def kernel_field_5(a: DifferentialForm):
    """Symbolic kernel of a 2-form on a 5-chart via Pfaffian cofactors:
    v_i = (-1)^i Pf(M with row/column i removed).  Mv = 0 identically, and
    v != 0 exactly where the matrix has rank 4."""
    if len(a.chart) != 5 or a.degree != 2:
        raise ValueError("expected a 2-form on a 5-dimensional chart")
    M = coefficient_matrix(a)
    comps = []
    for i in range(5):
        rows = [r for r in range(5) if r != i]
        pf = _pfaffian4(M, rows)
        comps.append(pf if i % 2 == 0 else mul(num(-1), pf))
    return comps


@dataclass(frozen=True)
class VectorFieldValue:
    chart: tuple
    components: tuple


def characteristic_direction(a: DifferentialForm,
                             point: dict) -> VectorFieldValue:
    """Kernel direction of a degree-2 form at a point on an odd chart,
    normalized so its first nonzero component is 1.  The coefficient matrix
    must have corank exactly 1 (else RankDeficient)."""
    n = len(a.chart)
    if n % 2 == 0 or a.degree != 2:
        raise ValueError("expected a 2-form on an odd-dimensional chart")
    from .expr import evaluate

    exact = all(not isinstance(v, float) for v in point.values()) \
        and not any(c.has_radical for c in a.comps.values())
    M = [[None] * n for _ in range(n)]
    symbolic = coefficient_matrix(a)
    mode = "exact" if exact else "floating"
    for i in range(n):
        for j in range(n):
            M[i][j] = evaluate(symbolic[i][j], point, mode) if symbolic[i][j] is not ZERO \
                else (Rat(0) if exact else 0.0)
    if exact:
        kernel = _exact_kernel(M, n)
    else:
        kernel = _float_kernel(M, n)
    first = next((k for k, v in enumerate(kernel) if v != 0), None)
    if first is None:
        raise RankDeficient("kernel extraction returned the zero vector")
    scale = kernel[first]
    return VectorFieldValue(a.chart, tuple(v / scale for v in kernel))


def _exact_kernel(M, n):
    rows = [list(r) + [Rat(0)] for r in M]
    piv_cols = []
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, n) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for k in range(n):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        piv_cols.append(col)
        r += 1
    if n - r != 1:
        raise RankDeficient(f"corank is {n - r}, expected 1")
    free = next(c for c in range(n) if c not in piv_cols)
    kernel = [Rat(0)] * n
    kernel[free] = Rat(1)
    for row, col in zip(range(r), piv_cols):
        kernel[col] = -rows[row][free]
    return kernel


def _float_kernel(M, n):
    A = np.asarray(M, dtype=np.float64)
    _, s, vt = np.linalg.svd(A)
    scale = s[0] if s[0] > 0 else 1.0
    corank = int(np.sum(s <= KERNEL_TOL * scale))
    if corank != 1:
        raise RankDeficient(f"corank is {corank} at tolerance {KERNEL_TOL}, "
                            "expected 1")
    return list(vt[-1])


def chain_pair_via_rho(sys: ScalarODE) -> PairODE:
    """Chains of z'' = F as a pair of 2nd-order ODEs, derived from the
    characteristic direction of the quasi-symplectic 2-form after the change
    of variables Y = (p b1 + 1)/b1, P = (F b1 - b2)/b1.

    The derivation is independent of the closed-form generator in
    constructions.chain_pair_from_scalar; pipelines compare the two.
    """
    rho = rho_chain(sys)
    chart = CHAIN_PAIR_CHART
    x, y, p, Y, P = (var(n) for n in chart)
    F = rename_variables(sys.rhs, {sys.chart[0]: "x", sys.chart[1]: "y",
                                   sys.chart[2]: "p"})
    inv_delta = div(num(1), sub(Y, p))
    bmap = {"b1": inv_delta, "b2": mul(sub(F, P), inv_delta)}
    pulled = pullback(rho, chart, bmap)
    v = kernel_field_5(pulled)
    vx = v[0]
    if is_zero_probabilistic(vx, trials=RHO_CHECK_TRIALS).is_zero:
        raise RankDeficient("characteristic field is tangent to x = const")
    for comp, expect, label in ((v[1], Y, "dy/dx"), (v[2], P, "dp/dx")):
        claim = sub(comp, mul(expect, vx))
        if not is_zero_probabilistic(claim, trials=RHO_CHECK_TRIALS).is_zero:
            raise RankDeficient(f"characteristic field has {label} != "
                                "the expected jet coordinate")
    return PairODE(div(v[3], vx), div(v[4], vx), chart=chart)


def frobenius_integrable(generators, trials: int = 20, seed=0) -> list:
    """Frobenius test for the Pfaffian system spanned by the given 1-forms:
    integrable iff d(theta) ^ theta_1 ^ ... ^ theta_k == 0 for every
    generator theta.  Returns the ZeroVerdicts of the coefficients up to the
    first nonzero one, all zero iff the system is integrable."""
    gens = list(generators)
    if not gens:
        raise DependentGenerators("no generators")
    chart = gens[0].chart
    for g in gens:
        if g.degree != 1 or g.chart != chart:
            raise ChartMismatch("generators must be 1-forms on a common chart")
    _check_independent(gens, seed=seed)
    span = wedge_all(*gens)
    coefficients = (c for g in gens
                    for c in wedge(exterior_derivative(g), span).comps.values())
    return zero_verdicts(coefficients, trials=trials, seed=seed)


def _check_independent(gens, seed=0):
    """Raise DependentGenerators unless the generators have full rank at one
    of INDEPENDENCE_POINTS random points."""
    chart = gens[0].chart
    tape = compile_tape([g.comps.get((i,), ZERO) for g in gens
                         for i in range(len(chart))], chart)
    for _, values in sample_points(tape, chart, seed, INDEPENDENCE_POINTS):
        rows = np.array(values).reshape(len(gens), len(chart))
        if np.linalg.matrix_rank(rows, tol=1e-8) == len(gens):
            return
    raise DependentGenerators("generators pointwise dependent on the sampled domain")
