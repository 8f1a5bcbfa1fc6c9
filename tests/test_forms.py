import random
from fractions import Fraction

import pytest

from pathgeom.constructions import chain_pair_from_scalar
from pathgeom.errors import ChartMismatch, DependentGenerators
from pathgeom.expr import (ZERO, Rat, add, div, evaluate, exprs_equal,
                           is_zero_probabilistic, mul, num, rename_variables,
                           sub, var, variables)
from pathgeom.expr.zerotest import zero_verdicts
from pathgeom.forms import (CHAIN_PAIR_CHART, DifferentialForm,
                            chain_pair_via_rho, coefficient_matrix, d,
                            exterior_derivative, frobenius_integrable,
                            kernel_field, one_form, pullback, rho_chain, wedge)
from pathgeom.jets import ScalarODE

t, z, p = variables("t z p")
x, y = var("x"), var("y")

CH3 = ("x", "y", "z")


class TestWedge:
    def test_antisymmetry(self):
        dx, dy = d(CH3, "x"), d(CH3, "y")
        assert wedge(dx, dy) == wedge(dy, dx).scale(-1)

    def test_self_wedge_vanishes(self):
        dx = d(CH3, "x")
        assert wedge(dx, dx).is_structurally_zero()

    def test_function_coefficient(self):
        dy, dz = d(CH3, "y"), d(CH3, "z")
        got = wedge(dy.scale(x), dz)
        assert got.coefficient("y", "z") is x

    def test_graded_commutativity_2_x_1(self):
        dx, dy, dz = (d(CH3, n) for n in CH3)
        two = wedge(dx, dy)
        assert wedge(two, dz) == wedge(dz, two)   # (-1)^(2*1) = +1

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            wedge(d(CH3, "x"), d(("a", "b"), "a"))


class TestExteriorDerivative:
    def test_d_of_x_dy(self):
        got = exterior_derivative(d(CH3, "y").scale(x))
        assert got.coefficient("x", "y") is num(1)

    def test_d_of_dx_zero(self):
        assert exterior_derivative(d(CH3, "x")).is_structurally_zero()

    def test_d_squared_zero_random(self):
        rng = random.Random(1)
        for _ in range(10):
            form = _random_one_form(rng)
            dd = exterior_derivative(exterior_derivative(form))
            for c in dd.comps.values():
                assert is_zero_probabilistic(c, trials=5).is_zero

    def test_df_wedge_dg_identity(self):
        f = x ** 2 * y
        g = x + y ** 3
        form = exterior_derivative(_zero_ch3(1).scale(0) + _df(f)).comps
        # d(f dg) = df ^ dg
        fdg = _df(g).scale(f)
        left = exterior_derivative(fdg)
        right = wedge(_df(f), _df(g))
        diff = left - right
        for c in diff.comps.values():
            assert is_zero_probabilistic(c, trials=6).is_zero


class TestInteriorProduct:
    def test_basic_contractions(self):
        dx, dy = d(CH3, "x"), d(CH3, "y")
        two = wedge(dx, dy)
        assert _interior_product([num(1), num(0), num(0)], two) == dy
        assert _interior_product([num(0), num(1), num(0)], two) == dx.scale(-1)
        assert _interior_product([num(0), num(0), num(1)],
                                two).is_structurally_zero()

    def test_antiderivation(self):
        rng = random.Random(2)
        for _ in range(6):
            a = _random_one_form(rng)
            b = _random_one_form(rng)
            v = [num(rng.randint(-3, 3)) for _ in CH3]
            left = _interior_product(v, wedge(a, b))
            right = wedge(_interior_product(v, a), b) + \
                wedge(a, _interior_product(v, b)).scale(-1)
            diff = left - right
            for c in diff.comps.values():
                assert is_zero_probabilistic(c, trials=5).is_zero


class TestRhoChain:
    def test_flat_display(self):
        rho = rho_chain(ScalarODE(num(0)))
        b1, b2, pv = var("b1"), var("b2"), var("p")
        assert rho.coefficient("p", "b1") is num(-1)
        assert exprs_equal(rho.coefficient("x", "p"), b2 * b1, trials=6).is_zero
        assert exprs_equal(rho.coefficient("x", "b2"), b1 * pv + 1,
                           trials=6).is_zero
        assert exprs_equal(rho.coefficient("x", "b1"), pv * b2, trials=6).is_zero
        assert exprs_equal(rho.coefficient("y", "b2"), -b1, trials=6).is_zero
        assert exprs_equal(rho.coefficient("y", "b1"), -b2, trials=6).is_zero
        assert rho.coefficient("x", "y") is num(0)
        assert rho.coefficient("p", "y") is num(0)

    @pytest.mark.parametrize("F", [num(0), z, p ** 2, t * p ** 3 + z ** 2,
                                   p ** 4, t ** 2 * z * p])
    def test_closed_for_polynomial_F(self, F):
        drho = exterior_derivative(rho_chain(ScalarODE(F)))
        for c in drho.comps.values():
            assert is_zero_probabilistic(c, trials=6).is_zero

    def test_rho_wedge_rho_nonzero(self):
        rho = rho_chain(ScalarODE(p ** 2))
        rr = wedge(rho, rho)
        assert any(not is_zero_probabilistic(c, trials=6).is_zero
                   for c in rr.comps.values())

    def test_rank_four_at_points(self):
        import numpy as np
        from pathgeom.expr import compile_tape
        rho = rho_chain(ScalarODE(z + p ** 2))
        M = coefficient_matrix(rho)
        tapes = [[compile_tape(M[i][j], rho.chart) for j in range(5)]
                 for i in range(5)]
        rng = random.Random(3)
        for _ in range(20):
            pt = np.array([rng.uniform(-2, 2) for _ in range(5)])
            A = np.array([[tapes[i][j].eval_f64(pt) for j in range(5)]
                          for i in range(5)])
            assert np.linalg.matrix_rank(A, tol=1e-8) == 4


class TestCharacteristicDirection:
    # the kernel direction is kernel_field at an exact point
    def test_flat_rho_at_point(self):
        rho = rho_chain(ScalarODE(num(0)))
        point = {"x": 0, "y": 0, "p": 0, "b1": 1, "b2": 1}
        # (1, dy/dx, dp/dx) = (1, 1, -1)
        assert _exact_direction(rho, point)[:3] == (1, 1, -1)

    def test_scale_leaves_the_direction_at_an_exact_point(self):
        rho = rho_chain(ScalarODE(z + p ** 2))
        point = {"x": Rat(1, 3), "y": -2, "p": Rat(5, 7), "b1": 3,
                 "b2": Rat(-1, 2)}
        want = _exact_direction(rho, point)
        assert want is not None
        assert _exact_direction(rho.scale(Rat(1, 10 ** 9)), point) == want

    def test_rank_deficient_on_5_chart(self):
        ch5 = ("x", "y", "p", "b1", "b2")
        two = wedge(d(ch5, "x"), d(ch5, "y"))
        point = {n: 1 for n in ch5}
        assert _gauss_jordan_direction(two, point) is None
        assert _exact_direction(two, point) is None


class TestChainPairViaRho:
    def test_flat_matches_printed_pair(self):
        from pathgeom.constructions import catalog
        got = chain_pair_via_rho(ScalarODE(num(0)))
        want = catalog("flat_chain_pair")
        assert is_zero_probabilistic(got.rhs1, trials=8).is_zero
        assert exprs_equal(got.rhs2, want.rhs2, trials=8).is_zero

    @pytest.mark.parametrize("F", [z, p ** 2])
    def test_cross_derivation(self, F):
        via = chain_pair_via_rho(ScalarODE(F))
        closed = chain_pair_from_scalar(ScalarODE(F))
        assert exprs_equal(via.rhs1, closed.rhs1, trials=8).is_zero
        assert exprs_equal(via.rhs2, closed.rhs2, trials=8).is_zero

    @pytest.mark.parametrize("F", [num(0), p ** 2, t * p + z])
    def test_kernel_annihilates_rho(self, F):
        # X .| rho == 0 identically for the Pfaffian-cofactor kernel
        pulled = _pulled_rho(ScalarODE(F))
        contracted = _interior_product(kernel_field(pulled), pulled)
        for c in contracted.comps.values():
            assert is_zero_probabilistic(c, trials=6).is_zero


class TestKernelField:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_kernel_annihilates_random_forms(self, n):
        rng = random.Random(n)
        for _ in range(4):
            a = _random_two_form(rng, n)
            v = kernel_field(a)
            assert any(c is not num(0) for c in v)
            contracted = _interior_product(v, a)
            assert all(zero_verdicts(contracted.comps.values(), 8, 0))

    def test_direction_matches_gauss_jordan(self):
        rng = random.Random(11)
        compared = 0
        for n in (3, 5, 7):
            for _ in range(2):
                a = _random_two_form(rng, n)
                for _ in range(25):
                    point = {name: Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5))
                             for name in a.chart}
                    assert _exact_direction(a, point) == \
                        _gauss_jordan_direction(a, point)
                    compared += 1
        assert compared >= 150

    @pytest.mark.parametrize("n", [5, 7])
    def test_corank_above_one_raises_like_gauss_jordan(self, n):
        rng = random.Random(100 + n)
        a = wedge(_random_one_form_on(rng, n), _random_one_form_on(rng, n))
        for _ in range(10):
            point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for name in a.chart}
            assert _gauss_jordan_direction(a, point) is None
            assert _exact_direction(a, point) is None

    @pytest.mark.parametrize("F", [num(0), z, p ** 2, t * p + z,
                                   p ** 3 + t * z, z ** 2 * p, p ** 4 - t])
    def test_five_chart_nodes_are_the_first_row_expansion(self, F):
        sys = ScalarODE(F)
        for form in (rho_chain(sys), _pulled_rho(sys)):
            assert all(got is want for got, want in
                       zip(kernel_field(form), _kernel_field_5(form)))


class TestFrobenius:
    def test_coordinate_plane_integrable(self):
        assert all(frobenius_integrable([d(CH3, "x"), d(CH3, "z")]))

    def test_contact_form_not_integrable(self):
        ch = ("x", "z", "p")
        contact = one_form(ch, {"z": num(1), "x": mul(num(-1), var("p"))})
        assert not all(frobenius_integrable([contact]))

    def test_dependent_generators(self):
        dx = d(CH3, "x")
        with pytest.raises(DependentGenerators):
            frobenius_integrable([dx, dx.scale(2)])

    def test_small_generator_is_independent(self):
        # independence does not depend on the scale of a generator
        gens = [d(CH3, "x").scale(Rat(1, 10 ** 9)), d(CH3, "y")]
        assert all(frobenius_integrable(gens))

    def test_function_multiple_is_dependent(self):
        # a function multiple is dependent however large the coefficients
        theta = one_form(CH3, {"x": num(10 ** 8), "y": 10 ** 8 * var("z"),
                               "z": 10 ** 8 * y})
        with pytest.raises(DependentGenerators):
            frobenius_integrable([theta, theta.scale(x + y)])


def _pulled_rho(sys):
    """rho_chain pulled back to the chain-pair chart, as in
    chain_pair_via_rho."""
    F = rename_variables(sys.rhs, {"t": "x", "z": "y"})
    Y, P, pv = var("Y"), var("P"), var("p")
    inv_delta = div(num(1), sub(Y, pv))
    return pullback(rho_chain(sys), CHAIN_PAIR_CHART,
                    {"b1": inv_delta, "b2": mul(sub(F, P), inv_delta)})


def _kernel_field_5(a):
    """The 5-chart Pfaffian-cofactor formula with each 4x4 Pfaffian written
    out, as the kernel was built before it covered every odd chart."""
    M = coefficient_matrix(a)
    comps = []
    for i in range(5):
        r0, r1, r2, r3 = [r for r in range(5) if r != i]
        pf = add(mul(M[r0][r1], M[r2][r3]),
                 mul(num(-1), M[r0][r2], M[r1][r3]),
                 mul(M[r0][r3], M[r1][r2]))
        comps.append(pf if i % 2 == 0 else mul(num(-1), pf))
    return comps


def _interior_product(comps, a: DifferentialForm) -> DifferentialForm:
    """Contraction with the vector field sum_i comps[i] d/d(chart[i]);
    comps are expressions in chart order."""
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


def _exact_direction(a, point):
    """The Pfaffian cofactors of `kernel_field` evaluated exactly at a
    rational point, normalized so the first nonzero one is 1; None where
    every cofactor is 0 (corank above 1)."""
    kernel = [evaluate(c, point, "exact") for c in kernel_field(a)]
    first = next((v for v in kernel if v != 0), None)
    if first is None:
        return None
    return tuple(v / first for v in kernel)


def _gauss_jordan_direction(a, point):
    """The kernel direction by exact Gauss-Jordan elimination, normalized
    so its first nonzero component is 1; None unless the corank is 1."""
    n = len(a.chart)
    rows = [[evaluate(c, point) if c is not num(0) else Fraction(0)
             for c in row] for row in coefficient_matrix(a)]
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
                rows[k] = [u - f * w for u, w in zip(rows[k], rows[r])]
        piv_cols.append(col)
        r += 1
    if n - r != 1:
        return None
    free = next(c for c in range(n) if c not in piv_cols)
    kernel = [Fraction(0)] * n
    kernel[free] = Fraction(1)
    for row, col in zip(range(r), piv_cols):
        kernel[col] = -rows[row][free]
    first = next(v for v in kernel if v != 0)
    return tuple(v / first for v in kernel)


def _chart(n):
    return tuple(f"u{k}" for k in range(n))


def _random_poly(rng, chart):
    e = num(rng.randint(-3, 3))
    for _ in range(2):
        e = e + rng.randint(-3, 3) * var(rng.choice(chart)) ** rng.randint(1, 2)
    return e


def _random_two_form(rng, n):
    chart = _chart(n)
    return DifferentialForm(chart, 2, {(i, j): _random_poly(rng, chart)
                                       for i in range(n)
                                       for j in range(i + 1, n)})


def _random_one_form_on(rng, n):
    chart = _chart(n)
    return one_form(chart, {name: _random_poly(rng, chart) for name in chart})


def _zero_ch3(deg):
    return DifferentialForm(CH3, deg)


def _df(f):
    from pathgeom.expr import differentiate
    return one_form(CH3, {n: differentiate(f, n) for n in CH3})


def _random_one_form(rng):
    def coeff():
        e = num(rng.randint(-3, 3))
        for v in (x, y, var("z")):
            e = e * v ** rng.randint(0, 2)
        return e
    return one_form(CH3, {n: coeff() for n in CH3})
