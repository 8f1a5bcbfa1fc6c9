import random

import pytest

from pathgeom.constructions import chain_pair_from_scalar
from pathgeom.errors import ChartMismatch, DependentGenerators, RankDeficient
from pathgeom.expr import (div, exprs_equal, is_zero_probabilistic, mul, num,
                           sub, var, variables)
from pathgeom.forms import (DifferentialForm, characteristic_direction,
                            chain_pair_via_rho, coefficient_matrix, d,
                            exterior_derivative, frobenius_integrable,
                            interior_product, kernel_field_5, one_form,
                            pullback, rho_chain, wedge)
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
        assert interior_product([num(1), num(0), num(0)], two) == dy
        assert interior_product([num(0), num(1), num(0)], two) == dx.scale(-1)
        assert interior_product([num(0), num(0), num(1)],
                                two).is_structurally_zero()

    def test_antiderivation(self):
        rng = random.Random(2)
        for _ in range(6):
            a = _random_one_form(rng)
            b = _random_one_form(rng)
            v = [num(rng.randint(-3, 3)) for _ in CH3]
            left = interior_product(v, wedge(a, b))
            right = wedge(interior_product(v, a), b) + \
                wedge(a, interior_product(v, b)).scale(-1)
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
    def test_flat_rho_at_point(self):
        rho = rho_chain(ScalarODE(num(0)))
        v = characteristic_direction(rho, {"x": 0, "y": 0, "p": 0,
                                           "b1": 1, "b2": 1})
        assert v.components[0] == 1
        assert v.components[1] == 1    # dy/dx
        assert v.components[2] == -1   # dp/dx

    def test_contact_chart_kernel(self):
        two = wedge(d(CH3, "x"), d(CH3, "y"))
        v = characteristic_direction(two, {"x": 0.3, "y": 1.0, "z": -2.0})
        assert v.components == (0, 0, 1)

    def test_rank_deficient_on_5_chart(self):
        ch5 = ("x", "y", "p", "b1", "b2")
        two = wedge(d(ch5, "x"), d(ch5, "y"))
        with pytest.raises(RankDeficient):
            characteristic_direction(two, {n: 1 for n in ch5})


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
        from pathgeom.forms import CHAIN_PAIR_CHART
        sys = ScalarODE(F)
        rho = rho_chain(sys)
        from pathgeom.expr import substitute
        Fxy = substitute(F, {"t": var("x"), "z": var("y")})
        Y, P, pv = var("Y"), var("P"), var("p")
        inv_delta = div(num(1), sub(Y, pv))
        pulled = pullback(rho, CHAIN_PAIR_CHART,
                          {"b1": inv_delta,
                           "b2": mul(sub(Fxy, P), inv_delta)})
        v = kernel_field_5(pulled)
        contracted = interior_product(v, pulled)
        for c in contracted.comps.values():
            assert is_zero_probabilistic(c, trials=6).is_zero


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
