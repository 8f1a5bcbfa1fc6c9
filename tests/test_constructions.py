import math
import random

import numpy as np
import pytest

from pathgeom.constructions import (catalog, catalog_names,
                                    chain_pair_from_scalar, cr_adapted_coframe,
                                    dancing_curve_numeric, freestyle_pair,
                                    SolutionFunction)
from pathgeom.errors import (DegenerateLocus, NonTransverse, UnknownName)
from pathgeom.expr import (add, div, exprs_equal, is_zero_probabilistic, mul,
                           num, pow_, rename_variables, sqrt_, sub, substitute,
                           var, variables)
from pathgeom.invariants import fels_torsion, scalar_invariants
from pathgeom.jets import CRGraph, ScalarODE

t, z, p = variables("t z p")


class TestChainPair:
    def test_flat_reproduces_printed_pair(self):
        got = chain_pair_from_scalar(ScalarODE(num(0)))
        want = catalog("flat_chain_pair")
        assert got.chart == want.chart
        assert is_zero_probabilistic(got.rhs1, trials=10).is_zero
        assert exprs_equal(got.rhs2, want.rhs2, trials=10).is_zero

    def test_linear_scalar_gives_torsion_free_pair(self):
        pair = chain_pair_from_scalar(ScalarODE(z))
        T = fels_torsion(pair)
        assert all(is_zero_probabilistic(T[i][j], trials=10).is_zero
                   for i in range(2) for j in range(2))

    def test_quartic_scalar_gives_torsion_witness(self):
        pair = chain_pair_from_scalar(ScalarODE(p ** 4))
        T = fels_torsion(pair)
        assert any(not is_zero_probabilistic(T[i][j], trials=10).is_zero
                   for i in range(2) for j in range(2))


class TestFreestylePair:
    def test_flat_coincides_with_flat_chain_pair(self):
        fs = freestyle_pair(ScalarODE(num(0)))
        chain = catalog("flat_chain_pair")
        renamed2 = rename_variables(
            chain.rhs2, dict(zip(chain.chart, fs.chart)))
        assert is_zero_probabilistic(fs.rhs1, trials=8).is_zero
        assert exprs_equal(fs.rhs2, renamed2, trials=8).is_zero

    def test_sqrt_instantiation(self):
        fs = freestyle_pair(ScalarODE(sqrt_(p)))
        b, Z, B = var("b"), var("Z"), var("B")
        want = div(mul(B, sub(sqrt_(Z), mul(num(2), B))), sub(Z, b))
        assert is_zero_probabilistic(sub(fs.rhs2, want), trials=8,
                                     var_ranges={"Z": (0.1, 4)}).is_zero

    def test_linear_instantiation(self):
        fs = freestyle_pair(ScalarODE(z))
        b, Z, B = var("b"), var("Z"), var("B")
        want = div(mul(B, sub(var("z"), mul(num(2), B))), sub(Z, b))
        assert exprs_equal(fs.rhs2, want, trials=8).is_zero

    def test_rest_locus_invariant_for_random_polynomials(self):
        rng = random.Random(11)
        for k in range(20):
            F = num(0)
            for _ in range(rng.randint(1, 4)):
                F = add(F, mul(num(rng.randint(-4, 4)),
                               pow_(t, rng.randint(0, 2)),
                               pow_(z, rng.randint(0, 2)),
                               pow_(p, rng.randint(0, 2))))
            fs = freestyle_pair(ScalarODE(F))
            assert substitute(fs.rhs2, {"B": num(0)}) is num(0)


class TestCRAdaptedCoframe:
    def test_sphere_quadric_graph(self):
        cof = cr_adapted_coframe(CRGraph(div(var("x") ** 2 + var("y") ** 2,
                                             num(4))))
        assert exprs_equal(cof.normalizer, num(-1), trials=6).is_zero
        # omega0 = -(dp - y dx + x dy)
        assert exprs_equal(cof.omega0.coefficient("p"), num(-1),
                           trials=4).is_zero
        assert exprs_equal(cof.omega0.coefficient("x"), var("y"),
                           trials=4).is_zero
        assert exprs_equal(cof.omega0.coefficient("y"),
                           mul(num(-1), var("x")), trials=4).is_zero
        assert cof.omega1.coefficient("x") is num(1)
        assert cof.omega2.coefficient("y") is num(-1)

    def test_levi_degenerate_graph_rejected(self):
        with pytest.raises(DegenerateLocus):
            cr_adapted_coframe(CRGraph(num(0)))

    def test_cubic_graph_normalizer(self):
        cof = cr_adapted_coframe(CRGraph(div(var("y") ** 3, num(6))))
        assert exprs_equal(cof.normalizer, mul(num(-1), var("y")),
                           trials=6).is_zero


class TestCatalog:
    def test_names_and_unknown(self):
        assert "flat_chain_pair" in catalog_names()
        with pytest.raises(UnknownName):
            catalog("no_such_system")

    def test_submaximal_third_order_odes(self):
        s1 = catalog("submax_ode_1")
        p1, p2 = var("p1"), var("p2")
        assert exprs_equal(s1.rhs, div(mul(num(3), p2 ** 2), mul(num(2), p1)),
                           trials=6).is_zero
        s2 = catalog("submax_ode_2")
        y1, y2 = var("y1"), var("y2")
        assert exprs_equal(s2.rhs, div(mul(num(3), y1, y2 ** 2),
                                       add(num(1), y1 ** 2)), trials=6).is_zero

    def test_cr_y3_pair_denominators(self):
        pair = catalog("cr_y3_pair")
        yv, P = var("y"), var("P")
        # second equation clears to a polynomial identity: 8 y^3 F2 == numerator
        Y = var("Y")
        poly = mul(add(mul(num(8), Y ** 2, yv ** 4), mul(num(15), yv ** 4),
                       mul(num(10), P, yv ** 2), mul(num(-1), P ** 2)), Y)
        assert exprs_equal(mul(num(8), yv ** 3, pair.rhs2), poly,
                           trials=8).is_zero

    def test_coframes_well_formed(self):
        dancing = catalog("dancing_metric_coframe")
        assert dancing.structure == "para"
        fs = catalog("fubini_study_coframe")
        assert fs.structure == "complex"
        assert dancing.chart == fs.chart == ("y", "p", "Y", "P")


class TestDancingCurves:
    def test_flat_example(self):
        phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 1, 0, 0), (1.0, 2.0),
                                      samples=60, initial_guess=(0.0, 1.0, -1.0))
        assert np.max(curve.residual) < 1e-10
        pair = freestyle_pair(ScalarODE(num(0)))
        r1, r2 = curve.pair_residuals(pair)
        assert max(r1, r2) < 1e-6
        # the flat curve is b(t) = -1/t for this anchor
        assert np.max(np.abs(curve.b + 1.0 / curve.t)) < 1e-9

    def test_sqrt_example(self):
        phi = catalog("sqrt_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 2, 1, 1), (2.0, 3.0),
                                      samples=60,
                                      initial_guess=(19 / 6, 2.0,
                                                     math.sqrt(2) - 1))
        assert np.max(curve.residual) < 1e-10
        assert np.min(curve.t + curve.b) > 0
        pair = catalog("dancing_sqrt_pair")
        r1, r2 = curve.pair_residuals(pair)
        assert max(r1, r2) < 1e-6

    def test_incident_anchor_rejected(self):
        phi = catalog("flat_dancing_phi")
        with pytest.raises(NonTransverse):
            dancing_curve_numeric(phi, (1.0, 0.5, 0.0, 0.5), (1.0, 2.0))

    def test_multistart_seed_search(self):
        phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 1, 0, 0), (1.0, 1.5),
                                      samples=20, seed=4)
        assert np.max(curve.residual) < 1e-10

    def test_csv_output(self, tmp_path):
        phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 1, 0, 0), (1.0, 1.2),
                                      samples=5, initial_guess=(0.0, 1.0, -1.0))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,z,b,res"
        assert len(lines) == 6
        assert len(lines[1].split(",")) == 4

    def test_solution_function_validation(self):
        with pytest.raises(ValueError):
            SolutionFunction(sub(var("z"), var("t")))


def test_chain_torsion_matches_scalar_invariants_catalog():
    # zero for F = 0 and F = z; nonzero witnesses for F = p^4 and F = z^3
    for F, flat in ((num(0), True), (z, True), (p ** 4, False), (z ** 3, False)):
        si = scalar_invariants(ScalarODE(F))
        scalar_zero = (is_zero_probabilistic(si.t1, trials=8).is_zero
                       and is_zero_probabilistic(si.c1, trials=8).is_zero)
        T = fels_torsion(chain_pair_from_scalar(ScalarODE(F)))
        torsion_zero = all(is_zero_probabilistic(T[i][j], trials=8).is_zero
                           for i in range(2) for j in range(2))
        assert scalar_zero == torsion_zero == flat
