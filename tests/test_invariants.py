import random

from pathgeom.expr import (add, div, exprs_equal, is_zero_probabilistic, mul,
                           num, pow_, sqrt_, sub, var, variables)
from pathgeom.invariants import (curvature_quartic, fels_F_matrix,
                                 fels_curvature, fels_invariants, fels_torsion,
                                 scalar_invariants, torsion_quadric)
from pathgeom.jets import PairODE, ScalarODE

t, z, p = variables("t z p")
u2, q1 = var("u2"), var("q1")


def _random_cubic_pair(rng):
    names = ("t", "u1", "u2", "q1", "q2")

    def poly():
        out = num(0)
        for _ in range(rng.randint(2, 5)):
            term = num(rng.randint(-5, 5))
            budget = 3
            for n in names:
                e = rng.randint(0, budget)
                budget -= e
                term = mul(term, pow_(var(n), e))
            out = add(out, term)
        return out

    return PairODE(poly(), poly())


class TestFelsMatrix:
    def test_zero_system(self):
        FM = fels_F_matrix(PairODE(num(0), num(0)))
        assert all(FM[i][j] is num(0) for i in range(2) for j in range(2))

    def test_linear_coupling(self):
        # (u1'' = u2, u2'' = 0): only F^1_2 = -1 survives
        FM = fels_F_matrix(PairODE(u2, num(0)))
        assert FM[0][1] is num(-1)
        assert FM[0][0] is num(0)
        assert FM[1][0] is num(0)
        assert FM[1][1] is num(0)


class TestTorsion:
    def test_flat_chain_pair_torsion_free(self):
        from pathgeom.constructions import catalog
        T = fels_torsion(catalog("flat_chain_pair"))
        assert all(is_zero_probabilistic(T[i][j], trials=12).is_zero
                   for i in range(2) for j in range(2))

    def test_cr_sphere_torsion_free(self):
        from pathgeom.constructions import catalog
        T = fels_torsion(catalog("cr_sphere_pair"))
        assert all(is_zero_probabilistic(T[i][j], trials=12).is_zero
                   for i in range(2) for j in range(2))

    def test_quartic_degree_scalar_has_torsion(self):
        from pathgeom.constructions import chain_pair_from_scalar
        T = fels_torsion(chain_pair_from_scalar(ScalarODE(p ** 4)))
        verdicts = [is_zero_probabilistic(T[i][j], trials=12)
                    for i in range(2) for j in range(2)]
        assert any(not v.is_zero for v in verdicts)
        witness = next(v.witness for v in verdicts if not v.is_zero)
        assert witness


class TestCurvature:
    def test_zero_system(self):
        C = fels_curvature(PairODE(num(0), num(0)))
        assert all(c is num(0) for c in C.values())

    def test_cubic_velocity_component(self):
        # F1 = 0, F2 = q1^3: the correction term vanishes, so C^2_111 = 6
        C = fels_curvature(PairODE(num(0), q1 ** 3))
        assert C[(2, (1, 1, 1))] is num(6)

    def test_total_symmetry_structural(self):
        rng = random.Random(2)
        sys = _random_cubic_pair(rng)
        C = fels_curvature(sys)
        # stored keys are sorted triples; all 2^3 index orders hit the same key
        assert set(C) == {(i, jkl) for i in (1, 2)
                          for jkl in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]}

    def test_trace_identities_random_pairs(self):
        rng = random.Random(40)
        for k in range(25):
            sys = _random_cubic_pair(rng)
            T = fels_torsion(sys)
            assert is_zero_probabilistic(add(T[0][0], T[1][1]), trials=4,
                                         seed=k).is_zero
            C = fels_curvature(sys)
            for j in (1, 2):
                for l in (j, 2):
                    s = add(C[(1, tuple(sorted((1, j, l))))],
                            C[(2, tuple(sorted((2, j, l))))])
                    assert is_zero_probabilistic(s, trials=4, seed=k).is_zero


class TestBinaryForms:
    def test_zero_torsion_gives_zero_quadric(self):
        from pathgeom.constructions import catalog
        inv = fels_invariants(catalog("flat_chain_pair"))
        quad = torsion_quadric(inv)
        assert all(is_zero_probabilistic(c, trials=8).is_zero
                   for c in quad.coefficients)

    def test_flat_chain_quartic_coefficients(self):
        from pathgeom.constructions import catalog
        inv = fels_invariants(catalog("flat_chain_pair"))
        W = curvature_quartic(inv)
        Y, P, pv = var("Y"), var("P"), var("p")
        D = sub(Y, pv)
        targets = [div(mul(num(12), P ** 2), pow_(D, 4)),
                   div(mul(num(-6), P), pow_(D, 3)),
                   div(num(2), pow_(D, 2)), num(0), num(0)]
        for got, want in zip(W.coefficients, targets):
            assert exprs_equal(got, want, trials=8).is_zero


class TestScalarInvariants:
    def test_flat(self):
        si = scalar_invariants(ScalarODE(num(0)))
        assert si.t1 is num(0)
        assert si.c1 is num(0)

    def test_quartic_velocity(self):
        si = scalar_invariants(ScalarODE(p ** 4))
        assert exprs_equal(si.t1, mul(num(24), pow_(p, 8)), trials=8).is_zero
        assert si.c1 is num(24)

    def test_sqrt_velocity(self):
        si = scalar_invariants(ScalarODE(sqrt_(p)))
        want = mul(num("-15/16"), pow_(p, num("-7/2").value))
        assert is_zero_probabilistic(sub(si.c1, want), trials=6,
                                     var_ranges={"p": (0.1, 4)}).is_zero

    def test_linear_family_is_flat(self):
        # F = a(t) p + b(t) z + c(t) with quadratic coefficients
        rng = random.Random(9)
        for k in range(10):
            def quadratic():
                return add(num(rng.randint(-4, 4)),
                           mul(num(rng.randint(-4, 4)), t),
                           mul(num(rng.randint(-4, 4)), t ** 2))
            F = add(mul(quadratic(), p), mul(quadratic(), z), quadratic())
            si = scalar_invariants(ScalarODE(F))
            assert is_zero_probabilistic(si.t1, trials=5, seed=k).is_zero
            assert is_zero_probabilistic(si.c1, trials=5, seed=k).is_zero
