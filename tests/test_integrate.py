import numpy as np
import pytest

from pathgeom.constructions import catalog
from pathgeom.errors import EliminationInvalid, SingularEncounter, StepUnderflow
from pathgeom.expr import as_rat, div, mul, num, pow_, sub, var, variables
from pathgeom.integrate import (denominator_bases, integrate_pair,
                                third_order_reduction_check)
from pathgeom.jets import PairODE, prolong

t, z, p = variables("t z p")
TAME_IC = (0.0, 1.0, 0.5, -0.3)


class TestIntegratePair:
    def test_flat_pair_linear_first_component(self):
        traj = integrate_pair(catalog("flat_chain_pair"), TAME_IC, (0.0, 2.0))
        assert np.max(np.abs(traj.states[:, 0] - 0.5 * traj.t)) < 1e-10

    def test_rest_locus_is_invariant(self):
        traj = integrate_pair(catalog("flat_chain_pair"),
                              (0.0, 1.0, 0.5, 0.0), (0.0, 2.0))
        assert np.max(np.abs(traj.states[:, 1] - 1.0)) < 1e-10
        assert np.max(np.abs(traj.states[:, 3])) < 1e-10

    def test_singular_ic_raises(self):
        with pytest.raises(SingularEncounter):
            integrate_pair(catalog("cr_sphere_pair"),
                           (0.0, 0.0, -1.0, 1e-9), (0.0, 1.0))

    def test_truncation_at_singular_locus(self):
        sys = PairODE(num(0), div(num(1), 1 - var("u2")))
        traj = integrate_pair(sys, (0.0, 0.0, 0.0, 1.0), (0.0, 2.0))
        assert traj.truncated_by_singularity
        assert traj.singular_at < 2.0
        assert traj.states[-1, 1] < 1.0

    def test_overflowing_stage_is_a_step_failure(self):
        # u1'' = (10^205 u1^2)^(3/2) blows up at once; a stage with
        # |u1| > 1.78 overflows the fractional power (OverflowError), which
        # halves the step like a non-finite stage instead of escaping
        big = pow_(mul(num(10 ** 205), var("u1") ** 2), as_rat("3/2"))
        with pytest.raises(StepUnderflow, match="solution left float range"):
            integrate_pair(PairODE(big, num(0)), (1e-100, 0.0, 0.0, 0.0),
                           (0.0, 1.0))

    def test_overflow_at_initial_point_is_a_step_failure(self):
        # the right-hand side overflows at the initial state itself
        big = pow_(mul(num(10 ** 205), var("u1") ** 2), as_rat("3/2"))
        with pytest.raises(StepUnderflow,
                           match="solution left float range at t = 0.0"):
            integrate_pair(PairODE(big, num(0)), (1.9, 0.0, 0.0, 0.0),
                           (0.0, 1.0))

    def test_observed_order_at_least_4_5(self):
        flat = catalog("flat_chain_pair")
        ref = integrate_pair(flat, TAME_IC, (0.0, 1.0),
                             rel_tol=1e-13, abs_tol=1e-14).states[-1]
        errs = []
        for h in (0.05, 0.025):
            got = integrate_pair(flat, TAME_IC, (0.0, 1.0),
                                 fixed_step=h).states[-1]
            errs.append(np.max(np.abs(got - ref)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 4.5

    def test_tolerance_scaling(self):
        flat = catalog("flat_chain_pair")
        ref = integrate_pair(flat, TAME_IC, (0.0, 1.0),
                             rel_tol=1e-13, abs_tol=1e-14).states[-1]
        e_loose = np.max(np.abs(integrate_pair(
            flat, TAME_IC, (0.0, 1.0), rel_tol=1e-5,
            abs_tol=1e-7).states[-1] - ref))
        e_tight = np.max(np.abs(integrate_pair(
            flat, TAME_IC, (0.0, 1.0), rel_tol=1e-8,
            abs_tol=1e-10).states[-1] - ref))
        assert e_tight < e_loose

    def test_error_estimates_recorded(self):
        traj = integrate_pair(catalog("flat_chain_pair"), TAME_IC, (0.0, 1.0))
        assert len(traj.error_estimates) == len(traj.t)
        assert np.all(np.diff(traj.t) > 0)

    def test_denominator_bases(self):
        flat = catalog("flat_chain_pair")
        bases = denominator_bases(flat.rhs2)
        assert len(bases) == 1
        assert sorted(bases[0].free_variables) == ["Y", "p"]

    def test_csv_output(self, tmp_path):
        traj = integrate_pair(catalog("flat_chain_pair"), TAME_IC, (0.0, 0.5))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,p,Y,P,err"
        assert len(lines) == len(traj.t) + 1


class TestThirdOrderReduction:
    def test_flat_chain_to_submax_1(self):
        flat = catalog("flat_chain_pair")
        w = var("__jet2")
        elim = var("p") - div(2 * var("P") ** 2, w)
        verdict = third_order_reduction_check(flat, "q1", elim,
                                              catalog("submax_ode_1"))
        assert verdict.matches

    def test_cr_sphere_to_submax_2(self):
        cr = catalog("cr_sphere_pair")
        w = var("__jet2")
        Y, x, y = var("Y"), var("x"), var("y")
        elim = div((Y ** 2 + 1) ** 2, w) - Y * x + y
        verdict = third_order_reduction_check(cr, "q2", elim,
                                              catalog("submax_ode_2"))
        assert verdict.matches

    def test_wrong_target_detected(self):
        flat = catalog("flat_chain_pair")
        w = var("__jet2")
        elim = var("p") - div(2 * var("P") ** 2, w)
        verdict = third_order_reduction_check(flat, "q1", elim,
                                              catalog("submax_ode_2"))
        assert not verdict.matches
        assert verdict.witness is not None

    def test_invalid_elimination(self):
        flat = catalog("flat_chain_pair")
        with pytest.raises(EliminationInvalid):
            third_order_reduction_check(flat, "q1", var("Y"),
                                        catalog("submax_ode_1"))

    def test_trivial_pair_has_no_second_derivative_dependence(self):
        trivial = PairODE(num(0), num(0), chart=catalog("flat_chain_pair").chart)
        with pytest.raises(EliminationInvalid):
            third_order_reduction_check(trivial, "q1", var("Y"),
                                        catalog("submax_ode_1"))


class TestResidualAlongTrajectories:
    def test_flat_reduction_residual(self):
        flat = catalog("flat_chain_pair")
        P = var("P")
        p3 = prolong(flat, flat.rhs2, 1)
        target = div(3 * flat.rhs2 ** 2, 2 * P)
        traj = integrate_pair(flat, TAME_IC, (0.0, 1.5))
        res = traj.evaluate_along(sub(p3, target))
        assert np.max(np.abs(res)) < 1e-6

    def test_cr_reduction_residual(self):
        cr = catalog("cr_sphere_pair")
        Y = var("Y")
        y3 = prolong(cr, cr.rhs1, 1)
        target = div(3 * Y * cr.rhs1 ** 2, 1 + Y ** 2)
        traj = integrate_pair(cr, (0.0, 0.0, -0.5, 2.0), (0.0, 0.5))
        res = traj.evaluate_along(sub(y3, target))
        assert np.max(np.abs(res)) < 1e-6
