import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pathgeom.constructions import catalog
from pathgeom.dsl import parse
from pathgeom.errors import EliminationInvalid, SingularEncounter, StepUnderflow
from pathgeom.expr import (as_rat, compile_tape, div, mul, num, pow_, sub,
                           var, variables)
from pathgeom.integrate import (_dp_step, denominator_bases, integrate_pair,
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
        # the Dormand-Prince step at a fixed h, against scipy's DOP853 at
        # rtol 1e-13: halving h divides the endpoint error by 2^4.5 or more
        flat = catalog("flat_chain_pair")
        f = compile_tape(flat.rhs, flat.chart)

        def rhs(t, y):
            return np.array([y[2], y[3], *f.eval_f64(np.array([t, *y]))])

        ref = solve_ivp(rhs, (0.0, 1.0), TAME_IC, method="DOP853",
                        rtol=1e-13, atol=1e-14).y[:, -1]
        def stage(t, y):
            return rhs(t, y), None

        errs = []
        for h in (0.05, 0.025):
            y = np.array(TAME_IC)
            for k in range(round(1.0 / h)):
                y = _dp_step(stage, k * h, y, rhs(k * h, y), h)[0]
            errs.append(np.max(np.abs(y - ref)))
        assert np.log2(errs[0] / errs[1]) >= 4.5

    def test_error_estimates_recorded(self):
        traj = integrate_pair(catalog("flat_chain_pair"), TAME_IC, (0.0, 1.0))
        assert len(traj.error_estimates) == len(traj.t)
        assert np.all(np.diff(traj.t) > 0)

    def test_denominator_bases(self):
        flat = catalog("flat_chain_pair")
        bases = denominator_bases(flat.rhs2)
        assert len(bases) == 1
        assert sorted(bases[0].free_variables) == ["Y", "p"]

    def test_step_past_a_branch_point_halves_until_it_truncates(self):
        # u1'' = sqrt(1 - t) has no real value past t = 1: a stage there
        # raises DomainError, the step halves, and the trajectory stops at
        # the branch point, where u1 = (4/15)(1-t)^(5/2) + 2t/3 - 4/15 = 2/5
        # and q1 = (2/3)(1 - (1-t)^(3/2)) = 2/3
        doc = parse("pair_ode g { vars t u1 u2 q1 q2; F1 = sqrt(1-t); "
                    "F2 = 0; }")
        traj = integrate_pair(doc.get("g"), (0.0, 0.0, 0.0, 0.0), (0.0, 2.0))
        assert traj.truncated_by_singularity
        assert traj.singular_at == pytest.approx(1.0, abs=1e-9)
        assert traj.t[-1] == traj.singular_at
        u1, _, q1, _ = traj.states[-1]
        assert u1 == pytest.approx(0.4, abs=1e-6)
        assert q1 == pytest.approx(2 / 3, abs=1e-6)


_POLE_PAIR = parse("pair_ode g { vars t u1 u2 q1 q2; F1 = 1/(u1-1); "
                   "F2 = q1*q2/(u2+2); }").get("g")
_BRANCH = parse("pair_ode g { vars t u1 u2 q1 q2; F1 = sqrt(1-t); "
                "F2 = 0; }").get("g")
_OVERFLOW = PairODE(pow_(mul(num(10 ** 205), var("u1") ** 2), as_rat("3/2")),
                    num(0))
_SYSTEMS = {"flat": catalog("flat_chain_pair"), "cr": catalog("cr_sphere_pair"),
            "pole": _POLE_PAIR, "branch": _BRANCH, "overflow": _OVERFLOW}

# (system, ic, span, outcome): an outcome is (len(t), truncated, t[-1],
# states[-1]) or (exception, message); the exception's t compares to rel
# 1e-12 like the floats
_FIXED_CASES = [
    ("flat", (0.0, 1.0, 0.5, -0.3), (0.0, 1.0),
     (23, False, 1.0, (0.4999999999999999, 0.8125000000302044, 0.5,
                       -0.11718750006663385))),
    ("flat", (-0.7, 1.2, 0.1, -0.2), (0.0, 1.0),
     (10, False, 1.0, (-0.5999999999999999, 1.0307692308166965, 0.1,
                       -0.1431952663029169))),
    ("flat", (1.0, 0.5, -1.0, 2.0), (0.0, -3.0),
     (79, False, -3.0, (4.0, -0.7000000000223948, -1.0,
                        0.08000000005805684))),
    ("flat", (0.2, 0.3, 1.5, -1.0), (0.0, 6.0),
     (StepUnderflow, "solution left float range at t = 1.1999999997362312")),
    ("cr", (0.0, 0.0, -0.5, 2.0), (0.0, 0.4),
     (13, False, 0.4, (-0.14355957741110445, 0.754847661926243,
                       -0.22941573387304098, 1.7835325871053782))),
    ("cr", (0.2, -0.3, 0.1, 2.4), (0.0, 0.4),
     (9, False, 0.4, (0.27812843002993687, 0.6683052025924021,
                      0.29418832577789583, 2.4422984472075733))),
    ("cr", (-0.5, 1.5, -1.0, -2.0), (0.0, -1.0),
     (34, False, -1.0, (-0.21922359353358054, 2.9605823048608655,
                        0.2425356248256885, -1.0680982813576152))),
    ("cr", (1.0, -1.0, 1.5, 0.5), (0.0, 3.0),
     (StepUnderflow, "solution left float range at t = 0.50811932954124")),
    ("cr", (0.0, 0.0, -1.0, 1e-09), (0.0, 1.0),
     (SingularEncounter,
      "trajectory approached a singular locus at t = 0.0")),
    ("pole", (0.5, -1.0, 0.5, 1.0), (0.0, 2.0),
     (51, False, 2.0, (-1.6432999825728731, 0.5044958796464514,
                       -1.89218144493346, 0.3689222731939183))),
    ("pole", (-0.6, 0.2, 1.3, -1.3), (0.0, 2.0),
     (137, True, 1.1480543036692137, (0.3084928719354727, -1.9999999908682753,
                                      0.11058526975900819,
                                      -4.6242316510212005))),
    ("pole", (1.05, -1.4, -0.7, -0.2), (0.0, 5.0),
     (240, True, 0.6378874687952678, (2.3060771671285623, -1.999999990897475,
                                      2.6486828383452807,
                                      -47.596669545765245))),
    ("branch", (0.0, 0.0, 0.0, 0.0), (0.0, 2.0),
     (46, True, 0.9999999999998515, (0.39999999997914587, 0.0,
                                     0.6666666655314144, 0.0))),
    ("overflow", (1e-100, 0.0, 0.0, 0.0), (0.0, 1.0),
     (StepUnderflow, "solution left float range at t = 0.0")),
    ("overflow", (1.9, 0.0, 0.0, 0.0), (0.0, 1.0),
     (StepUnderflow, "solution left float range at t = 0.0")),
]


class TestFixedOutcomes:
    @pytest.mark.parametrize("name, ic, span, outcome", _FIXED_CASES)
    def test_outcome(self, name, ic, span, outcome):
        if isinstance(outcome[0], type):
            exc, message = outcome
            head, _, at = message.rpartition(" = ")
            with pytest.raises(exc) as info:
                integrate_pair(_SYSTEMS[name], ic, span)
            got_head, _, got_at = str(info.value).rpartition(" = ")
            assert got_head == head
            assert float(got_at) == pytest.approx(float(at), rel=1e-12)
            return
        steps, truncated, t_end, state_end = outcome
        traj = integrate_pair(_SYSTEMS[name], ic, span)
        assert len(traj.t) == steps
        assert traj.truncated_by_singularity is truncated
        assert traj.t[-1] == pytest.approx(t_end, rel=1e-12)
        assert traj.states[-1].tolist() == pytest.approx(state_end, rel=1e-12)

    def test_one_tape_per_call(self, monkeypatch):
        # F1, F2 and their denominators share one tape, so the pole
        # distances are read from the same evaluations as the right-hand
        # sides; it is compiled on a pair's first integration and kept on
        # the pair, so a repeat call, also on an equal pair built anew,
        # compiles nothing
        compiled = []

        def counting(exprs, names):
            compiled.append(exprs)
            return compile_tape(exprs, names)

        monkeypatch.setattr("pathgeom.integrate.compile_tape", counting)
        doc = ("pair_ode g { vars t u1 u2 q1 q2; F1 = 3/(u1-7) + q1^2; "
               "F2 = q1*q2/(u2+11); }")
        pair = parse(doc).get("g")
        first = integrate_pair(pair, (0.5, -1.0, 0.5, 1.0), (0.0, 0.1))
        assert len(compiled) == 1
        assert list(compiled[0]) == [*pair.rhs, *denominator_bases(pair.rhs1),
                                     *denominator_bases(pair.rhs2)]
        again = integrate_pair(parse(doc).get("g"), (0.5, -1.0, 0.5, 1.0),
                               (0.0, 0.1))
        integrate_pair(pair, (0.0, 1.0, 0.5, -0.3), (0.0, 0.1))
        assert len(compiled) == 1
        assert np.array_equal(again.states, first.states)


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
