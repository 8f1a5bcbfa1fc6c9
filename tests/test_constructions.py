import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathgeom import constructions
from pathgeom.constructions import (catalog, catalog_names,
                                    chain_pair_from_scalar,
                                    dancing_curve_numeric, freestyle_pair,
                                    SolutionFunction)
from pathgeom.errors import (DivisionByZero, DomainError, JacobianSingular,
                             NewtonDiverged, NonTransverse, PairUndefined,
                             SeedNotFound, UnknownName)
from pathgeom.expr import (add, compile_tape, div, exprs_equal,
                           is_zero_probabilistic, mul, num, pow_,
                           rename_variables, sqrt_, sub, substitute, var,
                           variables)
from pathgeom.expr.tape import Tape
from pathgeom.invariants import fels_torsion, scalar_invariants
from pathgeom.jets import PairODE, ScalarODE
from pathgeom.pipeline import _DANCING

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

    def test_pair_without_value_names_the_first_such_sample(self):
        phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 1, 0, 0), (1.0, 2.0),
                                      samples=11, initial_guess=(0.0, 1.0, -1.0))
        # no real value for t > 1.7, a pole at t = 1.5 (the sixth sample)
        pair = PairODE(sqrt_(sub(num(Fraction(17, 10)), t)),
                       div(num(1), sub(t, num(Fraction(3, 2)))))
        with pytest.raises(PairUndefined) as exc:
            curve.pair_residuals(pair)
        assert exc.value.t == curve.t[5] == 1.5
        assert isinstance(exc.value.__cause__, DivisionByZero)
        pair = PairODE(sqrt_(sub(num(Fraction(17, 10)), t)), num(0))
        with pytest.raises(PairUndefined) as exc:
            curve.pair_residuals(pair)
        assert exc.value.t == curve.t[np.argmax(curve.t > 1.7)]
        assert isinstance(exc.value.__cause__, DomainError)

    def test_pair_beyond_float_range_names_the_first_sample(self):
        # a fractional power beyond float range has no float64 value; an
        # integer power saturates to inf and leaves a residual of inf
        phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(phi, (0, 1, 0, 0), (1.0, 2.0),
                                      samples=11, initial_guess=(0.0, 1.0, -1.0))
        big = add(mul(num(10 ** 300), var("Z")), num(10 ** 300))
        chart = ("t", "z", "b", "Z", "B")
        with pytest.raises(PairUndefined) as exc:
            curve.pair_residuals(PairODE(pow_(big, Fraction(3, 2)), num(0),
                                         chart=chart))
        assert exc.value.t == curve.t[0]
        assert isinstance(exc.value.__cause__, OverflowError)
        r1, _ = curve.pair_residuals(PairODE(pow_(big, 3), num(0),
                                             chart=chart))
        assert r1 == math.inf

    def test_curve_across_a_pole_raises_at_the_first_sample_past_it(self):
        # for this anchor b is infinite at t = 1.5; the samples past it lie
        # on the other branch, where det J has the other sign
        phi = catalog("flat_dancing_phi")
        anchor = (1.5, 0.0, 0.0, 1.0)
        curve = dancing_curve_numeric(phi, anchor, (1.0, 1.49), samples=60)
        assert np.max(curve.residual) < 1e-10
        ts = np.linspace(1.0, 2.0, 120)
        with pytest.raises(JacobianSingular) as exc:
            dancing_curve_numeric(phi, anchor, (1.0, 2.0), samples=120)
        assert exc.value.t == ts[np.argmax(ts > 1.5)]

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

    def test_one_tape_and_two_evaluations_per_sample(self, monkeypatch):
        # Newton and the samples evaluate the one tape [G, J, Gt, Gtt, Jt,
        # H]; from the Taylor predictor, Newton converges after one step,
        # so a sample costs the predicted point and the corrected one.  The
        # anchor is an input of the tape, so it is compiled once per
        # solution function: a repeat call, at another anchor, compiles
        # nothing
        tapes, calls = [], []

        def compile_spy(exprs, var_names):
            tapes.append(compile_tape(exprs, var_names))
            return tapes[-1]

        def eval_spy(tape, point):
            calls.append(tapes.index(tape))
            return eval_f64(tape, point)

        eval_f64 = Tape.eval_f64
        monkeypatch.setattr(constructions, "compile_tape", compile_spy)
        monkeypatch.setattr(Tape, "eval_f64", eval_spy)
        for name, (anchor, span, guess, _) in _DANCING.items():
            # the catalog function in other names, equal to no live one
            chart = ("s", "w", "c", "d")
            fresh = SolutionFunction(rename_variables(
                catalog(name).phi, dict(zip(catalog(name).chart, chart))),
                chart=chart)
            tapes.clear()
            for shift, first in ((0.0, guess), (0.25, None)):
                calls.clear()
                moved = (anchor[0], anchor[1] + shift, *anchor[2:])
                curve = dancing_curve_numeric(fresh, moved, span,
                                              samples=120,
                                              initial_guess=first)
                assert [len(t.outputs) for t in tapes] == [3 + 9 + 3 + 3 + 9
                                                           + 27]
                assert len(tapes[0].var_names) == 8
                if first is not None:
                    assert len(calls) <= 2 * 120 + 2
                assert np.max(curve.residual) < constructions.NEWTON_TOL

    # the catalog windows at 120 samples: (phi, seed, Newton guess, len(t),
    # last (z, b, z1, b1, z2, b2))
    CURVES = [
        ("flat", 0, True, 120, (1.301920143991652e-19, -0.5, 0.0, 0.25, 0.0,
                                -0.25)),
        ("flat", 0, False, 120, (1.301920143991652e-19, -0.5, 0.0, 0.25, 0.0,
                                 -0.25)),
        ("flat", 2, False, 120, (1.301920143991652e-19, -0.5, 0.0, 0.25, 0.0,
                                 -0.25)),
        ("sqrt", 0, True, 120, (6.25, 0.7173557826083872, 4.0,
                                0.16395399140247227, 2.0,
                                -0.15287715823783535)),
        ("sqrt", 0, False, 120, (6.25, 0.7173557826083872, 4.0,
                                 0.16395399140247227, 2.0,
                                 -0.15287715823783535)),
        ("sqrt", 1, False, 120, (6.25, 0.7173557826083872, 4.0,
                                 0.16395399140247227, 2.0,
                                 -0.15287715823783535)),
        # from this seed the multistart search finds the other branch
        ("sqrt", 2, False, 120, (6.25, -3.7173557826083456,
                                 3.9999999999999996, -1.1639539914024983,
                                 2.0, 0.15287715823786305)),
    ]

    @pytest.mark.parametrize("phi, seed, guessed, n, last", CURVES)
    def test_recorded_curves(self, phi, seed, guessed, n, last):
        name = f"{phi}_dancing_phi"
        anchor, span, guess, _ = _DANCING[name]
        curve = dancing_curve_numeric(catalog(name), anchor, span,
                                      samples=120, seed=seed,
                                      initial_guess=guess if guessed else None)
        assert len(curve.t) == n
        got = [float(getattr(curve, f)[-1])
               for f in ("z", "b", "z1", "b1", "z2", "b2")]
        assert got == pytest.approx(last, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("anchor, error, message", [
        ((1.5, 0, 0, 1), JacobianSingular,
         "constraint Jacobian singular near t = 1.5025125628140703"),
        ((0, 0, 0, 0), NonTransverse,
         "anchor is incident: the solution function vanishes on it"),
    ])
    def test_recorded_failures(self, anchor, error, message):
        with pytest.raises(error) as exc:
            dancing_curve_numeric(catalog("flat_dancing_phi"), anchor, (1, 2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_newton_rejects_nan_constraints(self, monkeypatch, k):
        # from a point on the curve, Newton converges at once; with a nan
        # in G it must not, wherever the nan sits (Python's max passes
        # over a nan that does not come first)
        newton, solvers = constructions._newton_solve, []

        def newton_spy(GJ, t, state):
            solvers.append(GJ)
            return newton(GJ, t, state)

        monkeypatch.setattr(constructions, "_newton_solve", newton_spy)
        anchor, span, guess, _ = _DANCING["flat_dancing_phi"]
        curve = dancing_curve_numeric(catalog("flat_dancing_phi"), anchor,
                                      span, samples=2, initial_guess=guess)
        GJ = solvers[0]

        def GJ_nan(t, s):
            out = GJ(t, s)
            out[k] = math.nan
            return out

        t0, state = curve.t[0], (curve.z[0], curve.a[0], curve.b[0])
        assert newton(GJ, t0, state) is not None
        assert newton(GJ_nan, t0, state) is None

    def test_nan_residual_fails_the_curve(self, monkeypatch):
        # a sample is Newton's converged evaluation, so a nan in G never
        # becomes a residual: here it stops the start search at t0
        eval_f64 = Tape.eval_f64

        def eval_nan(tape, point):
            out = eval_f64(tape, point)
            out[1] = math.nan
            return out

        monkeypatch.setattr(Tape, "eval_f64", eval_nan)
        anchor, span, guess, _ = _DANCING["flat_dancing_phi"]
        with pytest.raises(SeedNotFound) as exc:
            dancing_curve_numeric(catalog("flat_dancing_phi"), anchor, span,
                                  samples=5, initial_guess=guess)
        assert str(exc.value) == ("no starting point found on the dancing "
                                  f"curve at t = {span[0]}")

    def test_nan_from_some_t_on_stops_the_continuation(self, monkeypatch):
        # steps into the nan halve until they are shorter than 1e-9; the
        # error names the last t Newton tried, where it failed
        eval_f64 = Tape.eval_f64
        newton, tried = constructions._newton_solve, []

        def eval_nan(tape, point):
            out = eval_f64(tape, point)
            if point[0] >= 1.6:
                out[1] = math.nan
            return out

        def newton_spy(GJ, t, state):
            tried.append(t)
            return newton(GJ, t, state)

        monkeypatch.setattr(Tape, "eval_f64", eval_nan)
        monkeypatch.setattr(constructions, "_newton_solve", newton_spy)
        anchor, span, guess, _ = _DANCING["flat_dancing_phi"]
        with pytest.raises(NewtonDiverged) as exc:
            dancing_curve_numeric(catalog("flat_dancing_phi"), anchor, span,
                                  samples=5, initial_guess=guess)
        assert exc.value.t in tried
        assert exc.value.t >= 1.6
        assert exc.value.t == tried[-1]

    def test_singular_guess_falls_back_to_the_seeded_search(self):
        # det J = (t^ - t)((t^ + t)/4 + b/2) vanishes at t = 2, b = -1
        phi = catalog("sqrt_dancing_phi")
        got = dancing_curve_numeric(phi, (0, 2, 1, 1), (2, 3), samples=30,
                                    initial_guess=(0, 0, -1))
        want = dancing_curve_numeric(phi, (0, 2, 1, 1), (2, 3), samples=30)
        for f in ("t", "z", "a", "b", "z1", "b1", "z2", "b2", "residual"):
            np.testing.assert_array_equal(getattr(got, f), getattr(want, f))

    def test_curves_use_no_numpy_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy linear algebra on a dancing curve")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for name, (anchor, span, guess, _) in _DANCING.items():
            curve = dancing_curve_numeric(catalog(name), anchor, span,
                                          samples=30, initial_guess=guess)
            assert np.max(curve.residual) < 1e-10

    def test_solution_function_validation(self):
        with pytest.raises(ValueError):
            SolutionFunction(sub(var("z"), var("t")))


_ENTRY = st.floats(-10, 10, allow_subnormal=False)


def _rows(J):
    return [J[0:3], J[3:6], J[6:9]]


class TestLU3:
    """The 3x3 LU of the dancing curves against numpy.linalg."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRY, min_size=9, max_size=9),
           st.lists(_ENTRY, min_size=3, max_size=3))
    def test_det_and_solve_agree_with_numpy(self, J, b):
        A = np.array(_rows(J))
        cond = np.linalg.cond(A)
        assume(cond <= 1e8)
        det, solve = constructions._lu3(J)
        want = np.linalg.det(A)
        assert np.sign(det) == np.sign(want)
        assert abs(det - want) <= 1e-12 * cond * abs(want)
        x, want = np.array(solve(b)), np.linalg.solve(A, b)
        assert np.max(np.abs(x - want)) <= 1e-12 * cond * np.max(np.abs(want))

    def test_zero_leading_entry_swaps_rows(self):
        J = [0.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        det, solve = constructions._lu3(J)
        assert det == pytest.approx(np.linalg.det(np.array(_rows(J))),
                                    rel=1e-14)
        x = solve([1.0, 2.0, 3.0])
        assert x == pytest.approx(
            np.linalg.solve(np.array(_rows(J)), [1.0, 2.0, 3.0]), rel=1e-14)

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_permutation_matrices(self, perm):
        P = np.eye(3)[list(perm)]
        det, solve = constructions._lu3(P.ravel().tolist())
        assert det == np.linalg.det(P).round() and abs(det) == 1.0
        assert solve([1.0, 2.0, 3.0]) == (P.T @ [1.0, 2.0, 3.0]).tolist()

    def test_singular_jacobian_stops_newton(self):
        J = [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 1.0, 1.0]
        assert constructions._lu3(J) == (0.0, None)
        with pytest.raises(JacobianSingular) as exc:
            constructions._newton_solve(lambda t, s: [1.0, 1.0, 1.0, *J],
                                        0.5, (0.0, 0.0, 0.0))
        assert exc.value.t == 0.5


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
