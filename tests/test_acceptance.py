"""End-to-end acceptance suite.

Each test drives one numbered criterion at its stated tolerance and runtime
budget; the terminal summary prints one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion
from test_roots import _random_factored_quartic

from pathgeom.constructions import (catalog, chain_pair_from_scalar,
                                    dancing_curve_numeric, freestyle_pair)
from pathgeom.expr import (add, div, exprs_equal, is_zero_probabilistic, mul,
                           num, pow_, rename_variables, sub, substitute, var,
                           variables)
from pathgeom.forms import chain_pair_via_rho, exterior_derivative, rho_chain, wedge
from pathgeom.integrate import integrate_pair, third_order_reduction_check
from pathgeom.invariants import (fels_curvature, fels_torsion,
                                 scalar_invariants)
from pathgeom.jets import PairODE, ScalarODE, prolong
from pathgeom.metrics import (closedness_check, einstein_check,
                              null_planes_integrable)
from pathgeom.pipeline import cmd_classify
from pathgeom.roots import classify_quartic

t, z, p = variables("t z p")


class _Timer:
    def __init__(self, number, title, limit):
        self.number, self.title, self.limit = number, title, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        passed = exc_type is None and elapsed < self.limit
        note = "" if exc_type is None else str(exc).splitlines()[0][:90]
        if exc_type is None and elapsed >= self.limit:
            note = "over time budget"
        record_criterion(self.number, self.title, passed, elapsed,
                         self.limit, note)
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.1f}s)")
        return False


def _torsion_zero(pair, trials=20, seed=0):
    T = fels_torsion(pair)
    return all(is_zero_probabilistic(T[i][j], trials=trials, seed=seed).is_zero
               for i in range(2) for j in range(2))


def _torsion_witness(pair, trials=20, seed=0):
    T = fels_torsion(pair)
    for i in range(2):
        for j in range(2):
            verdict = is_zero_probabilistic(T[i][j], trials=trials, seed=seed)
            if not verdict.is_zero:
                return verdict.witness
    return None


def test_criterion_01_chain_generator_regression():
    with _Timer(1, "flat chain pair reproduced exactly", 1.0):
        generated = chain_pair_from_scalar(ScalarODE(num(0)))
        printed = catalog("flat_chain_pair")
        assert generated.chart == printed.chart
        v1 = exprs_equal(generated.rhs1, printed.rhs1, trials=50)
        v2 = exprs_equal(generated.rhs2, printed.rhs2, trials=50)
        assert v1.is_zero and v1.mode == "exact"
        assert v2.is_zero and v2.mode == "exact"


def test_criterion_02_dual_derivation_equivalence():
    with _Timer(2, "rho-derived pairs match the closed form", 30.0):
        for F in (num(0), z, p ** 2, p ** 3, t * p):
            sys = ScalarODE(F)
            closed = chain_pair_from_scalar(sys)
            via = chain_pair_via_rho(sys)
            assert exprs_equal(closed.rhs1, via.rhs1, trials=50).is_zero
            assert exprs_equal(closed.rhs2, via.rhs2, trials=50).is_zero
            rho = rho_chain(sys)
            drho = exterior_derivative(rho)
            for c in drho.comps.values():
                assert is_zero_probabilistic(c, trials=50).is_zero
            rr = wedge(rho, rho)
            assert any(not is_zero_probabilistic(c, trials=12).is_zero
                       for c in rr.comps.values())


def _random_cubic_pair(rng):
    names = ("t", "u1", "u2", "q1", "q2")

    def poly():
        out = num(0)
        for _ in range(rng.randint(2, 5)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            term = num(coeff)
            budget = 3
            for n in names:
                e = rng.randint(0, budget)
                budget -= e
                term = mul(term, pow_(var(n), e))
            out = add(out, term)
        return out

    return PairODE(poly(), poly())


def test_criterion_03_trace_identities():
    with _Timer(3, "trace identities on 200 random pairs", 60.0):
        rng = random.Random(2024)
        for k in range(200):
            sys = _random_cubic_pair(rng)
            T = fels_torsion(sys)
            verdict = is_zero_probabilistic(add(T[0][0], T[1][1]), trials=5,
                                            seed=k)
            assert verdict.is_zero and verdict.mode == "exact"
            C = fels_curvature(sys)
            for j in (1, 2):
                for l in (j, 2):
                    s = add(C[(1, tuple(sorted((1, j, l))))],
                            C[(2, tuple(sorted((2, j, l))))])
                    assert is_zero_probabilistic(s, trials=5, seed=k).is_zero


def test_criterion_04_torsion_flatness_equivalence():
    with _Timer(4, "chain torsion vanishes exactly for flat scalars", 30.0):
        rng = random.Random(5)

        def quadratic():
            return add(num(rng.randint(-4, 4)), mul(num(rng.randint(-4, 4)), t),
                       mul(num(rng.randint(-4, 4)), t ** 2))

        flat_family = [num(0), z]
        flat_family += [add(mul(quadratic(), p), mul(quadratic(), z),
                            quadratic()) for _ in range(3)]
        for F in flat_family:
            assert _torsion_zero(chain_pair_from_scalar(ScalarODE(F)),
                                 trials=20)
        witness = _torsion_witness(chain_pair_from_scalar(ScalarODE(p ** 4)),
                                   trials=20)
        assert witness is not None
        # the torsion-iff-flat shape holds across the whole catalog
        for F in flat_family + [p ** 3, p ** 4]:
            si = scalar_invariants(ScalarODE(F))
            scalar_zero = (is_zero_probabilistic(si.t1, trials=20).is_zero and
                           is_zero_probabilistic(si.c1, trials=20).is_zero)
            assert _torsion_zero(chain_pair_from_scalar(ScalarODE(F))) \
                == scalar_zero


def test_criterion_04_p_cubed_torsion_witness():
    """A nonzero-torsion witness is demanded for z'' = (z')^3.  That equation
    is point-flat: both of its fundamental scalar invariants vanish
    identically (the second is a fourth derivative of a cubic), so its chain
    pair is torsion-free and no witness can exist.  The check is retained
    deliberately and fails by mathematical necessity; see the testing section
    of the README."""
    with _Timer(4, "torsion witness demanded for z''=(z')^3", 30.0):
        si = scalar_invariants(ScalarODE(p ** 3))
        witness = _torsion_witness(chain_pair_from_scalar(ScalarODE(p ** 3)),
                                   trials=40)
        assert witness is not None, (
            "no torsion witness exists for z''=(z')^3: T1 = "
            f"{si.t1!r} and C1 = {si.c1!r} vanish identically, so the pair "
            "is torsion-free")


def _quartic_type_at_20_points(pair_name):
    """The quartic type of a catalog pair at 20 sampled points, asserting
    that one type held at every point and was decided exactly."""
    rep = cmd_classify(None, pair_name, samples=20, seed=0)
    rec = {c.name: c for c in rep.checks}["uniform_quartic_type"]
    assert rec.verdict == "pass"
    assert rec.details["arithmetic"] == "exact"
    return rec.details["quartic_type"]


def test_criterion_05_type_classification():
    with _Timer(5, "root types of the three catalog systems", 30.0):
        assert _quartic_type_at_20_points("flat_chain_pair") == "D_r"

        assert _quartic_type_at_20_points("cr_sphere_pair") == "D_c"
        assert _torsion_zero(catalog("cr_sphere_pair"), trials=30)

        assert _quartic_type_at_20_points("cr_y3_pair") == "D_c"
        assert _torsion_witness(catalog("cr_y3_pair"), trials=20) is not None


def test_criterion_06_third_order_reductions():
    with _Timer(6, "submaximal 3rd-order reductions", 60.0):
        flat = catalog("flat_chain_pair")
        w = var("__jet2")
        elim = var("p") - div(2 * var("P") ** 2, w)
        assert third_order_reduction_check(flat, "q1", elim,
                                           catalog("submax_ode_1")).matches
        cr = catalog("cr_sphere_pair")
        Y, x, y = var("Y"), var("x"), var("y")
        elim2 = div((Y ** 2 + 1) ** 2, w) - Y * x + y
        assert third_order_reduction_check(cr, "q2", elim2,
                                           catalog("submax_ode_2")).matches

        rng = random.Random(8)
        flat_res = div(3 * flat.rhs2 ** 2, 2 * var("P"))
        p3 = prolong(flat, flat.rhs2, 1)
        flat_defect = sub(p3, flat_res)
        for _ in range(10):
            ic = (rng.uniform(-1, 1), rng.uniform(0.5, 1.5),
                  rng.uniform(-0.5, 0.5), rng.uniform(-0.5, -0.1))
            traj = integrate_pair(flat, ic, (0.0, 1.0))
            assert not traj.truncated_by_singularity
            assert np.max(np.abs(traj.evaluate_along(flat_defect))) < 1e-6

        cr_res = div(3 * Y * cr.rhs1 ** 2, 1 + Y ** 2)
        y3 = prolong(cr, cr.rhs1, 1)
        cr_defect = sub(y3, cr_res)
        for _ in range(10):
            y0 = rng.uniform(-0.3, 0.3)
            ic = (y0, rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4),
                  y0 + rng.uniform(1.5, 2.5))
            traj = integrate_pair(cr, ic, (0.0, 0.4))
            assert not traj.truncated_by_singularity
            assert np.max(np.abs(traj.evaluate_along(cr_defect))) < 1e-6


def test_criterion_07_dancing_numerics():
    with _Timer(7, "dancing curves satisfy their pairs", 60.0):
        flat_phi = catalog("flat_dancing_phi")
        curve = dancing_curve_numeric(flat_phi, (0, 1, 0, 0), (1.0, 2.0),
                                      samples=120,
                                      initial_guess=(0.0, 1.0, -1.0))
        assert np.max(curve.residual) < 1e-10
        flat_pair = freestyle_pair(ScalarODE(num(0)))
        r1, r2 = curve.pair_residuals(flat_pair)
        assert max(r1, r2) < 1e-6

        sqrt_phi = catalog("sqrt_dancing_phi")
        curve = dancing_curve_numeric(sqrt_phi, (0, 2, 1, 1), (2.0, 3.0),
                                      samples=120,
                                      initial_guess=(19 / 6, 2.0,
                                                     0.41421356237309515))
        assert np.max(curve.residual) < 1e-10
        assert np.min(curve.t + curve.b) > 0
        r1, r2 = curve.pair_residuals(catalog("dancing_sqrt_pair"))
        assert max(r1, r2) < 1e-6


def test_criterion_08_freestyling_consistency():
    with _Timer(8, "freestyling consistency", 30.0):
        fs = freestyle_pair(ScalarODE(num(0)))
        chain = catalog("flat_chain_pair")
        renaming = dict(zip(chain.chart, fs.chart))
        assert is_zero_probabilistic(fs.rhs1, trials=20).is_zero
        assert exprs_equal(fs.rhs2,
                           rename_variables(chain.rhs2, renaming),
                           trials=50).is_zero
        # the dancing pair of the flat solution function is the same system:
        # b'' = -2(b')^2/(z'-b)
        b, Z, B = var("b"), var("Z"), var("B")
        flat_dancing_rhs = div(mul(num(-2), B ** 2), sub(Z, b))
        assert exprs_equal(fs.rhs2, flat_dancing_rhs, trials=50).is_zero

        rng = random.Random(31)
        for _ in range(20):
            F = num(0)
            for _ in range(rng.randint(1, 5)):
                F = add(F, mul(num(rng.randint(-5, 5)),
                               pow_(t, rng.randint(0, 2)),
                               pow_(z, rng.randint(0, 2)),
                               pow_(p, rng.randint(0, 2))))
            fsF = freestyle_pair(ScalarODE(F))
            assert substitute(fsF.rhs2, {"B": num(0)}) is num(0)


def test_criterion_09_metric_claims():
    with _Timer(9, "Einstein metrics, closed 2-forms, null planes", 120.0):
        for name, lam in (("dancing_metric_coframe", 6.0),
                          ("fubini_study_coframe", -12.0)):
            cm = catalog(name)
            rep = einstein_check(cm, points=20, seed=0)
            assert rep.max_residual < 1e-6
            assert rep.lambda_spread < 1e-6
            assert abs(rep.lambdas[0] - lam) < 1e-6
            assert rep.lambdas[0] != 0
            assert all(closedness_check(cm.fundamental_form(), trials=50))
            assert all(null_planes_integrable(cm, trials=50))


def test_criterion_10_quartic_round_trip():
    with _Timer(10, "500 factored quartics reclassified", 10.0):
        rng = random.Random(99)
        for _ in range(500):
            mults, w, real, cpx = _random_factored_quartic(rng)
            prof = classify_quartic(w)
            assert prof.multiplicities() == mults
            got_real = {float(r): m for r, m in prof.real_roots}
            for r, m in real:
                match = [g for g in got_real
                         if abs(g - float(r)) <= 1e-8 * max(1.0, abs(float(r)))]
                assert match and got_real[match[0]] == m
            got_cpx = {complex(float(re), float(im)): m
                       for (re, im), m in prof.complex_pairs}
            for (a, bb), m in cpx:
                target = complex(float(a), float(abs(bb)))
                match = [g for g in got_cpx
                         if abs(g - target) <= 1e-8 * max(1.0, abs(target))]
                assert match and got_cpx[match[0]] == m
