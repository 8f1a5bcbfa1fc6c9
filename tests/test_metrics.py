import numpy as np
import pytest

from pathgeom.constructions import catalog, chain_pair_from_scalar
from pathgeom.errors import (DependentGenerators, SamplingExhausted,
                             TorsionNonzero)
from pathgeom.expr import (Rat, compile_tape, differentiate, exprs_equal,
                           is_zero_probabilistic, num, var)
from pathgeom.expr.sampling import sample_points
from pathgeom.expr.zerotest import target_trials
from pathgeom.forms import d, exterior_derivative, one_form, wedge
from pathgeom.jets import ScalarODE
from pathgeom.metrics import (MIN_DET, CoframeMetric, closedness_check,
                              conformal_equiv_check, conformal_from_pair,
                              einstein_check, null_planes_integrable)

CH4 = ("y", "p", "Y", "P")


def _flat_coframe():
    return CoframeMetric(CH4, (d(CH4, "Y"), d(CH4, "P"),
                               d(CH4, "y"), d(CH4, "p")), "para")


def _rotated_dancing_coframe():
    # swapping eta1 <-> -eta4 and eta2 <-> -eta3 preserves g exactly
    e1, e2, e3, e4 = catalog("dancing_metric_coframe").etas
    return CoframeMetric(CH4, (e4.scale(-1), e3.scale(-1), e2.scale(-1),
                               e1.scale(-1)), "para")


def _einstein_per_point(cm, points, seed):
    """(lambdas, max_residual) of einstein_check, from the same draws and
    admissibility test, with the Christoffel/Ricci assembly run one point
    at a time on 4x4 arrays."""
    coef = [c for row in cm.coefficient_rows() for c in row]
    g = [e for row in cm.metric_components() for e in row]
    dg = [differentiate(e, x) for x in cm.chart for e in g]
    ddg = [differentiate(e, x) for x in cm.chart for e in dg]
    names = list(cm.chart)
    tape = compile_tape(coef + g + dg + ddg, names)
    lambdas, max_res = [], 0.0
    for _, vals in sample_points(tape, names, seed, 500 * points):
        c, G, dG, ddG = np.split(np.array(vals), [16, 32, 96])
        if not abs(np.linalg.det(c.reshape(4, 4))) \
                > MIN_DET * np.max(np.abs(c)) ** 4:
            continue
        G, dG, ddG = G.reshape(4, 4), dG.reshape(4, 4, 4), \
            ddG.reshape(4, 4, 4, 4)
        Ginv = np.linalg.inv(G)
        S = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
        Gam = 0.5 * np.einsum("kl,ijl->kij", Ginv, S)
        dGinv = -np.einsum("ka,mab,bl->mkl", Ginv, dG, Ginv)
        dS = ddG + ddG.transpose(0, 2, 1, 3) - ddG.transpose(0, 2, 3, 1)
        dGam = 0.5 * (np.einsum("mkl,ijl->mkij", dGinv, S)
                      + np.einsum("kl,mijl->mkij", Ginv, dS))
        Ric = (np.einsum("kkij->ij", dGam)
               - np.einsum("jkik->ij", dGam)
               + np.einsum("kkl,lij->ij", Gam, Gam)
               - np.einsum("kjl,lik->ij", Gam, Gam))
        lam = float(np.einsum("ij,ij", Ginv, Ric) / 4.0)
        lambdas.append(lam)
        max_res = max(max_res, float(np.max(np.abs(Ric - lam * G))))
        if len(lambdas) == points:
            break
    return lambdas, max_res


class TestEinstein:
    def test_dancing_metric(self):
        rep = einstein_check(catalog("dancing_metric_coframe"),
                             points=20, seed=0)
        assert rep.max_residual < 1e-6
        assert rep.lambda_spread < 1e-6
        assert abs(rep.lambdas[0] - 6.0) < 1e-9
        assert rep.signature == (2, 2)

    def test_fubini_study_metric(self):
        rep = einstein_check(catalog("fubini_study_coframe"),
                             points=20, seed=0)
        assert rep.max_residual < 1e-6
        assert rep.lambda_spread < 1e-6
        assert abs(rep.lambdas[0] + 12.0) < 1e-9

    @pytest.mark.parametrize("points", [0, -1])
    def test_fewer_than_one_point_refused(self, points):
        with pytest.raises(ValueError):
            einstein_check(catalog("fubini_study_coframe"), points=points)

    def test_flat_coframe_is_ricci_flat(self):
        rep = einstein_check(_flat_coframe(), points=5, seed=0)
        assert rep.max_residual < 1e-12
        assert all(abs(l) < 1e-12 for l in rep.lambdas)

    def test_lambda_invariant_under_isometric_coframe_rotation(self):
        a = einstein_check(catalog("dancing_metric_coframe"), points=8,
                           seed=3)
        b = einstein_check(_rotated_dancing_coframe(), points=8, seed=3)
        assert abs(a.lambdas[0] - b.lambdas[0]) < 1e-9

    @pytest.mark.parametrize("coframe", [
        lambda: catalog("dancing_metric_coframe"),
        lambda: catalog("fubini_study_coframe"),
        _rotated_dancing_coframe, _flat_coframe],
        ids=["dancing", "fubini_study", "rotated", "flat"])
    def test_batched_assembly_matches_the_per_point_one(self, coframe):
        # bit for bit: lambdas and residual as the per-point assembly
        # gives them from the same draws
        cm = coframe()
        for seed in range(20):
            rep = einstein_check(cm, points=20, seed=seed)
            lambdas, max_res = _einstein_per_point(cm, 20, seed)
            assert [x.hex() for x in rep.lambdas] == \
                [x.hex() for x in lambdas]
            assert rep.max_residual.hex() == max_res.hex()


    @pytest.mark.parametrize("name, lam", [("dancing_metric_coframe", 6.0),
                                           ("fubini_study_coframe", -12.0)])
    def test_admissibility_does_not_depend_on_scale(self, name, lam):
        # g scales by 10^-6, so lambda scales by 10^6; an absolute det
        # filter kept only draws near the poles of the scaled coframe
        cm = catalog(name)
        small = CoframeMetric(cm.chart, tuple(e.scale(Rat(1, 1000))
                                              for e in cm.etas), cm.structure)
        for seed in range(6):
            rep = einstein_check(small, points=20, seed=seed)
            assert rep.is_einstein()
            assert abs(rep.lambdas[0] / 1e6 - lam) < 1e-9

    def test_dependent_etas_have_no_admissible_point(self):
        e1, _, e3, e4 = _flat_coframe().etas
        with pytest.raises(SamplingExhausted) as exc:
            einstein_check(CoframeMetric(CH4, (e1, e1, e3, e4), "para"),
                           points=2, seed=0)
        assert str(exc.value) == ("no 2 samples with |coframe det| > 1e-08 "
                                  "max|coefficient|^4 in 1000 draws")


class TestConformalFromPair:
    def test_flat_chain_pair_matches_dancing_metric(self):
        cm = conformal_from_pair(catalog("flat_chain_pair"))
        verdict = conformal_equiv_check(cm, catalog("dancing_metric_coframe"),
                                        seed=1)
        assert verdict.equivalent

    def test_cr_sphere_matches_fubini_study(self):
        cm = conformal_from_pair(catalog("cr_sphere_pair"), x_value=0)
        verdict = conformal_equiv_check(cm, catalog("fubini_study_coframe"),
                                        seed=1)
        assert verdict.equivalent

    def test_torsion_pair_rejected(self):
        p = var("p")
        pair = chain_pair_from_scalar(ScalarODE(p ** 4))
        with pytest.raises(TorsionNonzero):
            conformal_from_pair(pair)


class TestConformalEquivalence:
    def test_constant_rescaling(self):
        cm = catalog("dancing_metric_coframe")
        scaled = CoframeMetric(cm.chart,
                               (cm.etas[0].scale(7), cm.etas[1].scale(7),
                                cm.etas[2], cm.etas[3]), "para")
        verdict = conformal_equiv_check(cm, scaled, seed=2)
        assert verdict.equivalent
        assert exprs_equal(verdict.factor, num(Rat(1, 7)), trials=8).is_zero

    def test_function_rescaling(self):
        cm = catalog("dancing_metric_coframe")
        Y, p = var("Y"), var("p")
        factor = (Y - p) ** 2
        scaled = CoframeMetric(cm.chart,
                               (cm.etas[0].scale(factor),
                                cm.etas[1].scale(factor),
                                cm.etas[2], cm.etas[3]), "para")
        verdict = conformal_equiv_check(scaled, cm, seed=2)
        assert verdict.equivalent
        assert exprs_equal(verdict.factor, factor, trials=8).is_zero

    def test_small_coframe_is_equivalent(self):
        # a coframe determinant of 10^-12 is no degeneracy of the claim
        flat = _flat_coframe()
        small = CoframeMetric(CH4, tuple(e.scale(Rat(1, 10 ** 3))
                                         for e in flat.etas), "para")
        verdict = conformal_equiv_check(small, flat)
        assert verdict.equivalent
        assert verdict.factor is num(Rat(1, 10 ** 6))
        assert conformal_equiv_check(flat, small).factor is num(10 ** 6)

    def test_self_equivalence_factor_is_one(self):
        cm = catalog("dancing_metric_coframe")
        assert conformal_equiv_check(cm, cm).factor is num(1)

    def test_zero_metric_refused(self):
        zero = CoframeMetric(CH4, tuple(e.scale(0)
                                        for e in _flat_coframe().etas), "para")
        with pytest.raises(ValueError):
            conformal_equiv_check(_flat_coframe(), zero)

    def test_inequivalent_metrics(self):
        verdict = conformal_equiv_check(catalog("dancing_metric_coframe"),
                                        _flat_coframe(), seed=2)
        assert not verdict.equivalent
        assert verdict.witness is not None


class TestFundamentalForm:
    def test_dancing_omega_closed(self):
        assert all(closedness_check(
            catalog("dancing_metric_coframe").fundamental_form()))

    def test_fubini_study_omega_closed(self):
        assert all(closedness_check(
            catalog("fubini_study_coframe").fundamental_form()))

    def test_default_trials_reach_the_target_bound(self):
        # with no trials, a library identity test draws what pg's own claims
        # draw: each entry's target allotment, for a 2^-100 failure bound
        # (the dancing form's d is structurally zero, so it has no entries)
        form = catalog("fubini_study_coframe").fundamental_form()
        verdicts = closedness_check(form) + [
            is_zero_probabilistic(e)
            for e in exterior_derivative(form).comps.values()]
        assert closedness_check(
            catalog("dancing_metric_coframe").fundamental_form()) == []
        assert len(verdicts) == 6
        for v in verdicts:
            assert v.is_zero and v.mode == "exact"
            assert v.trials == target_trials(v.degree_bound)
            assert v.failure_bound <= 2 ** -100

    def test_non_closed_form_detected(self):
        ch = ("x", "y", "z", "w")
        bad = wedge(d(ch, "x"), d(ch, "y")) + \
            wedge(d(ch, "y"), d(ch, "z")).scale(var("x"))
        assert not all(closedness_check(bad))


class TestNullPlanes:
    def test_dancing_para_planes_integrable(self):
        assert all(null_planes_integrable(catalog("dancing_metric_coframe")))

    def test_fubini_study_complex_planes_integrable(self):
        assert all(null_planes_integrable(catalog("fubini_study_coframe")))

    def test_non_integrable_planes_detected(self):
        ch = CH4
        p = var("p")
        # first para system is {dY - p dy, dP}: d(dY - p dy) ^ both = -dp^dy^dY^dP
        e1 = one_form(ch, {"Y": num(1), "y": num(0) - p})
        cm = CoframeMetric(ch, (e1, d(ch, "y"), d(ch, "P"), d(ch, "p")),
                           "para")
        assert not all(null_planes_integrable(cm))

    @pytest.mark.parametrize("structure", ["para", "complex"])
    def test_dependent_null_plane_generators_raise(self, structure):
        e1, e2 = one_form(CH4, {"Y": var("p")}), d(CH4, "P")
        cm = CoframeMetric(CH4, (e1, e2, e1, e2), structure)
        with pytest.raises(DependentGenerators):
            null_planes_integrable(cm)
