import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from pathgeom import pipeline
from pathgeom.cli import main
from pathgeom.constructions import (catalog, catalog_names,
                                    dancing_curve_numeric, freestyle_pair)
from pathgeom.dsl import MAX_NESTING, Document, parse, parse_expression
from pathgeom.errors import DslSyntaxError, IllConditioned
from pathgeom.expr import compile_tape, rational
from pathgeom.expr.sampling import sample_points
from pathgeom.expr.zerotest import ZeroVerdict
from pathgeom.invariants import (curvature_quartic, fels_invariants,
                                 torsion_quadric)
from pathgeom.jets import ScalarODE
from pathgeom.metrics import closedness_check, null_planes_integrable
from pathgeom.pipeline import (DRAWS_PER_SAMPLE, _claim, cmd_catalog,
                               cmd_classify, cmd_invariants, cmd_metric,
                               cmd_verify_chains, cmd_verify_cr,
                               cmd_verify_dancing)
from pathgeom.roots import admissibility, classify_quadric, classify_quartic

DOC = parse("""
scalar_ode flat { vars t z p; F = 0; }
scalar_ode quartic { vars t z p; F = p^4; }
pair_ode generic { vars t u1 u2 q1 q2; F1 = u2^2; F2 = q1^3 + u1; }
pair_ode mixed { vars t u1 u2 q1 q2; F1 = q2^3; F2 = q1^3 + u1; }
coframe flat4 {
  vars y p Y P;
  eta 1 = 1*d Y; eta 2 = 1*d P; eta 3 = 1*d y; eta 4 = 1*d p;
}
""")


def _flags_at_sampled_points(pair, samples, seed):
    """Admissibility flags at each of the exact points the pointwise
    classification of a radical-free pair samples."""
    inv = fels_invariants(pair)
    exprs = (list(curvature_quartic(inv).coefficients)
             + list(torsion_quadric(inv).coefficients))
    names = sorted(set().union(*(e.free_variables for e in exprs)))
    flags = []
    for _, values in sample_points(compile_tape(exprs, names), names, seed,
                                   DRAWS_PER_SAMPLE * samples, "exact"):
        flags.append(admissibility(classify_quartic(values[:5]),
                                   classify_quadric(values[5:])).as_dict())
        if len(flags) == samples:
            return flags
    raise AssertionError("too few sampled points")


class TestClaim:
    """`_claim`, the one path from a claim's verdicts to its record."""

    def test_zero_claim_tolerance_names_allotment_and_bound(self):
        # an entry whose degree bound needs more than 50 trials for the
        # target bound draws 50, and the tolerance names no bound
        deep = [ZeroVerdict(True, trials=50, degree_bound=250001),
                ZeroVerdict(True, trials=6, degree_bound=9)]
        rec = _claim("c", "zero", deep)
        assert (rec.verdict, rec.tolerance) == (
            "pass", "exact identity, 50 trials")
        assert _claim("c", "zero", deep[1:]).tolerance == (
            "exact identity, 6 trials, bound 2^-100")

    def test_zero_claim_tolerance_names_mpf_and_structural(self):
        mixed = [ZeroVerdict(True, trials=6, degree_bound=9),
                 ZeroVerdict(True, trials=50, mode="mpf")]
        assert _claim("c", "zero", mixed).tolerance == (
            "mpf 256-bit, relative 1e-30, 50 trials")
        rec = _claim("c", "zero", [])
        assert (rec.verdict, rec.tolerance) == ("pass", "structural")

    def test_failing_zero_claim_names_distinct_witnesses_and_values(self):
        x = parse_expression("x", ("x",))
        verdicts = [ZeroVerdict(False, witness={"x": 2}, trials=1),
                    ZeroVerdict(True, trials=6, degree_bound=1),
                    ZeroVerdict(False, witness={"x": 2}, trials=1),
                    ZeroVerdict(False, witness={"x": 3}, trials=2)]
        entries = {"a": x, "b": x, "c": x, "d": x}
        rec = _claim("c", "zero", verdicts, entries)
        assert rec.verdict == "fail"
        assert rec.witnesses == ["x = 2", "x = 3"]
        assert rec.details == {"a": "nonzero (x)", "b": "0",
                               "c": "nonzero (x)", "d": "nonzero (x)"}

    def test_nonzero_claim(self):
        # an exact nonzero value needs no trial count
        found = [ZeroVerdict(True, trials=6, degree_bound=4),
                 ZeroVerdict(False, witness={"x": 2}, trials=1)]
        rec = _claim("c", "nonzero", found)
        assert (rec.verdict, rec.tolerance, rec.witnesses) == (
            "pass", "nonzero witness", [])
        # every entry vanishes: the claim fails, with no witness point and
        # the tolerance of a zero claim over the same verdicts
        vanish = [ZeroVerdict(True, trials=6, degree_bound=4)] * 2
        rec = _claim("c", "nonzero", vanish)
        assert (rec.verdict, rec.tolerance, rec.witnesses) == (
            "fail", "exact identity, 6 trials, bound 2^-100", [])
        mpf = [ZeroVerdict(True, trials=50, mode="mpf")]
        assert _claim("c", "nonzero", mpf).tolerance == (
            "mpf 256-bit, relative 1e-30, 50 trials")
        # no entry to test: structurally zero
        rec = _claim("c", "nonzero", [])
        assert (rec.verdict, rec.tolerance) == ("fail", "structural")


class TestReports:
    def test_determinism_byte_identical(self):
        a = cmd_verify_chains(DOC, "flat", samples=6, seed=7)
        b = cmd_verify_chains(DOC, "flat", samples=6, seed=7)
        assert a.to_json() == b.to_json()

    def test_seed_echoed(self):
        rep = cmd_classify(DOC, "flat_chain_pair", samples=4, seed=42)
        payload = json.loads(rep.to_json())
        assert payload["seed"] == 42
        assert payload["tool_version"]
        assert payload["fingerprint"]

    def test_failure_names_witness(self):
        # a generic pair is not uniformly D_c, so verify-cr fails with details
        rep = cmd_verify_cr(DOC, "generic", samples=6, seed=0)
        assert not rep.passed
        failing = [c for c in rep.checks if c.verdict == "fail"]
        assert failing
        assert failing[0].name == "uniform_quartic_type"

    def test_wrong_uniform_type_names_the_first_sampled_point(self):
        # flat_chain_pair is D_r at every point, so its D_c claim fails at
        # the first one
        rep = cmd_verify_cr(None, "flat_chain_pair", samples=6)
        rec = rep.checks[0]
        assert (rec.name, rec.verdict) == ("uniform_quartic_type", "fail")
        assert rec.details["quartic_type"] == "D_r"
        inv = fels_invariants(catalog("flat_chain_pair"))
        exprs = (list(curvature_quartic(inv).coefficients)
                 + list(torsion_quadric(inv).coefficients))
        names = sorted(set().union(*(e.free_variables for e in exprs)))
        point, values = next(sample_points(compile_tape(exprs, names), names,
                                           0, DRAWS_PER_SAMPLE * 6,
                                           "exact"))
        assert rec.witnesses == [", ".join(f"{n} = {v}"
                                           for n, v in zip(names, point))]
        assert classify_quartic(values[:5]).describe() == "D_r"

    def test_failing_identity_claims_of_a_metric_name_their_witness(self):
        doc = parse("coframe c { vars y p Y P; eta 1 = y*d Y; eta 2 = d P; "
                    "eta 3 = d y; eta 4 = p*d p + Y*d y; }")
        cm = doc.get("c")
        rep = cmd_metric(doc, "c", seed=0)
        byname = {c.name: c for c in rep.checks}
        for name, verdicts in (
                ("fundamental_form_closed",
                 closedness_check(cm.fundamental_form(), seed=0)),
                ("null_planes_integrable",
                 null_planes_integrable(cm, seed=0))):
            witness = next(v.witness for v in verdicts if not v.is_zero)
            assert byname[name].verdict == "fail"
            assert byname[name].witnesses == [", ".join(
                f"{n} = {v}" for n, v in sorted(witness.items()))]
        # a numeric check reports its residual, not a witness
        assert byname["einstein"].verdict == "fail"
        assert byname["einstein"].witnesses == []

    def test_invariants_scalar(self):
        rep = cmd_invariants(DOC, "quartic")
        details = {c.name: c.details for c in rep.checks}
        assert details["scalar_invariants"]["T1"] == "24*p^8"
        assert details["scalar_invariants"]["C1"] == "24"
        assert details["flat_point_equivalence"]["flat"] == "False"

    def test_invariants_pair_trace(self):
        rep = cmd_invariants(DOC, "generic")
        byname = {c.name: c for c in rep.checks}
        assert byname["torsion_trace_identity"].verdict == "pass"
        assert "W0" in byname["binary_forms"].details

    def test_classify_catalog_pairs(self):
        rep = cmd_classify(DOC, "cr_sphere_pair", samples=6, seed=0)
        byname = {c.name: c for c in rep.checks}
        assert byname["uniform_quartic_type"].details["quartic_type"] == "D_c"
        assert byname["admissibility_flags"].details["chain_CR"] == "True"

    def test_admissibility_flags_hold_at_every_sample(self):
        # the flags of `mixed` change from point to point: a construction is
        # reported admissible only if it is at every sampled point
        first_differs = 0
        for seed in range(3):
            rep = cmd_classify(DOC, "mixed", samples=8, seed=seed)
            reported = {c.name: c for c in rep.checks}["admissibility_flags"]
            flags = _flags_at_sampled_points(DOC.get("mixed"), 8, seed)
            assert reported.details == {k: str(all(f[k] for f in flags))
                                        for k in flags[0]}
            first_differs += reported.details != {k: str(v)
                                                  for k, v in flags[0].items()}
        assert first_differs

    def test_identity_tolerance_names_exact_arithmetic(self):
        rep = cmd_invariants(DOC, "generic")
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == (
            "exact identity, 1 trials, bound 2^-100")
        rep = cmd_verify_chains(DOC, "flat", samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["dual_derivation_equal"] == (
            "exact identity, 7 trials, bound 2^-100")
        assert tol["torsion_iff_flat_scalar"] == (
            "exact identity, 6 trials, bound 2^-100")

    def test_default_identity_tolerance_names_allotment_and_bound(self):
        # without a trial count an exact claim names its largest per-entry
        # allotment and the target bound; mpf claims keep 50 trials
        rep = cmd_invariants(None, "cr_sphere_pair")
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == (
            "exact identity, 7 trials, bound 2^-100")
        rep = cmd_verify_chains(DOC, "flat", samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["rho_wedge_rho_nonzero"] == "nonzero witness"
        assert re.fullmatch(r"exact identity, \d trials, bound 2\^-100",
                            tol["dual_derivation_equal"])
        rep = cmd_invariants(None, "dancing_sqrt_pair")
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == (
            "mpf 256-bit, relative 1e-30, 50 trials")

    def test_identity_tolerance_names_mpf_arithmetic(self):
        # a radicand that is not a chart variable is decided in mpf
        mpf = "mpf 256-bit, relative 1e-30, 50 trials"
        rep = cmd_invariants(None, "dancing_sqrt_pair")
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == mpf
        doc = parse("scalar_ode r { vars t z p; F = sqrt(z + p^2); }")
        rep = cmd_verify_chains(doc, "r", samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["dual_derivation_equal"] == mpf
        assert tol["torsion_iff_flat_scalar"] == mpf
        assert tol["uniform_quartic_type"] == "mpf 256-bit, relative 1e-30"

    @pytest.mark.parametrize("rhs", ["sqrt(p)", "p^(3/2)"])
    def test_identity_tolerance_names_exact_arithmetic_on_the_branch(self,
                                                                     rhs):
        # a radicand that is a chart variable is drawn as p = s^2, where
        # the identities have exact values and a Schwartz-Zippel bound
        doc = parse(f"scalar_ode r {{ vars t z p; F = {rhs}; }}")
        rep = cmd_verify_chains(doc, "r", samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        for name in ("dual_derivation_equal", "torsion_iff_flat_scalar"):
            assert re.fullmatch(r"exact identity, \d trials, bound 2\^-100",
                                tol[name]), name
        assert tol["uniform_quartic_type"] == "exact"

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rhs", ["sqrt(p)", "p^(3/2)", "sqrt(z + p^2)"])
    def test_radical_chain_pairs_are_D_r(self, rhs, seed):
        doc = parse(f"scalar_ode s {{ vars t z p; F = {rhs}; }}")
        rep = cmd_verify_chains(doc, "s", seed=seed)
        assert rep.passed
        details = {c.name: c.details for c in rep.checks}
        assert details["uniform_quartic_type"]["quartic_type"] == "D_r"
        # only the radicand that is not a chart variable leaves exact
        # arithmetic
        assert details["uniform_quartic_type"]["arithmetic"] == (
            "mpf" if rhs == "sqrt(z + p^2)" else "exact")

    @pytest.mark.parametrize("rhs", ["t*p^3 + z", "z*p^2 + t", "p^3", "p^4"])
    def test_freestyle_root_type_does_not_depend_on_root_order(self, rhs):
        # the double root of the quartic falls before, between or after the
        # simple ones from point to point; the type is the same
        scalar = ScalarODE(parse_expression(rhs, ("t", "z", "p")))
        doc = Document([("pair_ode", "g", freestyle_pair(scalar))])
        rep = cmd_classify(doc, "g", seed=0)
        check = {c.name: c for c in rep.checks}["uniform_quartic_type"]
        assert check.verdict == "pass"
        assert check.details["quartic_type"] == "real x2, real, real"

    @staticmethod
    def _metric_tolerances(c_radical, n_radical):
        """The identity tolerances of `pg metric` on two coframes with a
        radical coefficient each."""
        doc = parse(f"""
coframe c {{ vars y p Y P;
  eta 1 = {c_radical}*d Y; eta 2 = 1*d P; eta 3 = 1*d y; eta 4 = 1*d p; }}
coframe n {{ vars y p Y P;
  eta 1 = 1*d Y + {n_radical}*d P; eta 2 = 1*d P; eta 3 = 1*d y;
  eta 4 = 1*d p; }}
""")
        return [{c.name: c.tolerance
                 for c in cmd_metric(doc, name, points=5).checks}
                for name in ("c", "n")]

    def test_metric_identity_tolerance_names_mpf_arithmetic(self):
        # radicands that are not chart variables are decided in mpf
        mpf = "mpf 256-bit, relative 1e-30, 50 trials"
        c, n = self._metric_tolerances("(y + 1)^(1/2)", "(p + 1)^(1/2)")
        assert c["fundamental_form_closed"] == mpf
        # the null planes of c are integrable with nothing left to test
        assert c["null_planes_integrable"] == "structural"
        # d of the fundamental form of n has no component to test
        assert n["fundamental_form_closed"] == "structural"
        assert n["null_planes_integrable"] == mpf

    def test_metric_identity_tolerance_names_exact_arithmetic_on_the_branch(
            self):
        exact = "exact identity, 6 trials, bound 2^-100"
        c, n = self._metric_tolerances("y^(1/2)", "p^(1/2)")
        assert c["fundamental_form_closed"] == exact
        assert c["null_planes_integrable"] == "structural"
        assert n["fundamental_form_closed"] == "structural"
        assert n["null_planes_integrable"] == exact

    def test_verify_chains_all_pass(self):
        rep = cmd_verify_chains(DOC, "flat", samples=6, seed=0)
        assert rep.passed

    def test_verify_cr_sphere(self):
        rep = cmd_verify_cr(None, "cr_sphere_pair", samples=6)
        assert rep.passed
        byname = {c.name: c for c in rep.checks}
        assert byname["torsion_zero"].verdict == "pass"

    def test_verify_cr_y3_reports_nonflat(self):
        rep = cmd_verify_cr(None, "cr_y3_pair", samples=5)
        byname = {c.name: c for c in rep.checks}
        assert byname["uniform_quartic_type"].details["quartic_type"] == "D_c"
        assert byname["torsion_zero"].verdict == "info"
        assert byname["torsion_zero"].witnesses

    def test_metric_document_coframe(self):
        rep = cmd_metric(DOC, "flat4", points=5)
        byname = {c.name: c for c in rep.checks}
        assert byname["einstein"].verdict == "pass"
        assert byname["einstein"].details["lambda"] == "0"

    def test_dancing_builtin(self, tmp_path):
        csv = tmp_path / "c.csv"
        rep = cmd_verify_dancing(None, "flat", samples=40, csv_path=str(csv))
        assert rep.passed
        assert csv.read_text().startswith("t,z,b,res\n")

    def test_catalog_report(self):
        rep = cmd_catalog("flat_chain_pair")
        assert rep.checks[0].details["F2"] == "2*P^2/(p - Y)"


class TestCli:
    @pytest.mark.parametrize("argv", [
        ("classify", "--system", "cr_sphere_pair", "--csv", "{tmp}/x.csv"),
        ("classify", "--system", "cr_sphere_pair", "--trials", "3"),
        ("invariants", "--system", "cr_y3_pair", "--samples", "3"),
        ("invariants", "--system", "cr_y3_pair", "--csv", "{tmp}/x.csv"),
        ("verify-chains", "--system", "flat", "--csv", "{tmp}/x.csv"),
        ("verify-cr", "--system", "cr_sphere_pair", "--csv", "{tmp}/x.csv"),
        ("metric", "--system", "fubini_study_coframe", "--csv", "{tmp}/x.csv"),
        ("verify-dancing", "--phi", "flat", "--trials", "3"),
        ("catalog", "--seed", "1"),
        # every identity claim draws the zero tester's own allotment
        ("invariants", "--system", "flat_chain_pair", "--trials", "5"),
        ("verify-chains", "--system", "flat_chain_pair", "--trials", "5"),
        ("verify-cr", "--system", "cr_sphere_pair", "--trials", "5"),
        ("metric", "--system", "fubini_study_coframe", "--trials", "5"),
    ])
    def test_option_not_read_by_the_command_exits_two(self, argv, tmp_path,
                                                       capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("samples", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ("classify", "--system", "flat_chain_pair"),
        ("verify-chains", "{tmp}/d.pg", "--system", "flat"),
        ("verify-cr", "--system", "cr_sphere_pair"),
        ("metric", "--system", "fubini_study_coframe"),
        ("verify-dancing", "--phi", "flat"),
    ])
    def test_samples_below_one_exit_two(self, argv, samples, tmp_path, capsys):
        (tmp_path / "d.pg").write_text("scalar_ode flat { vars t z p; F = 0; }\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--samples", samples]) == 2
        assert ("input error: --samples must be >= 1"
                in capsys.readouterr().err)

    def test_draw_budget_grows_with_samples(self, capsys):
        # 3001 admissible points take more than 3000 draws
        assert main(["classify", "--system", "flat_chain_pair",
                     "--samples", "3001"]) == 0
        assert "samples: 3001" in capsys.readouterr().out

    @pytest.mark.parametrize("option, value", [
        ("--anchor", "inf,1,0,0"), ("--anchor", "1e400,1,0,0"),
        ("--anchor", "nan,1,0,0"), ("--span", "1,inf"), ("--span", "nan,2"),
        ("--span", "1,2,3"), ("--span", "a,2")])
    def test_non_finite_dancing_window_exits_two_naming_the_option(
            self, option, value, capsys):
        assert main(["verify-dancing", "--phi", "flat", option, value]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {option} ")

    @pytest.mark.parametrize("phi", ["flat", "sqrt"])
    def test_catalog_name_of_phi_reports_as_its_short_name(self, phi, capsys):
        reports = []
        for name in (phi, f"{phi}_dancing_phi"):
            assert main(["verify-dancing", "--phi", name, "--json", "-"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            assert reports[-1].pop("command") == f"verify-dancing {name}"
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("window, guessed", [
        ((), True), (("--anchor", "0,1,0,0", "--span", "1,2"), True),
        (("--span", "1,1.5"), False), (("--anchor", "0,2,0,0"), False)])
    def test_newton_guess_only_in_the_default_window(self, window, guessed,
                                                     monkeypatch, capsys):
        guesses = []

        def spy(*args, initial_guess, **kwargs):
            guesses.append(initial_guess)
            return dancing_curve_numeric(*args, initial_guess=initial_guess,
                                         **kwargs)

        monkeypatch.setattr(pipeline, "dancing_curve_numeric", spy)
        assert main(["verify-dancing", "--phi", "flat", *window]) == 0
        assert (guesses[0] is not None) == guessed

    def test_pair_without_value_on_the_curve_fails_naming_its_t(self, capsys):
        # the sqrt pair has no value where the flat curve meets t + b = 0
        assert main(["verify-dancing", "--phi", "flat", "--system",
                     "dancing_sqrt_pair", "--json", "-"]) == 1
        rec = json.loads(capsys.readouterr().out)["checks"][1]
        assert (rec["name"], rec["verdict"]) == ("pair_residual", "fail")
        assert set(rec["details"]) == {"pair", "no_value"}
        [witness] = rec["witnesses"]
        assert 1.0 <= float(witness.removeprefix("t = ")) <= 2.0

    def test_pair_beyond_float_range_fails_without_a_traceback(
            self, tmp_path, capsys):
        # the fractional power has no float64 value on the curve; with ^3
        # in its place the residual is inf
        doc = tmp_path / "big.pg"
        doc.write_text("pair_ode g { vars t z b Z B; "
                       "F1 = (10^300*Z + 10^300)^(3/2); F2 = 0; }\n")
        assert main(["verify-dancing", str(doc), "--phi", "flat", "--system",
                     "g", "--json", "-"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        rec = json.loads(out)["checks"][1]
        assert (rec["name"], rec["verdict"]) == ("pair_residual", "fail")
        assert set(rec["details"]) == {"pair", "no_value"}
        assert rec["witnesses"] == ["t = 1.0"]

    @pytest.mark.parametrize("command", ["invariants", "classify"])
    @pytest.mark.parametrize("f1, message", [
        # the parser sees the exponent: an error at its '^'
        ("q1^3000000000", "input error: 1:41: exponent 3000000000 too large"),
        # folded to q1^4000000000: too large for the tape
        ("(q1^2)^2000000000", "input error: integer exponent"),
    ])
    def test_integer_exponent_beyond_the_tape_exits_two(
            self, command, f1, message, tmp_path, capsys):
        doc = tmp_path / "d.pg"
        doc.write_text(f"pair_ode g {{ vars t u1 u2 q1 q2; F1 = {f1}; "
                       "F2 = 0; }\n")
        assert main([command, str(doc), "--system", "g"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("f1, column", [
        ("3^2000000000*q1", 40), ("(3*q1)^2000000000", 45),
        ("2^(1000000001/2)*q1", 40)])
    def test_oversized_constant_power_exits_two_at_once(
            self, f1, column, tmp_path):
        doc = tmp_path / "d.pg"
        doc.write_text(f"pair_ode g {{ vars t u1 u2 q1 q2; F1 = {f1}; "
                       "F2 = 0; }\n")
        # in a child first: folding such a power would take hours
        proc = subprocess.run([sys.executable, "-m", "pathgeom.cli",
                               "classify", str(doc), "--system", "g"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert f"input error: 1:{column}: constant power" in proc.stderr
        assert "too large" in proc.stderr
        start = time.perf_counter()
        assert main(["classify", str(doc), "--system", "g"]) == 2
        assert time.perf_counter() - start < 1

    def test_oversized_power_at_a_sampled_point_exits_two_at_once(
            self, tmp_path, capsys):
        doc = tmp_path / "d.pg"
        doc.write_text("pair_ode g { vars t u1 u2 q1 q2; F1 = q1^3000000; "
                       "F2 = 0; }\n")
        argv = ["classify", str(doc), "--system", "g", "--samples", "2"]
        # in a child first: evaluating such a power exactly takes minutes
        proc = subprocess.run([sys.executable, "-m", "pathgeom.cli", *argv],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "input error: integer power" in proc.stderr
        assert f"beyond {rational.MAX_POWER_BITS} bits" in proc.stderr
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 5

    def test_consecutive_calls_share_no_parsed_options(self, capsys):
        argv = ["classify", "--system", "flat_chain_pair"]
        assert main(argv + ["--samples", "3"]) == 0
        assert "samples: 3\n" in capsys.readouterr().out
        assert main(argv) == 0
        assert "samples: 20\n" in capsys.readouterr().out

    def _run(self, *argv, stdin=None):
        proc = subprocess.run([sys.executable, "-m", "pathgeom.cli", *argv],
                              capture_output=True, text=True, input=stdin)
        return proc

    def test_exit_zero_on_pass(self, tmp_path):
        doc = tmp_path / "d.pg"
        doc.write_text("scalar_ode flat { vars t z p; F = 0; }\n")
        proc = self._run("verify-chains", str(doc), "--system", "flat",
                         "--samples", "4")
        assert proc.returncode == 0
        assert "ALL CHECKS PASSED" in proc.stdout

    def test_exit_one_on_failed_check(self):
        proc = self._run("verify-cr", "--system", "flat_chain_pair",
                         "--samples", "4")
        assert proc.returncode == 1
        assert "CHECKS FAILED" in proc.stdout

    def test_exit_two_on_input_error(self, tmp_path):
        bad = tmp_path / "bad.pg"
        bad.write_text("scalar_ode oops { vars t z p; F = q; }\n")
        proc = self._run("invariants", str(bad), "--system", "oops")
        assert proc.returncode == 2
        assert "input error" in proc.stderr

    @pytest.mark.parametrize("body, column, message", [
        ("1/0", 33, "division by the zero constant"),
        ("0^(-2)*p", 33, "0 raised to a negative power"),
        ("(-4)^(1/2)", 36, "negative base under an even root"),
    ])
    def test_constant_folding_to_an_undefined_value_exits_two(
            self, body, column, message, tmp_path, capsys):
        doc = tmp_path / "d.pg"
        doc.write_text(f"scalar_ode s {{ vars t z p; F = {body}; }}\n")
        assert main(["verify-chains", str(doc), "--system", "s"]) == 2
        assert (f"input error: 1:{column}: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("body, column, got", [
        ("(" * 200 + "p" + ")" * 200, 132, "'('"),
        ("-" * 1200 + "p", 132, "'-'"),
        ("p" + "^1" * 1200, 232, "'1'"),
    ], ids=["parentheses", "unary-minus", "power-chain"])
    def test_deep_nesting_exits_two(self, body, column, got, tmp_path,
                                    capsys):
        # the parser and the kernel recurse once per level: beyond
        # MAX_NESTING levels the text is an input error, not a RecursionError
        doc = tmp_path / "d.pg"
        doc.write_text(f"scalar_ode s {{ vars t z p; F = {body}; }}\n")
        assert main(["invariants", str(doc), "--system", "s"]) == 2
        err = capsys.readouterr().err
        assert (f"input error: 1:{column}: expression nested more than "
                f"{MAX_NESTING} levels deep, got {got}") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, decl", [
        ("invariants", "scalar_ode s {{ vars t z p; F = {}; }}"),
        ("invariants", "pair_ode s {{ vars t u1 u2 q1 q2; F1 = {}; F2 = 0; }}"),
        ("classify", "pair_ode s {{ vars t u1 u2 q1 q2; F1 = {}; F2 = 0; }}"),
    ], ids=["scalar-invariants", "pair-invariants", "pair-classify"])
    def test_nesting_at_the_bound_runs_through_the_kernel(self, command, decl,
                                                          tmp_path, capsys):
        # MAX_NESTING levels that do not fold: a DAG about twice as deep,
        # which the derivatives, the tape and the printer all walk
        x, y = ("p", "z") if decl.startswith("scalar") else ("q1", "u1")
        body = x
        for _ in range(MAX_NESTING - 1):
            body = f"({body}*{y}+t)"
        doc = tmp_path / "deep.pg"
        doc.write_text(decl.format(body) + "\n")
        assert main([command, str(doc), "--system", "s"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        with pytest.raises(DslSyntaxError, match="nested more than"):
            parse(decl.format(f"({body})"))

    def test_constant_beyond_float_range_classifies_exactly(self, tmp_path):
        # 10^400 has no float value; a radical-free pair never needs one
        doc = tmp_path / "big.pg"
        doc.write_text("pair_ode g { vars t u1 u2 q1 q2; "
                       "F1 = 10^400*q1^3; F2 = 0; }\n")
        proc = self._run("classify", str(doc), "--system", "g",
                         "--samples", "4")
        assert proc.returncode == 0, proc.stderr
        assert "arithmetic: exact" in proc.stdout

    @pytest.mark.parametrize("command", ["classify", "verify-cr"])
    @pytest.mark.parametrize("rhs", [
        "F1 = 10^400*q1^2*q2; F2 = q1^3 + q2^3;",   # a quartic's roots
        "F1 = 10^400*u1*q1 + u2*q2; F2 = u1*q2;",   # a quadric's roots
    ])
    def test_roots_beyond_float_range_are_placed(self, command, rhs, tmp_path,
                                                 capsys):
        # the root types are exact; the positions of roots whose coefficients
        # are too far apart for float64 leave no traceback either
        doc = tmp_path / "big.pg"
        doc.write_text(f"pair_ode g {{ vars t u1 u2 q1 q2; {rhs} }}\n")
        assert main([command, str(doc), "--system", "g"]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_square_root_beyond_float_range(self, tmp_path):
        doc = tmp_path / "big.pg"
        doc.write_text("scalar_ode s { vars t z p; F = sqrt(10^400)*p; }\n")
        proc = self._run("invariants", str(doc), "--system", "s")
        assert proc.returncode == 0, proc.stderr

    def test_exit_two_on_unknown_name(self):
        proc = self._run("classify", "--system", "missing_system")
        assert proc.returncode == 2

    def test_incident_anchor_is_an_input_error(self, capsys):
        # phi vanishes on the anchor 0,0,0,0 of the flat solution function
        assert main(["verify-dancing", "--phi", "flat", "--anchor", "0,0,0,0",
                     "--span", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: anchor is incident")
        assert captured.out == ""

    def test_exit_three_on_numerical_abort(self, tmp_path, capsys):
        # (argv, start of the message): a sample on the pole at t = 1.5
        # makes J singular; a window across the pole ends on another
        # branch, where det J has the other sign; no point of the curve is
        # found at t = 1 for the anchor 1,0,0,1; sqrt(-q1^2 - 1) has no real
        # value, so no draw is kept; dependent etas make every coframe
        # determinant 0, so no Einstein sample is admissible
        doc = tmp_path / "d.pg"
        doc.write_text("pair_ode g { vars t u1 u2 q1 q2; "
                       "F1 = sqrt(-q1^2-1)*q2^3; F2 = 0; }\n"
                       "coframe c { vars y p Y P; eta 1 = dY; eta 2 = dY; "
                       "eta 3 = dy; eta 4 = dp; }\n")
        dancing = ("verify-dancing", "--phi", "flat", "--span", "1,2",
                   "--anchor")
        for argv, message in (
                ((*dancing, "1.5,0,0,1", "--samples", "3"), "numerical "
                 "abort: constraint Jacobian singular near t = 1.5\n"),
                ((*dancing, "1.5,0,0,1"), "numerical abort: constraint "
                 "Jacobian singular near t = 1.504"),
                ((*dancing, "1,0,0,1"), "numerical abort: no starting point "
                 "found on the dancing curve at t = 1.0"),
                (("classify", str(doc), "--system", "g", "--samples", "2"),
                 "numerical abort: only 0/2 admissible points classified\n"),
                (("metric", str(doc), "--system", "c", "--samples", "2"),
                 "numerical abort: no 2 samples with |coframe det| > ")):
            assert main(list(argv)) == 3
            err = capsys.readouterr().err
            assert err.startswith(message)
            assert "initial_guess" not in err

    def test_ill_conditioned_points_are_skipped_up_to_samples(
            self, monkeypatch, capsys):
        # an mpf point whose root multiplicities do not add up is skipped
        # and counted; one skip more than --samples aborts
        calls = []

        def ill_conditioned_at(skip):
            def classify(values):
                calls.append(values)
                if skip(len(calls)):
                    raise IllConditioned("multiplicities do not add up")
                return classify_quartic(values)
            return classify

        monkeypatch.setattr(pipeline, "classify_quartic",
                            ill_conditioned_at(lambda n: n % 2))
        rec = cmd_classify(None, "flat_chain_pair", samples=4).checks[0]
        assert (rec.verdict, len(calls)) == ("pass", 8)
        assert rec.details["quartic_type"] == "D_r"
        assert rec.details["ill_conditioned_skipped"] == "4"
        calls.clear()
        monkeypatch.setattr(pipeline, "classify_quartic",
                            ill_conditioned_at(lambda n: True))
        assert main(["classify", "--system", "flat_chain_pair",
                     "--samples", "4"]) == 3
        assert len(calls) == 5
        assert capsys.readouterr().err == (
            "numerical abort: multiplicities do not add up\n")

    def test_stdin_document(self):
        proc = self._run("invariants", "-", "--system", "flat",
                         stdin="scalar_ode flat { vars t z p; F = 0; }\n")
        assert proc.returncode == 0

    def test_json_output(self, tmp_path):
        out = tmp_path / "r.json"
        proc = self._run("classify", "--system", "flat_chain_pair",
                         "--samples", "4", "--json", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "classify flat_chain_pair"
        assert all(set(c) >= {"name", "verdict", "tolerance", "witnesses"}
                   for c in payload["checks"])

    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("classify", "--system", "flat_chain_pair", "--samples", "4"),
        ("invariants", "-", "--system", "flat")])
    def test_json_dash_prints_the_report_and_writes_no_file(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        doc = "scalar_ode flat { vars t z p; F = 0; }\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main([*argv, "--json", "r.json"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main([*argv, "--json", "-"]) == 0
        printed = capsys.readouterr().out
        # the JSON report in place of the text report, byte for byte
        assert printed == (tmp_path / "r.json").read_text()
        assert json.loads(printed)["checks"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["r.json"]

    @pytest.mark.parametrize("coefficient", ["2305843009213693952",
                                             "2305843009213693951"])
    def test_torsion_with_content_a_large_prime_is_not_zero(
            self, coefficient, monkeypatch, capsys):
        # T^1_2 is -(c - 1)(q1 + 1)^3; for c = 2^61 it is -(2^61 - 1)(q1 + 1)^3,
        # whose every coefficient the prime 2^61 - 1 divides
        doc = (f"pair_ode g {{ vars t u1 u2 q1 q2; F1 = {coefficient}*(q1+1)^3*u2"
               " - (q1^3+3*q1^2+3*q1+1)*u2; F2 = 0; }\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(["invariants", "-", "--system", "g", "--json", "-"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)
                  ["checks"]}
        assert checks["torsion"]["details"]["torsion_zero"] == "False"

    def test_unwritable_json_path_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert main(["catalog", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not path.parent.exists()

    def test_cross_process_determinism(self, tmp_path):
        doc = tmp_path / "d.pg"
        doc.write_text("scalar_ode quad { vars t z p; F = p^2; }\n")
        outs = []
        for k in (1, 2):
            out = tmp_path / f"r{k}.json"
            proc = self._run("verify-chains", str(doc), "--system", "quad",
                             "--samples", "4", "--seed", "5", "--json",
                             str(out))
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ("classify", "--system", "cr_y3_pair"),
        ("invariants", "--system", "dancing_sqrt_pair"),
        ("metric", "--system", "fubini_study_coframe"),
        ("verify-dancing", "--phi", "sqrt"),
    ])
    def test_report_independent_of_hash_seed(self, tmp_path, argv):
        outs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"r{hash_seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run([sys.executable, "-m", "pathgeom.cli", *argv,
                                   "--json", str(out)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_entry_prints_its_fields(self, name, capsys):
        assert main(["catalog", name, "--json", "-"]) == 0
        details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
        kind = type(catalog(name)).__name__
        etas = {f"eta{k}" for k in range(1, 5)}
        fields = {"PairODE": {"F1", "F2"}, "SolutionFunction": {"Phi"},
                  "ThirdOrderODE": {"rhs"},
                  "CoframeMetric": {"structure"} | etas}[kind]
        assert details["type"] == kind
        assert set(details) == {"type", "chart"} | fields
        for eta in etas & set(details):
            # DifferentialForm's repr: (coefficient) dx + ...
            assert re.fullmatch(r"\(.+\) d\w( \+ \(.+\) d\w)*",
                                details[eta])

    def test_catalog_listing(self):
        proc = self._run("catalog")
        assert proc.returncode == 0
        assert "fubini_study_coframe" in proc.stdout
