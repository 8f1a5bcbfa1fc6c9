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
from pathgeom.constructions import catalog, freestyle_pair
from pathgeom.dsl import MAX_NESTING, Document, parse, parse_expression
from pathgeom.errors import DslSyntaxError
from pathgeom.expr import compile_tape, rational
from pathgeom.expr.sampling import sample_points
from pathgeom.expr.zerotest import ZeroVerdict, zero_verdicts
from pathgeom.invariants import (curvature_quartic, fels_invariants,
                                 torsion_quadric)
from pathgeom.jets import ScalarODE
from pathgeom.metrics import closedness_check, null_planes_integrable
from pathgeom.pipeline import (SAMPLE_BUDGET, _claim, cmd_catalog,
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
                                   SAMPLE_BUDGET, "exact"):
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
        rec = _claim("c", "zero", deep, None)
        assert (rec.verdict, rec.tolerance) == (
            "pass", "exact identity, 50 trials")
        assert _claim("c", "zero", deep[1:], None).tolerance == (
            "exact identity, 6 trials, bound 2^-100")
        assert _claim("c", "zero", deep, 8).tolerance == (
            "exact identity, 8 trials")

    def test_zero_claim_tolerance_names_mpf_and_structural(self):
        mixed = [ZeroVerdict(True, trials=6, degree_bound=9),
                 ZeroVerdict(True, trials=50, mode="mpf")]
        assert _claim("c", "zero", mixed, None).tolerance == (
            "mpf 256-bit, relative 1e-30, 50 trials")
        assert _claim("c", "zero", mixed, 8).tolerance == (
            "mpf 256-bit, relative 1e-30, 8 trials")
        rec = _claim("c", "zero", [], None)
        assert (rec.verdict, rec.tolerance) == ("pass", "structural")

    def test_failing_zero_claim_names_distinct_witnesses_and_values(self):
        x = parse_expression("x", ("x",))
        verdicts = [ZeroVerdict(False, witness={"x": 2}, trials=1),
                    ZeroVerdict(True, trials=6, degree_bound=1),
                    ZeroVerdict(False, witness={"x": 2}, trials=1),
                    ZeroVerdict(False, witness={"x": 3}, trials=2)]
        entries = {"a": x, "b": x, "c": x, "d": x}
        rec = _claim("c", "zero", verdicts, 8, entries)
        assert rec.verdict == "fail"
        assert rec.witnesses == ["x = 2", "x = 3"]
        assert rec.details == {"a": "nonzero (x)", "b": "0",
                               "c": "nonzero (x)", "d": "nonzero (x)"}

    def test_nonzero_claim(self):
        # an exact nonzero value needs no trial count
        found = [ZeroVerdict(True, trials=6, degree_bound=4),
                 ZeroVerdict(False, witness={"x": 2}, trials=1)]
        for trials in (None, 12):
            rec = _claim("c", "nonzero", found, trials)
            assert (rec.verdict, rec.tolerance, rec.witnesses) == (
                "pass", "nonzero witness", [])
        # every entry vanishes: the claim fails, with no witness point and
        # the tolerance of a zero claim over the same verdicts
        vanish = [ZeroVerdict(True, trials=6, degree_bound=4)] * 2
        rec = _claim("c", "nonzero", vanish, None)
        assert (rec.verdict, rec.tolerance, rec.witnesses) == (
            "fail", "exact identity, 6 trials, bound 2^-100", [])
        rec = _claim("c", "nonzero", vanish, 12)
        assert (rec.verdict, rec.tolerance) == (
            "fail", "exact identity, 12 trials")
        mpf = [ZeroVerdict(True, trials=50, mode="mpf")]
        assert _claim("c", "nonzero", mpf, None).tolerance == (
            "mpf 256-bit, relative 1e-30, 50 trials")
        # no entry to test: structurally zero
        rec = _claim("c", "nonzero", [], None)
        assert (rec.verdict, rec.tolerance) == ("fail", "structural")

    @pytest.mark.parametrize("trials", [None, 1, 50])
    def test_every_claim_draws_the_given_trials(self, trials, monkeypatch):
        # rho ^ rho draws what every other claim of verify-chains draws: the
        # target allotment by default, and N with --trials N
        drawn = []

        def recording(exprs, trials, seed, _every=False):
            drawn.append(trials)
            return zero_verdicts(exprs, trials, seed, _every)

        monkeypatch.setattr(pipeline, "zero_verdicts", recording)
        rep = cmd_verify_chains(DOC, "quartic", trials=trials, samples=4)
        assert len(drawn) == 5 and set(drawn) == {trials}
        rec = {c.name: c for c in rep.checks}["rho_wedge_rho_nonzero"]
        assert (rec.verdict, rec.tolerance, rec.details) == (
            "pass", "nonzero witness", {"rank": "4"})


class TestReports:
    def test_determinism_byte_identical(self):
        a = cmd_verify_chains(DOC, "flat", trials=10, samples=6, seed=7)
        b = cmd_verify_chains(DOC, "flat", trials=10, samples=6, seed=7)
        assert a.to_json() == b.to_json()

    def test_seed_echoed(self):
        rep = cmd_classify(DOC, "flat_chain_pair", samples=4, seed=42)
        payload = json.loads(rep.to_json())
        assert payload["seed"] == 42
        assert payload["tool_version"]
        assert payload["fingerprint"]

    def test_failure_names_witness(self):
        # a generic pair is not uniformly D_c, so verify-cr fails with details
        rep = cmd_verify_cr(DOC, "generic", samples=6, trials=8, seed=0)
        assert not rep.passed
        failing = [c for c in rep.checks if c.verdict == "fail"]
        assert failing
        assert failing[0].name == "uniform_quartic_type"

    def test_wrong_uniform_type_names_the_first_sampled_point(self):
        # flat_chain_pair is D_r at every point, so its D_c claim fails at
        # the first one
        rep = cmd_verify_cr(None, "flat_chain_pair", samples=6, trials=8)
        rec = rep.checks[0]
        assert (rec.name, rec.verdict) == ("uniform_quartic_type", "fail")
        assert rec.details["quartic_type"] == "D_r"
        inv = fels_invariants(catalog("flat_chain_pair"))
        exprs = (list(curvature_quartic(inv).coefficients)
                 + list(torsion_quadric(inv).coefficients))
        names = sorted(set().union(*(e.free_variables for e in exprs)))
        point, values = next(sample_points(compile_tape(exprs, names), names,
                                           0, SAMPLE_BUDGET, "exact"))
        assert rec.witnesses == [", ".join(f"{n} = {v}"
                                           for n, v in zip(names, point))]
        assert classify_quartic(values[:5]).describe() == "D_r"

    def test_failing_identity_claims_of_a_metric_name_their_witness(self):
        doc = parse("coframe c { vars y p Y P; eta 1 = y*d Y; eta 2 = d P; "
                    "eta 3 = d y; eta 4 = p*d p + Y*d y; }")
        cm = doc.get("c")
        rep = cmd_metric(doc, "c", trials=50, seed=0)
        byname = {c.name: c for c in rep.checks}
        for name, verdicts in (
                ("fundamental_form_closed",
                 closedness_check(cm.fundamental_form(), trials=50, seed=0)),
                ("null_planes_integrable",
                 null_planes_integrable(cm, trials=50, seed=0))):
            witness = next(v.witness for v in verdicts if not v.is_zero)
            assert byname[name].verdict == "fail"
            assert byname[name].witnesses == [", ".join(
                f"{n} = {v}" for n, v in sorted(witness.items()))]
        # a numeric check reports its residual, not a witness
        assert byname["einstein"].verdict == "fail"
        assert byname["einstein"].witnesses == []

    def test_invariants_scalar(self):
        rep = cmd_invariants(DOC, "quartic", trials=8)
        details = {c.name: c.details for c in rep.checks}
        assert details["scalar_invariants"]["T1"] == "24*p^8"
        assert details["scalar_invariants"]["C1"] == "24"
        assert details["flat_point_equivalence"]["flat"] == "False"

    def test_invariants_pair_trace(self):
        rep = cmd_invariants(DOC, "generic", trials=8)
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
        rep = cmd_invariants(DOC, "generic", trials=8)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == "exact identity, 8 trials"
        rep = cmd_verify_chains(DOC, "flat", trials=8, samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["dual_derivation_equal"] == "exact identity, 8 trials"
        assert tol["torsion_iff_flat_scalar"] == "exact identity, 8 trials"

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
        mpf = "mpf 256-bit, relative 1e-30, 8 trials"
        rep = cmd_invariants(None, "dancing_sqrt_pair", trials=8)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == mpf
        doc = parse("scalar_ode r { vars t z p; F = sqrt(p); }")
        rep = cmd_verify_chains(doc, "r", trials=8, samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["dual_derivation_equal"] == mpf
        assert tol["torsion_iff_flat_scalar"] == mpf
        assert tol["uniform_quartic_type"] == "mpf 256-bit, relative 1e-30"

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rhs", ["sqrt(p)", "p^(3/2)", "sqrt(z + p^2)"])
    def test_radical_chain_pairs_are_D_r(self, rhs, seed):
        doc = parse(f"scalar_ode s {{ vars t z p; F = {rhs}; }}")
        rep = cmd_verify_chains(doc, "s", trials=8, seed=seed)
        assert rep.passed
        details = {c.name: c.details for c in rep.checks}
        assert details["uniform_quartic_type"]["quartic_type"] == "D_r"
        assert details["uniform_quartic_type"]["arithmetic"] == "mpf"

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

    def test_metric_identity_tolerance_names_mpf_arithmetic(self):
        doc = parse("""
coframe c { vars y p Y P;
  eta 1 = y^(1/2)*d Y; eta 2 = 1*d P; eta 3 = 1*d y; eta 4 = 1*d p; }
coframe n { vars y p Y P;
  eta 1 = 1*d Y + p^(1/2)*d P; eta 2 = 1*d P; eta 3 = 1*d y; eta 4 = 1*d p; }
""")
        mpf = "mpf 256-bit, relative 1e-30, 8 trials"
        tol = {c.name: c.tolerance
               for c in cmd_metric(doc, "c", points=5, trials=8).checks}
        assert tol["fundamental_form_closed"] == mpf
        # the null planes of c are integrable with nothing left to test
        assert tol["null_planes_integrable"] == "structural"
        tol = {c.name: c.tolerance
               for c in cmd_metric(doc, "n", points=5, trials=8).checks}
        # d of the fundamental form of n has no component to test
        assert tol["fundamental_form_closed"] == "structural"
        assert tol["null_planes_integrable"] == mpf

    def test_verify_chains_all_pass(self):
        rep = cmd_verify_chains(DOC, "flat", trials=12, samples=6, seed=0)
        assert rep.passed

    def test_verify_cr_sphere(self):
        rep = cmd_verify_cr(None, "cr_sphere_pair", samples=6, trials=10)
        assert rep.passed
        byname = {c.name: c for c in rep.checks}
        assert byname["torsion_zero"].verdict == "pass"

    def test_verify_cr_y3_reports_nonflat(self):
        rep = cmd_verify_cr(None, "cr_y3_pair", samples=5, trials=8)
        byname = {c.name: c for c in rep.checks}
        assert byname["uniform_quartic_type"].details["quartic_type"] == "D_c"
        assert byname["torsion_zero"].verdict == "info"
        assert byname["torsion_zero"].witnesses

    def test_metric_document_coframe(self):
        rep = cmd_metric(DOC, "flat4", points=5, trials=10)
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
        ("verify-chains", "{tmp}/d.pg", "--system", "flat", "--trials", "4"),
        ("verify-cr", "--system", "cr_sphere_pair", "--trials", "4"),
        ("metric", "--system", "fubini_study_coframe", "--trials", "4"),
        ("verify-dancing", "--phi", "flat"),
    ])
    def test_samples_below_one_exit_two(self, argv, samples, tmp_path, capsys):
        (tmp_path / "d.pg").write_text("scalar_ode flat { vars t z p; F = 0; }\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--samples", samples]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-7"])
    def test_trials_below_one_exit_two_when_every_claim_is_structural(
            self, trials, tmp_path, capsys):
        # the flat coframe's identity families are all empty
        (tmp_path / "flat.pg").write_text(
            "coframe flat4 { vars y p Y P; eta 1 = 1*d Y; eta 2 = 1*d P;\n"
            "                eta 3 = 1*d y; eta 4 = 1*d p; }\n")
        assert main(["metric", str(tmp_path / "flat.pg"), "--system", "flat4",
                     "--trials", trials]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

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
                         "--trials", "8", "--samples", "4")
        assert proc.returncode == 0
        assert "ALL CHECKS PASSED" in proc.stdout

    def test_exit_one_on_failed_check(self):
        proc = self._run("verify-cr", "--system", "flat_chain_pair",
                         "--samples", "4", "--trials", "6")
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

    def test_square_root_beyond_float_range(self, tmp_path):
        doc = tmp_path / "big.pg"
        doc.write_text("scalar_ode s { vars t z p; F = sqrt(10^400)*p; }\n")
        proc = self._run("invariants", str(doc), "--system", "s")
        assert proc.returncode == 0, proc.stderr

    def test_exit_two_on_unknown_name(self):
        proc = self._run("classify", "--system", "missing_system")
        assert proc.returncode == 2

    def test_exit_three_on_numerical_abort(self, tmp_path):
        # incident anchor cannot seed the dancing curve -> numerical abort path
        proc = self._run("verify-dancing", "--phi", "flat",
                         "--anchor", "0,0,0,0", "--span", "1,2")
        assert proc.returncode == 3

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
                             "--trials", "8", "--samples", "4",
                             "--seed", "5", "--json", str(out))
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

    def test_catalog_listing(self):
        proc = self._run("catalog")
        assert proc.returncode == 0
        assert "fubini_study_coframe" in proc.stdout
