import json
import os
import subprocess
import sys

import pytest

from pathgeom import pipeline
from pathgeom.constructions import chain_pair_from_scalar
from pathgeom.dsl import parse
from pathgeom.pipeline import (_classify_pair_pointwise, cmd_catalog,
                               cmd_classify, cmd_invariants, cmd_metric,
                               cmd_verify_chains, cmd_verify_cr,
                               cmd_verify_dancing)
from pathgeom.roots import admissibility

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
            results, _, _ = _classify_pair_pointwise(DOC.get("mixed"), 8, seed)
            flags = [admissibility(q4, q2).as_dict() for _, q4, q2 in results]
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

    def test_identity_tolerance_names_mpf_arithmetic(self, monkeypatch):
        mpf = "mpf 256-bit, relative 1e-30, 8 trials"
        rep = cmd_invariants(None, "dancing_sqrt_pair", trials=8)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["torsion_trace_identity"] == mpf
        # the pointwise classification of a radical chain pair aborts (the
        # float root clustering defect), so the flat chain pair's stands in
        flat = chain_pair_from_scalar(DOC.get("flat"))
        classify = pipeline._classify_pair_pointwise
        monkeypatch.setattr(pipeline, "_classify_pair_pointwise",
                            lambda pair, samples, seed:
                            classify(flat, samples, seed))
        doc = parse("scalar_ode r { vars t z p; F = sqrt(p); }")
        rep = cmd_verify_chains(doc, "r", trials=8, samples=4)
        tol = {c.name: c.tolerance for c in rep.checks}
        assert tol["dual_derivation_equal"] == mpf
        assert tol["torsion_iff_flat_scalar"] == mpf

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

    def test_constant_beyond_float_range_classifies_exactly(self, tmp_path):
        # 10^400 has no float value; a radical-free pair never needs one
        doc = tmp_path / "big.pg"
        doc.write_text("pair_ode g { vars t u1 u2 q1 q2; "
                       "F1 = 10^400*q1^3; F2 = 0; }\n")
        proc = self._run("classify", str(doc), "--system", "g",
                         "--samples", "4")
        assert proc.returncode == 0, proc.stderr
        assert "arithmetic: exact" in proc.stdout

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
