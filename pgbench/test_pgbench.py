"""Tests of the benchmark itself.

    python3 -m pytest pgbench
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_pathgeom()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _counted_pass(name, seed, workdir):
    """Counters of one traced pass; times are left out, they never repeat."""
    workload = workloads.build(name, seed, str(workdir))
    runner = run.Runner(workloads, workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run("traced", 0, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.check_layers(workloads.WORKLOADS[name].required_layers)
    values = tracing.layer_values(tracer.passes, statistics.median)
    counts = {k: v for k, v in values.items()
              if not k.endswith(("self_s", "instr_per_s"))}
    return counts, runner.unexpected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_a_seed(name, tmp_path):
    first, unexpected = _counted_pass(name, 7, tmp_path)
    second, _ = _counted_pass(name, 7, tmp_path)
    assert unexpected == []
    assert first == second
    assert first["expr.tape.compile.calls"] > 0


def test_wrappers_reach_every_from_import():
    import pathgeom.expr.zerotest as zerotest
    import pathgeom.pipeline as pipeline
    from pathgeom.expr import var

    original = zerotest.is_zero_probabilistic
    holders = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "pathgeom"
               and vars(m).get("is_zero_probabilistic") is original]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(holders) > 1
        assert tracer.bindings[
            "pathgeom.expr.zerotest.is_zero_probabilistic"] == len(holders)
        tracer.begin_pass()
        pipeline.is_zero_probabilistic(var("x") - var("x"), trials=3)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    layer = tracer.passes[0]["expr.zerotest"]
    assert (layer["calls"], layer["trials"], layer["mode_exact"]) == (1, 3, 1)
    assert pipeline.is_zero_probabilistic is original


def _last_json(argv):
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + argv,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = _last_json(["--workload", "numeric_curves", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (run.MIN_OPS if trace == 0 else 1)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "catalog_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
