"""Derivations computed once per object: shared catalog entries, and Fels
invariants and tapes kept weakly on the objects they come from."""

import gc
import json
import subprocess
import sys
import threading
import weakref

import pytest

from pathgeom import memo
from pathgeom.constructions import catalog, catalog_names
from pathgeom.dsl import parse
from pathgeom.errors import UnboundVariable
from pathgeom.expr import compile_tape, num, var
from pathgeom.invariants import fels_invariants
from pathgeom.pipeline import _root_type_checks

PAIRS = ("flat_chain_pair", "cr_sphere_pair", "cr_y3_pair",
         "dancing_sqrt_pair")

# every command the benchmark runs on a catalog entry, at seed 0
CATALOG_COMMANDS = (
    [[cmd, "--system", pair, "--seed", "0"]
     for cmd in ("invariants", "classify", "verify-cr") for pair in PAIRS]
    + [["metric", "--system", c, "--seed", "0"]
       for c in ("dancing_metric_coframe", "fubini_study_coframe")]
    + [["verify-dancing", "--phi", phi, "--seed", "0"]
       for phi in ("flat", "sqrt")]
    + [["catalog"]])

# runs each command twice in one fresh process, where the first call finds
# every memo empty, and prints (exit code, sha256 of the --json bytes) per
# call
_TWICE = """
import contextlib, hashlib, io, json, os, sys, tempfile
from pathgeom.cli import main
out = os.path.join(tempfile.mkdtemp(), "report.json")
got = []
for argv in json.loads(sys.argv[1]):
    calls = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--json", out])
        with open(out, "rb") as fh:
            calls.append((code, hashlib.sha256(fh.read()).hexdigest()))
    got.append(calls)
print(json.dumps(got))
"""


class TestSharedEntries:
    @pytest.mark.parametrize("name", catalog_names())
    def test_one_entry_per_name(self, name):
        assert catalog(name) is catalog(name)

    def test_coframe_coefficients_are_read_only(self):
        eta = catalog("dancing_metric_coframe").etas[0]
        before = dict(eta.comps)
        with pytest.raises(TypeError):
            eta.comps[(0,)] = num(7)
        with pytest.raises(TypeError):
            del eta.comps[(2,)]
        assert dict(eta.comps) == before

    def test_first_and_second_call_print_the_same_report(self):
        proc = subprocess.run(
            [sys.executable, "-c", _TWICE, json.dumps(CATALOG_COMMANDS)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert len(got) == len(CATALOG_COMMANDS)
        for argv, (first, second) in zip(CATALOG_COMMANDS, got):
            assert first == second, argv


class TestMemoizedDerivations:
    def test_fels_invariants_are_derived_once_per_system(self):
        pair = catalog("cr_y3_pair")
        a, b = fels_invariants(pair), fels_invariants(pair)
        assert a is not b and a.system is pair
        assert a.torsion is b.torsion
        assert a.curvature == b.curvature
        # each wrapper has its own curvature dict
        a.curvature.clear()
        assert fels_invariants(pair).curvature == b.curvature

    def test_one_expression_tape_is_shared_per_chart(self):
        e = var("x") * var("y") + num(3)
        tape = compile_tape(e, ["x", "y"])
        assert compile_tape(e, ("x", "y")) is tape
        assert compile_tape(e, ("y", "x")) is not tape
        assert compile_tape(e, ("y", "x")).eval_exact([2, 5]) == 13

    def test_sequence_tapes_are_not_shared(self):
        e = var("x") + num(1)
        assert compile_tape([e], ["x"]) is not compile_tape([e], ["x"])

    def test_a_failed_compile_keeps_nothing(self):
        e = var("x") * var("w")
        with pytest.raises(UnboundVariable):
            compile_tape(e, ["x"])
        assert compile_tape(e, ["x", "w"]).eval_exact([2, 3]) == 6


def test_memoized_objects_are_freed():
    # a memo value that held its key (a FelsInvariants holding its system,
    # a tape holding its expression) would keep both alive
    doc = parse("pair_ode g { vars t u1 u2 q1 q2; "
                "F1 = 91/17*q1^3*u2 + q2^2; F2 = 37/13*q1*q2^3; }")
    pair = doc.get("g")
    e = pair.rhs1 * num(53) + var("q2")
    inv = fels_invariants(pair)
    records = _root_type_checks(pair, 2, 0)
    assert records[0].verdict == "pass"
    assert compile_tape(e, pair.chart).eval_exact([1, 2, 3, 4, 5]) != 0
    tables = len(memo._TABLES)
    refs = [weakref.ref(pair), weakref.ref(e)]
    del doc, pair, e, inv, records
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert len(memo._TABLES) <= tables - 2


def test_threads_that_miss_together_return_one_value():
    # each thread computes on a miss, and every thread must return the value
    # stored first; a store that overwrote it would hand out two values
    keys = [var("m") * num(k + 2) + var("n") for k in range(400)]
    results = [[] for _ in range(8)]
    barrier = threading.Barrier(len(results))

    def work(out):
        barrier.wait()
        for e in keys:
            out.append(memo.memoized(e, "stress", object))

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in results:
        assert len(out) == len(keys)
        assert all(a is b for a, b in zip(out, results[0]))
