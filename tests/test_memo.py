"""Derivations computed once per object: shared catalog entries, and Fels
invariants and tapes (one-expression, root-type, Einstein, dancing-curve
and right-hand-side tapes) kept weakly on the objects they come from."""

import gc
import json
import subprocess
import sys
import threading
import weakref

import pytest

from pathgeom import memo
from pathgeom.constructions import (SolutionFunction, catalog, catalog_names,
                                    dancing_curve_numeric)
from pathgeom.dsl import parse
from pathgeom.errors import UnboundVariable
from pathgeom.expr import compile_tape, num, var
from pathgeom.forms import DifferentialForm, one_form, rho_chain
from pathgeom.integrate import integrate_pair
from pathgeom.invariants import fels_invariants
from pathgeom.jets import PAIR_CHART, PairODE
from pathgeom.metrics import CoframeMetric, einstein_check
from pathgeom.pipeline import _root_type_checks

PAIRS = ("flat_chain_pair", "cr_sphere_pair", "cr_y3_pair",
         "dancing_sqrt_pair")

# every command the benchmark runs on a catalog entry, at seed 0, and
# verify-dancing at an anchor of its own
CATALOG_COMMANDS = (
    [[cmd, "--system", pair, "--seed", "0"]
     for cmd in ("invariants", "classify", "verify-cr") for pair in PAIRS]
    + [["metric", "--system", c, "--seed", "0"]
       for c in ("dancing_metric_coframe", "fubini_study_coframe")]
    + [["verify-dancing", "--phi", phi, "--seed", "0"] + anchor
       for phi in ("flat", "sqrt")
       for anchor in ([], ["--anchor", "0.25,1.25,0.5,0.5"])]
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

    def test_rho_chain_is_derived_once_per_ode(self):
        ode = parse("scalar_ode s { vars t z p; F = 7/3*p^3 + z*p; }").get("s")
        rho = rho_chain(ode)
        assert rho_chain(ode) is rho
        # an equal ODE, parsed again, shares the form
        again = parse("scalar_ode s { vars t z p; F = 7/3*p^3 + z*p; }")
        assert rho_chain(again.get("s")) is rho
        # the form holds no reference to the ODE, so both go together
        assert "rho_chain" in memo._TABLES[ode]
        tables = len(memo._TABLES)
        ref = weakref.ref(ode)
        del ode, rho, again
        gc.collect()
        assert ref() is None
        assert len(memo._TABLES) < tables

    def test_one_expression_tape_is_shared_per_chart(self):
        e = var("x") * var("y") + num(3)
        tape = compile_tape(e, ["x", "y"])
        assert compile_tape(e, ("x", "y")) is tape
        assert compile_tape(e, ("y", "x")) is not tape
        assert compile_tape(e, ("y", "x")).eval_exact([2, 5]) == 13

    def test_sequence_tapes_are_not_shared(self):
        e = var("x") + num(1)
        assert compile_tape([e], ["x"]) is not compile_tape([e], ["x"])

    def test_equal_forms_hash_equal(self):
        chart = ("y", "p", "Y", "P")
        a = one_form(chart, {"Y": var("p") * 2, "y": num(1)})
        b = DifferentialForm(chart, 1, {(0,): num(1), (2,): 2 * var("p")})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, one_form(chart, {"Y": var("p")})}) == 2

    def test_equal_coframes_share_one_einstein_tape(self, monkeypatch):
        compiled = []

        def counting(exprs, names):
            compiled.append(names)
            return compile_tape(exprs, names)

        monkeypatch.setattr("pathgeom.metrics.compile_tape", counting)
        # two coframes built apart, equal to each other and to no live one
        cm = [_coframe(num(3)) for _ in range(2)]
        assert cm[0] is not cm[1] and cm[0] == cm[1]
        reports = [einstein_check(c, points=4, seed=1) for c in cm]
        assert len(compiled) == 1
        assert reports[0] == reports[1]

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


def test_objects_given_list_charts_key_their_memos():
    # a chart given as a list is held as a tuple, so the object hashes
    pair = PairODE(var("q1"), 2 * var("q2"), chart=list(PAIR_CHART))
    assert pair.chart == PAIR_CHART
    assert fels_invariants(pair).system is pair
    assert len(integrate_pair(pair, (0.0, 0.0, 1.0, 1.0), (0.0, 0.1)).t) > 1
    phi = SolutionFunction(var("z") - var("a"), chart=["t", "z", "a", "b"])
    assert phi.chart == ("t", "z", "a", "b") and hash(phi) == hash(phi)
    assert _coframe(num(2)).chart == catalog("dancing_metric_coframe").chart


def _coframe(c):
    """The catalog's dancing coframe with its second 1-form scaled by c,
    built afresh, its chart and 1-forms given as lists."""
    base = catalog("dancing_metric_coframe")
    etas = list(base.etas)
    etas[1] = etas[1].scale(c)
    return CoframeMetric(list(base.chart), etas, base.structure)


def test_float_tapes_are_freed_with_their_objects():
    # the Einstein tape on a coframe, the curve tape on a solution function
    # and the right-hand-side tape on a pair are kept only while their key
    # lives
    cm = _coframe(num(5))
    phi = SolutionFunction(var("z") - var("b") * var("t") ** 3 - var("a"))
    pair = parse("pair_ode g { vars t u1 u2 q1 q2; "
                 "F1 = 13/(u1-19) + q2; F2 = q1*q2; }").get("g")
    assert einstein_check(cm, points=2).points == 2
    curve = dancing_curve_numeric(phi, (0.0, 1.0, 0.0, 0.0), (1.0, 1.5),
                                  samples=5)
    assert curve.pair_residuals(pair)
    assert len(integrate_pair(pair, (0.0, 1.0, 0.5, 0.5), (0.0, 0.1)).t) > 1
    assert ["einstein_tape" in memo._TABLES[cm],
            "dancing_tape" in memo._TABLES[phi],
            "rhs_tape" in memo._TABLES[pair]] == [True, True, True]
    tables = len(memo._TABLES)
    refs = [weakref.ref(cm), weakref.ref(phi), weakref.ref(pair)]
    del cm, phi, pair, curve
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(memo._TABLES) <= tables - 3


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
