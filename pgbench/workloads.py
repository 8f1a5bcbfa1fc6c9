"""The three benchmark workloads: seeded inputs, the operations that run them,
and the known answer each operation is checked against.

An operation ("op") is one `pg` command line run in-process through
`pathgeom.cli.main(argv)`, or one public API call that yields a verdict
(with the expressions its known-answer check evaluates).
`Op.call` is the timed part; `Op.check` runs afterwards, untimed, and returns
None for a correct verdict or a one-line reason for a failure, together with
the op's `--json` report bytes.

Inputs are derived from the benchmark seed only.  The `random_systems`
documents are written as `.pg` text here, without calling pathgeom, and no
`Expr` is held from one op to the next: expression interning uses weak
references, so a held reference would create reuse across ops that a user of
the program does not get.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import random
import sys

import numpy as np

# The API is called through the package namespace so that the traced run's
# rebinding of `pathgeom.*` names reaches the calls made from this file.
import pathgeom
from pathgeom import ScalarODE, parse
from pathgeom.cli import main as pg_main
from pathgeom.expr import div, num, sub, var

# The two inputs on which the program is known to be wrong at the time this
# benchmark was written.  They stay in the op list and count as failures;
# they do not make a run incorrect, any other failure does.
KNOWN_DEFECTS = {
    "classify dancing_sqrt_pair": "mixed quartic types: sampling leaves the "
                                  "real branch t + b > 0",
    "verify-chains s_sqrt": "float root clustering at 1e-8 vs 1e-7 disagrees "
                            "on a double root",
}


class Op:
    """One operation: `call()` is timed; `check(raw)` is not, and returns
    (failure reason or None, --json report bytes or None)."""

    __slots__ = ("label", "call", "check", "doc", "repeat_key")

    def __init__(self, label, call, check, doc=None, repeat_key=None):
        self.label = label
        self.call = call
        self.check = check
        self.doc = doc
        # ops sharing a repeat_key must produce byte-identical --json reports
        self.repeat_key = repeat_key


# -- pg command lines -------------------------------------------------------------

# report: the --json bytes, or None when none was written
CliOutcome = collections.namedtuple("CliOutcome", "code stderr report")


def cli_op(label, argv, json_path, expect, doc=None, repeat=True):
    """A `pg` invocation with `--json`, stdout and stderr captured in memory;
    a document, if any, arrives on stdin as the file '-'."""
    full = list(argv) + ["--json", json_path]
    if doc is not None:
        full.insert(1, "-")

    def call():
        saved = sys.stdin
        sys.stdin = io.StringIO(doc or "")
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pg_main(full)
        finally:
            sys.stdin = saved
        return code, err.getvalue()

    def check(raw):
        code, stderr = raw
        try:
            with open(json_path, "rb") as fh:
                report = fh.read()
            os.unlink(json_path)
        except FileNotFoundError:
            report = None
        return expect(CliOutcome(code, stderr, report)), report

    return Op(label, call, check, doc=doc,
              repeat_key=" ".join(full) + "\0" + (doc or "") if repeat else None)


def expect_report(verdicts=None, details=None, extra=None):
    """Known answer for a pg command: exit 0, check verdicts by name, exact
    detail strings by (check, key), and an optional predicate on the parsed
    report."""

    def expect(outcome):
        if outcome.code != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {outcome.code}, expected 0 {tail[0]}".strip()
        if outcome.report is None:
            return "no --json report written"
        report = json.loads(outcome.report)
        by_name = {c["name"]: c for c in report["checks"]}
        for name, verdict in (verdicts or {}).items():
            got = by_name.get(name, {}).get("verdict")
            if got != verdict:
                return f"check {name}: {got}, expected {verdict}"
        for (name, key), value in (details or {}).items():
            got = by_name.get(name, {}).get("details", {}).get(key)
            if got != value:
                return f"{name}.{key} = {got!r}, expected {value!r}"
        return extra(by_name) if extra else None

    return expect


def _lambda_is(value):
    def pred(by_name):
        got = float(by_name["einstein"]["details"]["lambda"])
        if abs(got - value) > 1e-6:
            return f"lambda {got}, expected {value}"
        return None
    return pred


def _random_classify(outcome):
    """A random pair has no known root type: exit 0 (uniform) and exit 1
    (mixed) are both verdicts, provided the report agrees with the exit code
    and the classification ran in exact arithmetic."""
    if outcome.code not in (0, 1):
        return f"exit {outcome.code}, expected 0 or 1"
    if outcome.report is None:
        return "no --json report written"
    checks = json.loads(outcome.report)["checks"]
    rec = next((c for c in checks if c["name"] == "uniform_quartic_type"), None)
    if rec is None or rec["details"].get("arithmetic") != "exact":
        return "classification did not run in exact arithmetic"
    if (rec["verdict"] == "pass") != (outcome.code == 0):
        return f"exit {outcome.code} disagrees with verdict {rec['verdict']}"
    return None


# -- catalog_cli --------------------------------------------------------------------

CHAIN_DOC = """\
scalar_ode s_zero { vars t z p; F = 0; }
scalar_ode s_z { vars t z p; F = z; }
scalar_ode s_p3 { vars t z p; F = p^3; }
scalar_ode s_p4 { vars t z p; F = p^4; }
scalar_ode s_tp { vars t z p; F = t*p; }
scalar_ode s_sqrt { vars t z p; F = sqrt(p); }
"""

# point-flat scalar ODEs (z'' = (z')^3 is point-equivalent to z'' = 0)
FLAT_SCALARS = {"s_zero": True, "s_z": True, "s_p3": True, "s_p4": False,
                "s_tp": True, "s_sqrt": False}


def _chains_expect(flat):
    return expect_report(
        verdicts={"torsion_iff_flat_scalar": "pass",
                  "uniform_quartic_type": "pass"},
        details={("torsion_iff_flat_scalar", "scalar_invariants_zero"): str(flat),
                 ("torsion_iff_flat_scalar", "chain_torsion_zero"): str(flat),
                 ("uniform_quartic_type", "quartic_type"): "D_r"})


def _catalog_complete(by_name):
    names = {"flat_chain_pair", "cr_sphere_pair", "cr_y3_pair",
             "dancing_sqrt_pair", "dancing_metric_coframe",
             "fubini_study_coframe", "flat_dancing_phi", "sqrt_dancing_phi",
             "submax_ode_1", "submax_ode_2"}
    missing = names - set(by_name)
    return f"catalog lacks {sorted(missing)}" if missing else None


class CatalogCli:
    """Every applicable `pg` command on the catalog, the same list each pass."""

    required_layers = ("expr.tape.exact", "expr.tape.f64", "expr.tape.mpf",
                       "expr.tape.compile", "expr.build", "expr.zerotest",
                       "jets", "invariants", "roots", "forms", "constructions",
                       "metrics", "dsl.parse", "pipeline")

    def __init__(self, seed, workdir):
        js = os.path.join(workdir, "report.json")
        s = ["--seed", str(seed)]
        ops = []
        torsion_free = {"flat_chain_pair": "True", "cr_sphere_pair": "True",
                        "cr_y3_pair": "False"}
        for pair in ("flat_chain_pair", "cr_sphere_pair", "cr_y3_pair",
                     "dancing_sqrt_pair"):
            details = {}
            if pair in torsion_free:
                details[("torsion", "torsion_zero")] = torsion_free[pair]
            ops.append(cli_op(f"invariants {pair}",
                              ["invariants", "--system", pair] + s, js,
                              expect_report(
                                  verdicts={"torsion_trace_identity": "pass"},
                                  details=details)))
        quartic = {"flat_chain_pair": "D_r", "cr_sphere_pair": "D_c",
                   "cr_y3_pair": "D_c"}
        for pair in ("flat_chain_pair", "cr_sphere_pair", "cr_y3_pair",
                     "dancing_sqrt_pair"):
            details = {}
            if pair in quartic:
                details[("uniform_quartic_type", "quartic_type")] = quartic[pair]
            ops.append(cli_op(f"classify {pair}",
                              ["classify", "--system", pair] + s, js,
                              expect_report(
                                  verdicts={"uniform_quartic_type": "pass"},
                                  details=details)))
        ops.append(cli_op("verify-cr cr_sphere_pair",
                          ["verify-cr", "--system", "cr_sphere_pair"] + s, js,
                          expect_report(verdicts={"uniform_quartic_type": "pass",
                                                  "torsion_zero": "pass"})))
        ops.append(cli_op("verify-cr cr_y3_pair",
                          ["verify-cr", "--system", "cr_y3_pair"] + s, js,
                          expect_report(verdicts={"uniform_quartic_type": "pass",
                                                  "torsion_zero": "info"})))
        for name, flat in FLAT_SCALARS.items():
            ops.append(cli_op(f"verify-chains {name}",
                              ["verify-chains", "--system", name] + s, js,
                              _chains_expect(flat), doc=CHAIN_DOC))
        for phi in ("flat", "sqrt"):
            ops.append(cli_op(f"verify-dancing {phi}",
                              ["verify-dancing", "--phi", phi] + s, js,
                              expect_report(
                                  verdicts={"constraint_residual": "pass",
                                            "pair_residual": "pass"})))
        for coframe, lam in (("dancing_metric_coframe", 6.0),
                             ("fubini_study_coframe", -12.0)):
            ops.append(cli_op(f"metric {coframe}",
                              ["metric", "--system", coframe] + s, js,
                              expect_report(
                                  verdicts={"einstein": "pass",
                                            "fundamental_form_closed": "pass",
                                            "null_planes_integrable": "pass"},
                                  extra=_lambda_is(lam))))
        ops.append(cli_op("catalog", ["catalog"], js,
                          expect_report(extra=_catalog_complete)))
        self._ops = ops

    def ops(self, stream, index):
        return self._ops


# -- random_systems -----------------------------------------------------------------

PAIR_VARS = ("t", "u1", "u2", "q1", "q2")
SCALAR_VARS = ("t", "z", "p")
# one draw of each (degree, flatness) combination per pass
PASS_DRAWS = 6
# terms per random polynomial: a fixed count, because an op's time grows with
# it and a random count made a run's median op time depend on the seed
POLY_TERMS = 4


def _monomial(rng, names, degree):
    """A monomial of total degree <= degree, as .pg text factors."""
    factors = []
    budget = degree
    for n in rng.sample(names, len(names)):
        e = rng.randint(0, budget)
        budget -= e
        if e:
            factors.append(n if e == 1 else f"{n}^{e}")
    return factors


def _coefficient(rng):
    return f"({rng.choice((-1, 1)) * rng.randint(1, 6)}/{rng.randint(1, 4)})"


def _polynomial(rng, names, degree):
    terms = []
    for _ in range(POLY_TERMS):
        terms.append("*".join([_coefficient(rng)] + _monomial(rng, names, degree)))
    return " + ".join(terms)


def _univariate(rng, name, degree):
    return " + ".join(f"{_coefficient(rng)}*{name}^{k}"
                      for k in range(rng.randint(0, degree) + 1))


def random_draw(seed, stream, k):
    """Draw k of a stream: a random polynomial pair of degree 2, 3 or 4 and a
    scalar ODE of known flatness, as one .pg document.

    Even draws are linear in (z, p) with polynomial coefficients in t, hence
    point-flat; odd draws carry a nonzero p^4 term, so F_pppp != 0 and they
    are not flat."""
    rng = random.Random(f"random_systems/{seed}/{stream}/{k}")
    degree = 2 + k % 3
    f1 = _polynomial(rng, PAIR_VARS, degree)
    f2 = _polynomial(rng, PAIR_VARS, degree)
    flat = k % 2 == 0
    if flat:
        rhs = (f"({_univariate(rng, 't', degree)})*p + "
               f"({_univariate(rng, 't', degree)})*z + "
               f"({_univariate(rng, 't', degree)})")
    else:
        rhs = (f"{_coefficient(rng)}*p^4 + "
               f"{_polynomial(rng, SCALAR_VARS, min(degree, 3))}")
    doc = (f"pair_ode pair {{ vars {' '.join(PAIR_VARS)}; F1 = {f1}; F2 = {f2}; }}\n"
           f"scalar_ode ode {{ vars {' '.join(SCALAR_VARS)}; F = {rhs}; }}\n")
    return doc, flat


class RandomSystems:
    """Seeded random pairs and scalar ODEs; no input repeats within a run."""

    required_layers = ("expr.tape.exact", "expr.tape.compile", "expr.build",
                       "expr.zerotest", "jets", "invariants", "roots", "forms",
                       "constructions", "dsl.parse", "pipeline")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.json_path = os.path.join(workdir, "report.json")

    def ops(self, stream, index):
        js = self.json_path
        s = ["--seed", str(self.seed)]
        out = []
        for k in range(index * PASS_DRAWS, (index + 1) * PASS_DRAWS):
            doc, flat = random_draw(self.seed, stream, k)
            tag = f"{stream}{k}"
            out.append(cli_op(f"invariants pair#{tag}",
                              ["invariants", "--system", "pair"] + s, js,
                              expect_report(
                                  verdicts={"torsion_trace_identity": "pass"}),
                              doc=doc, repeat=False))
            out.append(cli_op(f"classify pair#{tag}",
                              ["classify", "--system", "pair"] + s, js,
                              _random_classify, doc=doc, repeat=False))
            out.append(cli_op(f"verify-chains ode#{tag}",
                              ["verify-chains", "--system", "ode"] + s, js,
                              _chains_expect(flat), doc=doc, repeat=False))
        return out


# -- numeric_curves -----------------------------------------------------------------

def _integrate_op(pair_name, ic, span):
    """integrate_pair from seeded initial conditions, then the submaximal
    third-order reduction defect along the trajectory."""

    def call():
        pair = pathgeom.catalog(pair_name)
        traj = pathgeom.integrate_pair(pair, ic, span)
        Y, P = var("Y"), var("P")
        if pair_name == "flat_chain_pair":
            defect = sub(pathgeom.prolong(pair, pair.rhs2, 1),
                         div(3 * pair.rhs2 ** 2, 2 * P))
        else:
            defect = sub(pathgeom.prolong(pair, pair.rhs1, 1),
                         div(3 * Y * pair.rhs1 ** 2, 1 + Y ** 2))
        values = traj.evaluate_along(defect)
        return traj.truncated_by_singularity, float(np.max(np.abs(values)))

    def check(raw):
        truncated, defect = raw
        if truncated:
            return "trajectory truncated at a singularity", None
        if not defect < 1e-6:
            return f"reduction defect {defect:.3e} >= 1e-6", None
        return None, None

    return Op(f"integrate_pair {pair_name}", call, check)


_DANCING = {
    "flat": ("flat_dancing_phi", (0, 1, 0, 0), (1.0, 2.0), (0.0, 1.0, -1.0)),
    "sqrt": ("sqrt_dancing_phi", (0, 2, 1, 1), (2.0, 3.0),
             (19 / 6, 2.0, 0.41421356237309515)),
}


def _dancing_op(phi, seed):
    cat_name, anchor, span, guess = _DANCING[phi]

    def call():
        curve = pathgeom.dancing_curve_numeric(
            pathgeom.catalog(cat_name), anchor, span, samples=120,
            initial_guess=guess, seed=seed)
        pair = (pathgeom.catalog("dancing_sqrt_pair") if phi == "sqrt"
                else pathgeom.freestyle_pair(ScalarODE(num(0))))
        r1, r2 = curve.pair_residuals(pair)
        return (float(np.max(curve.residual)), max(r1, r2),
                float(np.min(curve.t + curve.b)))

    def check(raw):
        residual, pair_residual, min_tb = raw
        if not residual < 1e-10:
            return f"constraint residual {residual:.3e} >= 1e-10", None
        if not pair_residual < 1e-6:
            return f"pair residual {pair_residual:.3e} >= 1e-6", None
        if phi == "sqrt" and not min_tb > 0:
            return "curve leaves the real branch t + b > 0", None
        return None, None

    return Op(f"dancing_curve_numeric {phi}", call, check)


def _einstein_op(coframe, lam, seed):
    def call():
        rep = pathgeom.einstein_check(pathgeom.catalog(coframe), points=20,
                                      seed=seed)
        return rep.lambdas[0], rep.lambda_spread, rep.max_residual, rep.signature

    def check(raw):
        got, spread, residual, signature = raw
        if not abs(got - lam) < 1e-6:
            return f"lambda {got}, expected {lam}", None
        if not (spread < 1e-6 and residual < 1e-6):
            return (f"not Einstein: spread {spread:.3e}, "
                    f"residual {residual:.3e}"), None
        if signature != (2, 2):
            return f"signature {signature}", None
        return None, None

    return Op(f"einstein_check {coframe}", call, check)


class NumericCurves:
    """The float64 calls: integration, dancing curves, Einstein checks."""

    required_layers = ("expr.tape.f64", "expr.tape.compile", "expr.build",
                       "jets", "constructions", "metrics", "integrate")

    def __init__(self, seed, workdir):
        self.seed = seed

    def ops(self, stream, index):
        rng = random.Random(f"numeric_curves/{self.seed}/{stream}/{index}")
        flat_ic = (rng.uniform(-1, 1), rng.uniform(0.5, 1.5),
                   rng.uniform(-0.5, 0.5), rng.uniform(-0.5, -0.1))
        y0 = rng.uniform(-0.3, 0.3)
        cr_ic = (y0, rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4),
                 y0 + rng.uniform(1.5, 2.5))
        op_seed = rng.randrange(2 ** 31)
        return [
            _integrate_op("flat_chain_pair", flat_ic, (0.0, 1.0)),
            _integrate_op("cr_sphere_pair", cr_ic, (0.0, 0.4)),
            _dancing_op("flat", op_seed),
            _dancing_op("sqrt", op_seed),
            _einstein_op("dancing_metric_coframe", 6.0, op_seed),
            _einstein_op("fubini_study_coframe", -12.0, op_seed),
        ]


WORKLOADS = {
    "catalog_cli": CatalogCli,
    "random_systems": RandomSystems,
    "numeric_curves": NumericCurves,
}


def build(name, seed, workdir):
    """Set up a workload: generate its inputs and parse each .pg document of
    the first pass once, as a `pg` invocation would."""
    workload = WORKLOADS[name](seed, workdir)
    for doc in {op.doc for op in workload.ops("timed", 0) if op.doc}:
        parse(doc)
    return workload

