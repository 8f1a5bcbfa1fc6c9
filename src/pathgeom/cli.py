"""Command-line entry point.

    pg invariants [file.pg] --system NAME
    pg classify [file.pg] --system NAME [--samples N]
    pg verify-chains [file.pg] --system NAME [--samples N]
    pg verify-cr [file.pg] --system NAME [--samples N]
    pg verify-dancing [file.pg] --phi flat|sqrt|PHI [--anchor a,b,c,d]
                      [--span t0,t1] [--system PAIR] [--samples N] [--csv PATH]
    pg metric [file.pg] --system NAME [--samples N]
    pg catalog [NAME]

Each command but catalog takes --seed S, each takes --json PATH ('--json -'
prints the JSON report to stdout in place of the text report), and none
takes an option it does not read; --samples must be at least 1.  Each
entry of an identity claim draws the zero tester's own allotment: enough
trials for a 2^-100 failure bound, at most 50.  The file
argument may be omitted (or '-' for stdin) when the system name is a catalog
entry.  PHI names a catalog solution function (flat_dancing_phi,
sqrt_dancing_phi; 'flat' and 'sqrt' are short for them, and a .pg document
declares none); --anchor, --span and --system override its defaults.  Exit
status is 0 when all checks pass, 1 on any failed check, 2 on input errors
(an unwritable --json PATH among them, and an incident --anchor, on which
the solution function vanishes), 3 on a numerical abort.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .dsl import parse
from .errors import (DslError, IllConditioned, JacobianSingular,
                     NewtonDiverged, NonTransverse, PathgeomError,
                     SamplingExhausted, SeedNotFound, StepUnderflow,
                     UnknownName)
from .pipeline import (DEFAULT_CURVE_SAMPLES, DEFAULT_SAMPLES, cmd_catalog,
                       cmd_classify, cmd_invariants, cmd_metric,
                       cmd_verify_chains, cmd_verify_cr, cmd_verify_dancing)

_NUMERICAL_ABORTS = (StepUnderflow, NewtonDiverged, JacobianSingular,
                     SeedNotFound, SamplingExhausted, IllConditioned)


def _add_common(p, samples):
    """The document, --system, --seed, --json, and --samples if read."""
    p.add_argument("file", nargs="?", default=None,
                   help=".pg document ('-' for stdin); optional for catalog systems")
    p.add_argument("--system", required=True, help="declaration or catalog name")
    if samples:
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help=f"points sampled, at least 1 (default {DEFAULT_SAMPLES})")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the machine-readable report to this path "
                        "('-': to stdout, in place of the text report)")


@functools.cache
def _build_parser():
    """The `pg` parser, built on the first call of `main` (not at import) and
    shared by the later ones: parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="pg",
        description="invariants, root types, and verification pipelines for "
                    "3D path geometries given as pairs of 2nd-order ODEs")
    subs = ap.add_subparsers(dest="command", required=True)

    for name, help_text, samples in (
            ("invariants", "print fundamental invariants", False),
            ("classify", "pointwise root-type classification", True),
            ("verify-chains", "full chain pipeline for a scalar ODE", True),
            ("verify-cr", "CR-chain admissibility for a pair", True)):
        _add_common(subs.add_parser(name, help=help_text), samples)

    pd = subs.add_parser("verify-dancing", help="dancing-curve residual checks")
    pd.add_argument("file", nargs="?", default=None)
    pd.add_argument("--phi", default="flat",
                    help="catalog solution function: flat_dancing_phi "
                         "('flat', the default) or sqrt_dancing_phi ('sqrt')")
    pd.add_argument("--anchor", default=None,
                    help="anchor point 'that,zhat,ahat,bhat'")
    pd.add_argument("--span", default=None, help="t window 't0,t1'")
    pd.add_argument("--system", default=None,
                    help="pair to verify against (default per PHI)")
    pd.add_argument("--samples", type=int, default=DEFAULT_CURVE_SAMPLES)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--json", dest="json_path", default=None)
    pd.add_argument("--csv", dest="csv_path", default=None)

    _add_common(subs.add_parser("metric", help="Einstein/closedness/integrability "
                                               "for a coframe metric"),
                samples=True)

    pc = subs.add_parser("catalog", help="list or print built-in examples")
    pc.add_argument("name", nargs="?", default=None)
    pc.add_argument("--json", dest="json_path", default=None)
    return ap


def _load_document(path):
    if path is None:
        return None
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _floats(text, n, what):
    """The n comma-separated finite numbers given to option `what`."""
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != n or not all(map(math.isfinite, parts)):
        raise ValueError(f"{what} needs {n} comma-separated finite numbers")
    return parts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "samples" in args and args.samples < 1:
            raise ValueError("--samples must be >= 1")
        if args.command == "catalog":
            report = cmd_catalog(args.name)
        else:
            doc = _load_document(args.file)
            if args.command == "invariants":
                report = cmd_invariants(doc, args.system, seed=args.seed)
            elif args.command == "classify":
                report = cmd_classify(doc, args.system, samples=args.samples,
                                      seed=args.seed)
            elif args.command == "verify-chains":
                report = cmd_verify_chains(doc, args.system,
                                           samples=args.samples, seed=args.seed)
            elif args.command == "verify-cr":
                report = cmd_verify_cr(doc, args.system, samples=args.samples,
                                       seed=args.seed)
            elif args.command == "verify-dancing":
                anchor = _floats(args.anchor, 4, "--anchor") if args.anchor else None
                span = _floats(args.span, 2, "--span") if args.span else None
                report = cmd_verify_dancing(doc, args.phi, anchor=anchor,
                                            span=span, samples=args.samples,
                                            seed=args.seed,
                                            pair_name=args.system,
                                            csv_path=args.csv_path)
            elif args.command == "metric":
                report = cmd_metric(doc, args.system, points=args.samples,
                                    seed=args.seed)
            else:  # pragma: no cover
                raise UnknownName(args.command)
        if args.json_path not in (None, "-"):
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    except _NUMERICAL_ABORTS as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (DslError, UnknownName, NonTransverse, OSError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PathgeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(report.to_json() if args.json_path == "-"
                     else report.render_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
