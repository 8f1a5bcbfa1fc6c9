"""The `--json` report of each command below, at seed 0, is pinned by its
sha256, together with the exit code.  The identity records of `pg metric`
are pinned field by field (its `einstein` record holds float residuals,
whose last digits are not portable).

A change to the arithmetic that must not change any number (a faster
evaluation path, say) keeps every digest; a change that is meant to alter a
report updates the table in the same commit and says why.
"""

import hashlib
import json

import pytest

from pathgeom.cli import main

SCALAR_DOC = """\
scalar_ode s_zero { vars t z p; F = 0; }
scalar_ode s_p4 { vars t z p; F = p^4; }
scalar_ode s_tp { vars t z p; F = t*p; }
scalar_ode s_sqrt { vars t z p; F = sqrt(p); }
"""

# two fixed random-polynomial documents: a degree-3 pair with a non-flat
# scalar ODE, and a degree-4 pair with a flat one
RANDOM_DOCS = {
    "r3": "pair_ode pair { vars t u1 u2 q1 q2; "
          "F1 = (1/2)*t*q1 + (-2/1)*q1*t^2 + (-6/4)*u2*t^2 + (-1/3)*u1^3; "
          "F2 = (-1/4)*u1^2*q1 + (-6/3)*q2^2*u2 + (-3/1)*u1^3 + (6/3)*u1^3; }\n"
          "scalar_ode ode { vars t z p; "
          "F = (4/4)*p^4 + (-5/4)*z + (-4/4)*z^3 + (-5/4)*z*p + (5/4)*p*z^2; }\n",
    "r4": "pair_ode pair { vars t u1 u2 q1 q2; "
          "F1 = (-1/3)*u2*t^3 + (1/4)*q2^4 + (4/4)*u2^3*u1 + (4/2)*q2^4; "
          "F2 = (-2/4)*u2*q1^2*u1 + (6/1)*u2*t^2*u1 + (-3/4)*q1^4 "
          "+ (-2/4)*t^3*q2; }\n"
          "scalar_ode ode { vars t z p; "
          "F = ((5/2)*t^0 + (-3/1)*t^1 + (-5/1)*t^2)*p "
          "+ ((-5/1)*t^0 + (-5/2)*t^1)*z "
          "+ ((1/2)*t^0 + (2/2)*t^1 + (1/1)*t^2); }\n",
}

# (document key, or None for a catalog system; argv) -> (exit code, sha256
# of the report): invariants and classify on the four catalog pairs,
# verify-cr on the two CR pairs, verify-chains on four scalar ODEs, and
# classify and verify-chains on the two random documents.
PINNED = {
    (None, ("invariants", "--system", "flat_chain_pair")):
        (0, "aab67a3e3328ececb549e01e32511721866eabc1f78ab1dcbcc564e95c7e6595"),
    (None, ("classify", "--system", "flat_chain_pair")):
        (0, "8994a8f0a217181d88add59e47102a188cac408869675f36c3adbf15aba02d68"),
    (None, ("invariants", "--system", "cr_sphere_pair")):
        (0, "d6935fd9c3493afd860c13119f6999871e061f8100eb7585c3e0705265e4663d"),
    (None, ("classify", "--system", "cr_sphere_pair")):
        (0, "abfa17923ff4864c101a0805ae58a893687cd103dd6e4971182153437ead7a54"),
    (None, ("invariants", "--system", "cr_y3_pair")):
        (0, "9e153bb59527d9fd1f72a010d4e46c4e9db4a9f3f01367ad5eba86fb5b418075"),
    (None, ("classify", "--system", "cr_y3_pair")):
        (0, "e7db812b713cc0e37b9a37a670452790c06f573995c69602d39c9933729e58fb"),
    (None, ("invariants", "--system", "dancing_sqrt_pair")):
        (0, "8b7aa720f84185967db47095fae0f82a631e1f8c4b040e01304f8413449bce12"),
    (None, ("classify", "--system", "dancing_sqrt_pair")):
        (1, "ba81c4a07288847d5a3755e96d5a38430b85e454d578769a7829dc19a8641d03"),
    (None, ("verify-cr", "--system", "cr_sphere_pair")):
        (0, "8b5e09714d1d1db28e2b1d62e78fa19a7db682e7f316349e95b0b0fbed64765d"),
    (None, ("verify-cr", "--system", "cr_y3_pair")):
        (0, "b2f1bf89eb5fb4d4d7f3bf5675f6729fc272a1327447fd895c2b9a5554dfb71e"),
    ("scalar", ("verify-chains", "--system", "s_zero")):
        (0, "70ad5419a98c306f29bd542444c40667ae51985a2f46a70231258725dd542a26"),
    ("scalar", ("verify-chains", "--system", "s_p4")):
        (0, "c5bcb72c0224589468121f9c9952088ce087438f2db7068bd7308f0826728d01"),
    ("scalar", ("verify-chains", "--system", "s_tp")):
        (0, "a232d3ea55ec7e5cedf67a3cc1572bb13e39be48a793a004b237416ca5fb36af"),
    ("scalar", ("verify-chains", "--system", "s_sqrt")):
        (0, "ea6dbbc640a86c8eed343a5229262f079f1642faca89465632c83ec81cdd2a41"),
    ("r3", ("classify", "--system", "pair")):
        (0, "fb92cb26134f7f0a383f3602a81f9ed1d0c0450f7dc3f564d7a211e316f5dcba"),
    ("r3", ("verify-chains", "--system", "ode")):
        (0, "726aaa9d3fd10b4dc7d51f0a3824e77ac5b8cbf91554721608dc48a311a9929b"),
    ("r4", ("classify", "--system", "pair")):
        (1, "05161e22c2ff6ee0919e14f64e1d9617c21c73ca8000905f404d2a5b567d8253"),
    ("r4", ("verify-chains", "--system", "ode")):
        (0, "f612686ce1c8af71a332748f73bb4cbd5cd60234289e15cd4dd958f213f5b876"),
}


@pytest.mark.parametrize("doc_key,argv", list(PINNED),
                         ids=[f"{k or 'catalog'}:{' '.join(a)}"
                              for k, a in PINNED])
def test_report_bytes_pinned(doc_key, argv, tmp_path, capsys):
    args = list(argv)
    if doc_key is not None:
        path = tmp_path / f"{doc_key}.pg"
        path.write_text(SCALAR_DOC if doc_key == "scalar"
                        else RANDOM_DOCS[doc_key])
        args.insert(1, str(path))
    out = tmp_path / "report.json"
    code = main(args + ["--seed", "0", "--json", str(out)])
    capsys.readouterr()
    report = out.read_bytes()
    got = (code, hashlib.sha256(report).hexdigest())
    if got != PINNED[(doc_key, argv)]:
        print(f"command: pg {' '.join(argv)} (document {doc_key})")
        print(report.decode())
    assert got == PINNED[(doc_key, argv)]


# a coframe whose 2-form is not closed and whose null planes are not
# integrable
FAILING_COFRAME = ("coframe c { vars y p Y P; eta 1 = y*d Y; eta 2 = d P; "
                   "eta 3 = d y; eta 4 = p*d p + Y*d y; }")

# coframe -> the `fundamental_form_closed` and `null_planes_integrable`
# records at the default trial allotment, as (verdict, tolerance, witnesses,
# details)
METRIC_PINNED = {
    "dancing_metric_coframe": (
        ("pass", "structural", [], {"pairing": "para"}),
        ("pass", "exact identity, 7 trials, bound 2^-100", [], {})),
    "fubini_study_coframe": (
        ("pass", "exact identity, 6 trials, bound 2^-100", [],
         {"pairing": "complex"}),
        ("pass", "exact identity, 6 trials, bound 2^-100", [], {})),
    "c": (
        ("fail", "exact identity, 6 trials, bound 2^-100",
         ["p = -192083/885441"], {"pairing": "para"}),
        ("fail", "exact identity, 6 trials, bound 2^-100",
         ["p = -192083/885441"], {})),
}


@pytest.mark.parametrize("coframe", list(METRIC_PINNED),
                         ids=[f"{c}:default" for c in METRIC_PINNED])
def test_metric_identity_records_pinned(coframe, tmp_path, capsys):
    args = ["metric", "--system", coframe, "--seed", "0"]
    if coframe == "c":
        path = tmp_path / "c.pg"
        path.write_text(FAILING_COFRAME)
        args.insert(1, str(path))
    out = tmp_path / "report.json"
    main(args + ["--json", str(out)])
    capsys.readouterr()
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    got = tuple((checks[name]["verdict"], checks[name]["tolerance"],
                 checks[name]["witnesses"], checks[name]["details"])
                for name in ("fundamental_form_closed",
                             "null_planes_integrable"))
    assert got == METRIC_PINNED[coframe]
