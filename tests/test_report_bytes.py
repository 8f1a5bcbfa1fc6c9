"""The `--json` report of each command below, at seed 0, is pinned by its
sha256, together with the exit code.

A change to the arithmetic that must not change any number (a faster
evaluation path, say) keeps every digest; a change that is meant to alter a
report updates the table in the same commit and says why.
"""

import hashlib

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
# classify and verify-chains on the two random documents.  A command whose
# exact identity claims draw their trials from the target failure bound by
# default is pinned twice: as is, and with an explicit --trials 50, whose
# reports are those of a fixed 50 trials per entry.
PINNED = {
    (None, ("invariants", "--system", "flat_chain_pair")):
        (0, "aab67a3e3328ececb549e01e32511721866eabc1f78ab1dcbcc564e95c7e6595"),
    (None, ("invariants", "--system", "flat_chain_pair", "--trials", "50")):
        (0, "3ae98634e58336a1fad718c006aceba8665c191b3adca676edac40d999e7b50d"),
    (None, ("classify", "--system", "flat_chain_pair")):
        (0, "8994a8f0a217181d88add59e47102a188cac408869675f36c3adbf15aba02d68"),
    (None, ("invariants", "--system", "cr_sphere_pair")):
        (0, "d6935fd9c3493afd860c13119f6999871e061f8100eb7585c3e0705265e4663d"),
    (None, ("invariants", "--system", "cr_sphere_pair", "--trials", "50")):
        (0, "542284343a9868c3a6d3238f4bcdeff1f05aa43a28d47b28de6bb3b3b53c0df5"),
    (None, ("classify", "--system", "cr_sphere_pair")):
        (0, "abfa17923ff4864c101a0805ae58a893687cd103dd6e4971182153437ead7a54"),
    (None, ("invariants", "--system", "cr_y3_pair")):
        (0, "9e153bb59527d9fd1f72a010d4e46c4e9db4a9f3f01367ad5eba86fb5b418075"),
    (None, ("invariants", "--system", "cr_y3_pair", "--trials", "50")):
        (0, "efb9d71fcf08dcd01ea2a88f80f4260bc569e09e6cbf5f47625f21ef759067c9"),
    (None, ("classify", "--system", "cr_y3_pair")):
        (0, "e7db812b713cc0e37b9a37a670452790c06f573995c69602d39c9933729e58fb"),
    (None, ("invariants", "--system", "dancing_sqrt_pair")):
        (0, "8b7aa720f84185967db47095fae0f82a631e1f8c4b040e01304f8413449bce12"),
    (None, ("classify", "--system", "dancing_sqrt_pair")):
        (1, "ba81c4a07288847d5a3755e96d5a38430b85e454d578769a7829dc19a8641d03"),
    (None, ("verify-cr", "--system", "cr_sphere_pair")):
        (0, "8b5e09714d1d1db28e2b1d62e78fa19a7db682e7f316349e95b0b0fbed64765d"),
    (None, ("verify-cr", "--system", "cr_sphere_pair", "--trials", "50")):
        (0, "c4a36c75095794524fda1d46df8782d32d3e2ebfc3479de847caa008ac7caf19"),
    (None, ("verify-cr", "--system", "cr_y3_pair")):
        (0, "b2f1bf89eb5fb4d4d7f3bf5675f6729fc272a1327447fd895c2b9a5554dfb71e"),
    (None, ("verify-cr", "--system", "cr_y3_pair", "--trials", "50")):
        (0, "dfd9e3b99aab23d95034d1aaa4d3d1d9ccdf5ef5df9b1e4a5d5a52f2258cc6c4"),
    ("scalar", ("verify-chains", "--system", "s_zero")):
        (0, "07821f8cbcb879108dc1b9a9211b5cf715ecace3f9169af68244a426e7e62514"),
    ("scalar", ("verify-chains", "--system", "s_zero", "--trials", "50")):
        (0, "795d84017b1e959f3b7568597ac695f759eb9217c1cd7734c13b085ba80d8047"),
    ("scalar", ("verify-chains", "--system", "s_p4")):
        (0, "4a068c7362e36c9b2e8147b31ad24a21ab6aea81ebc91c8d242f273d11286ad2"),
    ("scalar", ("verify-chains", "--system", "s_p4", "--trials", "50")):
        (0, "61ea7dad36504650d6fe5524e7b4d17986413aeb79f8294f967216cb2bbba577"),
    ("scalar", ("verify-chains", "--system", "s_tp")):
        (0, "0d01af1427d302bff982e4bc5c4fc7654d734ebe5b606e5d3035565d986bb5bc"),
    ("scalar", ("verify-chains", "--system", "s_tp", "--trials", "50")):
        (0, "5fcca364179d503a371f1aa01d630bf46ddccd8e0bc48a1b16423091e6ecd100"),
    ("scalar", ("verify-chains", "--system", "s_sqrt")):
        (0, "799431fc59fe711395b6707876efcc11163d92944f0883d56a100de7695253dd"),
    ("r3", ("classify", "--system", "pair")):
        (0, "fb92cb26134f7f0a383f3602a81f9ed1d0c0450f7dc3f564d7a211e316f5dcba"),
    ("r3", ("verify-chains", "--system", "ode")):
        (0, "8a99558f5a69eb4b84c6b4a955cbdd7038708123db076fff3c5d173a649dd55a"),
    ("r3", ("verify-chains", "--system", "ode", "--trials", "50")):
        (0, "4ff720418375242672aaa4614d7f40a8a32eac3114ded6d9c0a6425e7802441d"),
    ("r4", ("classify", "--system", "pair")):
        (1, "05161e22c2ff6ee0919e14f64e1d9617c21c73ca8000905f404d2a5b567d8253"),
    ("r4", ("verify-chains", "--system", "ode")):
        (0, "6c24f00cbb7b2a01a861b0ab38fce2f5f4d00718f30582f3970bb160c23a9196"),
    ("r4", ("verify-chains", "--system", "ode", "--trials", "50")):
        (0, "47b0ad7c314e7256eaec2d9bf5e4e1802ed4ed4df356261fb6593a56121cb00e"),
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
