"""Pins of the expression kernel on 60 seeded random systems.

Each draw is a random polynomial pair (degree 2, 3 or 4, every fifth one
divided by a polynomial) and a random scalar ODE, written as `.pg` text and
parsed.  For each draw two SHA-256 digests are pinned:

  * `text`   -- `to_text` of the Fels torsion T, curvature C, quartic W and
                quadric A coefficients and of the scalar invariants, so the
                stored argument order and the printed constants cannot move;
  * `values` -- their exact tape values at three fixed rational points.

A change to node construction that must return the same nodes (a faster
constructor, say) keeps every digest.  The generator lives here, not in the
benchmark, so that the pins do not move when the benchmark's inputs do.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from pathgeom import (curvature_quartic, fels_invariants, parse,
                      scalar_invariants, torsion_quadric)
from pathgeom.expr import compile_tape, to_text

PAIR_VARS = ("t", "u1", "u2", "q1", "q2")
SCALAR_VARS = ("t", "z", "p")
DRAWS = 60

F = Fraction
PAIR_POINTS = (
    (F(1, 2), F(-2, 3), F(3), F(5, 7), F(-1)),
    (F(-3), F(1, 5), F(2, 9), F(-4, 3), F(7, 2)),
    (F(2), F(3), F(-1, 2), F(1, 3), F(4, 5)),
)
SCALAR_POINTS = tuple(point[:3] for point in PAIR_POINTS)


def _coefficient(rng):
    # unreduced on purpose: (6/3) folds to the integer 2, (3/4) stays a ratio
    return f"({rng.choice((-1, 1)) * rng.randint(1, 6)}/{rng.randint(1, 4)})"


def _monomial(rng, names, degree):
    factors, budget = [], degree
    for name in rng.sample(names, len(names)):
        e = rng.randint(0, budget)
        budget -= e
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return factors


def _polynomial(rng, names, degree, terms=4):
    return " + ".join("*".join([_coefficient(rng)] + _monomial(rng, names, degree))
                      for _ in range(terms))


def draw(k):
    """Draw k: a .pg document with a pair `pair` and a scalar ODE `ode`."""
    rng = random.Random(f"kernel-pins/{k}")
    degree = 2 + k % 3
    f1 = _polynomial(rng, PAIR_VARS, degree)
    f2 = _polynomial(rng, PAIR_VARS, degree)
    if k % 5 == 4:
        # a denominator that no rational point zeroes: negative powers
        f1 = f"({f1})/(1 + {rng.choice(PAIR_VARS)}^2)"
    if k % 2:
        rhs = f"{_coefficient(rng)}*p^4 + {_polynomial(rng, SCALAR_VARS, 3)}"
    else:
        rhs = " + ".join(f"({_polynomial(rng, ('t',), degree, 2)})*{v}"
                         for v in ("p", "z", "1"))
    return (f"pair_ode pair {{ vars {' '.join(PAIR_VARS)}; F1 = {f1}; F2 = {f2}; }}\n"
            f"scalar_ode ode {{ vars {' '.join(SCALAR_VARS)}; F = {rhs}; }}\n")


def kernel_outputs(k):
    """(pair expressions, scalar expressions) of draw k."""
    doc = parse(draw(k))
    inv = fels_invariants(doc.get("pair"))
    T = inv.torsion
    pair = [T[0][0], T[0][1], T[1][0], T[1][1]]
    pair += [inv.curvature[key] for key in sorted(inv.curvature)]
    pair += list(curvature_quartic(inv).coefficients)
    pair += list(torsion_quadric(inv).coefficients)
    s = scalar_invariants(doc.get("ode"))
    return pair, [s.t1, s.c1]


def digests(k):
    pair, scalar = kernel_outputs(k)
    text = "\n".join(to_text(e) for e in pair + scalar)
    lines = []
    for exprs, chart, points in ((pair, PAIR_VARS, PAIR_POINTS),
                                 (scalar, SCALAR_VARS, SCALAR_POINTS)):
        tape = compile_tape(exprs, chart)
        for point in points:
            lines.append(" ".join(str(v) for v in tape.eval_exact(point)))
    values = "\n".join(lines)
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(values.encode()).hexdigest())


# draw -> (sha256 of the printed expressions, sha256 of their exact values)
PINNED = {
    0: ("89f975cb3037b4af3ffcbe6d0e414fcbc36d537b44087294a356cebab000e495",
        "3460d74cef1f34cfef2056cf127aac45b59e15a0a5247ddcb9e1e04d6a0e1b74"),
    1: ("a0d4544077e313ac1b3559862c1e4fce546ac8a1dd15218f64f0f0a5ad7bbb06",
        "53e25f3da65d127ca3479d7bc3d6a3d7d14b2e4f8591a4fab68508f2219dd9e4"),
    2: ("0f85959dcabfe373273f0b1dd85d308d70a91bd11b097c158c13a1ef621b5e00",
        "da851232940941cfbcec52a7f2334ec5f08db45c10d8a938d2c8e2a1799e6957"),
    3: ("552eecee55137e41e363311d2d0d2c71ba0159a10e729e3916943dfac355ae02",
        "4852fc1b26bb97982dee6f6c424842ba4d461f148d75fdaa8810155476e8b87c"),
    4: ("2320c387979f8ee91c988349def0369b0476992a9deedc8de1ffa53a2ed7f32a",
        "aaeae9b2204b44d9ee27563d3b68e515fc9294a148852f75a2372673d07d71f1"),
    5: ("2da61f276c01f36214e2d5f5df550d0ca0eb1ceed3910424ea74f6883565c757",
        "7d0d111d7277e27a297d5d6bc60095b1d896116abe2d24e61544adefee9faf2e"),
    6: ("4a5a5f8d3f505920ac43c743eb0ab1610e32c3e73c8bfd7dcd128aaaf47d2ad8",
        "e2d4b7c18ddf68cdda41e1fdb061109b867a91ef499793515e1e99048444702f"),
    7: ("64403fcf30604363f470754ee6624137a902a20f204579462ae4aa251ff02807",
        "2c022f09a023adf9df500970c4f017e34f9191b93e087a26709b1bb190864388"),
    8: ("112a4f6f59ddb51337a438112f5b941c7848d7fde5dfde390b2d214d27283b5e",
        "b1bf3e22ed3dbabbddeb12348ff76ade42ed8d56d82b8b783f3c430aec51f9dc"),
    9: ("0ba024941dcc80b0cd8818da3df1f35e6bf1d1797c2fa439bca03f02069e2345",
        "569ff24ea57b70e8d6f024647dca1764cd4290e8094ea4fb7a916e59d6af09f1"),
    10: ("8193ee3ef14daddbdbf140f5e5e78a8f73888edf2f015c1453d4e9b5fe1dad20",
        "ae81245730256f9e06c4bc2ef0598ab90ba21c7645f9907af22bbbdeece4e733"),
    11: ("42ada2c780b464f8522f1f909bd06c52e8dd68c8e391d089f28ffef33878a61a",
        "5e59ddfd143942c40484996e720196fde575e0b481773d6e0917c66d5cb411e7"),
    12: ("ad0637599473b838a462470420e9dc7b9360180b33b00fc737137ad7e16ac4ed",
        "1e7f5da8bc12f6e24e77fc88a9ad92a22fd4d8dd5ef23cf30a2383c0da904a21"),
    13: ("78ada36f3232c38d068fd52c60700c83e0cf141f45fc6778e20f6e796cbfdf17",
        "e56614ab68c649f1eb5255d7f59cad082864b26a05cd7a3e1990b5df605ec846"),
    14: ("f871852a20fd09ac8bdddea879a94e2528f73d90fa468f544904d29650b85f28",
        "389f84b5d06984230ea3cdce1d03b9f43c7d68faa3d771b312e4086f07146563"),
    15: ("3caade24fa56a7e5bb113c2a4357994c4bb744b996fd4aaf9bc995afa97ce50d",
        "4ff44deb0aade9b285dda275ae9f805b0e6d46e66544b9c34398e626629f29bd"),
    16: ("af8280e9a5687d070a1a7f863c200add50842a9dda887b2d3d784292960b4046",
        "81ad86582cb771eb98c329df3d6044551aee2b9d9bab3389a952091c12cfadb5"),
    17: ("fdd3b5050474e0c76dc42a16c89ed65ac0214b880edaf12ecc6335d08a376c14",
        "fdb8bae229120833464c7a12bee82a285f5fab416cf05bdc30adef6af515b801"),
    18: ("8ab1c3feb17b3f5d537b7d4acbe4dc459b43a4115abaf3904399400070f7042c",
        "df9e4205adc0a43a3a2b63c0850166fd62663b08241334de05ff68894e4c42c0"),
    19: ("89d2331e063e7dad656eb2673e19c0eafe3577d665725c5e6070384e6353f562",
        "b8d8616a1c0d74f8617e2c0f38c069a666de4c803f48ce1d21ad9fde1d9faf7f"),
    20: ("b4a0c158f25bb9919ffb9f73e6e5797167638ec5fee099658f9a0df9b1fadf7e",
        "264d1faee6586a6a4e12edb0efdc53e3eff338c1bca3b3c3aa119c48607ae5b6"),
    21: ("0732cf01e000ab3b35080c25acab4a9fdc801721a87422e978e4ffd68451d520",
        "be64e72b18eb12b184b6487e4991c8ff0ea49056d4aa801d2f00105c860f9da9"),
    22: ("85a1562795a0a212ce08bd45f986433653db2473edc4638c8511332a0f348856",
        "ff981140be9d03e64a071c09d03131263c7b448a39246930ff896965b92139f4"),
    23: ("4e88d5f4aba07adebe674e8b6dd7682da98da374cf95ee4d25ad8521cf87fbe3",
        "eebff338b3553509ae9db4323f6284f8441f4dd3bd26d0a5776e6eabba978d5b"),
    24: ("7b88dac6fb5d192d09600544e6d2dbea4cfd0e8e51f35cd20cabcb7a986457bf",
        "6e689a9d4bc1882e51fec80ef92f67a05c6ef44d9869d8f21fd432d9a7819a29"),
    25: ("83e10e0078a98dba28f32ba94f20e77cdfbcdb14c5d86a0767307e18b262ccfa",
        "429256f95d7427d9075f3ba75400ffc1541041fd0aa87bbe4aaaa72fd2a21f31"),
    26: ("9b2c8e838f4530a62412cc3a18b6f87a548947042fc14a0aa70ff7b7a2f81c74",
        "e48fb62185ee84fa78e5df02e277b3895f58657372c6ba0bc0983663693de87b"),
    27: ("fdb5b714ed5c753440955b4ea1ce013876a3c75ba080236239180ff94ba035a6",
        "706a1a686415d0052ac25c32f9643818488794417ee466138c5d8513dba52a0e"),
    28: ("8e22f3888ee69d3eda5a43d9e073f628023fe08b5aa820467ae3e22beff1ff43",
        "c6ecf4bb18be955fb956456a33806c60f3dc0d89e4496a6548c5b383c37cde99"),
    29: ("f9a77a08247041e4d7c5aaac122f38d949956f7b694c8032e565cbe8015887b4",
        "66c8091c8f97167781d03857fa20cf326ee669f95ca94e4cc907a9ad1b358fed"),
    30: ("5c7687d125e2414a635b6b47ca183981a997233bba18eff0273512ad6f8903ac",
        "3519342472aca324c01d152f9390ced2e4f52fe4680fd25c09e72984ea78b7f7"),
    31: ("683939a7de4a5a482d764a72201b0de42a8b7b0a8cee6678b06514ead3183f82",
        "56d01d997ce980eeb0fdd2d5cfee4ef8555a97d55628f50fb44ebbf9e9efe496"),
    32: ("0049b02144d32f05efcd75065442391a0d40811cad9a7a60cbe6eb1f7171f743",
        "97c2886e1953dfdfd3141499167bde3937defa108a2cc7529dcc7cc22e3a6764"),
    33: ("b352564051a75bbb6e59be5782e984ba61afb9ff3228f839075d80953c862a12",
        "6b38e18ecdb8abd729cae2761bfbdc9b057bf927f946df42c8bb82b4082e5160"),
    34: ("e62769364121d89734a956c3273a08dd99986bd104ec7e8880956c961da1a4d8",
        "43c84ef54f5362db26e5d6fd09a222322466f8eb08ec700b782e7ea694c6a3c4"),
    35: ("d21616403108d28b6157c2e9a0f4ea6f035fb83e05e5ba5a7b6c6d23b475beb9",
        "d79e7b5bead9261fe1b4e7692788694bffa8c30eea4c1d8bfbf55faaac298320"),
    36: ("8f44d3d2b8fdcdbdc446989eb38813cdbbafd89f3d48e06dbbfac0320fb90b57",
        "dad7cfb2272b73dc94648df2e0f5dabd9d1109c007387163780171fbf245b13b"),
    37: ("06a155ef20c1266acd1476313b54421de1d8b2a1f9bf928849b7fd4e664c722a",
        "56316b9c924f03a5e36fef54bfcf8e0258f96910e06e06dfc4f6e6cd07e1f1f0"),
    38: ("d8fb657c7d5e521416cad3993a8175b9d0b4e215751116aa373085d899960b9f",
        "f4d2d46afdd4ef17684188327138ab102feb1b753d547f5c42c8107f01b3ec6b"),
    39: ("fc9eaad0adbe39f46f1e5e705a59f418e15431937bda0ad9ef5732d49d75b4c9",
        "4d3509297dc53eb8fe0c561f4fcd120335182f8e3c224c357d0b51b8eb97cc8e"),
    40: ("e540a639d4ed753e756cc459055fdffe8dd2ee82fd73947d9e58bc82ee5be434",
        "06e83afda8817a9462d8a974e427d7157a2dd1b5514d2243a58d6b5426be2c50"),
    41: ("082f6ad40c71073e273a6e4b494dd946574b5d977fe62daf53201d2265c32b74",
        "69d5db3c8a49f4118b7d24ae489d49ddda73488f522412f96a7ad1a4ab1fb695"),
    42: ("81e97eb2391706ed792617302a486387cee85e9920aa0e26d1854163108cdaef",
        "dac1aefb654c393cea319e436b8d7316049938f8fce84f51846ba560ec83dd90"),
    43: ("6d2100460e3e90f025172eef9b06d8a362bbbe6714f824f26ba1289b7a9f5990",
        "a27c6a93dbd0a017d8f1bd94736218a287f735e65b4ad121ccf547d6ac571b2e"),
    44: ("6bd5f698873597055b166b3a3c2a722670d99a6c05cad1051109c67ad1efa7e4",
        "b1ea29a6cb7d3be745e01499c42d5dc249065968954a8b6100dc6d208d517b59"),
    45: ("03d20f589e26375d7606beebc9ad6c542eebae3772a2d5cf618ffd2999e7edcf",
        "1fd43c2a464164952a8978981b7ef9ef1609c130695a5a0e8094b441e979ce57"),
    46: ("5ab9990dcde69e256bebc43e271246081881ae9f75f7a70d5ebd83678f838507",
        "925f92d881141c2e2793de3dfa8153e4ea9b49cfc016951dc2891d6adb367793"),
    47: ("a9ae6e595e4ec7632343514039927cf749c50033e6cd36096e405ca2388b8f21",
        "c9f2dcb270bc74ee6129050ce58544419f37fff77684a8b1121dc79d4f4bd0e4"),
    48: ("878513378a28e0cd84a2c3cd762c4234730951dbc3902aa49fb70f71d5d7bd1d",
        "9ac2279b370ba018ca7ce5c8522b41b0b513fab5d8c1e7a500f2181efbce8868"),
    49: ("07621dc18826089db63a36d982b59e6c2b94654ff0289a1ec198be7a4e2f6f27",
        "2f96cbdc0db941968043bed98d6eac4ee09d7c815400f6ffca0729bbdf74dc78"),
    50: ("5b46d6b63a9f140edb21dd4716666fd5f28353ca657083824a44cae6e1dc493c",
        "32f0818ba3f936dcb847cbbd3b0c26deb030798c3a050122ccdddc730b4e0048"),
    51: ("e1ccfc6bca359b1a1185ab9a12444f373c1edd941cbf07de19225f2b1a21f3e2",
        "f68f841a88bbb22822b4c5ba86ab799935592a82edbbcffccc198ac0da29622d"),
    52: ("4a7d718bfe6607b015501182a2e7284fbfb38b06edb49244e94757613dd83bf4",
        "9061f329fad1b883576db515febabc3f1f9f2058b03a4d0ccd821b0bd0ed1de0"),
    53: ("70632654a33889c20674b3824b463c1c6b057a5ceeeae9b4fad281d75f04ac4b",
        "cc639d36fa4c4301b80c06b9afca8941f2f1429d8c4fcfea0cc3077887f4ece0"),
    54: ("06a7a8ab0e60ea96d7cf4e13782c35abb9d91bea919d1ce90b66e63fe4e3ac75",
        "21e190bf27628ade1baa916711f27c39e4519b222cad6c1b22c5c8733d536bfc"),
    55: ("9b1d191e810485eeb5d8154e56699df9d598165b991a6e7ea5e5c029fbc81496",
        "e5a3c67c0fe72e59262ec2e96ec0fee50cfbbec0fee9aeab1b6aa74a2c5afa9d"),
    56: ("cad6d040a25cf494e9c74df15f24ef160b89ee1d43c7faad64ead3f354b5c46b",
        "2dc71f5e5bb0272fe1c5837568812dcc5d7ccf780d6f52118649e20bb331223d"),
    57: ("72b40c8981a2701b58651fd2ff173be14e11452def18036debd8a48d668f6812",
        "867bdbd5f5a4d9789b1bfaf0da6f4ab19685a5fcb55253023c0b618209a0a2d9"),
    58: ("63d3f32c46a7d0fb0ff7c00faff98ac0635d8b7da1eb4bd59a90a7a549e72144",
        "4adb2d549c01ea7792d0693aafd98bd6bc619e2db58b61f4bc675c242ad16d6c"),
    59: ("008a7ec18f4e70948a6521f7896806dde6883a7ef1d9d09b3e23c3ef484e0a9c",
        "c0a900e2e20c5e2bb038e485a6e3dff7bab6992a5de2bce7f8463f8bcb9e0017"),
}


@pytest.mark.parametrize("k", range(DRAWS))
def test_kernel_pins(k):
    assert digests(k) == PINNED[k]
