"""An overflowing fractional power drops one float sample; it does not abort
the sampler.  (10^205 y^2)^(3/2) overflows float64 for |y| > 1.78, about a
tenth of the default box (-2, 2).  The conformal and independence checks
draw no float samples: they decide the same expressions as identities, in
mpf, where nothing overflows."""

import random

from pathgeom.expr import (Rat, as_rat, compile_tape, exprs_equal, mul, num,
                           pow_, var)
from pathgeom.expr.sampling import draw_float, sample_points
from pathgeom.forms import d, frobenius_integrable, one_form
from pathgeom.metrics import CoframeMetric, conformal_equiv_check, einstein_check

y = var("y")
BIG = pow_(mul(num(10 ** 205), y ** 2), as_rat("3/2"))
CH4 = ("y", "p", "Y", "P")
SEEDS = range(10)


def _overflows(x):
    try:
        compile_tape(BIG, ("y",)).eval_f64([x])
    except OverflowError:
        return True
    return False


def test_box_holds_overflowing_points():
    assert _overflows(1.9) and _overflows(-1.9) and not _overflows(1.5)


def test_float_samples_skip_overflow():
    tape = compile_tape([BIG], ("y",))
    for seed in SEEDS:
        got = list(sample_points(tape, ("y",), seed, 60))
        rng = random.Random(seed)
        draws = [draw_float(rng, [None]) for _ in range(60)]
        # the overflowing draws are dropped and no other
        assert [list(pt) for pt, _ in got] == [pt for pt in draws
                                               if not _overflows(pt[0])]
        assert len(got) < 60


def test_einstein_sampler_skips_overflow():
    # 10^-307 (10^205 y^2)^(3/2) is at most 18 on the box, but its tape
    # overflows on the way there
    small = mul(num(Rat(1, 10 ** 307)), BIG)
    cm = CoframeMetric(CH4, (one_form(CH4, {"Y": small}), d(CH4, "P"),
                             d(CH4, "y"), d(CH4, "p")), "para")
    for seed in SEEDS:
        rep = einstein_check(cm, points=8, seed=seed)
        assert len(rep.lambdas) == 8
        assert rep.signature == (2, 2)


def test_conformal_sampler_skips_overflow():
    cm = CoframeMetric(CH4, (one_form(CH4, {"Y": BIG}), d(CH4, "P"),
                             d(CH4, "y"), d(CH4, "p")), "para")
    for seed in SEEDS:
        verdict = conformal_equiv_check(cm, cm, seed=seed)
        assert verdict.equivalent
        assert exprs_equal(verdict.factor, num(1), trials=8).is_zero


def test_independence_sampler_skips_overflow():
    gens = [one_form(CH4, {"y": BIG}), d(CH4, "p")]
    for seed in SEEDS:
        assert all(frobenius_integrable(gens, seed=seed))
