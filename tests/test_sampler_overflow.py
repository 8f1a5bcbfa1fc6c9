"""An overflowing fractional power drops one float sample; it does not abort
the sampler.  (10^205 y^2)^(3/2) overflows float64 for |y| > 1.78, about a
tenth of the default box (-2, 2)."""

import itertools
import random

import numpy as np

from pathgeom.expr import as_rat, compile_tape, mul, num, pow_, var
from pathgeom.forms import _check_independent, d, one_form
from pathgeom.metrics import CoframeMetric, _sample_admissible, conformal_equiv_check
from pathgeom.pipeline import _sample_points_float

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


def test_pipeline_float_samples_skip_overflow():
    for seed in SEEDS:
        got = list(itertools.islice(_sample_points_float([BIG], seed), 40))
        assert len(got) == 40
        assert not any(_overflows(pt["y"]) for pt, _ in got)


def test_einstein_sampler_skips_overflow():
    det = compile_tape(y, ("y",))
    size = compile_tape(BIG, ("y",))
    for seed in SEEDS:
        pt = _sample_admissible(random.Random(seed), det, ("y",), (-2.0, 2.0),
                                min_det=1e-8, size_tapes=[size],
                                size_cap=np.inf)
        assert not _overflows(pt[0])


def test_conformal_sampler_skips_overflow():
    cm = CoframeMetric(CH4, (one_form(CH4, {"Y": BIG}), d(CH4, "P"),
                             d(CH4, "y"), d(CH4, "p")), "para")
    for seed in SEEDS:
        verdict = conformal_equiv_check(cm, cm, points=8, seed=seed)
        assert verdict.equivalent
        assert verdict.factors == [1.0] * 8


def test_independence_sampler_skips_overflow():
    gens = [one_form(CH4, {"y": BIG}), d(CH4, "p")]
    for seed in SEEDS:
        _check_independent(gens, seed=seed)
