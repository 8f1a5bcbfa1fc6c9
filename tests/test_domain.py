"""A declared `Domain`: a rational map from parameters onto a chart with a
rational root of each radicand, and the exact identity claims it allows on
`dancing_sqrt_pair`."""

import random

import mpmath
import pytest

from pathgeom.constructions import catalog
from pathgeom.errors import ChartMismatch, DivisionByZero
from pathgeom.expr import (Rat, add, compile_tape, div, mul, num, pow_,
                           sqrt_, sub, substitute, var, variables)
from pathgeom.expr.domain import Domain
from pathgeom.expr.sampling import draw_exact
from pathgeom.expr.tape import MPF_PREC
from pathgeom.expr.zerotest import (DEFAULT_BOUND, MPF_REL_TOL, TARGET_BITS,
                                    target_trials, zero_verdicts)
from pathgeom.invariants import fels_invariants
from pathgeom.jets import PairODE
from pathgeom.pipeline import _on_domain, _torsion

t, b, Z, B, s, w = variables("t b Z B s w")
TB = add(t, b)
B_OF = div(sub(TB ** 2, mul(num(4), s ** 2)), sub(w ** 2, TB ** 2))
RAD = sub(mul(TB ** 2, B, add(B, num(1))), mul(num(4), Z, B))
PARAMS = ("t", "z", "b", "s", "w")
MAP = {"Z": s ** 2, "B": B_OF}
PAIR = catalog("dancing_sqrt_pair")


def _domain(**changes):
    fields = dict(params=PARAMS, chart_map=MAP,
                  roots=((Z, 2, s), (RAD, 2, mul(B_OF, w))))
    fields.update(changes)
    return Domain(**fields)


def _cell_points(count, seed=0):
    """`count` exact parameter points on the cell s > 0, B w > 0, with the
    chart point each maps to."""
    names = sorted(PARAMS)
    image = compile_tape([s, mul(B_OF, w), s ** 2, B_OF], names)
    rng, found = random.Random(seed), []
    while len(found) < count:
        point = draw_exact(rng, [None] * len(names), DEFAULT_BOUND)
        try:
            root_z, root_rad, z_val, b_val = image.eval_exact(point)
        except DivisionByZero:
            continue
        if root_z > 0 and root_rad > 0:
            params = dict(zip(names, point))
            found.append((params, {**params, "Z": z_val, "B": b_val}))
    return found


class TestConstruction:
    def test_the_catalog_pair_carries_the_declared_domain(self):
        assert PAIR.domain == _domain()
        assert PAIR.domain.describe() == {
            "parameters": "t z b s w",
            "map": "Z = s^2, B = ((t + b)^2 - 4*s^2)/(w^2 - (t + b)^2)",
            "cell": "s > 0, ((t + b)^2 - 4*s^2)/(w^2 - (t + b)^2)*w > 0"}

    def test_root_squares_to_the_radicand_as_an_exact_claim(self):
        # rad o map = B^2 w^2 identically, decided exactly with its bound
        check = sub(mul(B_OF, w) ** 2, substitute(RAD, MAP))
        (verdict,) = zero_verdicts([check])
        assert verdict.is_zero and verdict.mode == "exact"
        assert verdict.trials == target_trials(verdict.degree_bound)
        assert verdict.failure_bound <= 2.0 ** -TARGET_BITS

    def test_a_wrong_root_is_refused(self):
        with pytest.raises(ValueError, match="raised to 2 is not the"):
            _domain(roots=((Z, 2, s), (RAD, 2, mul(num(2), B_OF, w))))

    def test_a_map_with_a_radical_is_refused(self):
        with pytest.raises(ValueError, match="holds a radical"):
            _domain(chart_map={"Z": s ** 2, "B": sqrt_(B_OF)})

    @pytest.mark.parametrize("roots, message", [
        (((Z, 2, sqrt_(s)),), "holds a radical"),
        (((Z, 2, var("x")),), "not only the parameters"),
        (((Z, 1, s),), "root index"),
    ])
    def test_bad_roots_are_refused(self, roots, message):
        with pytest.raises(ValueError, match=message):
            _domain(roots=roots)

    def test_an_empty_cell_is_refused(self):
        # -s^2 squares to s^4, but is positive nowhere
        with pytest.raises(ValueError, match="has no point"):
            _domain(chart_map={"Z": s ** 4, "B": B_OF},
                    roots=((Z, 2, mul(num(-1), s ** 2)),))

    def test_a_pair_refuses_a_domain_that_leaves_a_chart_name_out(self):
        with pytest.raises(ChartMismatch, match="mapped or a parameter"):
            PairODE(PAIR.rhs1, PAIR.rhs2, chart=PAIR.chart,
                    domain=_domain(params=("t", "b", "s", "w")))


class TestPullback:
    def test_pullback_of_a_rational_expression_is_substitution(self):
        e = div(add(Z, mul(B, t)), sub(B, num(3)))
        assert _domain().pullback([e]) == [substitute(e, MAP)]

    def test_radical_powers_become_powers_of_the_root(self):
        e = add(sqrt_(Z), pow_(Z, Rat(-3, 2)), pow_(RAD, Rat(3, 2)))
        (pulled,) = _domain().pullback([e])
        want = add(s, pow_(s, -3), pow_(mul(B_OF, w), 3))
        (verdict,) = zero_verdicts([sub(pulled, want)])
        assert verdict.is_zero and verdict.mode == "exact"

    def test_a_radical_of_an_undeclared_radicand_is_refused(self):
        with pytest.raises(ValueError, match="not a power of a declared"):
            _domain().pullback([add(Z, sqrt_(add(B, num(1))))])
        # a power of a radicand that is not a multiple of 1/k
        with pytest.raises(ValueError, match="not a power of a declared"):
            _domain().pullback([pow_(Z, Rat(1, 4))])

    def test_original_tapes_in_mpf_match_the_pulled_back_exact_values(self):
        # at 30 cell points, the torsion entries and their trace in mpf at
        # the mapped chart point agree with the exact pulled-back values
        entries, pulled, _ = _torsion(PAIR, 0, True)
        trace = {"T^1_1 + T^2_2": add(entries["T^1_1"], entries["T^2_2"])}
        entries, pulled = {**entries, **trace}, {**pulled,
                                                 **_on_domain(PAIR, trace)}
        chart = sorted(PAIR.chart)
        original = compile_tape(list(entries.values()), chart)
        exact = compile_tape(list(pulled.values()), sorted(PARAMS))
        for params, point in _cell_points(30):
            got = original.eval_mpf([point[n] for n in chart])
            want = exact.eval_exact([params[n] for n in sorted(PARAMS)])
            with mpmath.workprec(MPF_PREC):
                for g, v in zip(got, want):
                    v = mpmath.mpf(v.numerator) / v.denominator
                    assert abs(g - v) <= MPF_REL_TOL * max(1, abs(v))

    def test_pulled_back_entries_are_kept_on_the_pair(self):
        assert _torsion(PAIR, 0, False)[1] is _torsion(PAIR, 1, False)[1]

    def test_claims_are_exact_with_their_bound(self):
        # the trace vanishes, the torsion does not
        _, pulled, torsion = _torsion(PAIR, 0, True)
        assert not all(torsion)
        assert {v.mode for v in torsion} == {"exact"}
        trace = add(pulled["T^1_1"], pulled["T^2_2"])
        (verdict,) = zero_verdicts([trace])
        assert verdict.is_zero and verdict.mode == "exact"
        assert (verdict.degree_bound, verdict.trials) == (88, 8)

    def test_a_perturbed_entry_reads_nonzero_with_a_parameter_witness(self):
        t11, _, _, t22 = sum(fels_invariants(PAIR).torsion, ())
        perturbed = add(t11, t22, mul(num(Rat(1, 10 ** 9)), sqrt_(RAD)))
        (pulled,) = PAIR.domain.pullback([perturbed])
        (verdict,) = zero_verdicts([pulled])
        assert not verdict.is_zero and verdict.mode == "exact"
        assert set(verdict.witness) == {"b", "s", "t", "w"}
        assert verdict.witness_value != 0
