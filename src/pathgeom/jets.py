"""Jet-coordinate models of scalar ODEs and ODE pairs, with the total
derivative operator along solutions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChartMismatch
from .expr import Expr, add, differentiate, mul, var
from .expr.domain import Domain

SCALAR_CHART = ("t", "z", "p")
PAIR_CHART = ("t", "u1", "u2", "q1", "q2")


def _check_chart(chart, rhs_list, what):
    if len(set(chart)) != len(chart):
        raise ChartMismatch(f"{what}: chart names must be pairwise distinct: {chart}")
    allowed = set(chart)
    for rhs in rhs_list:
        extra = rhs.free_variables - allowed
        if extra:
            raise ChartMismatch(f"{what}: free variables {sorted(extra)} "
                                f"outside chart {chart}")


@dataclass(frozen=True)
class ScalarODE:
    """z'' = F(t, z, p) with p the first-derivative coordinate."""

    rhs: Expr
    chart: tuple = SCALAR_CHART

    def __post_init__(self):
        if len(self.chart) != 3:
            raise ChartMismatch("scalar chart needs 3 names (t, z, p)")
        _check_chart(self.chart, (self.rhs,), "ScalarODE")


@dataclass(frozen=True)
class PairODE:
    """(u1)'' = F1, (u2)'' = F2 over chart (t, u1, u2, q1, q2).

    A pair may carry a `Domain`: a rational map from parameters onto its
    chart with a rational root of each of its radicands, on which its
    identity claims are decided exactly (`pipeline`).  The map's names are
    chart names, every chart name it leaves out is a parameter, and the
    radicands are expressions in the chart."""

    rhs1: Expr
    rhs2: Expr
    chart: tuple = PAIR_CHART
    domain: Domain | None = None

    def __post_init__(self):
        # a tuple, so that the pair hashes and can key its memos (`memo`)
        object.__setattr__(self, "chart", tuple(self.chart))
        if len(self.chart) != 5:
            raise ChartMismatch("pair chart needs 5 names (t, u1, u2, q1, q2)")
        _check_chart(self.chart, (self.rhs1, self.rhs2), "PairODE")
        if self.domain is not None:
            mapped = {name for name, _ in self.domain.chart_map}
            loose = (set(self.chart) - mapped) - set(self.domain.params)
            if not mapped <= set(self.chart) or loose:
                raise ChartMismatch(
                    f"PairODE: domain maps {sorted(mapped)} and has "
                    f"parameters {self.domain.params}; the chart "
                    f"{self.chart} needs each name mapped or a parameter")
            _check_chart(self.chart, [r for r, _, _ in self.domain.roots],
                         "PairODE domain radicands")

    @property
    def rhs(self):
        return (self.rhs1, self.rhs2)


def _total_derivative(e: Expr, chart, rates) -> Expr:
    """d/dt e + sum of rate * d/dx e, with t = chart[0] and x running over
    chart[1:] in order, paired with `rates`."""
    extra = e.free_variables - set(chart)
    if extra:
        raise ChartMismatch(f"expression uses {sorted(extra)} outside chart {chart}")
    return add(differentiate(e, chart[0]),
               *(mul(rate, differentiate(e, x))
                 for x, rate in zip(chart[1:], rates)))


def total_derivative(e: Expr, sys: PairODE) -> Expr:
    """d/dt along solutions of the pair:
    dt e + q1*du1 e + q2*du2 e + F1*dq1 e + F2*dq2 e."""
    q1, q2 = sys.chart[3:]
    return _total_derivative(e, sys.chart,
                             (var(q1), var(q2), sys.rhs1, sys.rhs2))


def total_derivative_scalar(e: Expr, sys: ScalarODE) -> Expr:
    """d/dt along solutions of the scalar equation."""
    return _total_derivative(e, sys.chart, (var(sys.chart[2]), sys.rhs))


def prolong(sys: PairODE, e: Expr, order: int) -> Expr:
    """Iterated total derivative."""
    if order < 1:
        raise ValueError("order must be >= 1")
    out = e
    for _ in range(order):
        out = total_derivative(out, sys)
    return out
