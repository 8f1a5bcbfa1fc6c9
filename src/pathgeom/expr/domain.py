"""A declared domain: a rational map from parameters onto a chart, with a
rational root of each radicand.

A `Domain` holds parameter names, a rational map from the parameters to
chart variables (a chart variable the map leaves out is the parameter of
the same name), and for each radicand r, with its root index k, a rational
function R of the parameters with R^k == r o map identically.  On the cell
where every R > 0, R is the principal real k-th root of r at the mapped
point, so `pullback` turns each power r^(j/k) into R^j and an expression in
those radicals into a rational function of the parameters.  Its identity
claims are then decided exactly, with their own Schwartz-Zippel bound
(`zerotest.zero_verdicts`), instead of in mpf.

The cell is open and not empty (construction finds a draw in it), so a
rational function that vanishes on the cell vanishes identically: an entry
pulled back is zero on the cell iff it is zero as a rational function.  A
nonzero value at any parameter point, in the cell or not, is a witness that
the entry is nonzero on a dense open part of the cell.  Where the cell maps
onto the real domain of the chart (the declaration's own claim, stated
where the domain is declared), a claim that holds on the cell holds on the
whole real branch.

Rational parametrizations: Sendra, Winkler & Perez-Diaz, *Rational
Algebraic Curves* (Springer 2008); the bound: Schwartz, JACM 27 (1980).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import DivisionByZero
from .calculus import rebuild, substitute
from .nodes import Expr, Pow, postorder, pow_, sub, to_text
from .sampling import RESAMPLE_BUDGET, draw_exact
from .tape import compile_tape
from .zerotest import DEFAULT_BOUND, zero_verdicts


def _rational(e: Expr, what, params=None):
    """Refuse an expression with a fractional power, or with `params` a free
    variable outside them."""
    if params is not None and not e.free_variables <= set(params):
        raise ValueError(f"{what} uses {sorted(e.free_variables)}, not only "
                         f"the parameters {params}")
    if any(isinstance(n, Pow) and type(n.exponent) is not int
           for n in postorder((e,))):
        raise ValueError(f"{what} {to_text(e)} is not rational: it holds a "
                         f"radical")


@dataclass(frozen=True)
class Domain:
    """Parameters, the map chart name -> rational expression in them, and
    roots (radicand, k, R): R^k == radicand o map, valid on the cell where
    every R > 0 (module docstring).  `chart_map` may be given as a dict;
    both are kept as tuples, so a domain hashes and a pair carrying it can
    key its memos.

    Construction refuses a map or root that is not rational in the
    parameters, a radicand that holds a radical, a root R whose k-th power
    is not the radicand under the map (an exact identity claim, at the
    package's 2^-100 bound), and a cell with no point among RESAMPLE_BUDGET
    draws."""

    params: tuple
    chart_map: tuple
    roots: tuple

    def __post_init__(self):
        chart_map = self.chart_map
        if isinstance(chart_map, dict):
            chart_map = tuple(chart_map.items())
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "chart_map", tuple(chart_map))
        object.__setattr__(self, "roots", tuple(map(tuple, self.roots)))
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"parameter names must be pairwise distinct: "
                             f"{self.params}")
        for name, image in self.chart_map:
            _rational(image, f"map of {name}", self.params)
        mapping = dict(self.chart_map)
        checks = []
        for radicand, k, root in self.roots:
            if type(k) is not int or k < 2:
                raise ValueError(f"root index {k!r} is not an integer >= 2")
            _rational(radicand, "radicand")
            _rational(root, "root", self.params)
            checks.append(sub(pow_(root, k), substitute(radicand, mapping)))
        for (radicand, k, root), v in zip(self.roots,
                                          zero_verdicts(checks, every=True)):
            if not v.is_zero:
                raise ValueError(
                    f"root {to_text(root)} raised to {k} is not the "
                    f"radicand {to_text(radicand)} under the map (they "
                    f"differ at {v.witness})")
        self._check_cell()

    def _check_cell(self):
        """ValueError unless one of RESAMPLE_BUDGET drawn parameter points
        has every root positive."""
        names = sorted(set().union(*(r.free_variables
                                     for _, _, r in self.roots)))
        tape = compile_tape([root for _, _, root in self.roots], names)
        rng = random.Random(0)
        for _ in range(RESAMPLE_BUDGET):
            point = draw_exact(rng, [None] * len(names), DEFAULT_BOUND)
            try:
                if all(v > 0 for v in tape.eval_exact(point)):
                    return
            except DivisionByZero:
                continue
        raise ValueError(f"the cell {self.cell_text()} has no point among "
                         f"{RESAMPLE_BUDGET} draws")

    def pullback(self, exprs) -> list:
        """Each expression of `exprs` on the cell, as a function of the
        parameters: one rebuild walk (`calculus.rebuild`, shared with
        `substitute`) turns each power r^e of a declared radicand r whose
        k e is an integer into R^(k e), and each mapped chart variable into
        its image, so each result is rational in the parameters.
        ValueError for any other fractional power: evaluated off the cell
        as a principal root, it would not agree with the R it meets."""
        mapping = dict(self.chart_map)
        roots = {radicand: (k, root) for radicand, k, root in self.roots}
        names = frozenset(mapping).union(
            *(r.free_variables for r in roots))

        def power(node, base):
            k, root = roots.get(node.base, (None, None))
            if k is not None and (node.exponent * k).denominator == 1:
                return pow_(root, node.exponent * k)
            if type(node.exponent) is not int:
                raise ValueError(f"{to_text(node, 80)} is not a power of a "
                                 f"declared radicand")
            return pow_(base, node.exponent)

        return rebuild(tuple(exprs), names,
                       lambda v: mapping.get(v.name, v), power)

    def cell_text(self) -> str:
        return ", ".join(f"{to_text(root)} > 0" for _, _, root in self.roots)

    def describe(self) -> dict:
        """The parameters, the map and the cell, as report strings."""
        return {"parameters": " ".join(self.params),
                "map": ", ".join(f"{name} = {to_text(image)}"
                                 for name, image in self.chart_map),
                "cell": self.cell_text()}
