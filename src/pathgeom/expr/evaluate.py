"""Pointwise evaluation of expressions under an assignment."""

from __future__ import annotations

from ..errors import UnboundVariable
from .nodes import Expr
from .tape import compile_tape


def _ordered_point(e: Expr, assignment):
    names = sorted(e.free_variables)
    point = []
    for n in names:
        if n not in assignment:
            raise UnboundVariable(f"variable {n!r} is unbound")
        point.append(assignment[n])
    return names, point


def evaluate(e: Expr, assignment, mode: str = "exact"):
    """Evaluate with every free variable bound.

    mode 'exact'    -> exact rational (requires integer exponents or perfect
                       rational powers; raises DomainError otherwise)
    mode 'floating' -> float64
    mode 'mpf'      -> mpmath floating at 256 bits (`tape.MPF_PREC`)

    Raises DivisionByZero, DomainError, UnboundVariable.
    """
    names, point = _ordered_point(e, assignment)
    tape = compile_tape(e, names)
    if mode == "exact":
        return tape.eval_exact(point)
    if mode == "floating":
        return tape.eval_f64([float(v) for v in point])
    if mode == "mpf":
        return tape.eval_mpf(point)
    raise ValueError(f"unknown mode {mode!r}")
