"""Symbolic expression kernel: immutable exact-rational expression DAGs with
differentiation, substitution, pointwise evaluation, and randomized identity
testing."""

from .calculus import differentiate, rename_variables, substitute
from .evaluate import evaluate
from .nodes import (Add, Expr, Mul, Num, ONE, Pow, Var, ZERO, add, div, mul,
                    neg, node_count, num, pow_, sqrt_, sub, to_text, var,
                    variables)
from .rational import HAVE_GMPY2, Rat, as_rat
from .tape import Tape, compile_tape
from .zerotest import ZeroVerdict, exprs_equal, is_zero_probabilistic

__all__ = [
    "Add", "Expr", "HAVE_GMPY2", "Mul", "Num", "ONE", "Pow", "Rat",
    "Tape", "Var", "ZERO", "ZeroVerdict", "add", "as_rat", "compile_tape",
    "differentiate", "div", "evaluate", "exprs_equal", "is_zero_probabilistic",
    "mul", "neg", "node_count", "num", "pow_", "rename_variables", "sqrt_",
    "sub", "substitute", "to_text", "var", "variables",
]
