"""Flat evaluation tapes for expression DAGs.

A tape is the DAG in topological order as a list of `(op, a, b)`
instructions, compiled once and evaluated at many points (an operation tape
in the sense of Griewank & Walther, *Evaluating Derivatives*).  One
interpreter loop runs the instructions over a number domain; the domain
supplies the constants, the point, and the integer and fractional power
functions.  There are four domains:

  * exact           -- rationals (gmpy2.mpq or Fraction); a fractional power
                       must come out rational (`rat_pow_exact`)
  * mpf             -- mpmath floats at a given precision, used for radicals
  * float64         -- Python floats, one point per call
  * float64 columns -- numpy arrays with one entry per point, so that each
                       instruction runs once over all the points

The scalar domains evaluate node by node in the DAG's own order.  The column
domain uses numpy's vectorised `power`, whose last bits can differ from
libm `pow`: `eval_f64_many` agrees with per-row `eval_f64` to rounding, not
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DivisionByZero, DomainError, UnboundVariable
from .nodes import Add, Expr, Mul, Num, Pow, Var
from .rational import Rat, is_int, rat_pow_exact

OP_CONST, OP_VAR, OP_ADD, OP_MUL, OP_POW_INT, OP_POW_FRAC = range(6)


def _toposort(root: Expr):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, (Add, Mul)):
            stack.extend((a, False) for a in node.args)
        elif isinstance(node, Pow):
            stack.append((node.base, False))
    return order


class Tape:
    """Compiled form of one expression over an ordered variable chart.

    `code[k]` is the instruction of DAG node k as `(op, a, b)`: CONST and
    VAR index the constants and the chart with `a`; ADD and MUL carry the
    tuple of their children's node indices in `a`; POW_INT and POW_FRAC
    have the base's node index in `a` and, in `b`, the integer exponent or
    the index of the fractional exponent.  Every evaluation allocates its
    own values, so one tape may be evaluated from several threads.
    """

    __slots__ = ("var_names", "code", "consts_exact", "consts_f64",
                 "exps_exact", "exps_f64")

    def __init__(self, root: Expr, var_names):
        self.var_names = tuple(var_names)
        slot = {name: k for k, name in enumerate(self.var_names)}
        missing = root.free_variables - set(slot)
        if missing:
            raise UnboundVariable(f"no slot for variable(s) {sorted(missing)}")
        order = _toposort(root)
        index = {id(n): k for k, n in enumerate(order)}
        code: list = []
        consts: list = []
        exps: list = []
        for node in order:
            if isinstance(node, Num):
                code.append((OP_CONST, len(consts), None))
                consts.append(node.value)
            elif isinstance(node, Var):
                code.append((OP_VAR, slot[node.name], None))
            elif isinstance(node, (Add, Mul)):
                code.append((OP_ADD if isinstance(node, Add) else OP_MUL,
                             tuple(index[id(a)] for a in node.args), None))
            else:
                e = node.exponent
                base = index[id(node.base)]
                if is_int(e):
                    if abs(int(e)) >= 2 ** 31:
                        raise OverflowError("integer exponent too large to "
                                            "compile")
                    code.append((OP_POW_INT, base, int(e)))
                else:
                    code.append((OP_POW_FRAC, base, len(exps)))
                    exps.append(e)
        self.code = code
        self.consts_exact = consts
        self.consts_f64 = [float(c) for c in consts]
        self.exps_exact = exps
        self.exps_f64 = [float(e) for e in exps]

    def __len__(self):
        return len(self.code)

    def _run(self, inputs, consts, exps, zero, one, pow_int, pow_frac):
        """The interpreter: the value of every node, in tape order."""
        values = []
        push = values.append
        for op, a, b in self.code:
            if op == OP_MUL:
                v = one
                for j in a:
                    v *= values[j]
            elif op == OP_ADD:
                v = zero
                for j in a:
                    v += values[j]
            elif op == OP_CONST:
                v = consts[a]
            elif op == OP_VAR:
                v = inputs[a]
            elif op == OP_POW_INT:
                v = pow_int(values[a], b)
            else:
                v = pow_frac(values[a], exps[b])
            push(v)
        return values

    def eval_exact(self, point):
        return self._run(point, self.consts_exact, self.exps_exact, 0, 1,
                         _pow_int, _exact_pow_frac)[-1]

    def eval_f64(self, point) -> float:
        inputs = np.asarray(point, dtype=np.float64).tolist()
        return self._run(inputs, self.consts_f64, self.exps_f64, 0.0, 1.0,
                         _f64_pow_int, _f64_pow_frac)[-1]

    def eval_f64_many(self, points) -> np.ndarray:
        """Evaluate at an (m, nvars) array of points; returns length-m array.

        Raises as `eval_f64` would if any row raises."""
        m = len(points)
        if m == 0:
            return np.zeros(0, dtype=np.float64)
        columns = list(np.array(points, dtype=np.float64).T.copy())
        consts = [np.full(m, c) for c in self.consts_f64]
        # overflow gives inf and inf - inf gives nan silently, as with floats
        with np.errstate(over="ignore", invalid="ignore"):
            return self._run(columns, consts, self.exps_f64, 0.0, 1.0,
                             _column_pow_int, _column_pow_frac)[-1]

    def eval_mpf(self, point, prec_bits=256):
        """Returns (value, scale): scale is the largest |value| of any node,
        used for relative-tolerance zero decisions."""
        import mpmath

        with mpmath.workprec(prec_bits):
            mpf = mpmath.mpf

            def convert(q):
                return mpf(int(q.numerator)) / int(q.denominator)

            inputs = [convert(p) if hasattr(p, "numerator") else mpf(p)
                      for p in point]
            values = self._run(inputs, [convert(c) for c in self.consts_exact],
                               [convert(e) for e in self.exps_exact],
                               mpf(0), mpf(1), _pow_int, _mpf_pow_frac)
            return values[-1], max(abs(v) for v in values)


# -- the domains' power functions ---------------------------------------------------

def _pow_int(base, e: int):
    """Integer power, exact or mpf."""
    if base == 0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    return base ** e


def _exact_pow_frac(base, e):
    got = rat_pow_exact(Rat(base), e)
    if got is None:
        raise DomainError("not a perfect rational power; "
                          "use floating evaluation")
    return got


def _mpf_pow_frac(base, e):
    import mpmath

    if base < 0:
        raise DomainError("negative base under a fractional power")
    if base == 0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    return mpmath.power(base, e)


def _f64_pow_int(base: float, e: int) -> float:
    if base == 0.0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    try:
        return base ** e
    except OverflowError:
        # an overflowing integer power is infinite, as in numpy
        return math.copysign(math.inf, base) if e % 2 else math.inf


def _f64_pow_frac(base: float, e: float) -> float:
    if base < 0.0:
        raise DomainError("negative base under a fractional power")
    if base == 0.0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    return math.pow(base, e)


def _column_pow_int(base: np.ndarray, e: int) -> np.ndarray:
    if e < 0 and (base == 0.0).any():
        raise DivisionByZero("denominator evaluated to zero")
    return base ** e


def _column_pow_frac(base: np.ndarray, e: float) -> np.ndarray:
    if (base < 0.0).any():
        raise DomainError("negative base under a fractional power")
    if e < 0 and (base == 0.0).any():
        raise DivisionByZero("denominator evaluated to zero")
    v = np.power(base, e)
    if (np.isinf(v) & np.isfinite(base)).any():
        raise OverflowError("math range error")
    return v


def compile_tape(e: Expr, var_names) -> Tape:
    return Tape(e, var_names)
