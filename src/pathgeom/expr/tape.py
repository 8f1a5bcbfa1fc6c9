"""Flat evaluation tapes for expression DAGs.

A tape is the DAG in topological order as a list of `(op, a, b)`
instructions, compiled once and evaluated at many points (an operation tape
in the sense of Griewank & Walther, *Evaluating Derivatives*).  A tape
compiled from a sequence of expressions runs the union of their DAGs, each
shared node once, and returns a list with one value per expression.  There
are three number domains.  The exact domain has its own loop, on int
numerator/denominator pairs kept in lowest terms; the other two share one
interpreter loop, `Tape._run`, to which the domain supplies the constants,
the point, and the integer and fractional power functions.  The float64 and
mpf domains differ only in their number type: they share one conversion of
the constants and fractional exponents (`Tape._converted`) and one pair of
power functions (`_pow_int`, `_pow_frac`), written with `**`:

  * exact   -- rationals, held as int pairs and returned as Fractions; a
               fractional power must come out rational (`rat_pow_exact`)
  * mpf     -- mpmath floats at MPF_PREC bits, used for radicals
  * float64 -- Python floats; `eval_f64` takes one point, `eval_f64_many`
               runs the same loop over the rows of an array, so each row's
               values equal `eval_f64`'s bit for bit

Every domain with fractional powers takes the real branch of an odd root of
a negative base, with the sign `real_branch_sign` gives `rat_pow_exact`: at
x = -8, x^(1/3) is -2, x^(-2/3) is 1/4 and x^(5/3) is -32.  A negative base
under an even root raises DomainError.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import DivisionByZero, DomainError, UnboundVariable
from ..memo import memoized
from .nodes import Add, Expr, Mul, Num, Var, postorder
from .rational import (MAX_INT_EXPONENT, MAX_POWER_BITS, as_rat, is_int,
                       rat_pow_exact, real_branch_sign)

OP_CONST, OP_VAR, OP_ADD, OP_MUL, OP_POW_INT, OP_POW_FRAC = range(6)

MPF_PREC = 256          # bits of every mpf evaluation


class Tape:
    """Compiled form of one expression, or of a sequence of expressions, over
    an ordered variable chart.

    `code[k]` is the instruction of DAG node k as `(op, a, b)`: CONST and
    VAR index the constants and the chart with `a`; ADD and MUL carry the
    tuple of their children's node indices in `a`; POW_INT and POW_FRAC
    have the base's node index in `a` and, in `b`, the integer exponent or
    the index of the fractional exponent.  `outputs` holds the node index of
    each expression.  Every evaluation allocates its own values, so one tape
    may be evaluated from several threads, and a one-expression tape is
    shared by every caller that compiles its expression over its chart
    (`compile_tape`).  The one state a tape changes after compiling is
    `_converted`'s cache of numeric constants, filled in on first use: two
    threads may both convert, and either's equal lists may be kept.
    """

    __slots__ = ("var_names", "code", "outputs", "single", "consts_exact",
                 "exps_exact", "_numeric")

    def __init__(self, exprs, var_names):
        self.single = isinstance(exprs, Expr)
        roots = (exprs,) if self.single else tuple(exprs)
        self.var_names = tuple(var_names)
        slot = {name: k for k, name in enumerate(self.var_names)}
        missing = set().union(*(r.free_variables for r in roots)) - set(slot)
        if missing:
            raise UnboundVariable(f"no slot for variable(s) {sorted(missing)}")
        order = postorder(roots)
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
                    if abs(int(e)) >= MAX_INT_EXPONENT:
                        raise ValueError(f"integer exponent {e} too large to "
                                         "compile")
                    code.append((OP_POW_INT, base, int(e)))
                else:
                    code.append((OP_POW_FRAC, base, len(exps)))
                    exps.append(e)
        self.code = code
        self.outputs = tuple(index[id(r)] for r in roots)
        self.consts_exact = consts
        self.exps_exact = exps
        self._numeric = {}   # converter -> converted on first use

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

    def _result(self, values):
        """The output value of a one-expression tape, else the list of them."""
        if self.single:
            return values[self.outputs[0]]
        return [values[k] for k in self.outputs]

    def _converted(self, to):
        """Constants as `to(c)` and fractional exponents as (`to(e)`, real
        branch sign) pairs (`real_branch_sign`), converted on first use, so
        a constant beyond float range raises only in float domains.  `to`
        is `float` or `_to_mpf`; call the latter inside
        `mpmath.workprec(MPF_PREC)`."""
        got = self._numeric.get(to)
        if got is None:
            got = self._numeric[to] = (
                [to(c) for c in self.consts_exact],
                [(to(e), real_branch_sign(e)) for e in self.exps_exact])
        return got

    def eval_exact(self, point):
        """The exact value at a point of ints and rationals, as rationals
        (Fraction), also where an int point meets a negative power.

        Node k is the int pair nums[k] / dens[k] in lowest terms with
        dens[k] > 0, as a Fraction would hold it; each sum and product
        divides out one gcd, and a Fraction is built only for the outputs.

        Raises ValueError, before computing it, for a power whose numerator
        and denominator together could exceed MAX_POWER_BITS."""
        inputs = [as_rat(v) for v in point]
        consts, exps = self.consts_exact, self.exps_exact
        gcd = math.gcd
        nums, dens = [], []
        push_num, push_den = nums.append, dens.append
        for op, a, b in self.code:
            if op == OP_MUL:
                n = d = 1
                for j in a:
                    n *= nums[j]
                    d *= dens[j]
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
            elif op == OP_ADD:
                n, d = 0, 1
                for j in a:
                    dj = dens[j]
                    if dj == d:
                        n += nums[j]
                    else:
                        n = n * dj + nums[j] * d
                        d *= dj
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
            elif op == OP_CONST:
                q = consts[a]
                n, d = q.numerator, q.denominator
            elif op == OP_VAR:
                q = inputs[a]
                n, d = q.numerator, q.denominator
            elif op == OP_POW_INT:
                n, d = nums[a], dens[a]
                if abs(b) * (n.bit_length() + d.bit_length()) > MAX_POWER_BITS:
                    raise ValueError(f"integer power ^{b} of a "
                                     f"{n.bit_length() + d.bit_length()}-bit "
                                     f"value too large: beyond "
                                     f"{MAX_POWER_BITS} bits")
                if b >= 0:
                    n, d = n ** b, d ** b
                elif n == 0:
                    raise DivisionByZero("denominator evaluated to zero")
                else:
                    n, d = d ** -b, n ** -b
                    if d < 0:
                        n, d = -n, -d
            else:
                q = _exact_pow_frac(nums[a], dens[a], exps[b])
                n, d = q.numerator, q.denominator
            push_num(n)
            push_den(d)
        out = [Fraction(nums[k], dens[k]) for k in self.outputs]
        return out[0] if self.single else out

    def eval_f64(self, point):
        inputs = [float(x) for x in point]
        return self._result(self._run(inputs, *self._converted(float), 0.0,
                                      1.0, _pow_int, _pow_frac))

    def eval_f64_many(self, points):
        """Evaluate at an (m, nvars) array of points, row by row as
        `eval_f64` does; returns a length-m array per output.

        Raises what `eval_f64` raises, at the first row that raises."""
        consts, exps = self._converted(float)
        rows = [[values[k] for k in self.outputs] for values in (
            self._run(row, consts, exps, 0.0, 1.0, _pow_int, _pow_frac)
            for row in np.asarray(points, dtype=np.float64).tolist())]
        columns = list(np.array(rows, dtype=np.float64)
                       .reshape(len(rows), len(self.outputs)).T.copy())
        return columns[0] if self.single else columns

    def eval_mpf(self, point, with_scale=False):
        """The value at MPF_PREC bits, or the list of values of a sequence
        tape.  With `with_scale`, returns (value, scale): scale() is the
        largest |value| of any node of the tape, used for relative-tolerance
        zero decisions and computed only when called."""
        import mpmath

        with mpmath.workprec(MPF_PREC):
            mpf = mpmath.mpf
            inputs = [_to_mpf(p) if hasattr(p, "numerator") else mpf(p)
                      for p in point]
            values = self._run(inputs, *self._converted(_to_mpf), mpf(0),
                               mpf(1), _pow_int, _pow_frac)
            if not with_scale:
                return self._result(values)

        def scale():
            with mpmath.workprec(MPF_PREC):
                return max((abs(v) for v in values), default=mpf(0))

        return self._result(values), scale


def _to_mpf(q):
    """A rational (or int) as an mpf at the current working precision."""
    import mpmath

    return mpmath.mpf(int(q.numerator)) / int(q.denominator)


# -- the domains' power functions ---------------------------------------------------

def _pow_int(base, e: int):
    """Integer power of a float or an mpf."""
    if base == 0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    try:
        return base ** e
    except OverflowError:
        # an overflowing float power is infinite, as in numpy
        return math.copysign(math.inf, base) if e % 2 else math.inf


def _pow_frac(base, e):
    """Fractional power of a float or an mpf, for e an (exponent, real
    branch sign) pair; on the real branch at a negative base."""
    e, sign = e
    if base < 0:
        if not sign:
            raise DomainError("negative base under an even root")
        return sign * (-base) ** e
    if base == 0 and e < 0:
        raise DivisionByZero("denominator evaluated to zero")
    return base ** e


def _exact_pow_frac(n: int, d: int, e):
    """(n/d)^e for n/d in lowest terms, refused as an integer power is when
    |e| (bits of n + bits of d) exceeds MAX_POWER_BITS."""
    bits = n.bit_length() + d.bit_length()
    if abs(e) * bits > MAX_POWER_BITS:
        raise ValueError(f"fractional power ^({e}) of a {bits}-bit value too "
                         f"large: beyond {MAX_POWER_BITS} bits")
    got = rat_pow_exact(Fraction(n, d), e, MAX_POWER_BITS)
    if got is None:
        raise DomainError("not a perfect rational power; "
                          "use floating evaluation")
    return got


def compile_tape(exprs, var_names) -> Tape:
    """A tape for one Expr, whose evaluations return one value, or for a
    sequence of them, whose evaluations return a list in input order.

    A one-Expr tape is compiled once per expression and chart, kept weakly
    on the expression (`memo`), and shared: compiling it again returns the
    same tape while the expression lives.  A sequence is compiled on every
    call; its first root may be a long-lived node (ZERO, a variable) that
    would keep every other root alive if its tape were kept there."""
    if isinstance(exprs, Expr):
        names = tuple(var_names)
        return memoized(exprs, ("tape", names), lambda: Tape(exprs, names))
    return Tape(exprs, var_names)
