"""Flat evaluation tapes for expression DAGs.

A tape is the DAG in topological order as a list of `(op, a, b)`
instructions, compiled once and evaluated at many points (an operation tape
in the sense of Griewank & Walther, *Evaluating Derivatives*).  A tape
compiled from a sequence of expressions runs the union of their DAGs, each
shared node once, and returns a list with one value per expression.  There
are three number domains.  The exact domain has its own loop, on int
numerator/denominator pairs that are reduced only where it pays
(`Tape.eval_exact`).  The other two run one Python function generated from
the tape (`_source`): one statement per node, with no dispatch on the
instruction, compiled on the tape's first float64 or mpf evaluation and
kept on the tape.  The domain supplies the constants, the point, and its
zero and one.  The float64 and mpf domains differ only in their number
type: they share one conversion of the constants and fractional exponents
(`Tape._converted`) and one pair of power functions (`_pow_int`,
`_pow_frac`), written with `**`:

  * exact   -- rationals, held as int pairs and returned as Fractions; a
               fractional power must come out rational (`rat_pow_exact`)
  * mpf     -- mpmath floats at MPF_PREC bits, used for radicals
  * float64 -- Python floats; `eval_f64` takes one point, `eval_f64_many`
               runs the same function over the rows of an array, so each
               row's values equal `eval_f64`'s bit for bit

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
NORMALIZE_BITS = 1024   # an exact sum or product is reduced beyond this
_CHUNK = 64             # operands per statement of a long sum or product


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
    (`compile_tape`).  The states a tape changes after compiling are filled
    in on first use: `_converted`'s cache of numeric constants and the
    generated function of `_function`.  Two threads may both fill one in,
    and either's equal value may be kept.
    """

    __slots__ = ("var_names", "code", "outputs", "single", "consts_exact",
                 "exps_exact", "_numeric", "_fn")

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
        self._fn = None      # the generated function, on first use

    def __len__(self):
        return len(self.code)

    def _function(self):
        """The tape's straight-line function (`_source`), generated and
        compiled on first use."""
        fn = self._fn
        if fn is None:
            namespace = {"pow_int": _pow_int, "pow_frac": _pow_frac}
            exec(compile(_source(self.code, self.outputs, self.single),
                         "<tape>", "exec"), namespace)
            fn = self._fn = namespace["run"]
        return fn

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
        """The exact value at a point, as rationals (Fraction), also where
        an int point meets a negative power.  A coordinate is an int, a
        rational, or an int pair (n, d) with d > 0 for n/d, in lowest terms
        or not (`sampling.draw_pairs`).

        Node k is the int pair nums[k] / dens[k] with dens[k] > 0, not
        reduced: a sum or a product divides out its gcd only when its
        denominator has more than NORMALIZE_BITS bits, which bounds the
        growth of common factors, and a Fraction (in lowest terms) is built
        only for the outputs.  The base of a power is reduced first, so a
        power sees its value in lowest terms.

        Raises ValueError, before computing it, for a power whose numerator
        and denominator together could exceed MAX_POWER_BITS."""
        inputs = [_exact_input(v) for v in point]
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
                if d.bit_length() > NORMALIZE_BITS:
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
                if d.bit_length() > NORMALIZE_BITS:
                    g = gcd(n, d)
                    if g != 1:
                        n //= g
                        d //= g
            elif op == OP_CONST:
                q = consts[a]
                n, d = q.numerator, q.denominator
            elif op == OP_VAR:
                n, d = inputs[a]
            else:
                n, d = nums[a], dens[a]
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
                if op == OP_POW_FRAC:
                    q = _exact_pow_frac(n, d, exps[b])
                    n, d = q.numerator, q.denominator
                elif abs(b) * (n.bit_length() + d.bit_length()) \
                        > MAX_POWER_BITS:
                    raise ValueError(f"integer power ^{b} of a "
                                     f"{n.bit_length() + d.bit_length()}-bit "
                                     f"value too large: beyond "
                                     f"{MAX_POWER_BITS} bits")
                elif b >= 0:
                    n, d = n ** b, d ** b
                elif n == 0:
                    raise DivisionByZero("denominator evaluated to zero")
                else:
                    n, d = d ** -b, n ** -b
                    if d < 0:
                        n, d = -n, -d
            push_num(n)
            push_den(d)
        out = [Fraction(nums[k], dens[k]) for k in self.outputs]
        return out[0] if self.single else out

    def eval_f64(self, point):
        consts, exps = self._converted(float)
        return self._function()([float(x) for x in point], consts, exps,
                                0.0, 1.0)

    def eval_f64_many(self, points):
        """Evaluate at an (m, nvars) array of points, row by row as
        `eval_f64` does; returns a length-m array per output.

        Raises what `eval_f64` raises, at the first row that raises."""
        consts, exps = self._converted(float)
        fn = self._function()
        rows = [fn(row, consts, exps, 0.0, 1.0)
                for row in np.asarray(points, dtype=np.float64).tolist()]
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
            consts, exps = self._converted(_to_mpf)
            run = self._function()
            if not with_scale:
                return run(inputs, consts, exps, mpf(0), mpf(1))
            values = run(inputs, consts, exps, mpf(0), mpf(1), True)

        def scale():
            with mpmath.workprec(MPF_PREC):
                return max((abs(v) for v in values), default=mpf(0))

        if self.single:
            return values[self.outputs[0]], scale
        return [values[k] for k in self.outputs], scale


def _exact_input(v):
    """A coordinate of an exact point as an int pair (n, d) with d > 0."""
    if type(v) is tuple:
        n, d = v
        if type(n) is not int or type(d) is not int or d <= 0:
            raise TypeError(f"not an int pair (n, d) with d > 0: {v!r}")
        return v
    q = as_rat(v)
    return q.numerator, q.denominator


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


def _source(code, outputs, single):
    """The source of run(x, c, e, zero, one, full=False, pow_int=_pow_int,
    pow_frac=_pow_frac), which does what an interpreter loop over the
    instructions would: node k is the local v<k>, computed by one statement
    from the point x, the constants c, the fractional exponents e and the
    nodes before it.  It returns the output value of a one-expression tape
    (`single`), else the list of them; with `full`, the list of every
    node's value, in tape order.

    A sum is zero + v<i> + v<j> ... and a product one * v<i> * v<j> ..., in
    the order of the node's children, so every value, signed zeros
    included, is the one the same operations in that order give; a node of
    more than _CHUNK operands takes one statement per _CHUNK of them, which
    keeps every statement shallow enough to compile.  Powers call pow_int
    and pow_frac, the only calls that raise, in node order.  The source
    holds node, slot and exponent indices, integer exponents and fixed
    names only; nothing of an expression's text."""
    lines = ["def run(x, c, e, zero, one, full=False, "
             "pow_int=pow_int, pow_frac=pow_frac):"]
    push = lines.append
    for k, (op, a, b) in enumerate(code):
        if op == OP_ADD or op == OP_MUL:
            acc, sign = ("zero", " + ") if op == OP_ADD else ("one", " * ")
            for lo in range(0, max(len(a), 1), _CHUNK):
                terms = "".join(f"{sign}v{j:d}" for j in a[lo:lo + _CHUNK])
                push(f"    v{k} = {acc}{terms}")
                acc = f"v{k}"
        elif op == OP_CONST:
            push(f"    v{k} = c[{a:d}]")
        elif op == OP_VAR:
            push(f"    v{k} = x[{a:d}]")
        elif op == OP_POW_INT:
            push(f"    v{k} = pow_int(v{a:d}, {b:d})")
        else:
            push(f"    v{k} = pow_frac(v{a:d}, e[{b:d}])")
    every = ", ".join(f"v{k}" for k in range(len(code)))
    push(f"    if full:\n        return [{every}]")
    if single:
        push(f"    return v{outputs[0]:d}")
    else:
        push(f"    return [{', '.join(f'v{k:d}' for k in outputs)}]")
    return "\n".join(lines) + "\n"


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
