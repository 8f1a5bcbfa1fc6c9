"""Immutable symbolic expressions over named variables with exact rational
constants, n-ary sums/products, and rational powers.

Nodes are hash-consed: structurally equal expressions are the same object
(Filliatre & Conchon, "Type-safe modular hash-consing", ML Workshop 2006), so
every tree is really a DAG with shared subterms, and equality and hashing are
`object`'s own identity comparison and identity hash, which run in C.  The
intern table is a plain dict from a node's structural key to a keyed weak
reference: one dict lookup and one weak-reference call find a node, and a
node that nothing else holds is dropped, its entry removed atomically
(`_remove_dead_weakref`) so that a key re-interned meanwhile keeps its node.

A constant's value and a power's exponent are held as `int` when integral
and as `Fraction` otherwise (`_canon`), so the common integral case hashes
and compares at C speed; both forms of one rational are the same key.

Simplification is deliberately shallow -- constant folding, flattening,
like-term collection, and power-law merging -- because semantic equality
downstream is settled by randomized identity testing, not by canonical forms.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref

from ..errors import DivisionByZero
from .rational import Rat, as_rat, rat_pow_exact, real_branch_sign

# structural key -> weakref.KeyedRef to the node
_TABLE: dict = {}
_LOCK = threading.Lock()


class Expr:
    """Base node. Instances are interned; do not construct subclasses directly,
    use num/var/add/mul/pow_ and the arithmetic operators."""

    __slots__ = ("_free", "_radical", "_degree", "_dcache", "__weakref__")

    @property
    def free_variables(self) -> frozenset:
        return self._free

    @property
    def has_radical(self) -> bool:
        """True if any power in the tree has a non-integer exponent."""
        return self._radical

    @property
    def degree_bound(self):
        """Upper bound on the total degree of numerator and denominator,
        or None when a radical makes the degree undefined."""
        return self._degree

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return to_text(self)


class Num(Expr):
    __slots__ = ("value",)


class Var(Expr):
    __slots__ = ("name",)


class Add(Expr):
    __slots__ = ("args",)


class Mul(Expr):
    __slots__ = ("args",)


class Pow(Expr):
    __slots__ = ("base", "exponent")


def _coerce(value):
    if isinstance(value, Expr):
        return value
    return num(value)


def _canon(value):
    """An exact rational as an int when integral, else as a Fraction."""
    if type(value) is int:
        return value
    q = as_rat(value)
    return q.numerator if q.denominator == 1 else q


def _forget(ref, _remove=_remove_dead_weakref, _table=_TABLE):
    # deletes the entry only while it still holds this dead reference
    _remove(_table, ref.key)


def _intern(key, build):
    ref = _TABLE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _LOCK:
        ref = _TABLE.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = build()
            node._dcache = None
            _TABLE[key] = weakref.KeyedRef(node, _forget, key)
        return node


def num(value) -> Expr:
    """Exact rational constant (int, Fraction or exact decimal string)."""
    q = _canon(value)
    key = ("n", q)

    def build():
        node = Num.__new__(Num)
        node.value = q
        node._free = frozenset()
        node._radical = False
        node._degree = 0
        return node

    return _intern(key, build)


def var(name: str) -> Expr:
    if not name or not isinstance(name, str):
        raise ValueError(f"bad variable name {name!r}")
    key = ("v", name)

    def build():
        node = Var.__new__(Var)
        node.name = name
        node._free = frozenset((name,))
        node._radical = False
        node._degree = 1
        return node

    return _intern(key, build)


def variables(names) -> tuple:
    """Convenience: 'x y z' or an iterable of names -> tuple of Var nodes."""
    if isinstance(names, str):
        names = names.split()
    return tuple(var(n) for n in names)


ZERO = num(0)
ONE = num(1)


def _degree_sum(parts):
    total = 0
    for p in parts:
        if p._degree is None:
            return None
        total += p._degree
    return total


def _split_coefficient(term):
    """term -> (rational coefficient, non-numeric core)."""
    if isinstance(term, Mul) and isinstance(term.args[0], Num):
        rest = term.args[1:]
        core = rest[0] if len(rest) == 1 else _raw_mul(rest)
        return term.args[0].value, core
    return 1, term


def _raw_add(args):
    key = ("a", args)

    def build():
        node = Add.__new__(Add)
        node.args = args
        node._free = frozenset().union(*(a._free for a in args))
        node._radical = any(a._radical for a in args)
        degs = [a._degree for a in args]
        node._degree = None if any(d is None for d in degs) else max(degs)
        return node

    return _intern(key, build)


def _raw_mul(args):
    key = ("m", args)

    def build():
        node = Mul.__new__(Mul)
        node.args = args
        node._free = frozenset().union(*(a._free for a in args))
        node._radical = any(a._radical for a in args)
        node._degree = _degree_sum(args)
        return node

    return _intern(key, build)


def _raw_pow(base, exponent):
    key = ("p", base, exponent)

    def build():
        node = Pow.__new__(Pow)
        node.base = base
        node.exponent = exponent
        node._free = base._free
        integral = type(exponent) is int
        node._radical = base._radical or not integral
        if base._degree is None or not integral:
            node._degree = None
        else:
            node._degree = base._degree * abs(exponent)
        return node

    return _intern(key, build)


def add(*terms) -> Expr:
    """Flattening sum; folds constants and collects like terms."""
    const = 0
    coeffs: dict = {}
    order: list = []
    stack = [_coerce(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.args))
        elif isinstance(t, Num):
            const += t.value
        else:
            c, core = _split_coefficient(t)
            if core in coeffs:
                coeffs[core] += c
            else:
                coeffs[core] = c
                order.append(core)
    out = []
    for core in order:
        c = coeffs[core]
        if c == 0:
            continue
        out.append(core if c == 1 else mul(num(c), core))
    if const != 0:
        out.append(num(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _raw_add(tuple(out))


def mul(*factors) -> Expr:
    """Flattening product; folds constants and merges powers of equal bases."""
    coeff = None
    exps: dict = {}
    order: list = []
    stack = [_coerce(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.args))
        elif isinstance(f, Num):
            coeff = f.value if coeff is None else coeff * f.value
        else:
            if isinstance(f, Pow):
                base, e = f.base, f.exponent
            else:
                base, e = f, 1
            if base in exps:
                exps[base] += e
            else:
                exps[base] = e
                order.append(base)
    if coeff is None:
        coeff = 1
    elif coeff == 0:
        return ZERO
    out = []
    reflatten = False
    for base in order:
        e = exps[base]
        if e == 0:
            continue
        piece = base if e == 1 else pow_(base, e)
        if isinstance(piece, Num):
            coeff *= piece.value
        else:
            reflatten = reflatten or isinstance(piece, Mul)
            out.append(piece)
    if coeff == 0:
        return ZERO
    if reflatten:
        # power merging produced a product (e.g. (2x)^2 -> 4x^2): re-flatten
        return mul(num(coeff), *out)
    if not out:
        return num(coeff)
    if coeff != 1:
        out.insert(0, num(coeff))
    if len(out) == 1:
        return out[0]
    return _raw_mul(tuple(out))


def pow_(base, exponent) -> Expr:
    """base raised to an exact rational exponent (the exponent is data,
    not a sub-expression)."""
    base = _coerce(base)
    e = _canon(exponent)
    integral = type(e) is int
    if integral:
        if e == 0:
            return ONE
        if e == 1:
            return base
    if isinstance(base, Num):
        folded = rat_pow_exact(base.value, e)
        if folded is not None:
            return num(folded)
        if base.value < 0:
            # odd root of a negative rational (even roots raise above):
            # take the real branch with the sign pulled out front
            return mul(num(real_branch_sign(e)), _raw_pow(num(-base.value), e))
        return _raw_pow(base, e)  # symbolic radical constant, e.g. 2^(1/2)
    if isinstance(base, Pow):
        # (b^a)^e -> b^(a e): sound for integer e, and for non-integer a
        # (where the real domain already forces b >= 0)
        if integral or type(base.exponent) is not int:
            return pow_(base.base, base.exponent * e)
    if isinstance(base, Mul) and isinstance(base.args[0], Num) and integral:
        # (c*x)^n -> c^n * x^n keeps constants out front
        c = rat_pow_exact(base.args[0].value, e)
        rest = base.args[1:]
        core = rest[0] if len(rest) == 1 else _raw_mul(rest)
        return mul(num(c), _raw_pow(core, e) if not isinstance(core, Pow)
                   else pow_(core, e))
    return _raw_pow(base, e)


def neg(e) -> Expr:
    return mul(num(-1), _coerce(e))


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(a, b) -> Expr:
    """Quotient, stored as a product with a negative power; a/a is 1, as
    `mul` already cancels x*x^-1."""
    b = _coerce(b)
    if isinstance(b, Num) and b.value == 0:
        raise DivisionByZero("division by the zero constant")
    a = _coerce(a)
    if a is b:
        return ONE
    return mul(a, pow_(b, -1))


def sqrt_(e) -> Expr:
    return pow_(e, Rat(1, 2))


def node_count(e: Expr) -> int:
    """Number of distinct nodes in the DAG."""
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, (Add, Mul)):
            stack.extend(n.args)
        elif isinstance(n, Pow):
            stack.append(n.base)
    return len(seen)


# -- printing ----------------------------------------------------------------
# Output is valid DSL syntax; parsing it back reproduces the same node.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _rat_text(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _wrap(text, prec, context):
    return f"({text})" if prec < context else text


def _pow_text(base, e, context):
    btext = _text(base, _PREC_ATOM)
    etext = _rat_text(e) if (type(e) is int and e > 0) else f"({_rat_text(e)})"
    return _wrap(f"{btext}^{etext}", _PREC_POW, context)


def _factor_text(f, context):
    if isinstance(f, Pow):
        return _pow_text(f.base, f.exponent, context)
    return _text(f, context)


def _text(e, context=0) -> str:
    if isinstance(e, Num):
        q = e.value
        text = _rat_text(q)
        if q < 0:
            return _wrap(text, _PREC_NEG, context)
        if q.denominator != 1:
            return _wrap(text, _PREC_MUL, context)
        return text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Pow):
        if e.exponent < 0:
            den = _factor_text(_raw_pow(e.base, -e.exponent) if -e.exponent != 1 else e.base,
                               _PREC_POW)
            return _wrap(f"1/{den}", _PREC_MUL, context)
        return _pow_text(e.base, e.exponent, context)
    if isinstance(e, Mul):
        # factors keep their stored order so printing reparses to this node
        coeff = 1
        args = e.args
        if isinstance(args[0], Num):
            coeff, args = args[0].value, args[1:]
        parts = []
        for f in args:
            if isinstance(f, Pow) and f.exponent < 0:
                inv = -f.exponent
                base = f.base if inv == 1 else _raw_pow(f.base, inv)
                parts.append(("/", _factor_text(base, _PREC_POW)))
            else:
                parts.append(("*", _factor_text(f, _PREC_POW)))
        sign = ""
        if coeff < 0:
            sign, coeff = "-", -coeff
        if coeff != 1 or not parts or parts[0][0] == "/":
            text = _rat_text(coeff) if coeff.denominator == 1 \
                else f"({_rat_text(coeff)})"
        else:
            text = parts[0][1]
            parts = parts[1:]
        for op, sub_text in parts:
            text += op + sub_text
        if sign:
            return _wrap(sign + text, _PREC_NEG, context)
        return _wrap(text, _PREC_MUL, context)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.args):
            ttext = _text(t, _PREC_ADD)
            if i == 0:
                parts.append(ttext)
            elif ttext.startswith("-"):
                parts.append(f" - {ttext[1:]}")
            else:
                parts.append(f" + {ttext}")
        return _wrap("".join(parts), _PREC_ADD, context)
    raise TypeError(f"not an Expr: {e!r}")


def to_text(e: Expr) -> str:
    return _text(e, 0)
