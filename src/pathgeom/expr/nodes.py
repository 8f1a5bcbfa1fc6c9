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
and as `Fraction` otherwise (`_canon`); a key holds the int, or a
Fraction's numerator and denominator, so every key hashes and compares at C
speed, and both forms of one rational are the same key.  Each node type has
one module-level builder, which `_intern` calls only on a miss.

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
_NO_NAMES = frozenset()
_PENDING = object()     # a node's degree data before its first use


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
        """Upper bound on the total degree of numerator and denominator
        (`_degree_data`), with a fractional power v^(j/k) of a variable
        counted as degree j/k (so k times it bounds the degree in s at
        v = s^k); None when a fractional power has another base."""
        data = _degree_data(self)
        return data[0] + data[2] if type(data) is tuple else data

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


def _intern(key, build, *args):
    """The node under `key`, made by build(*args) when there is none."""
    ref = _TABLE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _LOCK:
        ref = _TABLE.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = build(*args)
            node._dcache = None
            node._degree = _PENDING
            _TABLE[key] = weakref.KeyedRef(node, _forget, key)
        return node


def _build_num(q):
    node = Num.__new__(Num)
    node.value = q
    node._free = _NO_NAMES
    node._radical = False
    return node


def _build_var(name):
    node = Var.__new__(Var)
    node.name = name
    node._free = frozenset((name,))
    node._radical = False
    return node


def _build_add(args):
    node = Add.__new__(Add)
    node.args = args
    node._free = _NO_NAMES.union(*(a._free for a in args))
    node._radical = any(a._radical for a in args)
    return node


def _build_mul(args):
    node = Mul.__new__(Mul)
    node.args = args
    node._free = _NO_NAMES.union(*(a._free for a in args))
    node._radical = any(a._radical for a in args)
    return node


def _build_pow(base, exponent):
    node = Pow.__new__(Pow)
    node.base = base
    node.exponent = exponent
    node._free = base._free
    node._radical = base._radical or type(exponent) is not int
    return node


def num(value) -> Expr:
    """Exact rational constant (int, Fraction or exact decimal string)."""
    q = _canon(value)
    # a Fraction is keyed by its ints: Fraction.__hash__ runs in Python
    key = ("n", q) if type(q) is int else ("n", q.numerator, q.denominator)
    return _intern(key, _build_num, q)


def var(name: str) -> Expr:
    if not name or not isinstance(name, str):
        raise ValueError(f"bad variable name {name!r}")
    return _intern(("v", name), _build_var, name)


def variables(names) -> tuple:
    """Convenience: 'x y z' or an iterable of names -> tuple of Var nodes."""
    if isinstance(names, str):
        names = names.split()
    return tuple(var(n) for n in names)


ZERO = num(0)
ONE = num(1)


def _split_coefficient(term):
    """term -> (rational coefficient, non-numeric core)."""
    if isinstance(term, Mul) and isinstance(term.args[0], Num):
        rest = term.args[1:]
        core = rest[0] if len(rest) == 1 else _raw_mul(rest)
        return term.args[0].value, core
    return 1, term


def _raw_add(args):
    return _intern(("a", args), _build_add, args)


def _raw_mul(args):
    return _intern(("m", args), _build_mul, args)


def _raw_pow(base, exponent):
    key = (("p", base, exponent) if type(exponent) is int
           else ("p", base, exponent.numerator, exponent.denominator))
    return _intern(key, _build_pow, base, exponent)


def add(*terms) -> Expr:
    """Flattening sum; folds constants and collects like terms."""
    const = 0
    coeffs: dict = {}   # core -> coefficient, in order of first appearance
    stack = [_coerce(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.args))
        elif isinstance(t, Num):
            const += t.value
        else:
            c, core = _split_coefficient(t)
            coeffs[core] = coeffs.get(core, 0) + c
    out = []
    for core, c in coeffs.items():
        if c == 0:
            continue
        if c == 1:
            out.append(core)
        else:
            # core is a canonical non-constant term, so c*core is already
            # the product `mul(num(c), core)` would build
            out.append(_raw_mul((num(c),) + core.args if isinstance(core, Mul)
                                else (num(c), core)))
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
    exps: dict = {}     # base -> exponent, in order of first appearance
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
            exps[base] = exps.get(base, 0) + e
    if coeff is None:
        coeff = 1
    elif coeff == 0:
        return ZERO
    out = []
    reflatten = False
    for base, e in exps.items():
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


def _children(node):
    if isinstance(node, (Add, Mul)):
        return node.args
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def postorder(roots, follow=None) -> list:
    """The distinct nodes of the DAGs under `roots`, each after its
    children (a topological order), found by one iterative depth-first walk
    that enters children left to right, as a recursive walk would.  With
    `follow`, the walk enters only the children for which follow(child) is
    true."""
    order, seen = [], set()
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(_children(root)))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if id(child) in seen or not (follow is None or follow(child)):
                    continue
                seen.add(id(child))
                grandchildren = _children(child)
                if grandchildren:
                    stack.append((child, iter(grandchildren)))
                    break
                order.append(child)     # a leaf is done at once
            else:
                stack.pop()
                order.append(node)
    return order


# -- degree bounds -----------------------------------------------------------------

def _degree_data(e: Expr):
    """The degree data of e: None when a fractional power of e has a base
    other than a variable; a number n when e is a polynomial of degree at
    most n; else (n, den, dd), for e = P / Q with deg P <= n and Q the
    product of B_b^k over the items b: k of `den`, where B_b is the
    numerator of the base node b (of degree `_numerator_degree(b)`), so
    deg Q <= dd, the sum of k deg B_b.  Each node's data is computed once,
    after its children's (`postorder`), and cached in its `_degree`, as
    `_dcache` holds derivatives.

    A product multiplies the numerators and the denominators; a sum puts
    its terms over the lcm L of their denominators, the largest exponent
    of each base, so its numerator has degree at most the largest
    n_i + deg L - dd_i; b^k with k > 0 raises both to the k-th power, and
    b^-k swaps them, with den {b: k}.  A fractional power v^e of a variable
    v is a monomial of degree e, or for e < 0 has den {v: -e}: at v = s^K,
    with K a multiple of e's denominator, it is s^(K e), so K times the
    bound bounds the degree in s (Schwartz, JACM 27, 1980, at the
    pulled-back point)."""
    if e._degree is _PENDING:
        for node in postorder((e,), lambda n: n._degree is _PENDING):
            node._degree = _degree_rule(node)
    return e._degree


def _numerator_degree(b: Expr):
    data = b._degree
    return data[0] if type(data) is tuple else data


def _degree_rule(e: Expr):
    """The degree data of e from its children's (`_degree_data`)."""
    kind = type(e)
    if kind is Mul or kind is Add:
        # n: the sum, or for a sum the largest, of the polynomial parts
        product = kind is Mul
        n = 0 if product else None
        fracs = []
        for a in e.args:
            data = a._degree
            if type(data) is tuple:
                fracs.append(data)
            elif data is None:
                return None
            elif product:
                n += data
            elif n is None or data > n:
                n = data
        if not fracs:
            return n
        if product:
            dd = 0
            for fn, _, fdd in fracs:
                n += fn
                dd += fdd
            if len(fracs) == 1:
                return n, fracs[0][1], dd
            den = {}
            for _, d, _ in fracs:
                for b, j in d.items():
                    den[b] = den.get(b, 0) + j
            return n, den, dd
        lcm = dict(fracs[0][1])
        for _, d, _ in fracs[1:]:
            for b, j in d.items():
                if j > lcm.get(b, 0):
                    lcm[b] = j
        dl = sum([j * _numerator_degree(b) for b, j in lcm.items()])
        tops = [fn - fdd for fn, _, fdd in fracs]
        if n is not None:
            tops.append(n)
        return max(tops) + dl, lcm, dl
    if kind is Pow:
        base, k = e.base, e.exponent
        if type(k) is not int:
            if type(base) is not Var:
                return None
            return k if k > 0 else (0, {base: -k}, -k)
        data = base._degree
        if data is None:
            return None
        if type(data) is not tuple:
            return data * k if k > 0 else (0, {base: -k}, -k * data)
        n, den, dd = data
        if k > 0:
            return n * k, {b: j * k for b, j in den.items()}, dd * k
        return -k * dd, {base: -k}, -k * n
    return 1 if kind is Var else 0


def node_count(e: Expr) -> int:
    """Number of distinct nodes in the DAG."""
    return len(postorder((e,)))


# -- printing ----------------------------------------------------------------
# Output is valid DSL syntax; parsing it back reproduces the same node.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _rat_text(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _slot(texts, node, context):
    """A node's text, parenthesised in a slot of precedence `context`."""
    text, prec = texts[node]
    return f"({text})" if prec < context else text


def _pow_text(texts, base, e) -> str:
    etext = _rat_text(e) if (type(e) is int and e > 0) else f"({_rat_text(e)})"
    return f"{_slot(texts, base, _PREC_ATOM)}^{etext}"


def _factor_text(texts, f) -> str:
    """A factor of a product or a denominator; a power prints as b^e."""
    if isinstance(f, Pow):
        return _pow_text(texts, f.base, f.exponent)
    return _slot(texts, f, _PREC_POW)


def _denominator_text(texts, f) -> str:
    """The denominator b^k of a negative power f = b^-k (b when k = 1)."""
    inv = -f.exponent
    if inv == 1:
        return _factor_text(texts, f.base)
    return _pow_text(texts, f.base, inv)


def _node_text(e, texts):
    """(text, precedence) of a node, from the texts of its descendants."""
    if isinstance(e, Num):
        q = e.value
        text = _rat_text(q)
        if q < 0:
            return text, _PREC_NEG
        if q.denominator != 1:
            return text, _PREC_MUL
        return text, _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Pow):
        if e.exponent < 0:
            return f"1/{_denominator_text(texts, e)}", _PREC_MUL
        return _pow_text(texts, e.base, e.exponent), _PREC_POW
    if isinstance(e, Mul):
        # factors keep their stored order so printing reparses to this node
        coeff = 1
        args = e.args
        if isinstance(args[0], Num):
            coeff, args = args[0].value, args[1:]
        parts = [("/", _denominator_text(texts, f))
                 if isinstance(f, Pow) and f.exponent < 0
                 else ("*", _factor_text(texts, f)) for f in args]
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
            return sign + text, _PREC_NEG
        return text, _PREC_MUL
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.args):
            ttext = _slot(texts, t, _PREC_ADD)
            if i == 0:
                parts.append(ttext)
            elif ttext.startswith("-"):
                parts.append(f" - {ttext[1:]}")
            else:
                parts.append(f" + {ttext}")
        return "".join(parts), _PREC_ADD
    raise TypeError(f"not an Expr: {e!r}")


def to_text(e: Expr, limit=None) -> str:
    """The text of e: each node's text is built once, after its children's
    (`postorder`), so the depth of the DAG is not bounded by recursion.

    With `limit`, the first limit + 1 characters of that text: each node
    keeps only the first limit + 1 characters of its own.  That is exact,
    because a node's text joins its children's texts with fixed strings in
    between, and an Add drops no more than one leading "-" of a term, so
    the cut falls beyond limit + 1 characters of the parent's text."""
    texts = {}
    for node in postorder((e,)):
        text, prec = _node_text(node, texts)
        texts[node] = (text if limit is None else text[:limit + 1]), prec
    return texts[e][0]
