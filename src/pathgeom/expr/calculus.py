"""Differentiation and substitution on expression DAGs.

Derivatives are cached per node per variable, so repeated differentiation of
shared subterms (ubiquitous in the invariant formulas) costs DAG size, not
tree size.
"""

from __future__ import annotations

from .nodes import (Add, Expr, Mul, Pow, Var, ZERO, ONE, add, mul, num,
                    postorder, pow_, var)


def differentiate(e: Expr, v) -> Expr:
    """Partial derivative of e with respect to the named variable.

    Variables other than v are independent; the derivative of anything
    without v among its free variables is 0.
    """
    name = v.name if isinstance(v, Var) else v
    if not isinstance(name, str) or not name:
        raise ValueError(f"bad variable name {name!r}")
    return _diff(e, name)


def _diff(e: Expr, name: str) -> Expr:
    """The derivative by `name`, cached in each node's `_dcache`: one walk
    (`postorder`) finds the nodes that hold the variable and have no cached
    derivative, and each is differentiated after its children, so the depth
    of the DAG is not bounded by recursion."""

    def pending(node):
        return name in node._free and (node._dcache is None
                                       or name not in node._dcache)

    if pending(e):
        for node in postorder((e,), pending):
            if node._dcache is None:
                node._dcache = {}
            node._dcache[name] = _rule(node, name)
    return _known(e, name)


def _known(e: Expr, name: str) -> Expr:
    """The derivative of a node that is cached or holds no `name`."""
    return e._dcache[name] if name in e._free else ZERO


def _rule(e: Expr, name: str) -> Expr:
    """The derivative of e from its children's derivatives."""
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(*[_known(a, name) for a in e.args])
    if isinstance(e, Mul):
        terms = []
        for i, a in enumerate(e.args):
            if name not in a._free:
                continue
            rest = e.args[:i] + e.args[i + 1:]
            terms.append(mul(a._dcache[name], *rest))
        return add(*terms)
    if isinstance(e, Pow):
        return mul(num(e.exponent), pow_(e.base, e.exponent - 1),
                   e.base._dcache[name])
    raise TypeError(f"cannot differentiate {e!r}")


def substitute(e: Expr, bindings) -> Expr:
    """Simultaneous substitution; unbound variables pass through.

    Keys are variable names (or Var nodes); values are expressions or exact
    rationals.  Rebuilding goes through the constructors, so the usual shallow
    simplification applies to the result.  One walk (`postorder`) finds the
    nodes that hold a bound variable, and each is rebuilt after its
    children.
    """
    table = {}
    for k, val in bindings.items():
        k = k.name if isinstance(k, Var) else k
        table[k] = val if isinstance(val, Expr) else num(val)
    names = frozenset(table)

    def bound(node):
        return node._free & names

    if not bound(e):
        return e
    image: dict = {}    # node -> its rebuilt node (nodes hash by identity)
    for node in postorder((e,), bound):
        if isinstance(node, Var):
            out = table.get(node.name, node)
        elif isinstance(node, Add):
            out = add(*[image.get(a, a) for a in node.args])
        elif isinstance(node, Mul):
            out = mul(*[image.get(a, a) for a in node.args])
        elif isinstance(node, Pow):
            out = pow_(image.get(node.base, node.base), node.exponent)
        else:
            raise TypeError(f"cannot substitute into {node!r}")
        image[node] = out
    return image[e]


def rename_variables(e: Expr, mapping) -> Expr:
    """Substitution restricted to variable renaming."""
    return substitute(e, {old: var(new) for old, new in mapping.items()})
