"""Derivations computed once per object: memo tables (Michie, "Memo
functions and machine learning", Nature 218, 1968) keyed weakly by the
immutable objects the derivations depend on.

`memoized(obj, key, compute)` keeps compute()'s value in a table of `obj`
under `key`, for as long as `obj` lives; the table is dropped when `obj`
is.  A key names the derivation and anything else the value depends on
(the chart of a tape, say).  Objects are keyed by their own equality and
hash: an interned `Expr` by identity, a `ScalarODE`, a `PairODE` or a
`SolutionFunction` by its interned expressions and chart, a
`CoframeMetric` by its chart, structure and 1-forms (each by its
coefficients), so two equal objects share their entries.

A value must hold no strong reference to the object it is kept on:
otherwise the object stays alive through its own table and is never
dropped.  Only symbolic derivations and their compiled tapes are kept;
nothing sampled or evaluated is.  The tables are unbounded, and weak: they
hold exactly what is derived from live objects.
"""

from __future__ import annotations

import weakref

# object -> {key: value}
_TABLES = weakref.WeakKeyDictionary()
_MISSING = object()


def memoized(obj, key, compute):
    """compute(), kept on `obj` under `key` while `obj` lives.

    Threads that miss together each compute, and all of them return the
    value stored first."""
    table = _TABLES.get(obj)
    if table is None:
        table = _TABLES.setdefault(obj, {})
    value = table.get(key, _MISSING)
    if value is _MISSING:
        value = table.setdefault(key, compute())
    return value
