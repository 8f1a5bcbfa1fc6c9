"""The straight-line function a tape generates for its float64 and mpf
evaluations, checked against the interpreter loop it replaced, which is kept
here as the oracle (`interpret`): values bit for bit, the same exception
class at the same power call, long sums and products, deep DAGs, and a
source made of indices and fixed names only."""

import math
import re
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathgeom.errors import DivisionByZero, DomainError
from pathgeom.expr import add, compile_tape, mul, num, pow_, var
from pathgeom.expr.tape import (MPF_PREC, OP_ADD, OP_CONST, OP_MUL,
                                OP_POW_INT, OP_VAR, _pow_frac, _pow_int,
                                _source, _to_mpf)


def interpret(tape, inputs, consts, exps, zero, one, pow_int, pow_frac):
    """The interpreter loop of the float64 and mpf domains before the
    generated function: the value of every node, in tape order."""
    values = []
    push = values.append
    for op, a, b in tape.code:
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


def _bits(v):
    """The exact value of a float (its IEEE bytes, so signed zeros differ)
    or of an mpf (its sign, mantissa, exponent).  Every float nan is one
    value: CPython 3.11 gives nan * nan the payload of either operand,
    depending on whether the multiplication has been specialized yet, so
    the same expression run twice may differ there."""
    if isinstance(v, float):
        return "nan" if math.isnan(v) else struct.pack("<d", v)
    return v._mpf_


def _outputs(tape, values):
    got = [values[k] for k in tape.outputs]
    return got[0] if tape.single else got


def _recorders(log):
    """pow_int and pow_frac that log each call's arguments, then call the
    tape's own."""
    def pow_int(base, e):
        log.append(("int", _bits(base), e))
        return _pow_int(base, e)

    def pow_frac(base, e):
        log.append(("frac", _bits(base), e))
        return _pow_frac(base, e)

    return pow_int, pow_frac


def _outcome(fn):
    """('ok', bits of the value(s)) or ('raised', exception class)."""
    try:
        got = fn()
    except Exception as exc:  # noqa: BLE001 - any class must match
        return ("raised", type(exc))
    if isinstance(got, list):
        return ("ok", [_bits(v) for v in got])
    return ("ok", _bits(got))


# -- random DAGs --------------------------------------------------------------

NAMES = ("x", "y", "z")
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, -8.0, 0.5,
            1e300, -1e-300, 2.0]
floats = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
exponents = st.one_of(
    st.integers(-4, 5),
    # odd and even roots, of both signs
    st.builds(Fraction, st.integers(-7, 7).filter(bool),
              st.sampled_from([2, 3, 4, 5, 6])))


@st.composite
def dags(draw):
    """Expressions over NAMES that share sub-DAGs: each step builds a node
    from earlier ones, and the outputs are a few of the nodes."""
    nodes = [var(n) for n in NAMES[:draw(st.integers(1, 3))]]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["add", "mul", "pow", "const"]))
        if kind == "const":
            nodes.append(num(draw(rationals)))
            continue
        try:
            if kind == "pow":
                base = draw(st.sampled_from(nodes))
                nodes.append(pow_(base, draw(exponents)))
                continue
            args = draw(st.lists(st.sampled_from(nodes), min_size=2,
                                 max_size=5))
            nodes.append((add if kind == "add" else mul)(*args))
        except (DivisionByZero, DomainError):
            pass    # folding constants met 0^-1 or an even root of c < 0
    outputs = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    return outputs[0] if draw(st.booleans()) else outputs


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(dags(), st.lists(floats, min_size=3, max_size=3))
def test_float64_values_and_exceptions_match_the_loop(exprs, point):
    tape = compile_tape(exprs, NAMES)
    consts, exps = tape._converted(float)
    want_log, got_log = [], []
    want = _outcome(lambda: _outputs(tape, interpret(
        tape, point, consts, exps, 0.0, 1.0, *_recorders(want_log))))
    got = _outcome(lambda: tape._function()(
        point, consts, exps, 0.0, 1.0, False, *_recorders(got_log)))
    assert got == want
    # the same power calls, in order, up to the one that raised
    assert got_log == want_log
    assert _outcome(lambda: tape.eval_f64(point)) == want


@_SETTINGS
@given(dags(), st.lists(st.lists(floats, min_size=3, max_size=3),
                        min_size=1, max_size=4))
def test_float64_rows_match_the_loop(exprs, rows):
    tape = compile_tape(exprs, NAMES)
    consts, exps = tape._converted(float)
    want = []
    for row in rows:
        got = _outcome(lambda: _outputs(tape, interpret(
            tape, row, consts, exps, 0.0, 1.0, _pow_int, _pow_frac)))
        if got[0] == "raised":
            # the first row that raises decides
            want = got
            break
        want.append(got[1] if isinstance(got[1], list) else [got[1]])
    try:
        columns = tape.eval_f64_many(np.array(rows))
    except Exception as exc:  # noqa: BLE001 - any class must match
        assert want == ("raised", type(exc))
        return
    columns = [columns] if tape.single else columns
    assert [[_bits(float(c[i])) for c in columns]
            for i in range(len(rows))] == want


@_SETTINGS
@given(dags(), st.lists(st.one_of(floats, rationals), min_size=3, max_size=3),
       st.booleans())
def test_mpf_values_scales_and_exceptions_match_the_loop(exprs, point,
                                                         with_scale):
    tape = compile_tape(exprs, NAMES)
    with mpmath.workprec(MPF_PREC):
        inputs = [_to_mpf(p) if isinstance(p, Fraction) else mpmath.mpf(p)
                  for p in point]
        consts, exps = tape._converted(_to_mpf)
        want_log, got_log = [], []
        values = []

        def loop():
            values.extend(interpret(tape, inputs, consts, exps,
                                    mpmath.mpf(0), mpmath.mpf(1),
                                    *_recorders(want_log)))
            return _outputs(tape, values)

        want = _outcome(loop)
        got = _outcome(lambda: tape._function()(
            inputs, consts, exps, mpmath.mpf(0), mpmath.mpf(1), False,
            *_recorders(got_log)))
        want_scale = max((abs(v) for v in values), default=mpmath.mpf(0))
    assert got == want
    assert got_log == want_log
    if not with_scale:
        assert _outcome(lambda: tape.eval_mpf(point)) == want
        return
    try:
        value, scale = tape.eval_mpf(point, with_scale=True)
    except Exception as exc:  # noqa: BLE001 - any class must match
        assert want == ("raised", type(exc))
        return
    assert _outcome(lambda: value) == want
    assert _bits(scale()) == _bits(want_scale)


def test_signed_zeros_and_roots_of_negative_bases():
    x, y = var("x"), var("y")
    zeros = compile_tape([x + y, x * y], ["x", "y"])
    # -0.0 + -0.0 is -0.0, but a sum starts from +0.0: 0.0 + -0.0 + -0.0
    assert [_bits(v) for v in zeros.eval_f64([-0.0, -0.0])] == \
        [_bits(0.0), _bits(0.0)]
    assert [_bits(v) for v in zeros.eval_f64([-0.0, 2.0])] == \
        [_bits(2.0), _bits(-0.0)]
    roots = compile_tape([pow_(x, Fraction(1, 3)), pow_(x, Fraction(-2, 3)),
                          pow_(x, Fraction(5, 3))], ["x"])
    assert roots.eval_f64([-8.0]) == [-2.0, 0.25, pytest.approx(-32.0)]
    assert [float(v) for v in roots.eval_mpf([-8])] == \
        pytest.approx([-2.0, 0.25, -32.0])
    with pytest.raises(DivisionByZero):
        roots.eval_f64([-0.0])
    with pytest.raises(DomainError):
        compile_tape(pow_(x, Fraction(1, 2)), ["x"]).eval_f64([-4.0])


# -- size and depth -----------------------------------------------------------

def test_a_5000_term_sum_and_a_5000_factor_product_compile_and_evaluate():
    xs = [var(f"x{k}") for k in range(5000)]
    tape = compile_tape([add(*xs), mul(*xs)], [x.name for x in xs])
    point = [2.0 if k % 2 else 0.5 for k in range(5000)]
    assert tape.eval_f64(point) == [6250.0, 1.0]
    consts, exps = tape._converted(float)
    want = interpret(tape, point, consts, exps, 0.0, 1.0, _pow_int, _pow_frac)
    assert tape.eval_f64(point) == [want[k] for k in tape.outputs]
    assert tape.eval_mpf(point) == [6250, 1]
    source = _source(tape.code, tape.outputs, tape.single)
    # 5000 operands in statements of at most 64
    assert sum(line.startswith(f"    v{tape.outputs[0]} = ")
               for line in source.splitlines()) == math.ceil(5000 / 64)


def test_a_dag_1000_levels_deep_evaluates():
    z, p = var("z"), var("p")
    e = z
    for k in range(1000):
        e = mul(z, add(e, 1)) if k % 2 == 0 else add(mul(p, e), z)
    tape = compile_tape(e, ["z", "p"])
    consts, exps = tape._converted(float)
    want = interpret(tape, [0.5, -0.25], consts, exps, 0.0, 1.0, _pow_int,
                     _pow_frac)[tape.outputs[0]]
    assert _bits(tape.eval_f64([0.5, -0.25])) == _bits(want)
    assert tape.eval_mpf([Fraction(1, 2), Fraction(-1, 4)]) != 0


# -- what the source is made of -----------------------------------------------

_STATEMENT = re.compile(
    r"    v\d+ = (?:c\[\d+\]|x\[\d+\]"
    r"|(?:zero|one|v\d+)(?: [+*] v\d+)*"
    r"|pow_int\(v\d+, -?\d+\)|pow_frac\(v\d+, e\[\d+\]\))")


def test_the_source_holds_indices_and_fixed_names_only():
    # variable names and constants that would be code if pasted in
    names = ["__import__('os').system('true')", "x]; y = [0", "1e9", "v0"]
    a, b, c, d = (var(n) for n in names)
    exprs = [a * b + num(Fraction(-7, 3)), pow_(c, Fraction(2, 5)) - d,
             pow_(a + d, -3) * num(10 ** 30)]
    tape = compile_tape(exprs, names)
    source = _source(tape.code, tape.outputs, tape.single)
    lines = source.splitlines()
    assert lines[0] == ("def run(x, c, e, zero, one, full=False, "
                        "pow_int=pow_int, pow_frac=pow_frac):")
    assert lines[-3:-1] == ["    if full:", "        return [" + ", ".join(
        f"v{k}" for k in range(len(tape))) + "]"]
    assert re.fullmatch(r"    return \[v\d+(?:, v\d+)*\]", lines[-1])
    for line in lines[1:-3]:
        assert _STATEMENT.fullmatch(line), line
    for text in names[:3] + ["-7", "/", "100000"]:
        assert text not in source
    assert tape.eval_f64([1.0, 2.0, 32.0, 3.0])[1] == 1.0
