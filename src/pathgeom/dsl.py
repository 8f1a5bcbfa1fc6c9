"""Text format for problem definitions (.pg files).

    scalar_ode flat { vars t z p; F = 0; }
    pair_ode cr_sphere {
      vars x y p Y P;
      F1 = ((Y^2+1)^2)/(Y*x+P-y);
      F2 = ((Y^2+1)*(P*Y-y*Y-x))/(Y*x+P-y);
    }
    coframe cf { vars y p Y P; eta 1 = d Y; eta 2 = dP;
                 eta 3 = 2*dy/3; eta 4 = (Y-p)^2*d p; }

Numeric literals are exact rationals (integers, fractions 3/4, and decimal
literals converted exactly); a literal beyond Python's limit on the digits
of an int conversion (4,300 by default) is a DslSyntaxError at its token;
sqrt(e) is sugar for e^(1/2); '#' starts a line
comment; no implicit multiplication.  Operator precedence: ^ binds tighter
than unary minus, then * and /, then + and -; ^ is right-associative and its
exponent must fold to an exact rational below 2^31 in absolute value (the
tape compiles no larger integer power).  A constant that folds to no value
(1/0, 0^(-2), (-4)^(1/2)), or to a numerator or denominator beyond
2^MAX_FOLD_BITS (3^2000000000, (3*p)^2000000000, 10^2000*10^2000*p), is a
DslSyntaxError at its operator.  An expression nested more than MAX_NESTING
levels deep (parentheses, unary minus signs, exponents) is a DslSyntaxError
at the first token of the level beyond the bound.

A declaration is checked as it is parsed, with DslSyntaxErrors at their
token: a chart of the wrong size at 'vars' (a coframe takes 4 variables), a
repeated chart variable where it repeats, a structure other than 'para' or
'complex' at its value, an eta index other than 1, 2, 3 or 4 or one
declared twice at the index, and a missing eta at the closing brace.  A
variable outside the chart is an UnknownVariable at its first token in the
expression that holds it, and a repeated declaration name is a DuplicateName
at the repeat; both carry the line and column too.  A coframe parses to a CoframeMetric.

A coframe's eta is a one-form, parsed by the expression grammar above: for a
chart variable x, 'd x' and 'dx' read as a differential variable (named
"d x", which no identifier spells), and the form must be linear in the
differentials.  The coefficient of dx is the derivative by that variable.
A coefficient that still holds a differential, or a term without one, is a
DslSyntaxError at the form's first token.  One table (`_DECLARATIONS`) gives
each kind's class, chart size and labelled fields, for both `parse` and
`serialize`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import (DivisionByZero, DomainError, DslSyntaxError,
                     DuplicateName, UnknownVariable)
from .expr import (ZERO, Expr, Mul, Num, add, differentiate, div, mul, neg,
                   num, pow_, sqrt_, sub, substitute, to_text, var)
from .expr.rational import MAX_FOLD_BITS
from .expr.tape import MAX_INT_EXPONENT
from .forms import DifferentialForm, one_form
from .jets import PairODE, ScalarODE
from .metrics import STRUCTURES, CoframeMetric

_FOLD_LIMIT = 1 << MAX_FOLD_BITS   # largest numerator or denominator folded

# kind -> (class, chart size, ((label, attribute), ...)); a coframe's body
# (structure and eta lines) has its own parser and printer
_DECLARATIONS = {
    "scalar_ode": (ScalarODE, 3, (("F", "rhs"),)),
    "pair_ode": (PairODE, 5, (("F1", "rhs1"), ("F2", "rhs2"))),
    "coframe": (CoframeMetric, 4, None),
}
KINDS = tuple(_DECLARATIONS)

# deepest nesting of parentheses, unary minus signs and exponents in one
# expression: the parser recurses five frames per level, so the bound keeps
# it within Python's recursion limit (the kernel's walks use explicit stacks)
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{};=()^*/+\-])
  | (?P<bad>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str       # 'number' | 'ident' | 'punct' | 'eof'
    text: str
    line: int
    column: int


def _lex(text: str):
    """The tokens of `text`, found by one scan of the token pattern; a
    column counts from the start of its line."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + m.group().rfind("\n") + 1
        elif kind == "bad":
            raise DslSyntaxError(f"unexpected character {m.group()!r}", line,
                                 m.start() - line_start + 1)
        elif kind != "comment":
            tokens.append(Token(kind, m.group(), line,
                                m.start() - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class Document:
    """Ordered named declarations; equality compares the declarations only
    (the original source text is kept for fingerprinting)."""

    __slots__ = ("decls", "source", "_by_name")

    def __init__(self, decls, source=""):
        self.decls = list(decls)
        self.source = source
        self._by_name = {name: obj for _, name, obj in self.decls}

    def __eq__(self, other):
        return isinstance(other, Document) and self.decls == other.decls

    def __contains__(self, name):
        return name in self._by_name

    def get(self, name):
        return self._by_name[name]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.chart = ()     # the chart of the one-form being parsed, if any
        self.depth = 0      # the nesting level of the expression being parsed

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise DslSyntaxError(f"{message}, got {tok.text!r}" if tok.text else
                             f"{message}, got end of input",
                             tok.line, tok.column, expected)

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error(f"expected {text or kind}", expected={text or kind})
        return self.advance()

    def literal(self, tok):
        """The exact value of a number token: an int, or a Fraction for a
        decimal; a literal beyond Python's limit on the digits of an int
        conversion is reported at the token."""
        try:
            return int(tok.text) if "." not in tok.text else Fraction(tok.text)
        except ValueError:
            raise DslSyntaxError(f"number literal too long ({len(tok.text)} "
                                 "characters)", tok.line, tok.column) from None

    def fold(self, tok, build, *args) -> Expr:
        """build(*args), with a constant that folds to no value, to an
        oversized power (ValueError from `rat_pow_exact`), or to a numerator
        or denominator beyond 2^MAX_FOLD_BITS (a constant, or a product's
        leading constant) reported at the operator `tok`."""
        try:
            out = build(*args)
        except (DivisionByZero, DomainError, ValueError) as exc:
            raise DslSyntaxError(str(exc), tok.line, tok.column) from None
        c = out.args[0] if isinstance(out, Mul) else out
        if isinstance(c, Num) and max(abs(c.value.numerator),
                                      c.value.denominator) > _FOLD_LIMIT:
            raise DslSyntaxError(f"folded constant beyond 2^{MAX_FOLD_BITS}",
                                 tok.line, tok.column)
        return out

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        out = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            out = add(out, rhs) if op == "+" else sub(out, rhs)
        return out

    def parse_term(self) -> Expr:
        out = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance()
            rhs = self.parse_unary()
            out = self.fold(op, mul if op.text == "*" else div, out, rhs)
        return out

    def parse_unary(self) -> Expr:
        # every nesting level (parentheses, unary minus, an exponent) passes
        # here; an error aborts the parse, so only a return steps back out
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels "
                       "deep")
        if self.peek().text == "-":
            self.advance()
            out = neg(self.parse_unary())
        else:
            out = self.parse_power()
        self.depth -= 1
        return out

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().text == "^":
            op = self.advance()
            exponent = self.parse_unary()   # right-associative
            if not isinstance(exponent, Num):
                self.error("exponent must fold to an exact rational")
            if abs(exponent.value) >= MAX_INT_EXPONENT:
                raise DslSyntaxError(f"exponent {exponent.value} too large: "
                                     "|exponent| must be below 2^31",
                                     op.line, op.column)
            return self.fold(op, pow_, base, exponent.value)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return num(self.literal(tok))
        if tok.kind == "ident":
            self.advance()
            if self.chart:
                name = self._differential(tok)
                if name is not None:
                    return var("d " + name)
            if tok.text == "sqrt" and self.peek().text == "(":
                self.advance()
                inner = self.parse_expr()
                self.expect("punct", ")")
                return self.fold(tok, sqrt_, inner)
            return var(tok.text)
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        self.error("expected a number, variable, or '('")

    # -- declarations ------------------------------------------------------

    def parse_document(self, source) -> Document:
        decls = []
        seen = set()
        while self.peek().kind != "eof":
            kind_tok = self.peek()
            if kind_tok.kind != "ident" or kind_tok.text not in KINDS:
                self.error("expected a declaration kind "
                           f"({', '.join(KINDS)})", expected=set(KINDS))
            self.advance()
            name_tok = self.expect("ident")
            name = name_tok.text
            if name in seen:
                raise DuplicateName(name, name_tok.line, name_tok.column)
            seen.add(name)
            self.expect("punct", "{")
            cls, size, fields = _DECLARATIONS[kind_tok.text]
            chart = self.parse_vars(size)
            if fields is None:
                obj = self.parse_coframe_body(chart, name)
            else:
                obj = cls(*(self._named_expr(label, chart, name)
                            for label, _ in fields), chart=chart)
            self.expect("punct", "}")
            decls.append((kind_tok.text, name, obj))
        return Document(decls, source=source)

    def parse_vars(self, count):
        """The chart of `count` distinct variables; a wrong count is reported
        at 'vars', a repeated name where it repeats."""
        vars_tok = self.expect("ident", "vars")
        names = []
        while self.peek().kind == "ident":
            tok = self.advance()
            if tok.text in names:
                raise DslSyntaxError(f"chart variable {tok.text!r} repeated",
                                     tok.line, tok.column)
            names.append(tok.text)
        self.expect("punct", ";")
        if len(names) != count:
            raise DslSyntaxError(f"expected {count} chart variables, found "
                                 f"{len(names)}", vars_tok.line,
                                 vars_tok.column)
        return tuple(names)

    def _named_expr(self, label, chart, decl_name) -> Expr:
        self.expect("ident", label)
        self.expect("punct", "=")
        start = self.pos
        e = self.parse_expr()
        self.expect("punct", ";")
        self.check_chart(start, e.free_variables, chart, decl_name)
        return e

    def parse_coframe_body(self, chart, name) -> CoframeMetric:
        etas = {}
        structure = "para"
        while self.peek().text in ("eta", "structure"):
            if self.peek().text == "structure":
                self.advance()
                self.expect("punct", "=")
                tok = self.expect("ident")
                if tok.text not in STRUCTURES:
                    raise DslSyntaxError(
                        f"structure must be one of {', '.join(STRUCTURES)}, "
                        f"got {tok.text!r}", tok.line, tok.column,
                        set(STRUCTURES))
                structure = tok.text
                self.expect("punct", ";")
                continue
            self.advance()
            index_tok = self.expect("number")
            index = self.literal(index_tok)
            if index not in (1, 2, 3, 4):
                raise DslSyntaxError(
                    f"eta index must be 1, 2, 3 or 4, got {index_tok.text!r}",
                    index_tok.line, index_tok.column)
            if index in etas:
                raise DslSyntaxError(f"eta {index} declared twice",
                                     index_tok.line, index_tok.column)
            self.expect("punct", "=")
            etas[index] = self.parse_oneform(chart, name)
            self.expect("punct", ";")
        if len(etas) != 4:
            self.error("coframe needs eta 1 through eta 4")
        return CoframeMetric(chart=chart,
                             etas=tuple(etas[i] for i in (1, 2, 3, 4)),
                             structure=structure)

    def parse_oneform(self, chart, decl_name) -> DifferentialForm:
        """An expression linear in the chart's differentials; the coefficient
        of d x is the partial derivative by the differential variable."""
        start = self.pos
        first = self.peek()
        self.chart = chart
        e = self.parse_expr()
        self.chart = ()
        dvars = {"d " + x: x for x in chart}
        coeffs = {x: differentiate(e, dx) for dx, x in dvars.items()}
        if any(c.free_variables.intersection(dvars) for c in coeffs.values()):
            raise DslSyntaxError("one-form is not linear in the differentials",
                                 first.line, first.column)
        if self.fold(first, substitute, e, dict.fromkeys(dvars, 0)) is not ZERO:
            raise DslSyntaxError("a term of the one-form has no differential",
                                 first.line, first.column)
        self.check_chart(start, e.free_variables.difference(dvars), chart,
                         decl_name)
        return one_form(chart, coeffs)

    def _differential(self, tok):
        """The chart variable x when `tok` starts 'd x' or is 'dx'."""
        nxt = self.peek()
        if tok.text == "d" and nxt.kind == "ident" and nxt.text in self.chart:
            self.advance()
            return nxt.text
        if tok.text[0] == "d" and tok.text[1:] in self.chart:
            return tok.text[1:]
        return None

    def check_chart(self, start, free, chart, decl_name):
        """UnknownVariable at the first variable outside the chart among the
        tokens from `start` to the parser's position (the expression just
        parsed); the 'd' of a differential and the name of sqrt( are not
        variables."""
        extra = free - set(chart)
        if not extra:
            return
        for tok, nxt in zip(self.tokens[start:self.pos],
                            self.tokens[start + 1:]):
            if (tok.kind == "ident" and tok.text in extra
                    and not (tok.text == "d" and nxt.text in chart)
                    and not (tok.text == "sqrt" and nxt.text == "(")):
                raise UnknownVariable(tok.text, decl_name, tok.line,
                                      tok.column)


def parse(text: str) -> Document:
    """Parse a .pg document; raises DslSyntaxError / UnknownVariable /
    DuplicateName with positions."""
    return _Parser(_lex(text)).parse_document(text)


def parse_expression(text: str, chart=None) -> Expr:
    """Parse a bare expression (convenience for CLI arguments)."""
    parser = _Parser(_lex(text))
    e = parser.parse_expr()
    if parser.peek().kind != "eof":
        parser.error("trailing input after expression")
    if chart is not None:
        parser.check_chart(0, e.free_variables, chart, "<expression>")
    return e


# -- serialization ---------------------------------------------------------------

def _serialize_oneform(form: DifferentialForm) -> str:
    chart = form.chart
    parts = []
    for (i,), coeff in sorted(form.comps.items()):
        parts.append(f"{_paren_expr(coeff)} * d {chart[i]}")
    return " + ".join(parts) if parts else "0 * d " + chart[0]


def _paren_expr(e: Expr) -> str:
    text = to_text(e)
    return f"({text})" if (" " in text or text.startswith("-")) else text


def serialize(doc: Document) -> str:
    out = []
    for kind, name, obj in doc.decls:
        out.append(f"{kind} {name} {{")
        out.append(f"  vars {' '.join(obj.chart)};")
        fields = _DECLARATIONS[kind][2]
        if fields is None:
            if obj.structure != "para":
                out.append(f"  structure = {obj.structure};")
            for k, eta in enumerate(obj.etas, start=1):
                out.append(f"  eta {k} = {_serialize_oneform(eta)};")
        else:
            for label, attr in fields:
                out.append(f"  {label} = {to_text(getattr(obj, attr))};")
        out.append("}")
    return "\n".join(out) + "\n"
