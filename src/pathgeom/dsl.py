"""Text format for problem definitions (.pg files).

    scalar_ode flat { vars t z p; F = 0; }
    pair_ode cr_sphere {
      vars x y p Y P;
      F1 = ((Y^2+1)^2)/(Y*x+P-y);
      F2 = ((Y^2+1)*(P*Y-y*Y-x))/(Y*x+P-y);
    }
    cr_graph quadric { vars x y p; F = (x^2+y^2)/4; }
    coframe flat4 { vars y p Y P; eta 1 = 1*d Y; eta 2 = 1*d P;
                    eta 3 = 1*d y; eta 4 = 1*d p; }

Numeric literals are exact rationals (integers, fractions 3/4, and decimal
literals converted exactly); sqrt(e) is sugar for e^(1/2); '#' starts a line
comment; no implicit multiplication.  Operator precedence: ^ binds tighter
than unary minus, then * and /, then + and -; ^ is right-associative and its
exponent must fold to an exact rational.  A constant that folds to no value
(1/0, 0^(-2), (-4)^(1/2)) is a DslSyntaxError at its operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DivisionByZero, DomainError, DslSyntaxError,
                     DuplicateName, UnknownVariable)
from .expr import (Expr, add, div, mul, neg, num, pow_, sqrt_, sub, to_text,
                   var)
from .forms import DifferentialForm, one_form
from .jets import CRGraph, PairODE, ScalarODE
from .metrics import CoframeMetric

KINDS = ("scalar_ode", "pair_ode", "cr_graph", "coframe")

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{};=()^*/+\-])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str       # 'number' | 'ident' | 'punct' | 'eof'
    text: str
    line: int
    column: int


def _lex(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class CoframeDecl:
    chart: tuple
    etas: tuple      # four DifferentialForms, indices 1..4
    structure: str = "para"

    def to_metric(self) -> CoframeMetric:
        if len(self.chart) != 4:
            raise ValueError("a metric coframe needs exactly 4 chart variables")
        return CoframeMetric(chart=self.chart, etas=self.etas,
                             structure=self.structure)


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

    def fold(self, tok, build, *args) -> Expr:
        """build(*args), with a constant that folds to no value reported at
        the operator `tok`."""
        try:
            return build(*args)
        except (DivisionByZero, DomainError) as exc:
            raise DslSyntaxError(str(exc), tok.line, tok.column) from None

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
        if self.peek().text == "-":
            self.advance()
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().text == "^":
            op = self.advance()
            exponent = self.parse_unary()   # right-associative
            from .expr import Num
            if not isinstance(exponent, Num):
                self.error("exponent must fold to an exact rational")
            return self.fold(op, pow_, base, exponent.value)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return num(Fraction(tok.text))
        if tok.kind == "ident":
            self.advance()
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
            name = self.expect("ident").text
            if name in seen:
                raise DuplicateName(name)
            seen.add(name)
            self.expect("punct", "{")
            obj = getattr(self, f"parse_{kind_tok.text}_body")(name)
            self.expect("punct", "}")
            decls.append((kind_tok.text, name, obj))
        return Document(decls, source=source)

    def parse_vars(self, count=None):
        self.expect("ident", "vars")
        names = []
        while self.peek().kind == "ident":
            names.append(self.advance().text)
        self.expect("punct", ";")
        if count is not None and len(names) != count:
            self.error(f"expected {count} chart variables, found {len(names)}")
        if len(set(names)) != len(names):
            self.error("chart variables must be distinct")
        return tuple(names)

    def _named_expr(self, label, chart, decl_name) -> Expr:
        self.expect("ident", label)
        self.expect("punct", "=")
        e = self.parse_expr()
        self.expect("punct", ";")
        extra = e.free_variables - set(chart)
        if extra:
            raise UnknownVariable(sorted(extra)[0], decl_name)
        return e

    def parse_scalar_ode_body(self, name) -> ScalarODE:
        chart = self.parse_vars(3)
        return ScalarODE(self._named_expr("F", chart, name), chart=chart)

    def parse_pair_ode_body(self, name) -> PairODE:
        chart = self.parse_vars(5)
        f1 = self._named_expr("F1", chart, name)
        f2 = self._named_expr("F2", chart, name)
        return PairODE(f1, f2, chart=chart)

    def parse_cr_graph_body(self, name) -> CRGraph:
        chart = self.parse_vars(3)
        return CRGraph(self._named_expr("F", chart, name), chart=chart)

    def parse_coframe_body(self, name) -> CoframeDecl:
        chart = self.parse_vars()
        etas = {}
        structure = "para"
        while self.peek().text in ("eta", "structure"):
            if self.peek().text == "structure":
                self.advance()
                self.expect("punct", "=")
                structure = self.expect("ident").text
                self.expect("punct", ";")
                continue
            self.advance()
            index_tok = self.expect("number")
            index = int(index_tok.text)
            if index in etas:
                self.error(f"eta {index} declared twice")
            self.expect("punct", "=")
            etas[index] = self.parse_oneform(chart, name)
            self.expect("punct", ";")
        if sorted(etas) != [1, 2, 3, 4]:
            self.error("coframe needs eta 1 through eta 4")
        return CoframeDecl(chart=chart, etas=tuple(etas[i] for i in (1, 2, 3, 4)),
                           structure=structure)

    def parse_oneform(self, chart, decl_name) -> DifferentialForm:
        coeffs: dict = {}
        sign = 1
        if self.peek().text == "-":
            self.advance()
            sign = -1
        while True:
            coeff, varname = self.parse_oneform_term(chart, decl_name)
            if sign == -1:
                coeff = neg(coeff)
            prev = coeffs.get(varname)
            coeffs[varname] = add(prev, coeff) if prev is not None else coeff
            if self.peek().text in ("+", "-"):
                sign = 1 if self.advance().text == "+" else -1
                continue
            break
        return one_form(chart, coeffs)

    def parse_oneform_term(self, chart, decl_name):
        """term := expr '*' 'd' IDENT | expr '*' dIDENT | 'd' IDENT | dIDENT"""
        start = self.pos
        diff_var = self._try_differential(chart)
        if diff_var is not None:
            return num(1), diff_var
        self.pos = start
        coeff = self.parse_term_no_trailing_diff(chart, decl_name)
        diff_var = self._try_differential(chart)
        if diff_var is None:
            self.error("expected a differential 'd <var>' to end the term")
        return coeff, diff_var

    def _try_differential(self, chart):
        tok = self.peek()
        if tok.kind != "ident":
            return None
        if tok.text == "d" and self.tokens[self.pos + 1].kind == "ident" \
                and self.tokens[self.pos + 1].text in chart:
            self.advance()
            return self.advance().text
        if tok.text.startswith("d") and len(tok.text) > 1 and tok.text[1:] in chart:
            self.advance()
            return tok.text[1:]
        return None

    def parse_term_no_trailing_diff(self, chart, decl_name) -> Expr:
        """Product whose final '* d<var>' factor belongs to the caller."""
        out = None
        while True:
            if out is not None:
                if self.peek().text not in ("*", "/"):
                    self.error("expected '*' before the differential")
                op = self.advance()
                if op.text == "*" and self._peek_differential(chart):
                    break
            factor = self.parse_unary()
            out = factor if out is None else \
                self.fold(op, mul if op.text == "*" else div, out, factor)
        extra = out.free_variables - set(chart)
        if extra:
            raise UnknownVariable(sorted(extra)[0], decl_name)
        return out

    def _peek_differential(self, chart):
        save = self.pos
        got = self._try_differential(chart)
        self.pos = save
        return got is not None


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
        extra = e.free_variables - set(chart)
        if extra:
            raise UnknownVariable(sorted(extra)[0], "<expression>")
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
        if kind == "scalar_ode":
            out.append(f"  vars {' '.join(obj.chart)};")
            out.append(f"  F = {to_text(obj.rhs)};")
        elif kind == "pair_ode":
            out.append(f"  vars {' '.join(obj.chart)};")
            out.append(f"  F1 = {to_text(obj.rhs1)};")
            out.append(f"  F2 = {to_text(obj.rhs2)};")
        elif kind == "cr_graph":
            out.append(f"  vars {' '.join(obj.chart)};")
            out.append(f"  F = {to_text(obj.rhs)};")
        elif kind == "coframe":
            out.append(f"  vars {' '.join(obj.chart)};")
            if obj.structure != "para":
                out.append(f"  structure = {obj.structure};")
            for k, eta in enumerate(obj.etas, start=1):
                out.append(f"  eta {k} = {_serialize_oneform(eta)};")
        out.append("}")
    return "\n".join(out) + "\n"
