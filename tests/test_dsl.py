import random
import time

import pytest

from pathgeom.constructions import catalog
from pathgeom.dsl import Document, parse, parse_expression, serialize
from pathgeom.errors import DslSyntaxError, DuplicateName, UnknownVariable
from pathgeom.expr import as_rat, exprs_equal, num, pow_, var
from pathgeom.expr.nodes import Pow, postorder
from pathgeom.forms import one_form
from pathgeom.jets import ScalarODE
from pathgeom.metrics import CoframeMetric

FLAT = "scalar_ode flat { vars t z p; F = 0; }"
CR_SPHERE = """
pair_ode cr_sphere {
  vars x y p Y P;
  F1 = ((Y^2+1)^2)/(Y*x+P-y);
  F2 = ((Y^2+1)*(P*Y-y*Y-x))/(Y*x+P-y);
}
"""


def _has_radical(e):
    """Whether some power in e has a non-integer exponent."""
    return any(isinstance(n, Pow) and type(n.exponent) is not int
               for n in postorder((e,)))


class TestParseExamples:
    def test_flat_scalar(self):
        doc = parse(FLAT)
        flat = doc.get("flat")
        assert isinstance(flat, ScalarODE)
        assert flat.rhs is num(0)
        assert flat.chart == ("t", "z", "p")

    def test_cr_sphere_matches_catalog(self):
        doc = parse(CR_SPHERE)
        got = doc.get("cr_sphere")
        want = catalog("cr_sphere_pair")
        assert exprs_equal(got.rhs1, want.rhs1, trials=6).is_zero
        assert exprs_equal(got.rhs2, want.rhs2, trials=6).is_zero

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as exc:
            parse("scalar_ode bad { vars t z p; F = q; }")
        assert exc.value.name == "q"
        assert exc.value.declaration == "bad"

    def test_unknown_variable_at_its_first_use_in_the_declaration(self):
        # q is a chart variable of the first declaration, unknown in the
        # second: the position is that of its first use in the second
        with pytest.raises(UnknownVariable) as exc:
            parse("scalar_ode a { vars t z q; F = q; }\n"
                  "pair_ode g { vars t u1 u2 q1 q2; F1 = 0;\n"
                  "  F2 = u1 + q*q; }")
        assert (exc.value.line, exc.value.column) == (3, 13)
        assert str(exc.value) == "3:13: unknown variable 'q' in declaration 'g'"

    def test_unknown_variable_at_its_use_in_the_failing_field(self):
        # r folds away in F1, which is accepted; the error is where F2
        # uses it
        for f1 in ("0*r", "r - r"):
            with pytest.raises(UnknownVariable) as exc:
                parse("pair_ode g { vars t u1 u2 q1 q2; "
                      f"F1 = {f1};\n  F2 = q1 + r; }}")
            assert (exc.value.line, exc.value.column) == (2, 13)

    def test_unknown_variable_d_or_sqrt_skips_their_other_use(self):
        # 'd Y' is a differential and 'sqrt(' the function: the unknown
        # variable is the later bare 'd' or 'sqrt'
        with pytest.raises(UnknownVariable) as exc:
            parse("coframe c { vars y p Y P; eta 1 = d Y + d*dY; "
                  "eta 2 = dp; eta 3 = dy; eta 4 = dP; }")
        assert (exc.value.name, exc.value.column) == ("d", 41)
        with pytest.raises(UnknownVariable) as exc:
            parse("scalar_ode s { vars t z p; F = sqrt(p) + sqrt; }")
        assert (exc.value.name, exc.value.column) == ("sqrt", 42)

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName) as exc:
            parse(FLAT + "\n" + FLAT)
        assert exc.value.name == "flat"
        assert (exc.value.line, exc.value.column) == (2, 12)
        assert str(exc.value) == "2:12: duplicate declaration name 'flat'"

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("scalar_ode a { vars t z p; F = (p; }")
        assert exc.value.line == 1
        assert exc.value.column > 0

    @pytest.mark.parametrize("text, column, message", [
        ("scalar_ode a { vars t z; F = 0; }", 16,
         "expected 3 chart variables, found 2"),
        ("pair_ode g { vars x y p Y y; F1 = 0; F2 = 0; }", 27,
         "chart variable 'y' repeated"),
        ("coframe c { vars y p Y P; structure = bogus; eta 1 = d Y; "
         "eta 2 = d P; eta 3 = d y; eta 4 = d p; }", 39,
         "structure must be one of para, complex, got 'bogus'"),
        ("coframe c { vars y p Y; eta 1 = d Y; eta 2 = d p; eta 3 = d y; "
         "eta 4 = d p; }", 13, "expected 4 chart variables, found 3"),
        ("graph g { vars x y p; F = x; }", 1, "expected a declaration "
         "kind (scalar_ode, pair_ode, coframe), got 'graph'"),
        ("coframe c { vars y p Y P; eta 1 = dY; eta 5 = dp; }", 43,
         "eta index must be 1, 2, 3 or 4, got '5'"),
        ("coframe c { vars y p Y P; eta 0 = dp; }", 31,
         "eta index must be 1, 2, 3 or 4, got '0'"),
        ("coframe c { vars y p Y P; eta 1.5 = dp; }", 31,
         "eta index must be 1, 2, 3 or 4, got '1.5'"),
        ("coframe c { vars y p Y P; eta 1 = dY; eta 2 = dP; eta 1 = dy; }",
         55, "eta 1 declared twice"),
        ("coframe c { vars y p Y P; eta 1 = dY; eta 2 = dP; eta 4 = dp; }",
         63, "coframe needs eta 1 through eta 4, got '}'")])
    def test_declaration_errors_point_at_their_token(self, text, column,
                                                     message):
        with pytest.raises(DslSyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert str(exc.value) == f"1:{column}: {message}"

    @pytest.mark.parametrize("literal", ["7" * 5000, "1." + "5" * 5000],
                             ids=["integer", "decimal"])
    def test_oversized_literal_is_reported_at_its_token(self, literal):
        # beyond Python's limit on the digits of an int conversion
        with pytest.raises(DslSyntaxError) as exc:
            parse(f"scalar_ode a {{ vars t z p;\n  F = p + {literal}; }}")
        assert (exc.value.line, exc.value.column) == (2, 11)
        assert "number literal too long" in str(exc.value)

    def test_comments_and_crlf(self):
        doc = parse("# heading\r\nscalar_ode a { vars t z p; # trailing\r\n"
                    "F = p; }\r\n")
        assert doc.get("a").rhs is var("p")


class TestPrecedence:
    def test_unary_minus_binds_below_power(self):
        assert parse_expression("-p^2") is (-(var("p") ** 2))

    def test_division_left_associative(self):
        a, b, c = var("a"), var("b"), var("c")
        assert parse_expression("a/b/c") is ((a / b) / c)

    def test_power_right_associative(self):
        assert parse_expression("p^2^3") is (var("p") ** 8)

    def test_sqrt_sugar(self):
        assert parse_expression("sqrt(p)") is pow_(var("p"), as_rat("1/2"))

    def test_decimal_literals_exact(self):
        assert parse_expression("0.25") is num(as_rat("1/4"))
        assert parse_expression("1.5*p") is (num(as_rat("3/2")) * var("p"))
        assert parse_expression("3.0") is parse_expression("3") is num(3)
        assert type(parse_expression("12").value) is int

    def test_fraction_literal(self):
        assert parse_expression("3/4") is num(as_rat("3/4"))

    def test_rational_exponent(self):
        assert parse_expression("p^(1/2)") is pow_(var("p"), as_rat("1/2"))
        assert parse_expression("p^(-2)") is pow_(var("p"), -2)

    def test_nonrational_exponent_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_expression("p^q")

    @pytest.mark.parametrize("text, column", [
        ("p + 1/0", 6), ("0^(-2)*p", 2), ("(-4)^(1/2)", 5), ("2*sqrt(-4)", 3)])
    def test_constant_folding_to_an_undefined_value_is_a_syntax_error(
            self, text, column):
        with pytest.raises(DslSyntaxError) as exc:
            parse_expression(text)
        assert (exc.value.line, exc.value.column) == (1, column)


    @pytest.mark.parametrize("text, column", [
        ("10^2000*10^2000*10^2000*q^3", 8),
        ("q^3/10^2000/10^2000", 12),
        ("(2*q)*10^2000*10^2000", 14),
        ("10^2000*q*10^2000", 10),
    ])
    def test_oversized_folded_constant_is_a_syntax_error(self, text, column):
        # a product or quotient of constants beyond 2^MAX_FOLD_BITS could not
        # be printed: refused at the operator that folds it
        with pytest.raises(DslSyntaxError, match="folded constant beyond") \
                as exc:
            parse_expression(text)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_folded_constants_up_to_the_bound_fold(self):
        assert parse_expression("2^4096*2^4096*q") is (
            num(2 ** 8192) * var("q"))
        assert parse_expression("q/2^8192") is (
            num(as_rat(f"1/{2 ** 8192}")) * var("q"))

    def test_constant_power_folds_by_its_exact_size(self):
        # 10^2100 has 6,977 bits: it folds as a power as it does as a product
        assert parse_expression("10^2100*q") is (
            parse_expression("10^1000*10^1100*q"))
        # 3^5168 has 8,192 bits, 3^5169 has 8,193
        assert parse_expression("3^5168*q") is num(3 ** 5168) * var("q")

    @pytest.mark.parametrize("text, column", [
        ("2^8193*q", 2), ("3^5169*q", 2), ("q*(1/3)^5169", 8),
        ("4^(16385/2)*q", 2)])
    def test_constant_power_just_past_the_bound_is_a_syntax_error(
            self, text, column):
        with pytest.raises(DslSyntaxError, match="too large") as exc:
            parse_expression(text)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_irrational_power_with_a_large_denominator_stays_symbolic(self):
        # the root is taken before the power, so 7^100000001 is never built
        start = time.perf_counter()
        e = parse_expression("7^(100000001/100000000)*q1^3")
        assert time.perf_counter() - start < 1
        assert _has_radical(e)
        assert str(e) == "7^(100000001/100000000)*q1^3"


class TestRoundTrip:
    def _assert_round_trip(self, text):
        doc = parse(text)
        again = parse(serialize(doc))
        assert doc == again
        assert serialize(again) == serialize(doc)

    def test_document_round_trip(self):
        self._assert_round_trip(FLAT + CR_SPHERE + """
        coframe cf { vars y p Y P;
          eta 1 = 1*d Y; eta 2 = (y+p)*d P + 2*d y;
          eta 3 = 1*d y; eta 4 = (1/(Y-p))*d p; }
        """)

    def test_generated_documents_round_trip(self):
        rng = random.Random(0)
        vars5 = "x y p Y P".split()
        done = 0
        while done < 25:
            e1 = _random_expr_text(rng, vars5)
            e2 = _random_expr_text(rng, vars5)
            text = (f"pair_ode g{done} {{ vars x y p Y P; "
                    f"F1 = {e1}; F2 = {e2}; }}")
            try:
                self._assert_round_trip(text)
            except DslSyntaxError:
                continue  # generator produced a division by a folded zero
            done += 1
        chart = "y p Y P".split()
        done = 0
        while done < 25:
            etas = " ".join(f"eta {k} = {_random_oneform_text(rng, chart)};"
                            for k in (1, 2, 3, 4))
            text = f"coframe c{done} {{ vars y p Y P; {etas} }}"
            try:
                self._assert_round_trip(text)
            except DslSyntaxError:
                continue
            done += 1

    @pytest.mark.parametrize("name", ["dancing_metric_coframe",
                                      "fubini_study_coframe"])
    def test_catalog_coframes_round_trip_to_identical_nodes(self, name):
        doc = Document([("coframe", name, catalog(name))])
        assert parse(serialize(doc)) == doc

    def test_catalog_pairs_round_trip_through_serializer(self):
        decls = []
        for name in ("flat_chain_pair", "cr_sphere_pair", "cr_y3_pair"):
            decls.append(("pair_ode", name, catalog(name)))
        doc = Document(decls)
        assert parse(serialize(doc)) == doc

    def test_complex_structure_coframe_round_trip(self):
        self._assert_round_trip("""
        coframe fs_like { vars y p Y P;
          structure = complex;
          eta 1 = (1/(P-y))*d Y; eta 2 = (1/(P-y)^2)*d P;
          eta 3 = 1*d y - (Y/(P-y))*d p; eta 4 = (1/(P-y))*d p; }
        """)
        doc = parse("coframe c { vars y p Y P; structure = complex;"
                    "eta 1 = 1*d Y; eta 2 = 1*d P; eta 3 = 1*d y;"
                    "eta 4 = 1*d p; }")
        assert doc.get("c").structure == "complex"
        assert isinstance(doc.get("c"), CoframeMetric)


class TestOneForms:
    CHART = ("y", "p", "Y", "P")

    def _eta1(self, text):
        doc = parse(f"coframe c {{ vars y p Y P; eta 1 = {text}; "
                    "eta 2 = dP; eta 3 = dy; eta 4 = dp; }")
        return doc.get("c").etas[0]

    @pytest.mark.parametrize("text, coeffs", [
        ("dY*p", {"Y": "p"}),
        ("(p*dY + dP)*2", {"Y": "2*p", "P": "2"}),
        ("dp/(Y-p)^2", {"p": "1/(Y-p)^2"}),
        ("d Y - y*dY", {"Y": "1 - y"}),
        ("0*dy", {})])
    def test_linear_expressions_in_the_differentials(self, text, coeffs):
        want = one_form(self.CHART, {x: parse_expression(c)
                                     for x, c in coeffs.items()})
        assert self._eta1(text) == want

    @pytest.mark.parametrize("text, message", [
        ("p + dY", "a term of the one-form has no differential"),
        ("dY*dP", "one-form is not linear in the differentials"),
        ("p/dY", "one-form is not linear in the differentials"),
        ("sqrt(dY)", "one-form is not linear in the differentials"),
        # linear by its derivative, yet a pole where the differentials vanish
        ("1/(dY*(p+1) - dY*p - dY)", "0 raised to a negative power")])
    def test_nonlinear_forms_are_syntax_errors(self, text, message):
        with pytest.raises(DslSyntaxError) as exc:
            self._eta1(text)
        assert str(exc.value) == f"1:35: {message}"

    def test_coefficient_outside_the_chart(self):
        with pytest.raises(UnknownVariable) as exc:
            self._eta1("q*dY")
        assert exc.value.name == "q"
        assert str(exc.value) == "1:35: unknown variable 'q' in declaration 'c'"

    def test_differential_is_read_only_inside_a_one_form(self):
        doc = parse("scalar_ode s { vars t z dz; F = dz*z; }")
        assert doc.get("s").rhs is var("dz") * var("z")

    def test_dancing_coframe_written_as_one_forms(self):
        doc = parse("""coframe dancing { vars y p Y P;
          eta 1 = dY;
          eta 2 = -P/(Y-p)^3*dY + dP/(Y-p)^2 - P^2/(Y-p)^4*dy
                  + 2*P/(Y-p)^3*dp;
          eta 3 = dy;
          eta 4 = -P/(Y-p)^3*dy + dp/(Y-p)^2; }""")
        got = doc.get("dancing").coefficient_rows()
        want = catalog("dancing_metric_coframe").coefficient_rows()
        for a, b in zip(sum(got, ()), sum(want, ())):
            assert exprs_equal(a, b, trials=4).is_zero


def _random_oneform_text(rng, chart):
    terms = []
    for _ in range(rng.randint(1, 3)):
        x = rng.choice(chart)
        dx = rng.choice([f"d {x}", f"d{x}"])
        coeff = _random_expr_text(rng, chart)
        shape = rng.choice(["{c}*{d}", "{d}*{c}", "{d}/{c}", "{d}"])
        terms.append(shape.format(c=coeff, d=dx))
    text = rng.choice(["-", ""]) + " + ".join(terms)
    if rng.random() < 0.3:
        text = f"({text})*{_random_expr_text(rng, chart)}"
    return text


def _random_expr_text(rng, names):
    def atom():
        r = rng.random()
        if r < 0.4:
            return rng.choice(names)
        if r < 0.7:
            return str(rng.choice([n for n in range(-9, 10) if n]))
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"

    def expr(depth):
        if depth == 0:
            return atom()
        op = rng.choice("+-*/^")
        if op == "^":
            return f"({expr(depth - 1)})^{rng.randint(1, 3)}"
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    return expr(rng.randint(1, 3))
