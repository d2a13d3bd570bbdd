"""Parser: `.vf` grammar, expression handling, errors with positions."""

import pytest
from fractions import Fraction
from hypothesis import given, settings

from dulac.errors import ParseError
from dulac.jsonform import from_json
from dulac.multiplier import ExpPolyMultiplier, PolyMultiplier
from dulac.parse import (
    parse_constant,
    parse_list,
    parse_multiplier,
    parse_poly,
    parse_system,
)

PARSERS = {"poly": parse_poly, "constant": parse_constant,
           "system": parse_system, "multiplier": parse_multiplier}
from dulac.poly import CRat, Poly

from conftest import polys


class TestParsePoly:
    def test_spec_examples(self):
        assert parse_poly("x^2 + y^2 - 1").terms == {
            (2, 0): CRat(1), (0, 2): CRat(1), (0, 0): CRat(-1)}
        assert parse_poly("(x+y)^2") == parse_poly("x^2 + 2*x*y + y^2")
        assert parse_poly("0.5*x").terms == {(1, 0): CRat(Fraction(1, 2))}

    def test_decimal_literals_exact(self):
        assert parse_poly("0.1").constant_term == CRat(Fraction(1, 10))
        assert parse_poly("2.25*y").terms == {(0, 1): CRat(Fraction(9, 4))}

    def test_imaginary_unit(self):
        assert parse_poly("i^2") == Poly.const(-1)
        assert parse_poly("(1 + i)*(1 - i)") == Poly.const(2)

    def test_constant_division(self):
        assert parse_poly("(x^2+y^2)/4") == parse_poly("0.25*x^2 + 0.25*y^2")
        assert parse_poly("x/2/3") == parse_poly("x/6")

    def test_unary_signs(self):
        assert parse_poly("-x") == -Poly.x()
        assert parse_poly("+-+x") == -Poly.x()
        assert parse_poly("-x^2") == -(Poly.x() ** 2)

    def test_power_of_zero(self):
        assert parse_poly("x^0") == Poly.const(1)

    def test_nonpolynomial_division_rejected(self):
        with pytest.raises(ParseError, match="nonconstant"):
            parse_poly("x/y")
        with pytest.raises(ParseError, match="zero"):
            parse_poly("x/0")

    def test_bad_exponents(self):
        with pytest.raises(ParseError, match="fractional"):
            parse_poly("x^1.5")
        with pytest.raises(ParseError, match="negative"):
            parse_poly("x^-1")
        with pytest.raises(ParseError):
            parse_poly("x^(2)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'z'"):
            parse_poly("z + 1")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + @")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_implicit_product_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2x")

    @settings(max_examples=60)
    @given(polys(allow_complex=True))
    def test_round_trip(self, p):
        assert parse_poly(str(p)) == p


class TestParseSystem:
    def test_van_der_pol(self):
        vf = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")
        assert vf.p == parse_poly("y")
        assert vf.q == parse_poly("-x + y - x^2*y")
        assert vf.params == {"mu": Fraction(1)}

    def test_identity_like(self):
        vf = parse_system("P = x\nQ = y")
        assert (vf.p, vf.q) == (Poly.x(), Poly.y())

    def test_nonpolynomial_rejected(self):
        with pytest.raises(ParseError, match="nonconstant"):
            parse_system("P = x/y\nQ = 1")

    def test_comments_and_blank_lines(self):
        vf = parse_system("# a comment\n\nP = x  # trailing\n\nQ = -y\n")
        assert vf.q == parse_poly("-y")

    def test_param_values(self):
        vf = parse_system("param a = -1/2\nparam b = 0.25\nP = a*x\nQ = b*y")
        assert vf.p == parse_poly("-x/2")
        assert vf.q == parse_poly("y/4")

    def test_param_used_before_declaration(self):
        vf = parse_system("P = mu*x\nQ = y\nparam mu = 3")
        assert vf.p == parse_poly("3*x")

    def test_undefined_parameter(self):
        with pytest.raises(ParseError, match="undefined parameter 'mu'") as err:
            parse_system("P = mu*x\nQ = y")
        assert err.value.line == 1

    def test_duplicate_definitions(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_system("P = x\nP = y\nQ = 1")
        with pytest.raises(ParseError, match="duplicate"):
            parse_system("param a = 1\nparam a = 2\nP = x\nQ = y")

    def test_missing_component(self):
        with pytest.raises(ParseError, match="missing Q"):
            parse_system("P = x")

    def test_reserved_parameter_names(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_system("param x = 1\nP = x\nQ = y")

    def test_nonreal_component_rejected(self):
        with pytest.raises(ParseError, match="nonreal"):
            parse_system("P = i*x\nQ = y")

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_system("P = x\nQ = y +\n")
        assert err.value.line == 2

    def test_print_parse_round_trip(self):
        vf = parse_system("P = y\nQ = -x + mu*(1 - x^2)*y\nparam mu = 1")
        assert parse_system(str(vf)) == vf

    @settings(max_examples=40)
    @given(polys(max_degree=4), polys(max_degree=4))
    def test_round_trip_random_fields(self, p, q):
        if not (p.is_real and q.is_real):
            return
        text = f"P = {p}\nQ = {q}"
        vf = parse_system(text)
        assert parse_system(str(vf)) == vf


class TestParseConstantAndMultiplier:
    def test_constants(self):
        assert parse_constant("-3/4") == Fraction(-3, 4)
        assert parse_constant("0.125") == Fraction(1, 8)
        assert parse_constant("(1+1)/4") == Fraction(1, 2)

    def test_constant_rejects_variables(self):
        with pytest.raises(ParseError):
            parse_constant("x")

    def test_poly_multiplier(self):
        m = parse_multiplier("(x^2+y^2)/4")
        assert isinstance(m, PolyMultiplier)
        assert m.p == parse_poly("(x^2+y^2)/4")

    def test_exp_multiplier(self):
        m = parse_multiplier("exp(x^2 + y^2)*(1 + x)")
        assert isinstance(m, ExpPolyMultiplier)
        assert m.g == parse_poly("x^2 + y^2")
        assert m.p == parse_poly("1 + x")

    def test_exp_without_factor(self):
        m = parse_multiplier("exp(-y)")
        assert isinstance(m, ExpPolyMultiplier)
        assert m.p == Poly.const(1)

    def test_exp_errors(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_multiplier("exp((x)")
        with pytest.raises(ParseError, match="expected '\\*'"):
            parse_multiplier("exp(x) + 1")


# (parser, input, "<exception type>: <message>") for malformed inputs
ERROR_CORPUS = [
    ('poly', 'x + @', "ParseError: line 1, column 5: unexpected character '@'"),
    ('poly', 'x $ y', "ParseError: line 1, column 3: unexpected character '$'"),
    ('poly', 'x\t+ é', "ParseError: line 1, column 5: unexpected character 'é'"),
    ('poly', 'x\n  + ?', "ParseError: line 2, column 5: unexpected character '?'"),
    ('poly', 'x + ü', "ParseError: line 1, column 5: unexpected character 'ü'"),
    ('poly', 'x ~ 1', "ParseError: line 1, column 3: unexpected character '~'"),
    ('poly', '1.', 'ParseError: line 1, column 1: malformed number'),
    ('poly', '1.x', 'ParseError: line 1, column 1: malformed number'),
    ('poly', 'x + 2..5', 'ParseError: line 1, column 5: malformed number'),
    ('poly', '3.+x', 'ParseError: line 1, column 1: malformed number'),
    ('constant', '1.', 'ParseError: line 1, column 1: malformed number'),
    ('poly', '(x + 1', "ParseError: line 1, column 7: expected ')'"),
    ('poly', 'x + 1)', "ParseError: line 1, column 6: unexpected token ')'"),
    ('poly', '((x)', "ParseError: line 1, column 5: expected ')'"),
    ('poly', ')', "ParseError: line 1, column 1: unexpected token ')'"),
    ('poly', '()', "ParseError: line 1, column 2: unexpected token ')'"),
    ('poly', 'x*(y+(1)', "ParseError: line 1, column 9: expected ')'"),
    ('poly', 'x^-1',
     'ParseError: line 1, column 2: nonpolynomial construct: negative exponent'),
    ('poly', 'x^1.5',
     'ParseError: line 1, column 3: nonpolynomial construct: fractional exponent'),
    ('poly', 'x^(2)',
     'ParseError: line 1, column 3: exponent must be a nonnegative integer literal'),
    ('poly', 'x^y',
     'ParseError: line 1, column 3: exponent must be a nonnegative integer literal'),
    ('poly', 'x^',
     'ParseError: line 1, column 3: exponent must be a nonnegative integer literal'),
    ('poly', 'x^^2',
     'ParseError: line 1, column 3: exponent must be a nonnegative integer literal'),
    ('poly', 'x +', 'ParseError: line 1, column 4: unexpected end of expression'),
    ('poly', 'x + # c',
     'ParseError: line 1, column 5: unexpected end of expression'),
    ('poly', 'x +\n', 'ParseError: line 2, column 1: unexpected end of expression'),
    ('poly', 'x + # c\n',
     'ParseError: line 2, column 1: unexpected end of expression'),
    ('poly', '', 'ParseError: line 1, column 1: unexpected end of expression'),
    ('poly', '   ', 'ParseError: line 1, column 4: unexpected end of expression'),
    ('poly', '2x', "ParseError: line 1, column 2: unexpected token 'x'"),
    ('poly', 'x y', "ParseError: line 1, column 3: unexpected token 'y'"),
    ('poly', 'x,y', "ParseError: line 1, column 2: unexpected token ','"),
    ('poly', 'x = y', "ParseError: line 1, column 3: unexpected token '='"),
    ('poly', 'x/y',
     'ParseError: line 1, column 2: nonpolynomial construct: division by a nonconstant expression'),
    ('poly', 'x/0', 'ParseError: line 1, column 2: division by zero'),
    ('poly', 'x/(1-1)', 'ParseError: line 1, column 2: division by zero'),
    ('poly', 'z + 1', "ParseError: line 1, column 1: unknown identifier 'z'"),
    ('poly', '* x', "ParseError: line 1, column 1: unexpected token '*'"),
    ('constant', 'x', "ParseError: line 1, column 1: unknown identifier 'x'"),
    ('constant', 'i', "ParseError: line 1, column 1: unknown identifier 'i'"),
    ('constant', '1/0', 'ParseError: line 1, column 2: division by zero'),
    ('constant', '', 'ParseError: line 1, column 1: unexpected end of expression'),
    ('constant', '1 2', "ParseError: line 1, column 3: unexpected token '2'"),
    ('constant', '-', 'ParseError: line 1, column 2: unexpected end of expression'),
    ('system', 'P = x\nQ = y +\n',
     'ParseError: line 2, column 8: unexpected end of expression'),
    ('system', 'P = x\nQ = y + # c\n',
     'ParseError: line 2, column 9: unexpected end of expression'),
    ('system', 'P = x\nP = y\nQ = 1',
     'ParseError: line 2, column 1: duplicate definition of P'),
    ('system', 'param a = 1\nparam a = 2\nP = x\nQ = y',
     "ParseError: line 2, column 1: duplicate parameter 'a'"),
    ('system', 'P = x', 'ParseError: missing Q component'),
    ('system', 'Q = y', 'ParseError: missing P component'),
    ('system', '', 'ParseError: missing P component'),
    ('system', '# only a comment\n', 'ParseError: missing P component'),
    ('system', 'param x = 1\nP = x\nQ = y',
     "ParseError: line 1, column 1: parameter name 'x' is reserved"),
    ('system', 'param P = 1\nP = x\nQ = y',
     "ParseError: line 1, column 1: parameter name 'P' is reserved"),
    ('system', 'param param = 1\nP = x\nQ = y',
     "ParseError: line 1, column 1: parameter name 'param' is reserved"),
    ('system', 'P = mu*x\nQ = y',
     "ParseError: line 1, column 5: undefined parameter 'mu'"),
    ('system', 'P = x\nQ = y\nparam b = a',
     "ParseError: line 3, column 11: unknown identifier 'a'"),
    ('system', 'P =\nQ = y',
     'ParseError: line 1, column 1: empty expression for P'),
    ('system', 'P = x\nQ =   # nothing\n',
     'ParseError: line 2, column 1: empty expression for Q'),
    ('system', 'param a =\nP = x\nQ = y',
     "ParseError: line 1, column 1: missing value for parameter 'a'"),
    ('system', 'P = x = y\nQ = 1',
     "ParseError: line 1, column 7: unexpected token '='"),
    ('system', 'x,y',
     "ParseError: line 1, column 1: expected 'P = ...', 'Q = ...' or 'param name = value'"),
    ('system', 'P = x\nQ = y\nR = 1',
     "ParseError: line 3, column 1: expected 'P = ...', 'Q = ...' or 'param name = value'"),
    ('system', 'P = i*x\nQ = y',
     'ParseError: line 1, column 5: P has nonreal coefficients'),
    ('system', 'P = x\n  Q = (y\n', "ParseError: line 2, column 9: expected ')'"),
    ('system', 'param a = x\nP = x\nQ = y',
     "ParseError: line 1, column 11: unknown identifier 'x'"),
    ('system', 'param a = 1.\nP = x\nQ = y',
     'ParseError: line 1, column 11: malformed number'),
    ('system', 'P = x^1.5\nQ = y',
     'ParseError: line 1, column 7: nonpolynomial construct: fractional exponent'),
    ('system', 'P = P\nQ = y',
     "ParseError: line 1, column 5: unknown identifier 'P'"),
    ('system', 'parama = 1\nP = x\nQ = y',
     "ParseError: line 1, column 1: expected 'P = ...', 'Q = ...' or 'param name = value'"),
    ('system', 'param 1a = 1\nP = x\nQ = y',
     "ParseError: line 1, column 1: expected 'P = ...', 'Q = ...' or 'param name = value'"),
    ('system', 'P = x\nQ = y\n\n   param c = 1 2 # c',
     "ParseError: line 4, column 16: unexpected token '2'"),
    ('system', 'P = x/y\nQ = 1',
     'ParseError: line 1, column 6: nonpolynomial construct: division by a nonconstant expression'),
    ('multiplier', 'x +',
     'ParseError: line 1, column 4: unexpected end of expression'),
    ('multiplier', 'exp + 1',
     "ParseError: line 1, column 1: unknown identifier 'exp'"),
    ('multiplier', '(x', "ParseError: line 1, column 3: expected ')'"),
]


class TestErrors:
    @pytest.mark.parametrize(
        "kind,text,expected", ERROR_CORPUS,
        ids=[f"{case[0]}-{n}" for n, case in enumerate(ERROR_CORPUS)])
    def test_error_corpus(self, kind, text, expected):
        with pytest.raises(Exception) as err:
            PARSERS[kind](text)
        assert f"{type(err.value).__name__}: {err.value}" == expected

    @pytest.mark.parametrize("text,col", [("x^\u00b2", 3), ("\u00b2", 1),
                                          ("\u0663*x", 1)])
    def test_non_ascii_digits_rejected(self, text, col):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_poly(text)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("text,message,col", [
        ("exp(x)*@", "unexpected character '@'", 8),
        ("exp ( x ) * (1 +", "unexpected end of expression", 17),
        ("exp(x) + 1", "expected '\\*' after exp", 8),
        ("exp((x)", "unbalanced parentheses", 8),
        ("exp(x y)", "unexpected token 'y'", 7),
    ])
    def test_multiplier_positions_are_absolute(self, text, message, col):
        with pytest.raises(ParseError, match=message) as err:
            parse_multiplier(text)
        assert (err.value.line, err.value.col) == (1, col)


class TestDeepNesting:
    """Parentheses nested past the recursion limit are a ParseError at the
    token where the nesting ran out, from every entry point of the parser;
    signs are read in a loop, so a run of any length parses."""

    DEEP = {"parentheses": "(" * 3000 + "x" + ")" * 3000,
            "unary_minus": "-" * 3000 + "x"}

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_every_entry_point_raises(self, shape):
        text = self.DEEP[shape]
        calls = [lambda: parse_poly(text), lambda: parse_multiplier(text).p,
                 lambda: parse_multiplier(f"exp({text})").g,
                 lambda: parse_multiplier(f"exp(x)*{text}").p,
                 lambda: parse_system(f"P = y\nQ = {text}").q,
                 lambda: parse_list(f"x;{text}", [(";", None, "")], True)[1],
                 lambda: from_json(Poly, text)]
        constant = text.replace("x", "1")
        if shape == "unary_minus":
            for call in calls:
                assert call() == Poly.x()
            assert parse_constant(constant) == 1
            return
        for call in calls:
            with pytest.raises(ParseError, match="nested too deeply") as err:
                call()
            # the error points into the nesting, not at its start or end
            assert err.value.line in (1, 2) and 1 < err.value.col < 3000
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_constant(constant)

    def test_depths_that_parsed_still_parse(self):
        # depths that parsed in a fresh interpreter parse under the test
        # runner's deeper stack too: a parenthesis costs two frames
        x = Poly.x()
        assert parse_poly("(" * 190 + "x" + ")" * 190) == x
        assert parse_poly("-" * 500 + "x") == x
        assert parse_poly("-" * 499 + "x") == -x
        assert parse_multiplier("(" * 190 + "x" + ")" * 190).p == x
        assert parse_system("P = " + "(" * 190 + "y" + ")" * 190
                            + "\nQ = " + "-" * 501 + "x").q == -x
