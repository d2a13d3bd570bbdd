"""Parser: `.vf` grammar, expression handling, errors with positions."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import ParseError
from dulac.jsonform import from_json
from dulac.parse import (
    _ExprParser,
    Token,
    parse_constant,
    parse_list,
    parse_multiplier,
    parse_poly,
    parse_system,
    tokenize,
)

PARSERS = {"poly": parse_poly, "constant": parse_constant,
           "system": parse_system, "multiplier": parse_multiplier}
from dulac.poly import CRat, Poly, exact_numeral, format_poly

from conftest import polys


class TestParsePoly:
    def test_spec_examples(self):
        assert parse_poly("x^2 + y^2 - 1").terms == {
            (2, 0): CRat(1), (0, 2): CRat(1), (0, 0): CRat(-1)}
        assert parse_poly("(x+y)^2") == parse_poly("x^2 + 2*x*y + y^2")
        assert parse_poly("0.5*x").terms == {(1, 0): CRat(Fraction(1, 2))}

    def test_decimal_literals_exact(self):
        assert parse_poly("0.1").constant_term == Fraction(1, 10)
        assert parse_poly("2.25*y").terms == {(0, 1): CRat(Fraction(9, 4))}

    def test_imaginary_unit(self):
        assert parse_poly("i") == Poly.i()
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
        assert m.g is None
        assert m.p == parse_poly("(x^2+y^2)/4")

    def test_exp_multiplier(self):
        m = parse_multiplier("exp(x^2 + y^2)*(1 + x)")
        assert m.g == parse_poly("x^2 + y^2")
        assert m.p == parse_poly("1 + x")

    def test_exp_without_factor(self):
        m = parse_multiplier("exp(-y)")
        assert m.g == parse_poly("-y")
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
    ('system', 'P = x\nfoo\nQ = @',
     "ParseError: line 3, column 5: unexpected character '@'"),
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


# the line breaks of str.splitlines
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]


class TestLineBreaks:
    """A `.vf` file's lines are those of ``str.splitlines``, whichever of
    its breaks ends them, and an expression's line breaks are blanks."""

    FIELD = ("# van der Pol\nparam mu = 1/2  # damping\n\nP = y\n"
             "Q = -x + mu*(1 - x^2)*y  # last\n")
    ERRORS = [  # (text, its error on the third line)
        ("P = y  # c\nQ = -x\nparam mu = 1 @",
         "line 3, column 14: unexpected character '@'"),
        ("P = y\n\nQ = -x +  # c",
         "line 3, column 11: unexpected end of expression"),
        ("P = y\n# c\nQ = (x",
         "line 3, column 7: expected ')'"),
        ("P = y\nQ = x\n  param mu =",
         "line 3, column 1: missing value for parameter 'mu'"),
    ]

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    def test_every_break_ends_a_line(self, brk):
        vf = parse_system(self.FIELD.replace("\n", brk))
        expected = parse_system(self.FIELD)
        assert (vf.p, vf.q, vf.params) == (expected.p, expected.q,
                                           expected.params)
        assert vf.params == {"mu": Fraction(1, 2)}

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    @pytest.mark.parametrize("text,expected", ERRORS)
    def test_errors_keep_their_line(self, brk, text, expected):
        with pytest.raises(ParseError) as err:
            parse_system(text.replace("\n", brk))
        assert str(err.value) == expected
        assert err.value.line == 3

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    def test_breaks_are_blanks_to_parse_poly(self, brk):
        text = f"x +{brk}  y*  # c{brk}2"
        assert parse_poly(text) == parse_poly("x + y*2")
        with pytest.raises(ParseError, match="line 2, column 7: unexpected "
                                             "end of expression"):
            parse_poly(f"x +{brk}  y*  # c")

    def test_tokens(self):
        assert tokenize("x +\r\n 2 # c") == [
            Token("IDENT", "x", 1, 1), Token("OP", "+", 1, 3),
            Token("NUMBER", "2", 2, 2), Token("END", "", 2, 4)]
        assert tokenize("y\n", 5) == [Token("IDENT", "y", 5, 1),
                                      Token("END", "", 6, 1)]


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


class _PairwiseParser(_ExprParser):
    """The parser as it was before sums were added at once: a Poly per atom,
    ``x^k`` through ``**``, a divisor as a product with its inverse, and
    each sum taken pair by pair."""

    def expr(self):
        total = None
        while True:
            term = op = None
            while True:
                negate = False
                while self.peek().text in ("+", "-"):
                    negate ^= self.advance().text == "-"
                q = -self.power() if negate else self.power()
                if op is None:
                    term = q
                elif op.text == "*":
                    term = term * q
                else:
                    if not q.is_constant:
                        self.fail("nonpolynomial construct: division by a "
                                  "nonconstant expression", op)
                    if q.is_zero:
                        self.fail("division by zero", op)
                    term = term * (Poly.const(1) / q)
                if self.peek().text not in ("*", "/"):
                    break
                op = self.advance()
            total = term if total is None else (
                total + term if add else total - term)
            if self.peek().text not in ("+", "-"):
                return total
            add = self.advance().text == "+"

    def power(self):
        tok = self.advance()
        if tok.kind == "NUMBER":
            base = Poly.const(Fraction(tok.text))
        elif tok.kind == "IDENT":
            base = self.lookup(tok)
        elif tok.text == "(":
            base = self.expr()
            closing = self.advance()
            if closing.text != ")":
                self.fail("expected ')'", closing)
        else:
            self.fail(f"unexpected token {tok.text!r}" if tok.kind != "END"
                      else "unexpected end of expression", tok)
        if self.peek().text != "^":
            return base
        caret = self.advance()
        exp_tok = self.peek()
        if exp_tok.text == "-":
            self.fail("nonpolynomial construct: negative exponent", caret)
        if exp_tok.kind != "NUMBER":
            self.fail("exponent must be a nonnegative integer literal", exp_tok)
        self.advance()
        if "." in exp_tok.text:
            self.fail("nonpolynomial construct: fractional exponent", exp_tok)
        return base ** int(exp_tok.text)

    def lookup(self, tok):
        name = tok.text
        if self.variables:
            if name == "x":
                return Poly.x()
            if name == "y":
                return Poly.y()
            if name == "i":
                return Poly.i()
        if name in self.env:
            return self.env[name]
        self.fail(f"unknown identifier {name!r}", tok)


# parameters, one of them zero, so a division by it is an error
_ENV = {"a": Poly.const(Fraction(3, 4)), "b": Poly.const(-2),
        "c": Poly.const(0)}
_NUMERALS = st.one_of(st.integers(0, 12).map(str),
                      st.integers(10 ** 20, 10 ** 40).map(str),
                      st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}", fullmatch=True))


@st.composite
def _expr_texts(draw, depth=2, constant=False):
    """Text of the expression grammar: decimals, names (``i`` and
    parameters too), parentheses, powers (of sums as well), runs of signs,
    and divisions by constant expressions, which may be zero.  A power of a
    parenthesis holds no parenthesis, so the degree stays small."""

    def power(constant, depth):
        kinds = ["number", "name"] + (["parenthesis"] if depth else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "number":
            atom = draw(_NUMERALS)
        elif kind == "name":
            names = ["i", *_ENV] + ([] if constant else ["x", "y"])
            atom = draw(st.sampled_from(names))
        else:
            atom = f"({draw(_expr_texts(depth - 1, constant))})"
        if (kind != "parenthesis" or depth == 1) and draw(st.booleans()):
            atom += f"^{draw(st.integers(0, 3 if kind != 'parenthesis' else 2))}"
        return atom

    def signed(constant):
        signs = draw(st.sampled_from(["", "-", "+", "--", "- +", "-+-"]))
        return signs + power(constant, depth)

    text = ""
    for n in range(draw(st.integers(1, 4))):
        if n:
            text += draw(st.sampled_from([" + ", " - ", "-", "+"]))
        text += signed(constant)
        for _ in range(draw(st.integers(0, 2))):
            text += ("*" + signed(constant) if draw(st.booleans())
                     else "/" + signed(True))
    return text


def _parse_with(parser_class, text):
    try:
        return parser_class(tokenize(text), env=dict(_ENV)).parse()
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


class TestAgainstPairwiseParser:
    @settings(max_examples=300, deadline=None)
    @given(_expr_texts())
    def test_same_polynomial_and_term_order(self, text):
        got = _parse_with(_ExprParser, text)
        expected = _parse_with(_PairwiseParser, text)
        if isinstance(expected, tuple):  # an error: the same one
            assert got == expected
            return
        assert got.numerators == expected.numerators
        assert got.denominator == expected.denominator
        assert list(got.numerators) == list(expected.numerators)
        assert list(got.terms) == list(expected.terms)

    @pytest.mark.parametrize("text", [
        "x - x + y - x", "-(x + y)^2/3 + (x - y)*(x + y)", "--x*-y/-2",
        "1/3*x + 1/6*x - 1/2*x + y", "(x + i*y)*(x - i*y) - x^2", "0^0*x^0",
        "2.50*x^3/0.5 - 10*x^3 + 0.125", "a*x/b + (i/a)^2"])
    def test_cancellations_and_signs(self, text):
        got = _parse_with(_ExprParser, text)
        expected = _parse_with(_PairwiseParser, text)
        assert (got.numerators, got.denominator) == (
            expected.numerators, expected.denominator)
        assert list(got.numerators) == list(expected.numerators)

    def test_parse_builds_no_fraction(self, monkeypatch):
        # literals, powers, divisions and sums stay on integer numerators
        text = "3*x^2*y - 12*(x + 2*y)^3/7 + 0.25 - (x - y)*(5*x + 1)^2 + 4"
        expected = parse_poly(text)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        got = parse_poly(text)
        monkeypatch.undo()
        assert made == [] and got == expected
        assert list(got.numerators) == list(expected.numerators)


class TestLongNumerals:
    """Integers past the interpreter's 4,300-digit limit on ``int`` and
    ``str`` conversion are read and printed exactly."""

    def test_power_and_literal_print_exactly(self):
        p = parse_poly("10^5000*x - y")
        assert p.numerators == {(1, 0): 10 ** 5000, (0, 1): -1}
        assert format_poly(p) == "1" + "0" * 5000 + "*x - y"
        literal = "7" * 5000  # 7 * (10^5000 - 1) / 9
        q = parse_poly(f"{literal}/3*x + 0.{literal}")
        sevens = 7 * (10 ** 5000 - 1)
        assert q.terms == {(1, 0): CRat(Fraction(sevens, 27)),
                           (0, 0): CRat(Fraction(sevens, 9 * 10 ** 5000))}
        assert parse_poly(format_poly(q)) == q
        assert parse_poly(format_poly(-p)) == -p

    @settings(max_examples=200)
    @given(st.fractions())
    def test_ordinary_numerals_print_as_str(self, q):
        assert format_poly(Poly.const(q)) == (str(q) if q else "0")
        assert exact_numeral(q) == str(q)
        assert parse_constant(str(q)) == q
