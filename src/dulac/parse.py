"""Parser for polynomial expressions and `.vf` system files.

One scanner, ``tokenize``, reads the characters of every input: `.vf` files a
line at a time (``str.splitlines``), expressions, multipliers and the CLI's
list arguments.  It skips blanks, ``#`` comments and line breaks, gives each
token its line and column, and ends the list with one END token.

Grammar for expressions (explicit operators only, no implicit products):

    expr   := term (('+' | '-') term)*
    term   := signed (('*' | '/') signed)*
    signed := ('+' | '-')* power
    power  := (NUMBER | IDENT | '(' expr ')') ('^' INTEGER)?

``_ExprParser.expr`` reads the first three rules in loops, so only a
parenthesis nests a call (of ``power``), and runs of signs have no limit.
A sum is built once: its terms, products of powers whose signs make one
sign, are added by ``poly.signed_sum`` over their lcm denominator, in the
pairwise sum's term order, and a term's factors by ``poly.product``, which
refuses a degree above ``poly.MAX_DEGREE`` before it forms any power.  A
term's numbers and powers of x and y make one monomial from integers, and
a monomial term above the budget, ``x^300`` too, is refused as ``**``
refuses it (``poly.check_degrees``).

NUMBER is ASCII ``[0-9]+('.'[0-9]+)?`` and IDENT is ``[A-Za-z_][A-Za-z0-9_]*``.
Division is restricted to nonzero constant divisors and exponents to literal
nonnegative integers; anything else is rejected as a nonpolynomial construct.
Decimal literals of any length are converted exactly (0.5 -> 1/2, through
``Decimal``).  The identifier ``i`` is reserved for the imaginary unit.

`.vf` files are line-oriented:

    line := "P = " expr | "Q = " expr | "param " ident " = " number

A multiplier is an expression, or ``exp(expr)`` optionally followed by
``* expr``.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .multiplier import Multiplier
from .poly import Poly, VectorField, check_degrees, product, signed_sum

_RESERVED = {"x", "y", "i", "P", "Q", "param"}

# the line breaks of str.splitlines; any other whitespace is a blank
_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_TOKEN_RE = re.compile(rf"""
    [^\S{_BREAKS}]+
  | (?:\#[^{_BREAKS}]*)?(?:(?P<BREAK>\r\n|[{_BREAKS}])|(?P<END>\Z))
  | (?P<NUMBER>[0-9]+(?:\.[0-9]*)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[-+*/^()=,;:])
  | (?P<BAD>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    line: int
    col: int


def tokenize(text: str, line: int = 1) -> list[Token]:
    """The tokens of ``text``, whose first line is ``line``, and an END
    token where it ends, at its trailing comment if it has one.  A line
    break is a blank that starts the next line.  Raises ParseError at a
    character that starts no token and at a number that ends in '.'."""
    tokens = []
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        col = m.start() - line_start + 1
        if kind == "BREAK":
            line += 1
            line_start = m.end()
        elif kind == "END":
            tokens.append(Token("END", "", line, col))
            return tokens
        elif kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind == "NUMBER" and m.group().endswith("."):
            raise ParseError("malformed number", line, col)
        else:
            tokens.append(Token(kind, m.group(), line, col))


class _ExprParser:
    """Parses a token stream into a canonical Poly.

    ``env`` maps identifier names to constant polynomials (parameter values).
    ``variables`` toggles whether x, y and the imaginary unit are admitted;
    with it off the parser accepts only constant expressions.
    """

    def __init__(self, tokens: list[Token], env: dict | None = None,
                 variables: bool = True):
        self.tokens = tokens
        self.pos = 0
        self.env = env if env is not None else {}
        self.has_params = env is not None
        self.variables = variables

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col) from None

    def parse(self) -> Poly:
        p = self.outer_expr()
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected token {tok.text!r}")
        return p

    def outer_expr(self) -> Poly:
        try:  # nesting past the recursion limit fails where it ran out
            return self.expr()
        except RecursionError:
            self.fail("expression nested too deeply")

    def expr(self) -> Poly:
        """A sum of signed terms, each a product of powers, read left to right
        in loops (only a parenthesis nests, through ``power``), added once.
        A term's numbers and powers of x and y make one monomial as they are
        read; the term is that monomial, or ``poly.product`` of it and the
        term's other ``(base, exponent)`` pairs, a divisor's exponent -1.
        A monomial factor commutes with the rest without changing the
        product's term order.  Either way a term of degree above
        ``poly.MAX_DEGREE`` in x or y, ``x^300`` too, is refused before
        anything is expanded, as ``**`` refuses it."""
        terms = []
        sign = 1
        while True:
            num, den, mi, mj = 1, 1, 0, 0  # the monomial num/den x^mi y^mj
            factors, op = [], None
            while True:
                while self.peek().text in ("+", "-"):
                    sign = -sign if self.advance().text == "-" else sign
                divide = op is not None and op.text == "/"
                tok = self.peek()
                if tok.kind == "NUMBER" or (self.variables
                                            and tok.text in ("x", "y")):
                    c, d, i, j = self.monomial()
                    if not divide:
                        num, den, mi, mj = num * c, den * d, mi + i, mj + j
                    elif i or j:
                        self._nonconstant_divisor(op)
                    elif not c:
                        self.fail("division by zero", op)
                    else:
                        num, den = num * d, den * c
                else:
                    base, k = self.power()
                    if divide:
                        base = base if k == 1 else base ** k
                        if not base.is_constant:
                            self._nonconstant_divisor(op)
                        if base.is_zero:
                            self.fail("division by zero", op)
                        k = -1
                    factors.append((base, k))
                if self.peek().text not in ("*", "/"):
                    break
                op = self.advance()
            mono = Poly._make({(mi, mj): num} if num else {}, den)
            if factors:
                mono = product([(mono, 1), *factors])
            elif num:
                check_degrees(mi, mj)
            terms.append((mono, sign))
            if self.peek().text not in ("+", "-"):
                return signed_sum(terms)
            sign = 1 if self.advance().text == "+" else -1

    def _nonconstant_divisor(self, op: Token):
        self.fail("nonpolynomial construct: division by a nonconstant "
                  "expression", op)

    def monomial(self) -> tuple:
        """A number, x or y and its exponent, as ``(c, d, i, j)``, the
        monomial c/d x^i y^j."""
        tok = self.advance()
        if tok.kind == "NUMBER":
            num, den = Decimal(tok.text).as_integer_ratio()  # at any length
            k = self.exponent()
            return num ** k, den ** k, 0, 0
        k = self.exponent()
        return (1, 1, k, 0) if tok.text == "x" else (1, 1, 0, k)

    def power(self) -> tuple:
        """A name or ``( expr )`` and its exponent, as ``(base, k)``."""
        tok = self.advance()
        if tok.kind == "IDENT":
            base = self.lookup(tok)
        elif tok.text == "(":
            base = self.expr()
            closing = self.advance()
            if closing.text != ")":
                self.fail("expected ')'", closing)
        else:
            self.fail(f"unexpected token {tok.text!r}" if tok.kind != "END"
                      else "unexpected end of expression", tok)
        return base, self.exponent()

    def exponent(self) -> int:  # the literal after a '^', or 1
        if self.peek().text != "^":
            return 1
        caret = self.advance()
        exp_tok = self.peek()
        if exp_tok.text == "-":
            self.fail("nonpolynomial construct: negative exponent", caret)
        if exp_tok.kind != "NUMBER":
            self.fail("exponent must be a nonnegative integer literal", exp_tok)
        self.advance()
        if "." in exp_tok.text:
            self.fail("nonpolynomial construct: fractional exponent", exp_tok)
        return int(exp_tok.text)

    def lookup(self, tok: Token) -> Poly:
        name = tok.text
        if self.variables and name == "i":
            return Poly.i()
        if name in self.env:
            return self.env[name]
        if self.variables and self.has_params and name not in _RESERVED:
            self.fail(f"undefined parameter {name!r}", tok)
        self.fail(f"unknown identifier {name!r}", tok)


def _constant(tokens: list[Token]) -> Fraction:
    # constant mode admits neither variables nor i, so the value is real
    return _ExprParser(tokens, variables=False).parse().constant_term


def parse_poly(text: str) -> Poly:
    """Parse a polynomial expression in x, y into canonical expanded form."""
    return _ExprParser(tokenize(text)).parse()


def parse_constant(text: str) -> Fraction:
    """Parse a constant real expression ("-3", "1/2", "0.25") to a Fraction."""
    return _constant(tokenize(text))


def parse_list(text: str, levels, variables: bool = False) -> list:
    """Nested lists of the constants in ``text`` (polynomials if ``variables``)
    split on (separator, count, shape) ``levels``, outermost first.  A list
    with a count has that many entries, or ParseError ``shape`` points at
    its first extra separator or its end; other lists drop blank entries."""
    return _read_list(tokenize(text), levels, variables)


def _read_list(tokens: list[Token], levels, variables: bool):
    if not levels:
        return _ExprParser(tokens).parse() if variables else _constant(tokens)
    (sep, count, shape), inner = levels[0], levels[1:]
    pieces, start = [], 0
    for i, tok in enumerate(tokens):
        if tok.text == sep or tok.kind == "END":
            pieces.append(tokens[start:i] + [tok._replace(kind="END")])
            start = i + 1
    if count is None:
        pieces = [p for p in pieces if len(p) > 1]
    elif len(pieces) != count:
        end = pieces[min(count, len(pieces)) - 1][-1]
        raise ParseError(shape, end.line, end.col)
    return [_read_list(p, inner, variables) for p in pieces]


def parse_system(text: str) -> VectorField:
    """Parse a `.vf` system definition into a VectorField.

    Both components are expanded to canonical form with all parameters
    substituted, so printing and re-parsing round-trips to an equal field.
    """
    components: dict[str, list[Token]] = {}
    params: dict[str, Fraction] = {}
    # every line is scanned before any is read: a scanner error comes first
    lines = [tokenize(line_text, n)
             for n, line_text in enumerate(text.splitlines(), 1)]
    for tokens in lines:
        if tokens[0].kind == "END":
            continue
        first, second, lineno = tokens[0], tokens[1], tokens[0].line
        if (first.text == "param" and second.kind == "IDENT"
                and tokens[2].text == "="):
            name = second.text
            if name in _RESERVED:
                raise ParseError(f"parameter name {name!r} is reserved", lineno, 1)
            if name in params:
                raise ParseError(f"duplicate parameter {name!r}", lineno, 1)
            if tokens[3].kind == "END":
                raise ParseError(f"missing value for parameter {name!r}", lineno, 1)
            params[name] = _constant(tokens[3:])
        elif first.text in ("P", "Q") and second.text == "=":
            name = first.text
            if name in components:
                raise ParseError(f"duplicate definition of {name}", lineno, 1)
            if tokens[2].kind == "END":
                raise ParseError(f"empty expression for {name}", lineno, 1)
            components[name] = tokens[2:]
        else:
            raise ParseError("expected 'P = ...', 'Q = ...' or 'param name = value'",
                             lineno, 1)

    for required in ("P", "Q"):
        if required not in components:
            raise ParseError(f"missing {required} component")

    env = {name: Poly.const(value) for name, value in params.items()}
    parsed = {}
    for name, tokens in components.items():
        p = _ExprParser(tokens, env=env).parse()
        if not p.is_real:
            raise ParseError(f"{name} has nonreal coefficients",
                             tokens[0].line, tokens[0].col)
        parsed[name] = p
    return VectorField(p=parsed["P"], q=parsed["Q"], params=params,
                       source_text=text)


def parse_multiplier(text: str) -> Multiplier:
    """Parse a multiplier: a polynomial p is Multiplier(p), and `exp(<g>)` or
    `exp(<g>)*<p>` is Multiplier(p, g), with p = 1 when absent.  A given g
    of 0 (`exp(0)*x`) is still the exponential form."""
    parser = _ExprParser(tokenize(text))
    if [tok.text for tok in parser.tokens[:2]] != ["exp", "("]:
        return Multiplier(parser.parse())
    parser.pos = 2
    g = parser.outer_expr()
    closing = parser.advance()
    if closing.kind == "END":
        parser.fail("unbalanced parentheses in exp(...)", closing)
    if closing.text != ")":
        parser.fail(f"unexpected token {closing.text!r}", closing)
    if parser.peek().kind == "END":
        return Multiplier(Poly.const(1), g)
    if parser.peek().text != "*":
        parser.fail("expected '*' after exp(...)")
    parser.advance()
    return Multiplier(parser.parse(), g)
