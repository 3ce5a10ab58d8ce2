"""Parsing and rendering: polynomial expressions and model files.

Expression grammar (whitespace insignificant, `#` starts a comment):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-'* power
    power  := atom ['^' integer]
    atom   := rational | name | '(' expr ')'
    rational := integer ['/' integer]

`^` binds tighter than `*`, which binds tighter than `+`/`-`.  Parentheses
and unary minus signs together nest at most MAX_NESTING deep, so no input
exhausts the stack.  Model files are line oriented: `generator <name>
<degree>` declarations followed by `d <name> = <expression>` lines;
undeclared differentials are zero.  In `d <name>`, a power of a sum, and
a product with a sum among its factors, is rejected before it is expanded
when it has a term above deg <name> + 1.  In a polynomial, so is a power
of a sum that could have more than MAX_POWER_TERMS terms, a product whose
factors' term counts multiply to more than that, and any power or product
of sums after which those estimates add up to more than twice that, over
the polynomial or over all the polynomials parsed together.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable

from .algebra import AlgebraElement, GeneratorTable, sorted_monomials
from .groebner import Polynomial, PolyRing, _grevlex_key
from .model import SullivanModel


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ", ".join(f"{k} {v}" for k, v in (("line", line), ("column", column)) if v is not None)
        super().__init__(f"{where}: {message}" if where else message)


MAX_NESTING = 100

# the most terms a power of a sum in a polynomial may expand to, and the
# most pairs of terms a product in a polynomial may multiply out
MAX_POWER_TERMS = 1_000

_TOKEN = re.compile(r"(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|([()+\-*/^]))")


def _tokenize(text: str, line: int | None = None):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        number, name, op = match.groups()
        if number is not None:
            try:
                tokens.append(("int", int(number), pos + 1))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError(f"integer of {len(number)} digits is too long", line, pos + 1) from None
        elif name is not None:
            tokens.append(("name", name, pos + 1))
        else:
            tokens.append(("op", op, pos + 1))
        pos = match.end()
    return tokens


class _ExpressionParser:
    """Recursive descent over the tokens, producing values in any algebra.

    The symbols dict maps names to elements; `scalar` embeds a rational.
    Elements must support +, -, * and ** with integer exponents.
    `check_power(base, exponent)`, if given, runs before each power is
    expanded, and `check_product(lhs, rhs)` before each product is
    multiplied out; each returns an error message or None.
    """

    def __init__(self, tokens, symbols, scalar, line=None, check_power=None, check_product=None):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        self.scalar = scalar
        self.line = line
        self.check_power = check_power
        self.check_product = check_product
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", self.line, tok[2])

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                rhs = self.unary()
                problem = self.check_product and self.check_product(value, rhs)
                if problem:
                    raise ParseError(problem, self.line, tok[2])
                value = value * rhs
            else:
                return value

    def enter(self, tok):
        """One more level of nesting, at a parenthesis or a unary minus."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", self.line, tok[2])

    def unary(self):
        signs = 0
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == "-":
            self.take()
            self.enter(tok)
            signs += 1
        value = self.power()
        self.depth -= signs
        return self.scalar(-1) * value if signs % 2 else value

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", self.line, exp_tok[2])
            problem = self.check_power and self.check_power(base, exp_tok[1])
            if problem:
                raise ParseError(problem, self.line, tok[2])
            return base ** exp_tok[1]
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            value = tok[1]
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "int" or den_tok[1] == 0:
                    raise ParseError("denominator must be a nonzero integer", self.line, den_tok[2])
                value = Fraction(tok[1], den_tok[1])
            return self.scalar(value)
        if tok[0] == "name":
            try:
                return self.symbols(tok[1])
            except KeyError:
                raise ParseError(f"unknown generator {tok[1]!r}", self.line, tok[2]) from None
        if tok[0] == "op" and tok[1] == "(":
            self.enter(tok)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])


def parse_element(
    text: str, table: GeneratorTable, line: int | None = None, max_degree: int | None = None
) -> AlgebraElement:
    """The element written in text.  With max_degree, a power of a sum,
    and a product with a sum among its factors, is rejected before it is
    expanded when it has a term above that degree.  The monomials without
    odd factors span a polynomial ring, which has no zero divisors, and a
    product with an odd factor has one too or vanishes.  So the terms
    without odd factors of the factors multiply to a nonzero part whose
    top degree is the sum of theirs: e·t for the e-th power of a sum whose
    terms of that kind reach degree t (only another summand of the
    expression could cancel it)."""
    odd = table.odd_indices()

    def check(kind: str, *factors: tuple[AlgebraElement, int]) -> str | None:
        """The error for a product of factors (element, exponent) with a
        term above max_degree, or None."""
        if all(len(element.terms) < 2 for element, _ in factors):
            return None  # a product of single terms is one term: no expansion
        degree = 0
        for element, exponent in factors:
            even = [table.monomial_degree(m) for m in element.terms if not any(m[i] for i in odd)]
            if not even:
                return None  # every term of the product has an odd factor
            degree += exponent * max(even)
        if degree > max_degree:
            return f"a {kind} of degree {degree} exceeds the expected degree {max_degree}"
        return None

    parser = _ExpressionParser(_tokenize(text, line), lambda name: table.generator(name), table.scalar, line)
    if max_degree is not None:
        parser.check_power = lambda base, exponent: check("power", (base, exponent))
        parser.check_product = lambda lhs, rhs: check("product", (lhs, 1), (rhs, 1))
    return parser.parse()


def _power_terms(base: Polynomial, exponent: int) -> int:
    """An upper bound on the number of terms of base**exponent.  Each term
    is a product of `exponent` terms of the base, so there are at most
    C(t + e − 1, e) of them for t terms; and each is a monomial in the n
    variables of the base whose degree lies between e times the least and
    e times the greatest degree of its terms, of which there are
    C(n + hi, n) − C(n + lo − 1, n)."""
    n = sum(1 for i in range(len(base.ring)) if any(m[i] for m in base.terms))
    degrees = [sum(m) for m in base.terms]
    lo, hi = exponent * min(degrees), exponent * max(degrees)
    return min(comb(len(base.terms) + exponent - 1, exponent), comb(n + hi, n) - comb(n + lo - 1, n))


def parse_polynomial(text: str, ring: PolyRing, line: int | None = None) -> Polynomial:
    """The polynomial written in text.  A power of a sum that could have
    more than MAX_POWER_TERMS terms (`_power_terms`) is rejected before it
    is expanded, and so is a product whose factors' term counts multiply
    to more than MAX_POWER_TERMS, before it is multiplied out.  Those
    estimates, for every power of a sum and every product of two sums in
    the text, may add up to at most twice MAX_POWER_TERMS, so a long text
    cannot chain many expansions that each pass."""
    return parse_polynomials([text], ring, line)[0]


def parse_polynomials(texts: Iterable[str], ring: PolyRing, line: int | None = None) -> list[Polynomial]:
    """The polynomials written in texts, each checked as by
    `parse_polynomial`, but under one allowance: the estimates add up over
    all the texts, so many texts cannot chain many expansions either."""
    total = 0

    def spend(estimate: int) -> str | None:
        nonlocal total
        total += estimate
        if total > 2 * MAX_POWER_TERMS:
            return f"powers and products of sums with more than {2 * MAX_POWER_TERMS} terms in all"
        return None

    def check_power(base: Polynomial, exponent: int) -> str | None:
        if len(base.terms) < 2:
            return None
        terms = _power_terms(base, exponent)
        if terms > MAX_POWER_TERMS:
            return f"a power of a sum with more than {MAX_POWER_TERMS} terms"
        return spend(terms)

    def check_product(lhs: Polynomial, rhs: Polynomial) -> str | None:
        pairs = len(lhs.terms) * len(rhs.terms)
        if pairs > MAX_POWER_TERMS:
            return f"a product of sums with more than {MAX_POWER_TERMS} pairs of terms"
        return spend(pairs) if len(lhs.terms) > 1 and len(rhs.terms) > 1 else None

    return [
        _ExpressionParser(
            _tokenize(text, line), lambda name: ring.variable(name), ring.scalar, line, check_power, check_product
        ).parse()
        for text in texts
    ]


def variables_in(text: str) -> list[str]:
    """Names appearing in an expression, sorted; used for default ring inference."""
    return sorted({tok[1] for tok in _tokenize(text) if tok[0] == "name"})


# -- model files --------------------------------------------------------------


def parse_model(text: str) -> SullivanModel:
    """Parse the line-oriented model format and validate the model."""
    entries: list[tuple[str, int]] = []
    raw_differentials: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generator"):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected `generator <name> <degree>`", lineno)
            _, name, degree = parts
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name):
                raise ParseError(f"bad generator name {name!r}", lineno)
            try:
                degree_value = int(degree)
            except ValueError:
                raise ParseError(f"bad degree {degree!r}", lineno) from None
            entries.append((name, degree_value))
        elif line.startswith("d "):
            body = line[2:]
            if "=" not in body:
                raise ParseError("expected `d <name> = <expression>`", lineno)
            name, expression = body.split("=", 1)
            raw_differentials.append((name.strip(), expression.strip(), lineno))
        else:
            raise ParseError(f"unrecognized directive {line.split()[0]!r}", lineno)
    try:
        table = GeneratorTable(entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    differential = {}
    for name, expression, lineno in raw_differentials:
        if name not in table.names:
            raise ParseError(f"unknown generator {name!r}", lineno)
        if name in differential:
            raise ParseError(f"duplicate differential for {name!r}", lineno)
        target = table.degrees[table.index(name)] + 1
        differential[name] = parse_element(expression, table, lineno, target)
    m = SullivanModel(table, differential)
    violation = m.validate()
    if violation is not None:
        raise ParseError(f"invalid model ({violation.kind}): {violation.message}")
    return m


# -- rendering ----------------------------------------------------------------


def render_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _render_terms(names, terms: dict, ordered) -> str:
    """The terms {exponent vector: coefficient} over the named variables, in
    the given order of their exponent vectors."""
    if not ordered:
        return "0"
    chunks = []
    for i, mono in enumerate(ordered):
        coeff = terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e)
        if not body:
            piece = render_fraction(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{render_fraction(mag)}*{body}"
        if i == 0:
            chunks.append(piece if sign == "+" else f"-{piece}")
        else:
            chunks.append(f" {sign} {piece}")
    return "".join(chunks)


def render_element(element: AlgebraElement) -> str:
    ordered = sorted_monomials(element.table, element.terms)
    return _render_terms(element.table.names, element.terms, ordered)


def render_polynomial(p: Polynomial) -> str:
    return _render_terms(p.ring.variables, p.terms, sorted(p.terms, key=_grevlex_key, reverse=True))


def render_model(m: SullivanModel) -> str:
    lines = [f"generator {name} {degree}" for name, degree in zip(m.table.names, m.table.degrees)]
    for i, name in enumerate(m.table.names):
        if not m.images[i].is_zero():
            lines.append(f"d {name} = {render_element(m.images[i])}")
    return "\n".join(lines) + "\n"
