"""Parsing and printing of Laurent polynomial expressions.

The surface syntax is deliberately small: integer and a/b rational
literals, variables x, y, z (synonyms for x1, x2, x3) and x1 through x9,
explicit * for products, ^ for integer powers (negative exponents allowed
on monomial bases), parentheses, and unary minus. There is no general
division. format_expression is a right inverse of parse_expression, which
the command line tools rely on for round-tripping.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from operator import add
from typing import Iterable

from .laurent import LaurentPolynomial, _collect

__all__ = ["parse_expression", "format_expression", "ExpressionError"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x[1-9]|[xyz])|(?P<op>\*\*|[-+*^()]))"
)

_VAR_INDEX = {"x": 1, "y": 2, "z": 3}


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected input at {rest[:10]!r}")
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("var"):
            tokens.append(("var", m.group("var")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    return tokens


def _variable_index(name: str) -> int:
    if name in _VAR_INDEX:
        return _VAR_INDEX[name]
    return int(name[1:])


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], rank: int, max_terms: int | None = None):
        self.tokens = tokens
        self.pos = 0
        self.rank = rank
        self.max_terms = max_terms

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ExpressionError(f"expected {op!r}, found {tok[1]!r}")

    def parse_sum(self) -> LaurentPolynomial:
        """A sum of terms, each summand (negated after a -) collected once
        into one dict, so an n-term sum is parsed in linear time."""
        terms: dict = {}
        negate = False
        while True:
            summand = self.parse_term().terms.items()
            _collect(terms, ((e, -c) for e, c in summand) if negate else summand)
            if self.peek() not in (("op", "+"), ("op", "-")):
                return LaurentPolynomial._from_clean(self.rank, terms)
            negate = self.take() == ("op", "-")

    def parse_term(self) -> LaurentPolynomial:
        value = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.take()
            factor = self.parse_factor()
            if self.max_terms is not None and len(value) * len(factor) > self.max_terms:
                _check_support(self.rank, [value.terms, factor.terms], self.max_terms, "product")
            value = value * factor
        return value

    def parse_factor(self) -> LaurentPolynomial:
        sign = 1
        while self.peek() == ("op", "-"):
            self.take()
            sign = -sign
        value = self.parse_power()
        return value if sign == 1 else -value

    def parse_power(self) -> LaurentPolynomial:
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.parse_exponent()
            if self.max_terms is not None and len(base) > 1:
                _check_support(self.rank, repeat(base.terms, exponent), self.max_terms, "power")
            try:
                return base**exponent
            except ValueError as exc:
                raise ExpressionError(str(exc)) from None
        return base

    def parse_exponent(self) -> int:
        parenthesized = self.peek() == ("op", "(")
        if parenthesized:
            self.take()
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        kind, text = self.take()
        if kind != "num" or "/" in text:
            raise ExpressionError("exponents must be integers")
        if parenthesized:
            self.expect_op(")")
        return sign * int(text)

    def parse_atom(self) -> LaurentPolynomial:
        kind, text = self.take()
        if kind == "num":
            try:
                return LaurentPolynomial.constant(self.rank, Fraction(text))
            except ZeroDivisionError:
                raise ExpressionError(f"zero denominator in {text!r}") from None
        if kind == "var":
            return LaurentPolynomial.variable(self.rank, _variable_index(text) - 1)
        if (kind, text) == ("op", "("):
            value = self.parse_sum()
            self.expect_op(")")
            return value
        raise ExpressionError(f"unexpected token {text!r}")


def _check_support(rank: int, supports: Iterable, max_terms: int, what: str) -> None:
    """Raise ExpressionError when a product of polynomials with the given
    supports, such as a power or two factors, can have more than max_terms
    terms, before it is expanded: its support lies in the sumset of theirs,
    which is counted and abandoned as soon as it exceeds max_terms."""
    sums = {(0,) * rank}
    for support in supports:
        grown = set()
        for s in sums:
            grown.update(tuple(map(add, s, e)) for e in support)
            if len(grown) > max_terms:
                raise ExpressionError(f"a {what} exceeds the cap of {max_terms} terms")
        sums = grown


def parse_expression(
    text: str, rank: int | None = None, *, max_terms: int | None = None
) -> LaurentPolynomial:
    """Parse an expression string into a Laurent polynomial.

    The rank defaults to the largest variable index that appears (0 for a
    constant expression); pass rank explicitly to embed into more variables.
    With max_terms, a power or a product whose exponent support can exceed
    max_terms terms raises ExpressionError before it is expanded; by default
    neither is bounded.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    seen = [_variable_index(t) for k, t in tokens if k == "var"]
    inferred = max(seen) if seen else 0
    if rank is None:
        rank = inferred
    elif rank < inferred:
        raise ExpressionError(f"expression uses x{inferred} but rank is {rank}")
    parser = _Parser(tokens, rank, max_terms)
    value = parser.parse_sum()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input at {parser.peek()[1]!r}")
    return value


def _exponents(text: str) -> list[int]:
    """The exponent after each ^ of an expression, read by the parser's own
    exponent rule without evaluating anything, so that a caller can bound
    the powers before parse_expression expands them. An exponent that does
    not parse is skipped here and reported by parse_expression."""
    tokens = _tokenize(text)
    reader = _Parser(tokens, 0)
    out = []
    for i, token in enumerate(tokens):
        if token == ("op", "^"):
            reader.pos = i + 1
            try:
                out.append(reader.parse_exponent())
            except ExpressionError:
                pass
    return out


def _variable_name(index: int, rank: int) -> str:
    if rank <= 3:
        return "xyz"[index]
    return f"x{index + 1}"


def _format_monomial(exponent: tuple[int, ...], rank: int) -> str:
    parts = []
    for i, e in enumerate(exponent):
        if e == 0:
            continue
        name = _variable_name(i, rank)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_expression(p: LaurentPolynomial) -> str:
    """Canonical expression string: terms in increasing lexicographic
    exponent order, explicit * between coefficient and variables."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for e, c in sorted(p.terms.items()):
        mono = _format_monomial(e, p.rank)
        if not mono:
            body = str(c) if c > 0 else str(-c)
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(pieces)
