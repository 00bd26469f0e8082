"""Differential polynomials in one dependent function u of s.

This is the coefficient algebra for the Lenard recursion: exact rational
polynomials in s and the jet variables u, u', u'', ...  The total derivative
treats s as the independent variable (s' = 1, u^(i) -> u^(i+1)).

``formal_integral`` inverts the total derivative inside the ring when an
antiderivative exists and raises :class:`NotExactDerivative` otherwise; no
formal antiderivative symbols are ever introduced.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .jetring import Poly, Ring
from . import render

U_RING = Ring(("u",))


class NotExactDerivative(ArithmeticError):
    """The polynomial is not the total derivative of any differential
    polynomial (e.g. a bare u or u**2 term survives integration by parts)."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str):
        super().__init__(f"{message} at position {position} (expected {expected})")
        self.position = position
        self.expected = expected


def u(order: int = 0) -> Poly:
    return U_RING.var("u", order)


def s(power: int = 1) -> Poly:
    return U_RING.s(power)


def const(c) -> Poly:
    return U_RING.const(c)


def formal_integral(p: Poly) -> Poly:
    """Exact antiderivative with zero integration constant.

    Integration by parts from the top jet order down, on the terms split
    once by their highest order.  At order r, c*N*(u^(r-1))^a * u^(r)
    integrates to c/(a+1)*N*(u^(r-1))^(a+1); the derivative of that block
    is the part at r plus a rest, subtracted from the parts below.  A
    nonlinear top jet or a leftover u-only term has no antiderivative.
    """
    if p.ring != U_RING:
        raise ValueError("formal_integral is defined on the u-jet ring")
    result, parts = U_RING.zero(), p.by_top_order()
    for r in range(max(parts, default=0), 0, -1):
        part = parts.pop(r, None)
        if not part:
            continue
        powers = part.collect("u", r)
        if any(e >= 2 for e in powers):
            raise NotExactDerivative(f"u^({r}) appears nonlinearly at top order")
        # (u^(r-1))^a -> (u^(r-1))^(a+1) / (a+1)
        block = powers[1].integrate_power(u(r - 1))
        result += block
        lower = block.total_derivative().by_top_order()
        if lower.pop(r, None) != part:
            raise NotExactDerivative("integration by parts failed to reduce order")
        for j, rest in lower.items():
            parts[j] = parts[j] - rest if j in parts else -rest
    if parts.get(0):                   # quote everything still unintegrated
        raise NotExactDerivative("no differential-polynomial antiderivative "
                                 f"(leftover {sum(parts.values(), U_RING.zero())!s})")
    # only powers of s remain: s^n -> s^(n+1) / (n+1)
    return result + parts.get(-1, U_RING.zero()).integrate_power(s())


# -- ASCII expression grammar --------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := unary ('*' unary)*
#   unary  := '-' unary | factor
#   factor := atom ('^' INT)?
#   atom   := RATIONAL | 's' | 'u' QUOTE* | 'D' INT '(' 'u' ')' | '(' expr ')'
#
# RATIONAL is INT or INT/INT.  D3(u) denotes the third derivative of u.

_TOKEN_RE = re.compile(r"\s*(\d+|D\d+\(u\)|u'*|s|[-+*^()\/])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group(1):
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             "number, u, s, operator, or parenthesis")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, token: str):
        if self.peek() != token:
            raise ParseError(f"unexpected token {self.peek()!r}", self.pos(), repr(token))
        return self.take()

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos(), "end of input")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.unary()
        while self.peek() == "*":
            self.take()
            p = p * self.unary()
        return p

    def unary(self) -> Poly:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.factor()

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise ParseError(f"bad exponent {tok!r}", self.pos(), "integer exponent")
            self.take()
            p = p ** int(tok)
        return p

    def atom(self) -> Poly:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos(),
                             "number, u, s, or '('")
        if tok == "(":
            self.take()
            p = self.expr()
            self.expect(")")
            return p
        if tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.peek()
                if den is None or not den.isdigit() or not int(den):
                    raise ParseError(f"bad denominator {den!r}", self.pos(),
                                     "nonzero integer denominator")
                self.take()
                return const(Fraction(num, int(den)))
            return const(num)
        if tok == "s":
            self.take()
            return s()
        if tok.startswith("u"):
            self.take()
            return u(len(tok) - 1)
        if tok.startswith("D"):
            self.take()
            order = int(tok[1:tok.index("(")])
            return u(order)
        raise ParseError(f"unexpected token {tok!r}", self.pos(),
                         "number, u, s, or '('")


def parse(text: str) -> Poly:
    """Parse a differential polynomial from JSON or the ASCII grammar."""
    if text.lstrip().startswith("{"):
        try:
            return render.poly_from_obj(json.loads(text), U_RING)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed JSON polynomial: {exc!r}", 0,
                             "the term layout of p3lenard.render") from exc
    return _Parser(text).parse()
