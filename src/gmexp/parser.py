"""Recursive-descent parser for exact polynomial expressions.

Grammar (LL(1), whitespace-insensitive):

    expr    := term { ('+' | '-') term }
    term    := unary { '*' unary }
    unary   := '-' unary | power
    power   := atom [ '^' [-] INT ]
    atom    := rational | variable | '(' expr ')'
    rational:= INT [ '/' INT ]

Variables are x1..xn, plus 't' and 'ginv' where the caller allows them.
Negative exponents are legal only on t.  Parse errors carry the position
and the expected token.  Parentheses nest at most MAX_NESTING deep, so deep
input is a parse error rather than a recursion overflow.
"""

from __future__ import annotations

import re

from .rational import Q
from .ring import Monomial, RingElement

# deepest nesting either textual grammar (this one and operators.parse_operator)
# accepts; each level costs a few Python frames, so this stays far below the
# interpreter's recursion limit
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(src[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, n: int, *, allow_t: bool, allow_ginv: bool,
                 var_names: dict[str, int] | None):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.n = n
        self.allow_t = allow_t
        self.allow_ginv = allow_ginv
        # maps a variable name to its 0-based index
        if var_names is None:
            var_names = {f"x{j + 1}": j for j in range(n)}
        self.var_names = var_names

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected=value or kind)
        return self.advance()

    def parse(self) -> RingElement:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected="end of input")
        return e

    def expr(self) -> RingElement:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> RingElement:
        e = self.unary()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            e = e * self.unary()
        return e

    def unary(self) -> RingElement:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        e = self.power()
        return -e if negate else e

    def power(self) -> RingElement:
        tok = self.peek()
        base_is_t = tok[:2] == ("name", "t")
        e = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            sign = 1
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                sign = -1
            k = int(self.expect("int")[1])
            if sign < 0:
                if not base_is_t:
                    raise ParseError("negative exponents are only legal on t", tok[2])
                return RingElement.t(self.n, -k)
            e = e ** k
        return e

    def atom(self) -> RingElement:
        tok = self.peek()
        if tok[0] == "int":
            return RingElement.constant(self.n, self.rational())
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name == "t":
                if not self.allow_t:
                    raise ParseError("t is not legal here", tok[2])
                return RingElement.t(self.n)
            if name == "ginv":
                if not self.allow_ginv:
                    raise ParseError("ginv is not legal here", tok[2])
                return RingElement.monomial(
                    self.n, Monomial(0, (0,) * self.n, 1)
                )
            if name in self.var_names:
                return RingElement.var(self.n, self.var_names[name] + 1)
            raise ParseError(f"unknown variable {name!r}", tok[2])
        if tok[:2] == ("op", "("):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok[2])
            e = self.expr()
            self.expect("op", ")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected="expression")

    def rational(self) -> Q:
        num = int(self.expect("int")[1])
        if self.peek()[:2] == ("op", "/"):
            # only a literal denominator may follow: rational constant a/b
            nxt = self.tokens[self.i + 1]
            if nxt[0] == "int":
                self.advance()
                den = int(self.advance()[1])
                if den == 0:
                    raise ParseError("zero denominator", nxt[2])
                return Q(num, den)
            raise ParseError("'/' must be followed by an integer", nxt[2], expected="integer")
        return Q(num)


def parse_poly(
    src: str,
    n: int,
    *,
    allow_t: bool = False,
    allow_ginv: bool = False,
    var_names: dict[str, int] | None = None,
) -> RingElement:
    """Parse an expression into an exact RingElement with n x-variables."""
    return _Parser(src, n, allow_t=allow_t, allow_ginv=allow_ginv, var_names=var_names).parse()
