"""The tokenizer of every textual input, and the polynomial grammar.

Tokens (a cursor over integers, names and the punctuation -+*/^(),;=) is
the one lexer: parse_poly, operators.parse_operator and
reduction.UnivariateOperator.parse all read it, so whitespace is free
between tokens everywhere and a ParseError position is an offset into the
string the caller passed.

Polynomial grammar (LL(1)):

    expr    := term { ('+' | '-') term }
    term    := unary { '*' unary }
    unary   := '-' unary | power
    power   := atom [ '^' [-] INT ]
    atom    := rational | variable | '(' expr ')'
    rational:= INT [ '/' INT ]

Variables are x1..xn, plus 't' and 'ginv' where the caller allows them.
Negative exponents are legal only on t.  Parse errors carry the position
and the expected token.  Parentheses nest at most MAX_NESTING deep in any
grammar, so deep input is a parse error rather than a recursion overflow.
"""

from __future__ import annotations

import re

from .rational import Q
from .ring import Monomial, RingElement

# deepest nesting Tokens.open accepts, in every grammar; each level costs a
# few Python frames, so this stays far below the interpreter's recursion limit
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),;=]))")


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


class Tokens:
    """A cursor over (kind, text, offset) tokens of one textual argument, kind
    one of int, name, op, eof; open/close guard nesting for every grammar."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str, value: str | None = None):
        """The next token, consumed, if it matches; else None."""
        tok = self.tokens[self.i]
        if tok[0] != kind or (value is not None and tok[1] != value):
            return None
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.accept(kind, value)
        if tok is None:
            tok = self.peek()
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2],
                             expected=repr(value) if value else kind)
        return tok

    def open(self):
        """Consume '(' and count one nesting level; close() undoes both."""
        tok = self.expect("op", "(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok[2])

    def close(self):
        self.expect("op", ")")
        self.depth -= 1

    def end(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected="end of input")


class _Parser:
    def __init__(self, tokens: Tokens, n: int, *, allow_t: bool, allow_ginv: bool,
                 var_names: dict[str, int] | None):
        self.tokens = tokens
        self.n = n
        self.allow_t = allow_t
        self.allow_ginv = allow_ginv
        # maps a variable name to its 0-based index
        if var_names is None:
            var_names = {f"x{j + 1}": j for j in range(n)}
        self.var_names = var_names

    def expr(self) -> RingElement:
        e = self.term()
        while self.tokens.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.tokens.advance()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> RingElement:
        e = self.unary()
        while self.tokens.accept("op", "*"):
            e = e * self.unary()
        return e

    def unary(self) -> RingElement:
        negate = False
        while self.tokens.accept("op", "-"):
            negate = not negate
        e = self.power()
        return -e if negate else e

    def power(self) -> RingElement:
        tokens = self.tokens
        tok = tokens.peek()
        base_is_t = tok[:2] == ("name", "t")
        e = self.atom()
        if tokens.accept("op", "^"):
            negative = tokens.accept("op", "-")
            k = int(tokens.expect("int")[1])
            if negative:
                if not base_is_t:
                    raise ParseError("negative exponents are only legal on t", tok[2])
                return RingElement.t(self.n, -k)
            e = e ** k
        return e

    def atom(self) -> RingElement:
        tokens = self.tokens
        tok = tokens.peek()
        if tok[0] == "int":
            return RingElement.constant(self.n, self.rational())
        if tok[0] == "name":
            tokens.advance()
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
            tokens.open()
            e = self.expr()
            tokens.close()
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected="expression")

    def rational(self) -> Q:
        tokens = self.tokens
        num = int(tokens.expect("int")[1])
        if not tokens.accept("op", "/"):
            return Q(num)
        # only a literal denominator may follow: rational constant a/b
        tok = tokens.expect("int")
        if int(tok[1]) == 0:
            raise ParseError("zero denominator", tok[2])
        return Q(num, int(tok[1]))


def parse_expr(tokens: Tokens, n: int, *, allow_t: bool = False, allow_ginv: bool = False,
               var_names: dict[str, int] | None = None) -> RingElement:
    """Read one expression off tokens, leaving the cursor just after it."""
    return _Parser(tokens, n, allow_t=allow_t, allow_ginv=allow_ginv, var_names=var_names).expr()


def parse_poly(src: str, n: int, *, allow_t: bool = False, allow_ginv: bool = False,
               var_names: dict[str, int] | None = None) -> RingElement:
    """Parse an expression into an exact RingElement with n x-variables."""
    tokens = Tokens(src)
    e = parse_expr(tokens, n, allow_t=allow_t, allow_ginv=allow_ginv, var_names=var_names)
    tokens.end()
    return e
