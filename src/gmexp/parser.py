"""The tokenizer of every textual input, and the polynomial grammar.

Tokens (a cursor over integers, names and the punctuation -+*/^(),;=) is
the one lexer: parse_poly, parse_rationals, operators.parse_operator and
reduction.UnivariateOperator.parse all read it, so whitespace is free
between tokens everywhere and a ParseError position is an offset into the
string the caller passed.  Tokens.rational is the one reader of a number:

    rational  := ['-'] INT ['/' INT]          (a zero denominator is a ParseError)
    rationals := [ rational { ',' rational } ]    (parse_rationals: all of src)

Polynomial grammar (LL(1)), where unary has consumed any '-' before an atom:

    expr    := term { ('+' | '-') term }
    term    := unary { '*' unary }
    unary   := '-' unary | power
    power   := atom [ '^' rational ]          (an integer, negative only on t)
    atom    := rational | variable | '(' expr ')'

Variables are x1..xn, plus 't' and 'ginv' where the caller allows them.
Parse errors carry the position and the expected token.  Parentheses nest
at most MAX_NESTING deep in any grammar, so deep input is a parse error
rather than a recursion overflow.  Products and powers are RingElement's:
one past ring.MAX_PRODUCT_WORK raises ResourceLimitError before it is formed.
"""

from __future__ import annotations

import re

from .rational import Q, is_integer
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

    def rational(self) -> Q:
        """['-'] INT ['/' INT], with a zero denominator refused at its offset."""
        sign = -1 if self.accept("op", "-") else 1
        num = sign * int(self.expect("int")[1])
        if not self.accept("op", "/"):
            return Q(num)
        tok = self.expect("int")
        if int(tok[1]) == 0:
            raise ParseError("zero denominator", tok[2])
        return Q(num, int(tok[1]))

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
        base_is_t = tokens.peek()[:2] == ("name", "t")
        e = self.atom()
        if tokens.accept("op", "^"):
            at = tokens.peek()[2]
            k = tokens.rational()
            if not is_integer(k) or (k < 0 and not base_is_t):
                raise ParseError(f"exponent {k}", at, expected="an integer, negative only on t")
            e = RingElement.t(self.n, int(k)) if k < 0 else e ** int(k)
        return e

    def atom(self) -> RingElement:
        tokens = self.tokens
        tok = tokens.peek()
        if tok[0] == "int":
            return RingElement.constant(self.n, tokens.rational())
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


def parse_rationals(src: str) -> list:
    """The comma list of rationals that is all of src; '' is [], and an empty
    item ('1/2,,1/3') is a ParseError."""
    tokens = Tokens(src)
    out = [] if tokens.peek()[0] == "eof" else [tokens.rational()]
    while out and tokens.accept("op", ","):
        out.append(tokens.rational())
    tokens.end()
    return out
