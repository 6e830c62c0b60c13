"""The polynomial parser as it built each value by MultiPoly arithmetic.

The oracle of polynomials.parse_poly, which builds term dicts instead:
both must give the same MultiPoly for every text, and the same
PolyParseError message and offset for every malformed one.
"""

import re

from plucker_lab.polynomials import MultiPoly, PolyParseError
from plucker_lab.scalars import LAMBDA, RHO

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([\^+\-*/()])")


class Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.vars = tuple(variables)
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise PolyParseError("unexpected character %r" % text[pos], pos)
            self.tokens.append((m.group(0), pos))
            pos = m.end()
        self.tokens.append((None, len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        if self.peek() is not None:
            raise PolyParseError(
                "syntax error (expected operator or end of input)", self.pos()
            )
        return p

    def expr(self) -> MultiPoly:
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.advance()[0] == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self) -> MultiPoly:
        acc = self.power()
        while self.peek() in ("*", "/"):
            op, oppos = self.advance()
            rhs = self.power()
            if op == "*":
                acc = acc * rhs
            else:
                if not rhs.is_constant():
                    raise PolyParseError(
                        "can only divide by a constant", oppos
                    )
                c = rhs.constant_coefficient()
                if not c.is_constant():
                    raise PolyParseError(
                        "cannot divide by a lambda-dependent value", oppos
                    )
                s = c.constant_value()
                if not s:
                    raise PolyParseError("division by zero", oppos)
                acc = acc.scale(s.inverse())
        return acc

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek() == "^":
            self.advance()
            tok, pos = self.advance()
            if tok is None or not tok.isdigit():
                raise PolyParseError("expected integer exponent", pos)
            base = base ** int(tok)
        return base

    def atom(self) -> MultiPoly:
        tok, pos = self.advance()
        if tok is None:
            raise PolyParseError("unexpected end of input", pos)
        if tok.isdigit():
            return MultiPoly.constant(self.vars, int(tok))
        if tok == "(":
            inner = self.expr()
            closer, cpos = self.advance()
            if closer != ")":
                raise PolyParseError("expected ')'", cpos)
            return inner
        if tok == "rho":
            return MultiPoly.constant(self.vars, RHO)
        if tok == "lambda":
            return MultiPoly.constant(self.vars, LAMBDA)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in self.vars:
                raise PolyParseError("unknown variable %r" % tok, pos)
            return MultiPoly.variable(self.vars, tok)
        raise PolyParseError("syntax error", pos)


def parse_poly(text: str, variables) -> MultiPoly:
    return Parser(text, variables).parse()
