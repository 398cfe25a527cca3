"""Scalar expressions over chart coordinates.

Recursive-descent parser for a small expression language (variables,
+ - * /, unary minus, sin cos exp sqrt, integer powers), parsed once into
a closure and its printed form.  Precedence, tightest first: function
application, unary minus, power, * /, + -.  An expression evaluates at a
point of floats, of arrays of shape (B,) (a batch of B points) or of jets
over either.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import DomainError

FUNCTIONS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "sqrt": jets.sqrt}


class ExprSyntaxError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ValueError):
    def __init__(self, name, variables, offset):
        super().__init__(
            f"unknown identifier '{name}' at offset {offset}; "
            f"declared variables: {', '.join(variables) or '(none)'}")
        self.name = name
        self.offset = offset


# -- tokenizer ------------------------------------------------------------

def _tokenize(src):
    toks = []  # (kind, text, offset)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE" and (j + 1 < n and
                    (src[j + 1].isdigit() or src[j + 1] in "+-")):
                j += 1
                if src[j] in "+-":
                    j += 1
                while j < n and src[j].isdigit():
                    j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal '{text}'", i)
            toks.append(("num", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
        elif c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character '{c}'", i)
    toks.append(("end", "", n))
    return toks


# -- compilation ----------------------------------------------------------
#
# Each production returns (f, text): f(env) evaluates the subexpression at
# env, and text is its fully parenthesized printed form, which reparses to
# the same expression.

def _nonzero(x, text):
    try:
        jets.require(jets.value_of(x) == 0.0, "division by zero")
    except DomainError as e:
        raise DomainError(f"{e} in {text}") from None


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _binop(op, left, right):
    (f, a), (g, b) = left, right
    text = f"({a} {op} {b})"
    fn = _ARITH.get(op)
    if fn:
        return (lambda env: fn(f(env), g(env))), text

    def divide(env):
        num, den = f(env), g(env)
        _nonzero(den, text)
        return num / den
    return divide, text


def _pow(base, n):
    f, b = base
    text = f"({b}^{n})"

    def power(env):
        x = f(env)
        if n < 0:
            _nonzero(x, text)
        if isinstance(x, np.ndarray):
            # a float power raises on overflow; numpy returns inf
            with np.errstate(over="ignore"):
                return jets.require_finite(x, x ** n, "power")
        return x ** n
    return power, text


def _call(name, arg):
    (f, a), fn = arg, FUNCTIONS[name]
    text = f"{name}({a})"

    def call(env):
        x = f(env)
        try:
            return fn(x)
        except DomainError as e:
            raise DomainError(f"{e} in {text}") from None
    return call, text


class _Parser:
    def __init__(self, src, variables):
        self.toks = _tokenize(src)
        self.pos = 0
        self.variables = tuple(variables)
        self.var_index = {v: k for k, v in enumerate(self.variables)}

    def _peek(self):
        return self.toks[self.pos]

    def _next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind):
        tok = self._next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', got '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def _parse(self):
        node = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok[1]}'", tok[2])
        return node

    def _expr(self):
        node = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            node = _binop(op, node, self._term())
        return node

    def _term(self):
        node = self._power()
        while self._peek()[0] in ("*", "/"):
            op = self._next()[0]
            node = _binop(op, node, self._power())
        return node

    def _power(self):
        base = self._signed()
        if self._peek()[0] == "^":
            self._next()
            sign = 1
            if self._peek()[0] == "-":
                self._next()
                sign = -1
            tok = self._expect("num")
            if "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
                raise ExprSyntaxError("powers require integer exponents", tok[2])
            return _pow(base, sign * int(tok[1]))
        return base

    def _signed(self):
        if self._peek()[0] == "-":
            self._next()
            f, a = self._signed()
            return (lambda env: -f(env)), f"(-{a})"
        return self._atom()

    def _atom(self):
        tok = self._next()
        kind, text, off = tok
        if kind == "num":
            value = float(text)
            return (lambda env: value), repr(value)
        if kind == "name":
            if text in FUNCTIONS:
                self._expect("(")
                arg = self._expr()
                self._expect(")")
                return _call(text, arg)
            if text in self.var_index:
                k = self.var_index[text]
                return (lambda env: env[k]), text
            raise UnknownIdentifierError(text, self.variables, off)
        if kind == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise ExprSyntaxError(f"unexpected '{text or 'end of input'}'", off)


@dataclass(frozen=True)
class ScalarExpr:
    """A parsed expression: its compiled evaluator, its printed form and
    its declared variable list."""

    func: object
    text: str
    variables: tuple

    def __str__(self):
        return self.text

    def __call__(self, point):
        """Evaluate at a point (floats, arrays over a batch, or jets)."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} coordinates, got {len(point)}")
        return self.func(point)


def parse(src, variables):
    """Parse src over the declared variable names into a ScalarExpr."""
    return ScalarExpr(*_Parser(src, variables)._parse(), tuple(variables))
