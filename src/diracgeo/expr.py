"""Scalar expressions over chart coordinates.

Recursive-descent parser for a small expression language (variables,
+ - * /, unary minus, sin cos exp sqrt, integer powers) plus jet-based
evaluation.  Precedence, tightest first: function application, unary minus,
power, * /, + -.  An expression evaluates at a point of floats, of arrays of
shape (B,) (a batch of B points) or of jets over either.
"""

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


# -- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def to_str(node):
    """Pretty-print; reparsing the output gives a structurally identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_str(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_str(node.left)} {node.op} {to_str(node.right)})"
    if isinstance(node, Pow):
        return f"({to_str(node.base)}^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({to_str(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


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


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, src, variables):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.variables = tuple(variables)
        self.var_index = {v: k for k, v in enumerate(self.variables)}

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', got '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok[1]}'", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            node = BinOp(op, node, self.power())
        return node

    def power(self):
        base = self.signed()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("num")
            if "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
                raise ExprSyntaxError("powers require integer exponents", tok[2])
            return Pow(base, sign * int(tok[1]))
        return base

    def signed(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.signed())
        return self.atom()

    def atom(self):
        tok = self.next()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in self.var_index:
                return Var(self.var_index[text], text)
            raise UnknownIdentifierError(text, self.variables, off)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected '{text or 'end of input'}'", off)


# -- evaluation -----------------------------------------------------------

def _nonzero(x, node):
    try:
        jets.require(jets.value_of(x) == 0.0, "division by zero")
    except DomainError as e:
        raise DomainError(f"{e} in {to_str(node)}") from None


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        _nonzero(b, node)
        return a / b
    if isinstance(node, Pow):
        base = _eval(node.base, env)
        if node.exponent < 0:
            _nonzero(base, node)
        if isinstance(base, np.ndarray):
            # a float power raises on overflow; numpy returns inf
            with np.errstate(over="ignore"):
                return jets.require_finite(base, base ** node.exponent,
                                           "power")
        return base ** node.exponent
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        try:
            return FUNCTIONS[node.func](arg)
        except DomainError as e:
            raise DomainError(f"{e} in {to_str(node)}") from None
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class ScalarExpr:
    """A parsed expression together with its declared variable list."""

    ast: object
    variables: tuple

    def __str__(self):
        return to_str(self.ast)

    def __call__(self, point):
        """Evaluate at a point (floats, arrays over a batch, or jets)."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} coordinates, got {len(point)}")
        return _eval(self.ast, point)


def parse(src, variables):
    """Parse src over the declared variable names into a ScalarExpr."""
    return ScalarExpr(_Parser(src, variables).parse(), tuple(variables))
