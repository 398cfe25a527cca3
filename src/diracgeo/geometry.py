"""Chart-based tensor calculus via jets.

Vector fields and k-forms are evaluators over a single chart; derived
operators (exterior derivative, interior product, Lie derivative/bracket,
pullback) compose lazily and differentiate through jets, so they stay exact
for the supported function basis and nest for second derivatives.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import jets
from .expr import ScalarExpr, parse


@dataclass(frozen=True)
class Chart:
    names: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("chart variable names must be distinct")

    @property
    def dim(self):
        return len(self.names)


def chart(*names):
    return Chart(tuple(names))


def _as_expr(e, ch):
    if isinstance(e, ScalarExpr):
        return e
    if isinstance(e, (int, float)):
        return parse(repr(float(e)), ch.names)
    return parse(e, ch.names)


def _check_chart(a, b):
    if a != b:
        raise ValueError(f"chart mismatch: {a} vs {b}")


class VectorField:
    """Evaluator point -> components (generic over floats/jets)."""

    def __init__(self, ch, func):
        self.chart = ch
        self.func = func

    @staticmethod
    def from_components(ch, comps):
        exprs = [_as_expr(c, ch) for c in comps]
        if len(exprs) != ch.dim:
            raise ValueError("component count must match chart dimension")
        return VectorField(ch, lambda p: [e(p) for e in exprs])

    def __call__(self, p):
        return self.func(p)

    def __add__(self, other):
        _check_chart(self.chart, other.chart)
        return VectorField(self.chart, lambda p: [a + b for a, b in
                                                  zip(self(p), other(p))])

    def __sub__(self, other):
        _check_chart(self.chart, other.chart)
        return VectorField(self.chart, lambda p: [a - b for a, b in
                                                  zip(self(p), other(p))])

    def __neg__(self):
        return VectorField(self.chart, lambda p: [-a for a in self(p)])


def _det(rows):
    """Determinant by Leibniz expansion, generic arithmetic, fixed term order."""
    k = len(rows)
    if k == 0:
        return 1.0
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0.0
    for perm in permutations(range(k)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(1 for i in range(k) for j in range(i + 1, k)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = rows[0][perm[0]]
        for i in range(1, k):
            term = term * rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


class Form:
    """Evaluator (point, vectors) -> scalar, alternating of fixed degree."""

    def __init__(self, ch, degree, func):
        self.chart = ch
        self.degree = degree
        self.func = func

    @staticmethod
    def from_components(ch, degree, comps):
        """comps: dict mapping strictly increasing index tuples to exprs."""
        table = {}
        for idx, e in comps.items():
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"indices must be strictly increasing: {idx}")
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            table[idx] = _as_expr(e, ch)

        def ev(p, vs):
            total = 0.0
            for idx, e in table.items():
                rows = [[vs[j][i] for j in range(degree)] for i in idx]
                total = total + e(p) * _det(rows)
            return total

        return Form(ch, degree, ev)

    @staticmethod
    def zero(ch, degree):
        return Form(ch, degree, lambda p, vs: 0.0)

    @staticmethod
    def function(ch, e):
        """Degree-0 form (a scalar function)."""
        e = _as_expr(e, ch)
        return Form(ch, 0, lambda p, vs: e(p))

    def __call__(self, p, *vs):
        if len(vs) != self.degree:
            raise ValueError(f"degree-{self.degree} form applied to "
                             f"{len(vs)} vectors")
        return self.func(p, list(vs))

    def __add__(self, other):
        _check_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Form(self.chart, self.degree,
                    lambda p, vs: self.func(p, vs) + other.func(p, vs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.chart, self.degree, lambda p, vs: -self.func(p, vs))

    def scale(self, c):
        return Form(self.chart, self.degree, lambda p, vs: c * self.func(p, vs))


def dot(cov, vec):
    """Contraction sum cov_i vec_i, a left fold from 0.0 that stays generic
    over floats and jets."""
    total = 0.0
    for a, b in zip(cov, vec):
        total = total + a * b
    return total


def form_matrix(w, p):
    """Component matrix M[i, j] = w(e_i, e_j) of a 2-form at the point p."""
    p = [float(c) for c in p]
    n = len(p)
    E = np.eye(n)
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = jets.value_of(w(p, E[i], E[j]))
            M[j, i] = -M[i, j]
    return M


def ext_d(w):
    """Exterior derivative; exact for constant argument extensions."""
    if w.degree > 3:
        raise ValueError("degree overflow: d of forms of degree > 3 unsupported")
    k = w.degree

    def ev(p, vs):
        total = 0.0
        for i in range(k + 1):
            rest = vs[:i] + vs[i + 1:]
            der = jets.directional(lambda q: w.func(q, rest), p, vs[i])
            total = total + (der if i % 2 == 0 else -der)
        return total

    return Form(w.chart, k + 1, ev)


def interior(X, w):
    """i_X w."""
    _check_chart(X.chart, w.chart)
    if w.degree == 0:
        raise ValueError("cannot contract a function")
    return Form(w.chart, w.degree - 1,
                lambda p, vs: w.func(p, [X(p)] + vs))


def lie_derivative(X, w):
    """Cartan formula: L_X = d i_X + i_X d."""
    if w.degree == 0:
        return interior(X, ext_d(w))
    return ext_d(interior(X, w)) + interior(X, ext_d(w))


def lie_bracket(X, Y):
    """[X, Y] = DY.X - DX.Y, via jets."""
    _check_chart(X.chart, Y.chart)

    def ev(p):
        xp = X(p)
        yp = Y(p)
        dY = jets.directional(Y, p, xp)
        dX = jets.directional(X, p, yp)
        return [a - b for a, b in zip(dY, dX)]

    return VectorField(X.chart, ev)


class ChartMap:
    """Differentiable map between charts, evaluator point -> point."""

    def __init__(self, source, target, func):
        self.source = source
        self.target = target
        self.func = func

    @staticmethod
    def from_components(source, target, comps):
        exprs = [_as_expr(c, source) for c in comps]
        if len(exprs) != target.dim:
            raise ValueError("component count must match target dimension")
        return ChartMap(source, target, lambda p: [e(p) for e in exprs])

    def __call__(self, p):
        return self.func(p)

    def push(self, p, v):
        """Differential at p applied to tangent vector v."""
        return jets.directional(self.func, p, v)


def pullback(f, w):
    """f* w for a chart map f and a form w on the target chart."""
    _check_chart(f.target, w.chart)

    def ev(p, vs):
        q = f(p)
        pushed = [f.push(p, v) for v in vs]
        return w.func(q, pushed)

    return Form(f.source, w.degree, ev)
