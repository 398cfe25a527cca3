"""Chart-based tensor calculus via jets.

Vector fields are evaluators over a single chart; a k-form is its component
tensor at a point, an antisymmetric array of shape (n,)*k.  Derived
operators compose lazily: the exterior derivative is the antisymmetrized
Jacobian of the components, the interior product a contraction, the
pullback J^T.w.J.  Derivatives come from jets, so they stay exact for the
supported function basis and nest for second derivatives.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from types import FunctionType

import numpy as np

from . import jets
from .expr import parse


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
    """An expression string or number compiled on the chart; a callable
    p -> value (such as a compiled ScalarExpr) as it is."""
    if callable(e):
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


def _signed_permutations(idx):
    """(permuted index, sign) for every ordering of a strictly increasing
    index tuple."""
    out = []
    for perm in permutations(range(len(idx))):
        inv = sum(a > b for a, b in combinations(perm, 2))
        out.append((tuple(idx[i] for i in perm), -1 if inv % 2 else 1))
    return out


def dot(cov, vec):
    """Contraction sum cov_i vec_i, a left fold from 0.0 that stays generic
    over floats and jets."""
    total = 0.0
    for a, b in zip(cov, vec):
        total = total + a * b
    return total


def _contract(v, C):
    """Contract the first index of the component array C with the vector v;
    generic over floats and jets."""
    if C.ndim == 1:
        return dot(v, C)
    return (np.asarray(v) @ C.reshape(len(v), -1)).reshape(C.shape[1:])


class Form:
    """Alternating k-form: components(p) is the antisymmetric array of shape
    (n,)*k at the point p (a scalar when k = 0), generic over floats and
    jets.  Evaluation on vectors is a contraction.

    A form may also be given by its values on vectors, a function
    (p, vectors) -> scalar; its components are then read on the coordinate
    basis, one value per increasing index tuple."""

    def __init__(self, ch, degree, components):
        self.chart = ch
        self.degree = degree
        self.components = components
        if isinstance(components, FunctionType) and 2 == (
                components.__code__.co_argcount
                - len(components.__defaults__ or ())):
            E = np.eye(ch.dim).tolist()
            self.components = Form.from_components(ch, degree, {
                ix: lambda p, ix=ix: components(p, [E[i] for i in ix])
                for ix in combinations(range(ch.dim), degree)}).components

    @staticmethod
    def from_components(ch, degree, comps):
        """comps: dict mapping strictly increasing index tuples to exprs
        or to functions p -> value."""
        perms, exprs = [], []
        for idx, e in comps.items():
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"indices must be strictly increasing: {idx}")
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            perms.append(_signed_permutations(idx))
            exprs.append(_as_expr(e, ch))
        shape = (ch.dim,) * degree

        def components(p):
            vals = [e(p) for e in exprs]
            if any(isinstance(v, jets.Jet) for v in vals):
                C = np.full(shape, 0.0, dtype=object)
            else:
                C = np.zeros(shape)
            for signed, v in zip(perms, vals):
                for perm, sign in signed:
                    C[perm] = v if sign > 0 else -v
            return C if degree else C[()]

        return Form(ch, degree, components)

    @staticmethod
    def zero(ch, degree):
        shape = (ch.dim,) * degree
        return Form(ch, degree, lambda p: np.zeros(shape) if degree else 0.0)

    @staticmethod
    def function(ch, e):
        """Degree-0 form (a scalar function)."""
        e = _as_expr(e, ch)
        return Form(ch, 0, e)

    def __call__(self, p, *vs):
        if len(vs) != self.degree:
            raise ValueError(f"degree-{self.degree} form applied to "
                             f"{len(vs)} vectors")
        C = self.components(p)
        for v in vs:
            C = _contract(v, C)
        return C

    def at(self, p):
        """The component array at a float point, as floats."""
        return np.asarray(self.components([float(c) for c in p]), dtype=float)

    def __add__(self, other):
        _check_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Form(self.chart, self.degree,
                    lambda p: self.components(p) + other.components(p))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.chart, self.degree, lambda p: -self.components(p))


def component_jacobian(w, p):
    """D[..., l] = d w[...] / d p_l, the Jacobian of the components of the
    form w at p: one jet pass with n partials, nesting-safe."""
    shape = []

    def flat(q):
        C = np.asarray(w.components(q))
        shape[:] = C.shape
        return list(C.ravel())

    rows = jets.jacobian(flat, p)
    return np.array(rows).reshape(tuple(shape) + (len(p),))


def alternate(D):
    """sum_a (-1)^a of D with its last (derivative) index moved to slot a:
    the components of dw for the component Jacobian D of a k-form w,
    (dw)[i0..ik] = sum_a (-1)^a d_{i_a} w[i0..^i_a..ik]."""
    k = D.ndim - 1
    total = D.transpose((k,) + tuple(range(k)))
    for a in range(1, k + 1):
        term = D.transpose(tuple(range(a)) + (k,) + tuple(range(a, k)))
        total = total - term if a % 2 else total + term
    return total


def ext_d(w):
    """Exterior derivative: the alternated Jacobian of the components."""
    if w.degree > 3:
        raise ValueError("degree overflow: d of forms of degree > 3 unsupported")
    return Form(w.chart, w.degree + 1,
                lambda p: alternate(component_jacobian(w, p)))


def interior(X, w):
    """i_X w."""
    _check_chart(X.chart, w.chart)
    if w.degree == 0:
        raise ValueError("cannot contract a function")
    return Form(w.chart, w.degree - 1,
                lambda p: _contract(X(p), w.components(p)))


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
    """f* w for a chart map f and a form w on the target chart: every slot
    of the components at f(p) is contracted with the Jacobian J of f at p,
    J^T.w.J for a 2-form."""
    _check_chart(f.target, w.chart)

    def components(p):
        J = np.array(jets.jacobian(f.func, p))
        C = w.components(f(p))
        for _ in range(w.degree):
            C = np.tensordot(C, J, axes=(0, 0))
        return C

    return Form(f.source, w.degree, components)
