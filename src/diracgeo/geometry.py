"""Chart-based tensor calculus via jets.

Vector fields are evaluators over a single chart; a k-form is its component
tensor at a point, an antisymmetric array of shape (n,)*k.  Derived
operators compose lazily: the exterior derivative is the antisymmetrized
Jacobian of the components, the interior product a contraction, the
pullback J^T.w.J, and d goes through sums and pullbacks, d(f*w) = f*(dw).
Derivatives come from jets, so they stay exact for the supported function
basis and nest for second derivatives, unless a form or chart map gives its
Jacobian in closed form for float points.

A point may also be a batch: coordinates that are arrays of shape (B,).
The components are then batch-first, (B,) + (n,)*k, or an object array of
jets that carry the batch in their leaves; the component axes are always
the trailing ones, so component code indexes and multiplies from the end
(`C[..., i, j]`, `linear.mT`, `@`) and broadcasts over the batch.
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

    @staticmethod
    def numbered(**counts):
        """numbered(y=1, x=2) is the chart (y1, x1, x2)."""
        return Chart(tuple(f"{a}{i+1}" for a, n in counts.items()
                           for i in range(n)))


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


def coordinates(P):
    """The coordinates of a float point as floats, or of a (B, n) stack of
    points as n arrays over the batch."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        return P.tolist()
    return list(np.ascontiguousarray(P.T))


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


def _contract(v, C, k):
    """Contract the first of the k trailing component axes of C with the
    vector v, a list of components; generic over floats, arrays over a
    batch (C batch-first or constant) and jets."""
    if k == 1:
        return dot(v, np.moveaxis(C, -1, 0))
    V = np.stack(np.broadcast_arrays(*v), axis=-1)[..., None, :]
    out = (V @ C.reshape(C.shape[:C.ndim - k] + (len(v), -1)))[..., 0, :]
    return out.reshape(out.shape[:-1] + C.shape[C.ndim - k + 1:])


class Form:
    """Alternating k-form: components(p) is the antisymmetric array of shape
    (n,)*k at the point p (a scalar when k = 0), generic over floats and
    jets.  Evaluation on vectors is a contraction.

    A form may also be given by its values on vectors, a function
    (p, vectors) -> scalar; its components are then read on the coordinate
    basis, one value per increasing index tuple.

    An optional jacobian gives the Jacobian of the components in closed
    form, at float points and float stacks: jacobian(p) is what
    component_jacobian(w, p) returns.  Derived forms carry none; a sum, a
    negative and a pullback carry exterior(), d from the d of their parts."""

    def __init__(self, ch, degree, components, jacobian=None, exterior=None):
        self.chart = ch
        self.degree = degree
        self.components = components
        self.jacobian = jacobian
        self.exterior = exterior
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
            kinds = set(map(type, vals))
            if jets.Jet in kinds:
                C = np.full(shape, 0.0, dtype=object)
            elif np.ndarray in kinds:
                # a batch of values fills a trailing axis of each entry,
                # moved to the front below
                C = np.zeros(shape + np.broadcast_shapes(*map(np.shape, vals)))
            else:
                C = np.zeros(shape)
            for signed, v in zip(perms, vals):
                for perm, sign in signed:
                    C[perm] = v if sign > 0 else -v
            if C.ndim > degree:
                C = np.moveaxis(C, -1, 0)
            return C if degree else C[()]

        return Form(ch, degree, components)

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
        for k, v in zip(range(self.degree, 0, -1), vs):
            C = _contract(v, C, k)
        return C

    def at(self, p):
        """The component array at a float point, as floats; at a (B, n)
        stack of points the (B,) + (n,)*k array of the B component
        arrays."""
        P = np.asarray(p, dtype=float)
        C = np.asarray(self.components(coordinates(P)), dtype=float)
        if P.ndim == 1:
            return C
        return np.broadcast_to(C, P.shape[:1] + (P.shape[1],) * self.degree)

    def __add__(self, other):
        _check_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Form(self.chart, self.degree,
                    lambda p: self.components(p) + other.components(p),
                    exterior=lambda: ext_d(self) + ext_d(other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.chart, self.degree, lambda p: -self.components(p),
                    exterior=lambda: -ext_d(self))


def component_jacobian(w, p):
    """D[..., l] = d w[...] / d p_l, the Jacobian of the components of the
    form w at p, batch-first at a batch of points: w's closed form where
    it has one and p holds floats or float stacks, one jet pass with n
    partials otherwise (nesting-safe)."""
    if w.jacobian is not None and not any(isinstance(c, jets.Jet)
                                          for c in p):
        return w.jacobian(p)
    n, k = len(p), w.degree

    def flat(q):
        # the entries, each a (B,) array when C is batch-first
        C = np.asarray(w.components(q))
        return list(C.reshape(C.shape[:C.ndim - k] + (-1,)).T)

    D = jets.stack(jets.jacobian(flat, p))
    return D.reshape(D.shape[:-2] + (n,) * (k + 1))


def alternate(D, k):
    """sum_a (-1)^a of D with its last (derivative) index moved to slot a:
    the components of dw for the component Jacobian D of a k-form w,
    (dw)[i0..ik] = sum_a (-1)^a d_{i_a} w[i0..^i_a..ik].  The slots are
    the k + 1 trailing axes of D."""
    total = _to_slot(D, k, 0)
    for a in range(1, k + 1):
        term = _to_slot(D, k, a)
        total = total - term if a % 2 else total + term
    return total


def _to_slot(D, k, a):
    """D with its last axis moved to slot a of its k + 1 trailing axes."""
    axes = list(range(D.ndim - 1))
    axes.insert(D.ndim - k - 1 + a, D.ndim - 1)
    return D.transpose(axes)


def ext_d(w):
    """Exterior derivative: w.exterior() where w has it, zero where w is of
    top degree, else the alternated Jacobian of the components, a jet pass
    where w has no closed form."""
    if w.degree > 3:
        raise ValueError("degree overflow: d of forms of degree > 3 unsupported")
    if w.exterior is not None:
        return w.exterior()
    n = w.chart.dim
    if w.degree == n:   # 0 C: w read for its domain errors and NaNs
        return Form(w.chart, n + 1, lambda p: np.zeros((n,) * (n + 1))
                    * np.expand_dims(w.components(p), -n - 1))
    return Form(w.chart, w.degree + 1,
                lambda p: alternate(component_jacobian(w, p), w.degree))


def interior(X, w):
    """i_X w."""
    _check_chart(X.chart, w.chart)
    if w.degree == 0:
        raise ValueError("cannot contract a function")
    return Form(w.chart, w.degree - 1,
                lambda p: _contract(X(p), w.components(p), w.degree))


def lie_derivative(X, w):
    """Cartan formula: L_X = d i_X + i_X d."""
    if w.degree == 0:
        return interior(X, ext_d(w))
    return ext_d(interior(X, w)) + interior(X, ext_d(w))


class ChartMap:
    """Differentiable map between charts, evaluator point -> point.  An
    optional jacobian gives its Jacobian in closed form: the (m, n) matrix
    where it is constant, else jacobian(P, Y), the matrix at a float point
    P, the (B, m, n) stack at a (B, n) stack; Y is f(P) where held, else
    None."""

    def __init__(self, source, target, func, jacobian=None):
        self.source = source
        self.target = target
        self.func = func
        self.jacobian = jacobian

    @staticmethod
    def from_components(source, target, comps):
        exprs = [_as_expr(c, source) for c in comps]
        if len(exprs) != target.dim:
            raise ValueError("component count must match target dimension")
        return ChartMap(source, target, lambda p: [e(p) for e in exprs])

    def __call__(self, p):
        return self.func(p)


def pull(C, J, k):
    """Every slot of the k-tensor C contracted with the rows of J:
    J^T.C.J for k = 2.  C and J may be batch-first, one of them
    constant."""
    if k == 1:
        return (C[..., None, :] @ J)[..., 0, :]
    if k > 2:   # C has k - 2 more leading slot axes than a matrix
        J = J.reshape(J.shape[:-2] + (1,) * (k - 2) + J.shape[-2:])
    for _ in range(k):
        C = C @ J
        C = _to_slot(C, k - 1, 0)   # the contracted slot goes first
    return C


def pullback(f, w):
    """f* w for a chart map f and a form w on the target chart: every slot
    of the components at f(p) is contracted with the Jacobian J of f at p,
    J^T.w.J for a 2-form.  J is f's closed form at float points and float
    stacks, where f has one, a jet pass otherwise; d(f* w) is f*(dw)."""
    _check_chart(f.target, w.chart)

    def components(p):
        q = f(p)
        J = f.jacobian
        if J is None or any(isinstance(c, jets.Jet) for c in p):
            J = jets.stack(jets.jacobian(f.func, p))
        elif callable(J):
            J = J(*(np.stack(np.broadcast_arrays(*c), axis=-1)
                    for c in (p, q)))
        return pull(w.components(q), J, w.degree)

    return Form(f.source, w.degree, components,
                exterior=lambda: pullback(f, ext_d(w)))


def block(rows):
    """np.block on the two trailing axes of the blocks, each of which may
    be batch-first or constant."""
    batch = np.broadcast_shapes(*(np.shape(M)[:-2] for row in rows
                                  for M in row))
    return np.concatenate([np.concatenate(
        [np.broadcast_to(M, batch + np.shape(M)[-2:]) for M in row],
        axis=-1) for row in rows], axis=-2)
