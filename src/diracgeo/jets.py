"""Forward-mode jets: scalars carrying directional first derivatives.

A Jet holds a value plus one partial per active direction.  Nesting jets
(differentiating code that already runs on jets) yields second derivatives;
each differentiation call gets a fresh tag so perturbations from different
calls never mix.
"""

import math
import itertools

_tag_counter = itertools.count(1)


class DomainError(ArithmeticError):
    """Evaluation hit a point outside a function's domain."""


class Jet:
    """value + directional first derivatives, tagged by differentiation layer."""

    __slots__ = ("tag", "value", "partials")

    def __init__(self, tag, value, partials):
        self.tag = tag
        self.value = value
        self.partials = tuple(partials)

    def __repr__(self):
        return f"Jet(tag={self.tag}, value={self.value!r}, partials={self.partials!r})"

    # -- arithmetic ---------------------------------------------------------
    # Rule for mixed tags: the jet with the larger tag is the outer layer;
    # anything with a smaller tag (or a plain number) is a constant for it.

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                return Jet(self.tag, self.value + other.value,
                           (p + q for p, q in zip(self.partials, other.partials)))
            if other.tag > self.tag:
                return Jet(other.tag, self + other.value, other.partials)
        return Jet(self.tag, self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.tag, -self.value, (-p for p in self.partials))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                return Jet(self.tag, self.value * other.value,
                           (p * other.value + self.value * q
                            for p, q in zip(self.partials, other.partials)))
            if other.tag > self.tag:
                return Jet(other.tag, self * other.value,
                           (self * q for q in other.partials))
        return Jet(self.tag, self.value * other, (p * other for p in self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                if value_of(other) == 0.0:
                    raise DomainError("division by zero")
                v = self.value / other.value
                return Jet(self.tag, v,
                           ((p - v * q) / other.value
                            for p, q in zip(self.partials, other.partials)))
            if other.tag > self.tag:
                return Jet(other.tag, self / other.value,
                           tuple((-self) * q / (other.value * other.value)
                                 for q in other.partials))
        if value_of(other) == 0.0:
            raise DomainError("division by zero")
        return Jet(self.tag, self.value / other, (p / other for p in self.partials))

    def __rtruediv__(self, other):
        # other / self with other a constant (number or lower-tag jet)
        if value_of(self) == 0.0:
            raise DomainError("division by zero")
        v = other / self.value
        return Jet(self.tag, v, ((-v) * p / self.value for p in self.partials))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet powers require integer exponents")
        if n == 0:
            return 1.0
        if n < 0:
            return 1.0 / (self ** (-n))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def value_of(x):
    """Strip all jet layers, returning the underlying float."""
    while isinstance(x, Jet):
        x = x.value
    return float(x)


# -- elementary functions (generic over floats and jets) -----------------

def sin(x):
    if isinstance(x, Jet):
        c = cos(x.value)
        return Jet(x.tag, sin(x.value), (c * p for p in x.partials))
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s = sin(x.value)
        return Jet(x.tag, cos(x.value), ((-s) * p for p in x.partials))
    return math.cos(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.value)
        return Jet(x.tag, e, (e * p for p in x.partials))
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Jet):
        v = value_of(x)
        if v < 0.0:
            raise DomainError("sqrt of negative value")
        if v == 0.0:
            raise DomainError("sqrt not differentiable at zero")
        r = sqrt(x.value)
        return Jet(x.tag, r, (p / (2.0 * r) for p in x.partials))
    if x < 0.0:
        raise DomainError("sqrt of negative value")
    return math.sqrt(x)


def atan2(y, x):
    """Two-argument arctangent; differentiable away from the origin."""
    ynum = not isinstance(y, Jet)
    xnum = not isinstance(x, Jet)
    if ynum and xnum:
        return math.atan2(y, x)
    # promote to the outermost tag present
    tag = max((t.tag for t in (y, x) if isinstance(t, Jet)))
    yv, yp = _split(y, tag)
    xv, xp = _split(x, tag)
    v = atan2(yv, xv)
    denom = xv * xv + yv * yv
    if value_of(denom) == 0.0:
        raise DomainError("atan2 not differentiable at the origin")
    width = len(yp) if yp is not None else len(xp)
    parts = []
    for k in range(width):
        dy = yp[k] if yp is not None else 0.0
        dx = xp[k] if xp is not None else 0.0
        parts.append((xv * dy - yv * dx) / denom)
    return Jet(tag, v, parts)


def _split(x, tag):
    """Return (value, partials) of x relative to the given tag."""
    if isinstance(x, Jet) and x.tag == tag:
        return x.value, x.partials
    return x, None


# -- differentiation drivers ---------------------------------------------

def new_tag():
    return next(_tag_counter)


def tangent_part(x, tag):
    """Partials of x w.r.t. a given tag (zero if x does not carry that tag)."""
    if isinstance(x, Jet) and x.tag == tag:
        return x.partials
    return None


def seed_point(point, directions, tag):
    """Lift a point to jets seeded with the given direction vectors."""
    return [Jet(tag, point[i], tuple(d[i] for d in directions))
            for i in range(len(point))]


def directional(f, point, direction):
    """Directional derivative of f (scalar- or vector-valued) along direction.

    Works when point/direction components are themselves jets (nesting).
    """
    tag = new_tag()
    q = seed_point(point, [direction], tag)
    out = f(q)
    if isinstance(out, (list, tuple)):
        return [_first_partial(c, tag) for c in out]
    return _first_partial(out, tag)


def _first_partial(c, tag):
    p = tangent_part(c, tag)
    return p[0] if p is not None else 0.0


def jacobian(f, point):
    """Jacobian matrix (list of rows) of f at the point, one jet pass with
    one partial per coordinate.

    Nesting-safe: when the point carries jets of an outer differentiation,
    the entries are those jets, not their values.
    """
    n = len(point)
    tag = new_tag()
    dirs = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    q = seed_point(point, dirs, tag)
    out = f(q)
    if not isinstance(out, (list, tuple)):
        out = [out]
    rows = []
    for c in out:
        p = tangent_part(c, tag)
        rows.append([0.0] * n if p is None else list(p))
    return rows
