"""Forward-mode jets: scalars carrying directional first derivatives.

A Jet holds a value plus one partial per active direction.  Nesting jets
(differentiating code that already runs on jets) yields second derivatives;
each differentiation call gets a fresh tag so perturbations from different
calls never mix.

The leaves of a jet (and the scalars the elementary functions take) are
floats, or numpy arrays of shape (B,) that carry a batch of B sample points
through one pass.  A domain error or an overflow on an array names the
index of the first failing sample.
"""

import math
import itertools

import numpy as np

_tag_counter = itertools.count(1)


class DomainError(ArithmeticError):
    """Evaluation hit a point outside a function's domain."""


def at_sample(bad):
    """' at sample i' for the first True entry of a mask over a batch, ''
    for a scalar test."""
    if np.ndim(bad) == 0:
        return ""
    return f" at sample {int(np.argmax(bad))}"


def require(bad, what):
    """Raise DomainError(what) where the test bad (a bool, or a mask over
    a batch) holds."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise DomainError(f"{what}{at_sample(bad)}")


def require_finite(x, value, what):
    """Raise OverflowError where the finite argument x gave a non-finite
    value: numpy returns inf where math raises."""
    bad = np.isinf(value) & np.isfinite(x)
    if np.any(bad):
        raise OverflowError(f"{what} overflow{at_sample(bad)}")
    return value


class Jet:
    """value + directional first derivatives, tagged by differentiation layer."""

    __slots__ = ("tag", "value", "partials")
    # numpy arrays defer to the jet's reflected operators instead of
    # broadcasting a jet over their entries
    __array_ufunc__ = None

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
                require(value_of(other) == 0.0, "division by zero")
                v = self.value / other.value
                return Jet(self.tag, v,
                           ((p - v * q) / other.value
                            for p, q in zip(self.partials, other.partials)))
            if other.tag > self.tag:
                return Jet(other.tag, self / other.value,
                           tuple((-self) * q / (other.value * other.value)
                                 for q in other.partials))
        require(value_of(other) == 0.0, "division by zero")
        return Jet(self.tag, self.value / other, (p / other for p in self.partials))

    def __rtruediv__(self, other):
        # other / self with other a constant (number or lower-tag jet)
        require(value_of(self) == 0.0, "division by zero")
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
    """Strip all jet layers, returning the underlying float, or the array of
    values of a batch."""
    while isinstance(x, Jet):
        x = x.value
    return x if isinstance(x, np.ndarray) else float(x)


def where(mask, a, b):
    """a where the sample mask holds and b elsewhere, generic over jets:
    values and partials are selected sample by sample."""
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return np.where(mask, a, b)
    tag = max(t.tag for t in (a, b) if isinstance(t, Jet))
    av, ap = _split(a, tag)
    bv, bp = _split(b, tag)
    width = len(ap) if ap is not None else len(bp)
    ap = ap if ap is not None else (0.0,) * width
    bp = bp if bp is not None else (0.0,) * width
    return Jet(tag, where(mask, av, bv),
               [where(mask, p, q) for p, q in zip(ap, bp)])


# -- elementary functions (generic over floats, arrays and jets) ---------
# A float goes through math, an array of samples through numpy.

def sin(x):
    if isinstance(x, Jet):
        c = cos(x.value)
        return Jet(x.tag, sin(x.value), (c * p for p in x.partials))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s = sin(x.value)
        return Jet(x.tag, cos(x.value), ((-s) * p for p in x.partials))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.value)
        return Jet(x.tag, e, (e * p for p in x.partials))
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return require_finite(x, np.exp(x), "exp")
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Jet):
        # one mask, so that the error names the first sample that fails
        v = value_of(x)
        bad = v <= 0.0
        first = np.ravel(v)[np.argmax(bad)] if isinstance(v, np.ndarray) else v
        require(bad, "sqrt of negative value" if first < 0.0
                else "sqrt not differentiable at zero")
        r = sqrt(x.value)
        return Jet(x.tag, r, (p / (2.0 * r) for p in x.partials))
    require(x < 0.0, "sqrt of negative value")
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def atan2(y, x):
    """Two-argument arctangent; differentiable away from the origin."""
    ynum = not isinstance(y, Jet)
    xnum = not isinstance(x, Jet)
    if ynum and xnum:
        if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
            return np.arctan2(y, x)
        return math.atan2(y, x)
    # promote to the outermost tag present
    tag = max((t.tag for t in (y, x) if isinstance(t, Jet)))
    yv, yp = _split(y, tag)
    xv, xp = _split(x, tag)
    v = atan2(yv, xv)
    denom = xv * xv + yv * yv
    require(value_of(denom) == 0.0, "atan2 not differentiable at the origin")
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
    p = _split(c, tag)[1]
    return p[0] if p is not None else 0.0


def jacobian(f, point):
    """D[..., l] = d f(p)[...] / d p_l at the point, one jet pass with one
    partial per coordinate: D has the shape of f's value (() for a scalar,
    (m,) for a list or tuple of m, its own for an array) followed by n, and
    an entry without partials of this pass gives 0.0.

    Nesting-safe: when the point carries jets of an outer differentiation,
    D is an object array of those jets, not of their values.  At a batch
    of points (coordinates that are arrays of shape (B,)) D is
    batch-first, or has no batch axis where it is constant.
    """
    n = len(point)
    tag = new_tag()
    dirs = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    out = f(seed_point(point, dirs, tag))
    if isinstance(out, np.ndarray):
        shape, out = out.shape, out.ravel()
    elif isinstance(out, (list, tuple)):
        shape = (len(out),)
    else:
        shape, out = (), [out]
    D = stack([[0.0] * n if p is None else p
               for p in (_split(c, tag)[1] for c in out)])
    return D.reshape(D.shape[:-2] + shape + (n,))


def stack(rows):
    """The array of a list of rows of scalars: (m, n) floats, (B, m, n)
    batch-first when an entry is an array over B samples, or an (m, n)
    object array when an entry is a jet (a jet carries its batch in its
    leaves, so an object array has no batch axis)."""
    flat = [c for row in rows for c in row]
    shape = (len(rows), len(flat) // len(rows) if rows else 0)
    kinds = set(map(type, flat))
    if Jet in kinds:
        out = np.empty(len(flat), dtype=object)
        for i, c in enumerate(flat):
            out[i] = c
        return out.reshape(shape)
    if np.ndarray not in kinds:
        return np.array(flat, dtype=float).reshape(shape)
    size = next(len(c) for c in flat if type(c) is np.ndarray)
    out = np.empty((size, len(flat)))
    for i, c in enumerate(flat):
        out[:, i] = c
    return out.reshape((size,) + shape)
