"""Coordinate foliations on R^n: leafwise de Rham calculus, the transverse
two-form invariant of a leafwise presymplectic family, and the fiberwise
pair groupoid over the conormal bundle with its canonical form.

Leafwise forms are geometry.Form blocks on the foliation's chart: a
leafwise p-form has p leaf indices, a conormal-valued one one more index,
which is transverse."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linear
from .courant import courant_bracket, graph_of_form
from .geometry import Chart, Form, alternate, component_jacobian, ext_d
from .groupoid import (GroupoidForm, fiberwise_pair_groupoid, max_abs,
                       uniform)


@dataclass(frozen=True)
class CoordFoliation:
    """F = span of the first k coordinate fields on R^n; the transverse
    directions are the last n - k coordinates."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    @property
    def chart(self):
        return Chart.numbered(x=self.n)

    @property
    def leaf(self):
        return tuple(range(self.k))

    @property
    def transverse(self):
        return tuple(range(self.k, self.n))


def _block(fol, w, q):
    """The components of w with exactly q transverse indices, the others
    set to zero.  A leafwise p-form is the q = 0 block of a p-form; a
    conormal-valued one is the q = 1 block of a (p+1)-form, its one
    transverse index m carrying the value in the conormal direction dx^m."""
    keep = (np.indices((fol.n,) * w.degree) >= fol.k).sum(axis=0) == q
    return Form(w.chart, w.degree,
                lambda p: np.where(keep, w.components(p), 0.0))


def d_F(fol, w):
    """Leafwise exterior derivative sum_{i leafwise} dx^i ^ d_i: the
    alternation of ext_d applied to the component Jacobian with its
    transverse columns zeroed.  On conormal-valued forms this is the flat
    partial-derivative connection of a coordinate foliation (the curvature
    vanishes identically)."""
    def components(p):
        D = component_jacobian(w, p)
        D[..., fol.k:] = 0.0    # the transverse derivative columns
        return alternate(D, w.degree)

    return Form(w.chart, w.degree + 1, components)


def d_nu(fol, theta, extension, samples):
    """Transverse derivative of a d_F-closed leafwise 2-form: the block of
    the exterior derivative of an extension with two leaf indices and one
    transverse index.

    The extension is validated at the samples: it must restrict to theta
    on the leaves, and its exterior derivative must vanish on
    purely-leafwise triples.
    """
    dext = ext_d(extension)
    r = max_abs(_block(fol, extension - theta, 0), samples)
    if r > 1e-12:
        raise ValueError(f"extension does not restrict to theta: {r:.2e}")
    # leaves of dimension < 3 carry no 3-form
    if fol.k >= 3 and max_abs(_block(fol, dext, 0), samples) > 1e-10:
        raise ValueError("extension is not leafwise closed")
    return _block(fol, dext, 1)


def classifying_rep(fol, extension, phi=None):
    """The conormal-valued curvature of the splitting: transverse
    components of the (twisted) bracket defect of the lifted leaf frame
    sigma(d_i) = (d_i, i_{d_i} extension), the graph of the extension, as
    the block u[i, j, m] of a 3-form.  Leaf coordinate fields commute,
    so the defect is just the bracket of the lifted sections.  ([()] takes
    the entry out of the 0-d array that [..., m] leaves at one point.)"""
    graph = graph_of_form(extension)
    out = {}
    for (i, j) in combinations(fol.leaf, 2):
        _, zeta = courant_bracket(graph.section(i), graph.section(j), phi)
        for m in fol.transverse:
            out[(i, j, m)] = lambda p, zeta=zeta, m=m: \
                zeta.components(p)[..., m][()]
    return Form.from_components(fol.chart, 3, out)


def phi_bar(fol, phi):
    """Conormal restriction of a 3-form: two leaf slots, one transverse."""
    return _block(fol, phi, 1)


def twisted_shift_residual(fol, extension, phi, samples):
    """|classifying_rep with twist - classifying_rep - phi_bar|."""
    return max_abs(classifying_rep(fol, extension, phi)
                   - classifying_rep(fol, extension) - phi_bar(fol, phi),
                   samples)


# -- groupoid fixtures ------------------------------------------------------

def foliation_groupoid(n, k):
    """The fiberwise pair groupoid of the foliation acting on the conormal
    bundle: coordinates (y, x, q, v) with y, x leafwise, q transverse, and
    v conormal; multiplication (y,z,q,v).(z,x,q,w) = (y,x,q,v+w).

    The holonomy slot is trivial for planar leaves, so the conormal part
    just adds.  The attached form is sum_m dv_m ^ dq_m.
    """
    m = n - k
    G = fiberwise_pair_groupoid(n, k, m, uniform(-1.0, 1.0, k),
                                uniform(-1.0, 1.0, n))
    Om = np.zeros((2 * n, 2 * n))
    for i in range(m):
        q, v = 2 * k + i, 2 * k + m + i
        Om[v, q], Om[q, v] = 1.0, -1.0
    return G, GroupoidForm(Form(G.chart, 2, lambda p: Om), None)


def leaf_conormal_dirac(n, k):
    """The Dirac space F + conormal(F) on R^n."""
    span = np.zeros((2 * n, n))
    for i in range(k):
        span[i, i] = 1.0
    for m in range(k, n):
        span[n + m, m] = 1.0
    return linear.LinearDirac.from_span(span)

