"""Coordinate foliations on R^n: leafwise de Rham calculus, the transverse
two-form invariant of a leafwise presymplectic family, and the fiberwise
pair groupoid over the conormal bundle with its canonical form."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import jets, linear
from .courant import Section, courant_bracket
from .expr import ScalarExpr, parse
from .geometry import Chart, Form, VectorField, ext_d, interior
from .groupoid import GroupoidForm, fiberwise_pair_groupoid


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
        return Chart(tuple(f"x{i+1}" for i in range(self.n)))

    @property
    def leaf(self):
        return tuple(range(self.k))

    @property
    def transverse(self):
        return tuple(range(self.k, self.n))


def _coeff_fn(e, ch):
    if callable(e) and not isinstance(e, ScalarExpr):
        return e
    if isinstance(e, (int, float)):
        v = float(e)
        return lambda p: v
    if isinstance(e, str):
        e = parse(e, ch.names)
    return lambda p: e(p)


@dataclass
class FoliatedForm:
    """Leafwise p-form with coefficients over the whole chart.

    Scalar-valued coefficients are keyed by strictly increasing tuples of
    leaf indices; conormal-valued ones add a transverse index m.
    """

    fol: CoordFoliation
    degree: int
    coeffs: dict
    nu_valued: bool = False

    def __post_init__(self):
        ch = self.fol.chart
        table = {}
        for key, e in self.coeffs.items():
            if self.nu_valued:
                idx, m = tuple(key[0]), key[1]
                if m not in self.fol.transverse:
                    raise ValueError(f"transverse index {m} out of range")
            else:
                idx = tuple(key)
                m = None
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"indices must be strictly increasing: {idx}")
            if len(idx) != self.degree:
                raise ValueError(f"index {idx} has wrong length")
            if any(i not in self.fol.leaf for i in idx):
                raise ValueError(f"non-leaf index in {idx}")
            table[(idx, m) if self.nu_valued else idx] = _coeff_fn(e, ch)
        self.table = table

    def keys(self):
        if self.nu_valued:
            return [(idx, m)
                    for idx in combinations(self.fol.leaf, self.degree)
                    for m in self.fol.transverse]
        return list(combinations(self.fol.leaf, self.degree))

    def coeff(self, key, p):
        fn = self.table.get(key)
        return 0.0 if fn is None else fn(p)

    def __sub__(self, other):
        if (self.fol, self.degree, self.nu_valued) != \
                (other.fol, other.degree, other.nu_valued):
            raise ValueError("foliated-form mismatch")
        out = {}
        for key in self.keys():
            out[key] = (lambda p, k=key:
                        self.coeff(k, p) - other.coeff(k, p))
        return FoliatedForm(self.fol, self.degree, out, self.nu_valued)

    def max_abs(self, samples):
        worst = 0.0
        for p in samples:
            for key in self.keys():
                worst = max(worst, abs(jets.value_of(self.coeff(key, p))))
        return worst


def d_F(w):
    """Leafwise exterior derivative; for conormal-valued forms this is the
    flat partial-derivative connection of a coordinate foliation (the
    curvature vanishes identically)."""
    fol = w.fol
    if w.degree >= fol.k:
        raise ValueError("degree overflow along the leaves")
    out = {}

    def coefficient(J, m):
        def fn(p):
            total = 0.0
            for pos, i in enumerate(J):
                rest = tuple(x for x in J if x != i)
                key = (rest, m) if w.nu_valued else rest
                e = [1.0 if j == i else 0.0 for j in range(fol.n)]
                der = jets.directional(lambda q: w.coeff(key, q), p, e)
                total = total + (der if pos % 2 == 0 else -der)
            return total
        return fn

    for J in combinations(fol.leaf, w.degree + 1):
        if w.nu_valued:
            for m in fol.transverse:
                out[(J, m)] = coefficient(J, m)
        else:
            out[J] = coefficient(J, None)
    return FoliatedForm(fol, w.degree + 1, out, w.nu_valued)


def restriction_residual(fol, theta, extension, samples):
    """Max defect of the extension against theta on leaf directions."""
    worst = 0.0
    for p in samples:
        C = extension.components(p)
        for (i, j) in combinations(fol.leaf, 2):
            val = C[i, j] - theta.coeff((i, j), p)
            worst = max(worst, abs(jets.value_of(val)))
    return worst


def d_nu(theta, extension, samples=None, tol=1e-10):
    """Transverse derivative of a d_F-closed leafwise 2-form: contract the
    exterior derivative of an extension with two leaf directions and one
    transverse direction.

    When samples are given, the extension is validated: it must restrict
    to theta on the leaves, and its exterior derivative must vanish on
    purely-leafwise triples.
    """
    fol = theta.fol
    dext = ext_d(extension)
    if samples is not None:
        r = restriction_residual(fol, theta, extension, samples)
        if r > 1e-12:
            raise ValueError(f"extension does not restrict to theta: {r:.2e}")
        triples = list(combinations(fol.leaf, 3))
        if triples:     # leaves of dimension < 3 carry no 3-form
            for p in samples:
                C = dext.components(p)
                if any(abs(jets.value_of(C[idx])) > tol for idx in triples):
                    raise ValueError("extension is not leafwise closed")
    return _conormal_part(fol, dext)


def _conormal_part(fol, w):
    """The leafwise 2-form p -> w[i, j, m] (i, j leafwise, m transverse) of
    a 3-form w."""
    out = {}
    for (i, j) in combinations(fol.leaf, 2):
        for m in fol.transverse:
            out[((i, j), m)] = (
                lambda p, i=i, j=j, m=m: w.components(p)[i, j, m])
    return FoliatedForm(fol, 2, out, nu_valued=True)


def splitting_sections(fol, extension):
    """sigma(d_i) = (d_i, i_{d_i} theta-extension) as sections over the
    full chart, one per leaf direction."""
    ch = fol.chart
    out = []
    for i in fol.leaf:
        e = [1.0 if j == i else 0.0 for j in range(fol.n)]
        X = VectorField(ch, lambda p, e=e: list(e))
        out.append(Section(X, interior(X, extension)))
    return out


def classifying_rep(fol, extension, phi=None):
    """The conormal-valued curvature of the splitting: transverse
    components of the (twisted) bracket defect of the lifted leaf frame.
    Leaf coordinate fields commute, so the defect is just the bracket of
    the lifted sections."""
    secs = splitting_sections(fol, extension)
    out = {}
    for (i, j) in combinations(fol.leaf, 2):
        br = courant_bracket(secs[i], secs[j], phi)
        for m in fol.transverse:
            out[((i, j), m)] = (
                lambda p, br=br, m=m: br.xi.components(p)[m])
    return FoliatedForm(fol, 2, out, nu_valued=True)


def phi_bar(fol, phi):
    """Conormal restriction of a 3-form: two leaf slots, one transverse."""
    return _conormal_part(fol, phi)


def twisted_shift_residual(fol, extension, phi, samples):
    """|classifying_rep with twist - classifying_rep - phi_bar|."""
    twisted = classifying_rep(fol, extension, phi)
    plain = classifying_rep(fol, extension)
    bar = phi_bar(fol, phi)
    worst = 0.0
    for p in samples:
        for key in twisted.keys():
            val = twisted.coeff(key, p) - plain.coeff(key, p) \
                - bar.coeff(key, p)
            worst = max(worst, abs(jets.value_of(val)))
    return worst


# -- groupoid fixtures ------------------------------------------------------

def _uniform(size):
    return lambda rng: list(rng.uniform(-1.0, 1.0, size))


def _groupoid_chart(k, m, r):
    return Chart(tuple(f"y{i+1}" for i in range(k))
                 + tuple(f"x{i+1}" for i in range(k))
                 + tuple(f"q{i+1}" for i in range(m))
                 + tuple(f"v{i+1}" for i in range(r)))


def foliation_groupoid(n, k):
    """The fiberwise pair groupoid of the foliation acting on the conormal
    bundle: coordinates (y, x, q, v) with y, x leafwise, q transverse, and
    v conormal; multiplication (y,z,q,v).(z,x,q,w) = (y,x,q,v+w).

    The holonomy slot is trivial for planar leaves, so the conormal part
    just adds.  The attached form is sum_m dv_m ^ dq_m.
    """
    m = n - k
    G = fiberwise_pair_groupoid(n, k, m, _uniform(k), _uniform(n))
    Om = np.zeros((2 * n, 2 * n))
    for i in range(m):
        q, v = 2 * k + i, 2 * k + m + i
        Om[v, q], Om[q, v] = 1.0, -1.0
    return G, GroupoidForm(Form(_groupoid_chart(k, m, m), 2, lambda p: Om),
                           None)


def leaf_conormal_dirac(n, k, tol=linear.DEFAULT_TOL):
    """The Dirac space F + conormal(F) on R^n."""
    span = np.zeros((2 * n, n))
    for i in range(k):
        span[i, i] = 1.0
    for m in range(k, n):
        span[n + m, m] = 1.0
    return linear.LinearDirac.from_span(span, tol)


def monodromy_groupoid(n, k):
    """The fiberwise pair groupoid of the foliation itself: coordinates
    (y, x, q) with multiplication (y,z,q).(z,x,q) = (y,x,q)."""
    G = fiberwise_pair_groupoid(n, k, 0, _uniform(k), _uniform(n))
    return G, _groupoid_chart(k, n - k, 0)


def exact_multiplicative_form(n, k, sigma):
    """omega = d(t* sigma - s* sigma) on the monodromy groupoid, for a
    1-form sigma on the base."""
    from .geometry import ChartMap, pullback
    G, ch = monodromy_groupoid(n, k)
    bch = sigma.chart
    tmap = ChartMap(ch, bch, G.t)
    smap = ChartMap(ch, bch, G.s)
    omega = ext_d(pullback(tmap, sigma) - pullback(smap, sigma))
    return G, GroupoidForm(omega, None)


def c_omega(G, F, fol, x):
    """The leafwise 2-form c[i, j] = <rho*_omega(a_i), d_j> at the base
    point x of a multiplicative form on the monodromy groupoid, where a_i
    is the algebroid element anchored to the leaf direction d_i."""
    from .groupoid import extract_rho_star
    sp = extract_rho_star(G, F, x)
    out = np.zeros((fol.k, fol.k))
    for i in fol.leaf:
        e = np.zeros(fol.n)
        e[i] = 1.0
        coeff, res, *_ = np.linalg.lstsq(sp.rho, e, rcond=None)
        cov = coeff @ sp.rho_star
        for j in fol.leaf:
            out[i, j] = cov[j]
    return out
