"""Chart-presented Lie groupoids with evaluable structure maps, and the
numerical checks for multiplicative 2-forms: multiplicativity, relative
closedness, unit/inversion identities, kernel dimension identities,
classification (Dirac type / robust / presymplectic / over-symplectic /
nondegenerate), rho*-extraction at units, induced Dirac structures, and
gauge transformations.  Each check draws all its samples as one block of
uniform doubles (`Sampler`) and evaluates them as one (B, n) stack."""

from dataclasses import dataclass

import numpy as np

from . import jets, linear
from .linear import (kernel_svd, mT, padded_contained, padded_intersect,
                     padded_kernel, padded_null, padded_orth, padded_span_gap)
from .geometry import Form, ChartMap, block, coordinates, ext_d, pullback


class RankInstabilityError(ValueError):
    """A singular value sits too close to the rank threshold to decide."""


class NonFiniteFormError(ValueError):
    """The component matrix of omega has a NaN or infinite entry."""


def worst_of(*values):
    """The largest residual among scalars and arrays of residuals, or NaN
    when any residual is NaN (the built-in max drops a NaN that is not its
    first argument)."""
    return float(np.concatenate([np.ravel(v) for v in values]).max())


def max_abs(w, samples):
    """Largest |component| of the form w over the samples, evaluated as
    one stack (NaN if any is NaN)."""
    return worst_of(0.0, np.abs(w.at(np.asarray(samples, dtype=float))))


def apply(f, P):
    """The (B, m) stack of the values of the structure map f at a (B, n)
    stack of points (the (m,) values at one point), evaluated once."""
    return np.stack([np.broadcast_to(c, P.shape[:-1])
                     for c in f(coordinates(P))], axis=-1)


@dataclass(frozen=True)
class Sampler:
    """build maps an (n, width) block of uniform doubles in [0, 1) to the
    (n, dim) stack of n points, row i to point i.  schedule(rng, m) gives
    the next m entries of the forced columns drawn from rng, in row-major
    order: the value of an entry that is not drawn, NaN for one that is."""

    width: int
    build: object
    forced: tuple = ()
    schedule: object = None

    def draw(self, rng, n):
        """The (n, dim) stack, its block filled row by row, the order of n
        draws of one point each."""
        B = np.full((n, self.width), np.nan)
        if self.schedule is not None:
            B[:, list(self.forced)] = self.schedule(
                rng, n * len(self.forced)).reshape(n, -1)
        free = np.isnan(B)
        B[free] = rng.random(int(free.sum()))
        return self.build(B)


def uniform(lo, hi, d, scale=1.0):
    """d coordinates uniform in [lo, hi), times scale: numpy's uniform,
    lo + (hi - lo) * u, to the bit."""
    lo, hi = float(lo), float(hi)

    def build(U):
        if not np.isfinite(hi - lo):
            raise OverflowError("high - low range exceeds valid bounds")
        return (lo + (hi - lo) * U) * scale

    return Sampler(d, build)


def concat(*parts, build=None):
    """The sampler whose row lays the rows of parts side by side; build
    maps the parts' stacks to the points (default: side by side too).  The
    parts follow at most one schedule."""
    cuts = np.cumsum([0] + [p.width for p in parts]).tolist()

    def run(B):
        stacks = [p.build(B[:, a:b])
                  for p, a, b in zip(parts, cuts, cuts[1:])]
        return np.hstack(stacks) if build is None else build(*stacks)

    return Sampler(cuts[-1], run,
                   tuple(a + c for p, a in zip(parts, cuts) for c in p.forced),
                   next((p.schedule for p in parts if p.schedule), None))


@dataclass
class ChartGroupoid:
    """Groupoid on global coordinate charts.

    All structure maps are evaluators over generic scalars so that jets can
    differentiate through them.  Composable pairs/triples come from the
    fixture's own samplers (never from root-finding): a pair is the stack
    row (g, h) with s(g) = t(h), a triple (g, h, k) with s(g) = t(h) and
    s(h) = t(k).  Build one with `action_groupoid` or
    `fiberwise_pair_groupoid`.
    """

    total_dim: int
    base_dim: int
    s: object
    t: object
    unit: object
    inv: object
    mul: object
    units: Sampler     # base points
    arrows: Sampler
    pairs: Sampler
    triples: Sampler

    def structure_residuals(self, rng, n=8):
        """Sanity residuals of the groupoid axioms at sampled points: a
        unit, a composable pair and a composable triple per sample, drawn
        in that order."""
        S = concat(self.units, self.pairs, self.triples).draw(rng, n)
        x, g, h, a, b, c = (coordinates(P) for P in np.split(
            S, self.base_dim + self.total_dim * np.arange(5), axis=1))
        ex = self.unit(x)
        gh = self.mul(g, h)
        return {"unit": worst_of(0.0, _dist(self.s(ex), x),
                                 _dist(self.t(ex), x)),
                "source_target": worst_of(0.0, _dist(self.s(gh), self.s(h)),
                                          _dist(self.t(gh), self.t(g))),
                "associativity": worst_of(
                    0.0, _dist(self.mul(self.mul(a, b), c),
                               self.mul(a, self.mul(b, c)))),
                "inverse": worst_of(
                    0.0, _dist(self.inv(self.inv(g)), g),
                    _dist(self.mul(g, self.inv(g)), self.unit(self.t(g))))}


def action_groupoid(Gp, base_dim, act, group, base, group_near):
    """The action groupoid H x M of a left action act(u, x) of the chart
    group Gp on a base chart of dimension base_dim.  An arrow (u, x) goes
    from x to act(u, x), and (u, act(v, x)).(v, x) = (uv, x).

    The samplers group and base draw the two parts of an arrow; the group
    parts that extend an arrow to a pair come from group, those that
    extend it to a triple from group_near, which may stay closer to the
    identity so that the products remain inside the chart.
    """
    d = Gp.dim

    def s(p):
        return list(p[d:])

    def t(p):
        return act(p[:d], p[d:])

    def unit(x):
        return Gp.identity() + list(x)

    def inv(p):
        return Gp.inv(p[:d]) + t(p)

    def mul(g, h):
        return Gp.mul(g[:d], h[:d]) + list(h[d:])

    def extend(P, u):
        # the arrows (u, t(g)) for the first arrows g of P, put before P
        return np.hstack([u, apply(t, P[:, :d + base_dim]), P])

    arrows = concat(group, base)
    return ChartGroupoid(
        d + base_dim, base_dim, s, t, unit, inv, mul, base, arrows,
        concat(arrows, group, build=extend),
        concat(concat(arrows, group_near, build=extend), group_near,
               build=extend))


def fiberwise_pair_groupoid(n, k, r, leaf, point):
    """The fiberwise pair groupoid of the foliation of R^n by the first k
    coordinates, with an additive slot of r conormal coordinates.

    Arrows are (y, x, q, v) with y, x leafwise, q transverse and v in the
    slot; (y,z,q,v).(z,x,q,w) = (y,x,q,v+w).  k = n, r = 0 is the pair
    groupoid of R^n.  The sampler point draws a base point (x, q) and leaf
    a leafwise part y; slot entries are uniform in [-1, 1].
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    j = k + n   # end of the transverse block q

    def s(p):
        return list(p[k:2 * k]) + list(p[2 * k:j])

    def t(p):
        return list(p[:k]) + list(p[2 * k:j])

    def unit(b):
        return list(b[:k]) + list(b) + [0.0] * r

    def inv(p):
        return list(p[k:2 * k]) + list(p[:k]) + list(p[2 * k:j]) \
            + [-c for c in p[j:]]

    def mul(g, h):
        return list(g[:k]) + list(h[k:j]) \
            + [a + b for a, b in zip(g[j:], h[j:])]

    def extend(y, P, v):
        # the arrows (y, t(g), v) for the first arrows g of P, put before P
        return np.hstack([y, apply(t, P[:, :j + r]), v, P])

    # y is drawn before the arrows it extends, so that the pair groupoid
    # samples its pairs as (x, y), (y, z) from points drawn in that order
    slot = uniform(-1.0, 1.0, r)
    arrows = concat(leaf, point, slot)
    pairs = concat(leaf, arrows, slot, build=extend)
    return ChartGroupoid(j + r, n, s, t, unit, inv, mul, point, arrows,
                         pairs, concat(leaf, pairs, slot, build=extend))


def _dist(a, b):
    return worst_of(*(abs(jets.value_of(x) - jets.value_of(y))
                      for x, y in zip(a, b)))


@dataclass
class GroupoidForm:
    """A 2-form on the total space plus the background 3-form on the base."""

    omega: Form
    phi: Form = None  # None means zero


# -- jacobians, kernels and rank decisions over stacks ---------------------
# Subspaces at a stack of samples are linear's padded bases.

def _jac(f, p):
    """Jacobian of f at a float point, or the (B, m, n) stack of its
    Jacobians at a (B, n) stack of points: one jet pass either way."""
    P = np.asarray(p, dtype=float)
    J = jets.stack(jets.jacobian(f, coordinates(P)))
    return np.broadcast_to(J, P.shape[:-1] + J.shape[-2:])


def kernel_of_form(Om, where="omega", points=None):
    """Kernel of Om (a component matrix of omega, or a Jacobian, or a
    stack of them with their points) as a padded basis, its dimension, and
    the rank gap (the smallest over a stack).  The first sample whose
    matrix is not finite, or whose rank sits too close to the threshold to
    decide, raises."""
    Om = np.asarray(Om, dtype=float)
    finite = np.all(np.isfinite(Om), axis=(-2, -1))
    s, cut, Vt = kernel_svd(np.where(finite[..., None, None], Om, 0.0), 1.0)
    kept = s > cut
    r = np.sum(kept, axis=-1)
    small = np.max(np.where(kept, 0.0, s), axis=-1, initial=0.0)
    least = np.min(np.where(kept, s, np.inf), axis=-1, initial=np.inf)
    with np.errstate(divide="ignore"):
        gap = np.where(small > 0, least / small, np.inf)
    unstable = (small > cut[..., 0] / 10) & (least < cut[..., 0] * 10)
    bad = ~finite | unstable
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        at = where if points is None else f"{where} {points[i].tolist()}"
        at += jets.at_sample(bad)
        if not finite[i]:
            raise NonFiniteFormError(f"omega is not finite at {at}")
        raise RankInstabilityError(
            f"indeterminate rank at {at}: singular values "
            f"{small[i]:.1e} and {least[i]:.1e} straddle the "
            f"threshold {cut[i][0]:.1e}")
    return (*padded_kernel(Vt, r), float(np.min(gap, initial=np.inf)))


# -- the multiplicative-form checks ---------------------------------------

def composable_tangents(G, g, h):
    """Padded basis of the tangent space to the composable-pair set at
    (g, h) (or at stacks of pairs): pairs (u, v) with ds_g u = dt_h v."""
    C = np.concatenate([_jac(G.s, g), -_jac(G.t, h)], axis=-1)
    return padded_null(C)[0]


def _upper_max(M):
    """Largest |M[..., i, j]| over i < j (and over a stack), NaN-
    propagating."""
    iu = np.triu_indices(M.shape[-1], 1)
    return worst_of(0.0, np.abs(M[..., iu[0], iu[1]]))


def check_multiplicative(G, F, rng, n_pairs=8):
    """Max |m*omega - pr1*omega - pr2*omega| over sampled composable pairs
    and tangent-basis pairs: the entries i < j of (Dm B)^T omega(gh) (Dm B)
    - B1^T omega(g) B1 - B2^T omega(h) B2, with B = [B1; B2] a basis of the
    composable tangents."""
    N = G.total_dim

    def mul(z):
        return G.mul(z[:N], z[N:])

    Z = G.pairs.draw(rng, n_pairs)
    g, h = Z[:, :N], Z[:, N:]
    gh = apply(mul, Z)
    B = composable_tangents(G, g, h)
    Dm = _jac(mul, Z)
    DmB, B1, B2 = Dm @ B, B[..., :N, :], B[..., N:, :]
    D = mT(DmB) @ F.omega.at(gh) @ DmB - mT(B1) @ F.omega.at(g) @ B1 \
        - mT(B2) @ F.omega.at(h) @ B2
    return _upper_max(D)


def check_rel_closed(G, F, rng, n_points=8):
    """Max |d omega - s*phi + t*phi| over the components at sampled
    arrows."""
    total = ext_d(F.omega)
    if F.phi is not None:
        ch, bch = F.omega.chart, F.phi.chart
        total = total - pullback(ChartMap(ch, bch, G.s), F.phi) \
            + pullback(ChartMap(ch, bch, G.t), F.phi)
    return worst_of(0.0, np.abs(total.at(G.arrows.draw(rng, n_points))))


def check_unit_identities(G, F, rng, n=8):
    """(max |eps* omega| at units, max |i* omega + omega| at arrows)."""
    x = G.units.draw(rng, n)
    Deps = _jac(G.unit, x)
    r_eps = _upper_max(mT(Deps) @ F.omega.at(apply(G.unit, x)) @ Deps)
    g = G.arrows.draw(rng, n)
    Dinv = _jac(G.inv, g)
    r_inv = _upper_max(mT(Dinv) @ F.omega.at(apply(G.inv, g)) @ Dinv
                       + F.omega.at(g))
    return r_eps, r_inv


def check_kernel_orthogonality(G, F, rng, n=8):
    """Ker(ds) + Ker(omega) is omega-orthogonal to Ker(dt) at arrows.  A
    non-finite omega gives a NaN residual."""
    g = G.arrows.draw(rng, n)
    Om = F.omega.at(g)
    finite = np.all(np.isfinite(Om), axis=(-2, -1))
    Om = np.where(finite[:, None, None], Om, 0.0)
    Ks, _ = padded_null(_jac(G.s, g))
    Kt, _ = padded_null(_jac(G.t, g))
    span, _ = padded_orth(block([[Ks, padded_null(Om)[0]]]))
    worst = np.max(np.abs(mT(span) @ Om @ Kt), axis=(-2, -1))
    return worst_of(0.0, np.where(finite, worst, np.nan))


def check_orbit_form(G, F, theta, rng, n=8):
    """|omega - (t*theta - s*theta)| on transitive fixtures."""
    ch = F.omega.chart
    bch = theta.chart
    diff = F.omega - (pullback(ChartMap(ch, bch, G.t), theta)
                      - pullback(ChartMap(ch, bch, G.s), theta))
    return _upper_max(diff.at(G.arrows.draw(rng, n)))


# -- units: splitting, rho*, induced Dirac --------------------------------

@dataclass
class UnitSplitting:
    """The canonical splitting T_x G = T_x M + A_x at a unit, or stacks."""

    TM: np.ndarray         # basis of T_xM inside T_{eps(x)}G (d eps columns)
    A: np.ndarray          # basis of A_x = Ker(ds) at eps(x)
    rho: np.ndarray        # dt restricted to A, in base coordinates (n x a)
    rho_star: np.ndarray   # matrix (a x n): row j = i_{A_j} omega |_{T_xM}
    omega: np.ndarray      # component matrix of omega at eps(x)


def extract_rho_star(G, F, x):
    """rho*_omega at the unit over x, or over each point of a (B, n)
    stack: alpha -> i_alpha(omega)|_{T_xM}."""
    x = np.asarray(x, dtype=float)
    ex = apply(G.unit, x)
    K, dim, _ = kernel_of_form(_jac(G.s, ex), "ds at unit")
    if np.any(dim != G.total_dim - G.base_dim):
        raise linear.DegenerateRankError("rank defect in ds at the unit")
    A = K[..., :G.total_dim - G.base_dim]
    Deps = _jac(G.unit, x)
    Om = F.omega.at(ex)
    return UnitSplitting(Deps, A, _jac(G.t, ex) @ A, mT(A) @ Om @ Deps, Om)


def induced_span(G, F, x):
    """The frame of the Dirac structure induced on the base at x by a
    multiplicative form, or the stack of them over a (B, n) stack, from one
    splitting, and the number of its leading columns that are not padding:
    columns (rho(a), rho*(a)) over A, then (k, 0) over the padded basis of
    Ker(omega) ∩ T_xM."""
    sp = extract_rho_star(G, F, x)
    Kw, _, _ = kernel_of_form(sp.omega, "omega at unit")
    KTM, dim = padded_intersect(Kw, padded_orth(sp.TM)[0])
    # Ker(omega) ∩ T_xM in base coordinates (d eps is injective)
    base_kernel = np.linalg.pinv(sp.TM) @ KTM
    span = block([[sp.rho, base_kernel],
                  [mT(sp.rho_star), np.zeros_like(base_kernel)]])
    return span, sp.A.shape[-1] + dim


def induced_dirac(G, F, x):
    """The Dirac structure induced on the base at the point x."""
    span, width = induced_span(G, F, x)
    return linear.LinearDirac.from_span(span[:, :width])


# -- classification --------------------------------------------------------

def classify(G, F, rng, n_units=8, n_arrows=16, residuals=True):
    """Dimension/classification suite at sampled units and arrows: the dict
    of its flags, kernel dimensions, residuals, worst points and rank gaps.
    The kernel identities report the sine of the largest principal angle
    between the two sides.  With residuals False the dict keeps only the
    flags, worst points and rank gaps, from the same draws."""
    N, n = G.total_dim, G.base_dim
    x = G.units.draw(rng, n_units)
    ex = apply(G.unit, x)
    Om = F.omega.at(ex)
    Kw, dim_ker, gap_units = kernel_of_form(Om, "unit", x)
    Ks, _ = padded_null(_jac(G.s, ex))
    Kt, _ = padded_null(_jac(G.t, ex))
    Kst, _ = padded_intersect(Ks, Kt)
    _, dim_gx = padded_intersect(Kw, Kst)
    over_symplectic = bool(np.all(padded_contained(Kw, Kst)))
    rep = {}
    if residuals:
        TM, _ = padded_orth(_jac(G.unit, x))
        KwTM, dim_ker_tm = padded_intersect(Kw, TM)
        KwKs, dim_ker_ks = padded_intersect(Kw, Ks)
        # Ker(ds) + Ker(omega) = omega-orthogonal of Ker(dt), and
        # T_xM + Ker(omega) = omega-orthogonal of T_xM  (kernel identities)
        orth1 = padded_span_gap(*padded_orth(block([[Ks, Kw]])),
                                *padded_null(mT(Kt) @ Om))
        orth2 = padded_span_gap(*padded_orth(block([[TM, Kw]])),
                                *padded_null(mT(TM) @ Om))
        # decomposition Ker(omega) = (Ker ∩ Ker ds) + (Ker ∩ TM)
        decomp = padded_span_gap(*padded_orth(block([[KwKs, KwTM]])), Kw,
                                 dim_ker)
        # dimension formulas
        want_tm = 0.5 * (dim_ker + 2 * n - N)
        want_ks = 0.5 * (dim_ker - 2 * n + N)
        dim_err = np.maximum(abs(dim_ker_tm - want_tm),
                             abs(dim_ker_ks - want_ks))
        rep["residuals"] = {"kernel_dim_sum": worst_of(0.0, dim_err),
                            "kernel_decomp": worst_of(0.0, decomp),
                            "kernel_orth": worst_of(0.0, orth1, orth2)}
        rep["dims"] = {"ker_omega_units": dim_ker, "g_x_omega": dim_gx,
                       "ker_omega_cap_TM": dim_ker_tm,
                       "ker_omega_cap_ker_ds": dim_ker_ks}

    # Dirac type at arrows: dim Ker(omega_g) is the mean of the kernel
    # dimensions at the units over s(g) and t(g)
    g = G.arrows.draw(rng, n_arrows)
    _, dim_arrow, gap_arrows = kernel_of_form(F.omega.at(g), "arrow", g)
    sx, tx = apply(G.s, g), apply(G.t, g)
    want = 0.5 * sum(kernel_of_form(F.omega.at(apply(G.unit, y)), "unit",
                                    y)[1] for y in (sx, tx))
    worst = {}
    failed = dim_arrow != want
    if failed.any():
        i = int(np.argmax(failed))
        worst["dirac_type"] = {"arrow": g[i], "s": sx[i], "t": tx[i],
                               "dim_ker_arrow": dim_arrow[i],
                               "expected": want[i]}

    robust = bool(np.all(dim_gx == N - 2 * n))
    nondegenerate = bool(np.all(dim_gx == 0))
    flags = {
        "is_dirac_type": not failed.any(),
        "is_robust": robust,
        "is_presymplectic": robust and (N == 2 * n),
        "is_over_symplectic": over_symplectic,
        "is_nondegenerate": nondegenerate,
        "is_symplectic": nondegenerate and bool(np.all(dim_ker == 0))
                         and N == 2 * n,
    }
    return {"flags": flags, "worst_points": worst,
            "rank_gaps": {"units": gap_units, "arrows": gap_arrows}, **rep}


# -- gauge transformations -------------------------------------------------

def gauge(G, F, B):
    """tau_B: omega -> omega + t*B - s*B, phi -> phi - dB."""
    ch = F.omega.chart
    bch = B.chart
    omega2 = F.omega + pullback(ChartMap(ch, bch, G.t), B) \
                     - pullback(ChartMap(ch, bch, G.s), B)
    dB = ext_d(B)
    phi2 = (-dB) if F.phi is None else (F.phi - dB)
    return GroupoidForm(omega2, phi2)
