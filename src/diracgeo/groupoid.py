"""Chart-presented Lie groupoids with evaluable structure maps, and the
numerical checks for multiplicative 2-forms: multiplicativity, relative
closedness, unit/inversion identities, kernel dimension identities,
classification (Dirac type / robust / presymplectic / over-symplectic /
nondegenerate), rho*-extraction at units, induced Dirac structures, and
gauge transformations."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets, linear
from .geometry import Form, ext_d, pullback, ChartMap


class RankInstabilityError(ValueError):
    """A singular value sits too close to the rank threshold to decide."""


class NonFiniteFormError(ValueError):
    """The component matrix of omega has a NaN or infinite entry."""


def worst_of(*values):
    """The largest residual, or NaN when any residual is NaN (the built-in
    max drops a NaN that is not its first argument)."""
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def max_abs(w, samples):
    """Largest |component| of the form w over the samples (NaN if any is
    NaN)."""
    return worst_of(*(np.max(np.abs(w.at(p))) for p in samples))


@dataclass
class ChartGroupoid:
    """Groupoid on global coordinate charts.

    All structure maps are evaluators over generic scalars so that jets can
    differentiate through them.  Composable pairs/triples come from the
    fixture's own samplers (never from root-finding).  Build one with
    `action_groupoid` or `fiberwise_pair_groupoid`.
    """

    total_dim: int
    base_dim: int
    s: object
    t: object
    unit: object
    inv: object
    mul: object
    sample_unit: object    # rng -> base point
    sample_arrow: object   # rng -> arrow
    sample_pair: object    # rng -> (g, h) with s(g) = t(h)
    sample_triple: object  # rng -> (g, h, k) with s(g) = t(h), s(h) = t(k)

    def structure_residuals(self, rng, n=8):
        """Sanity residuals of the groupoid axioms at sampled points."""
        r_unit = r_st = r_assoc = r_inv = 0.0
        for _ in range(n):
            x = self.sample_unit(rng)
            ex = self.unit(x)
            r_unit = worst_of(r_unit, _dist(self.s(ex), x),
                              _dist(self.t(ex), x))
            g, h = self.sample_pair(rng)
            gh = self.mul(g, h)
            r_st = worst_of(r_st, _dist(self.s(gh), self.s(h)),
                            _dist(self.t(gh), self.t(g)))
            r_inv = worst_of(r_inv, _dist(self.inv(self.inv(g)), g),
                             _dist(self.mul(g, self.inv(g)),
                                   self.unit(self.t(g))))
            a, b, c = self.sample_triple(rng)
            r_assoc = worst_of(r_assoc, _dist(self.mul(self.mul(a, b), c),
                                              self.mul(a, self.mul(b, c))))
        return {"unit": r_unit, "source_target": r_st,
                "associativity": r_assoc, "inverse": r_inv}


def action_groupoid(Gp, base_dim, act, sample_group, sample_base,
                    sample_group_near):
    """The action groupoid H x M of a left action act(u, x) of the chart
    group Gp on a base chart of dimension base_dim.  An arrow (u, x) goes
    from x to act(u, x), and (u, act(v, x)).(v, x) = (uv, x).

    sample_group(rng) and sample_base(rng) draw the two parts of an arrow;
    the group parts that extend an arrow to a pair come from sample_group,
    those that extend it to a triple from sample_group_near, which may stay
    closer to the identity so that the products remain inside the chart.
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

    def sample_arrow(rng):
        return sample_group(rng) + sample_base(rng)

    def sample_pair(rng):
        g2 = sample_arrow(rng)
        return sample_group(rng) + t(g2), g2

    def sample_triple(rng):
        g3 = sample_arrow(rng)
        g2 = sample_group_near(rng) + t(g3)
        return sample_group_near(rng) + t(g2), g2, g3

    return ChartGroupoid(d + base_dim, base_dim, s, t, unit, inv, mul,
                         sample_base, sample_arrow, sample_pair,
                         sample_triple)


def fiberwise_pair_groupoid(n, k, r, sample_leaf, sample_point):
    """The fiberwise pair groupoid of the foliation of R^n by the first k
    coordinates, with an additive slot of r conormal coordinates.

    Arrows are (y, x, q, v) with y, x leafwise, q transverse and v in the
    slot; (y,z,q,v).(z,x,q,w) = (y,x,q,v+w).  k = n, r = 0 is the pair
    groupoid of R^n.  sample_point(rng) draws a base point (x, q) and
    sample_leaf(rng) a leafwise part y; slot entries are uniform in [-1, 1].
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

    def sample_arrow(rng):
        return sample_leaf(rng) + sample_point(rng) \
            + list(rng.uniform(-1.0, 1.0, r))

    def left_of(g, y, rng):
        """An arrow from t(g) to the leafwise part y, composable with g."""
        return y + t(g) + list(rng.uniform(-1.0, 1.0, r))

    # y is drawn before the arrow it extends, so that the pair groupoid
    # samples its pairs as (x, y), (y, z) from points drawn in that order
    def sample_pair(rng):
        y = sample_leaf(rng)
        g2 = sample_arrow(rng)
        return left_of(g2, y, rng), g2

    def sample_triple(rng):
        y = sample_leaf(rng)
        g2, g3 = sample_pair(rng)
        return left_of(g2, y, rng), g2, g3

    return ChartGroupoid(j + r, n, s, t, unit, inv, mul,
                         sample_point, sample_arrow, sample_pair,
                         sample_triple)


def _dist(a, b):
    return worst_of(*(abs(jets.value_of(x) - jets.value_of(y))
                      for x, y in zip(a, b)))


@dataclass
class GroupoidForm:
    """A 2-form on the total space plus the background 3-form on the base."""

    omega: Form
    phi: Form = None  # None means zero


# -- jacobians and kernels -------------------------------------------------

def _jac(f, p):
    return np.array(jets.jacobian(f, [float(c) for c in p]))


def _stable_rank(s, where="matrix"):
    """Rank from singular values; record the gap, refuse unstable ranks."""
    if s.size == 0:
        return 0, np.inf
    top = max(s[0], 1.0)
    cut = 1e-9 * top
    r = int(np.sum(s > cut))
    small = s[s <= cut]
    kept = s[s > cut]
    gap = np.inf
    if small.size and small.max() > 0:
        gap = (kept.min() / small.max()) if kept.size else np.inf
        if small.max() > cut / 10 and kept.size and kept.min() < cut * 10:
            raise RankInstabilityError(
                f"indeterminate rank at {where}: singular values "
                f"{small.max():.1e} and {kept.min():.1e} straddle the "
                f"threshold {cut:.1e}")
    return r, gap


def kernel_of_form(Om, where="omega"):
    """Kernel basis of Om (a component matrix of omega, or a Jacobian)
    and the rank gap."""
    if not np.all(np.isfinite(Om)):
        raise NonFiniteFormError(f"omega is not finite at {where}")
    U, s, Vt = np.linalg.svd(Om)
    r, gap = _stable_rank(s, where)
    return Vt[r:].T, gap


# -- the multiplicative-form checks ---------------------------------------

def composable_tangents(G, g, h):
    """Basis of the tangent space to the composable-pair set at (g, h):
    pairs (u, v) with ds_g u = dt_h v."""
    Js = _jac(G.s, g)
    Jt = _jac(G.t, h)
    C = np.hstack([Js, -Jt])
    return linear.null_basis(C)


def _upper_max(M):
    """Largest |M[i, j]| over i < j, NaN-propagating."""
    iu = np.triu_indices(M.shape[0], 1)
    return worst_of(0.0, *np.abs(M[iu]))


def check_multiplicative(G, F, rng, n_pairs=8):
    """Max |m*omega - pr1*omega - pr2*omega| over sampled composable pairs
    and tangent-basis pairs: the entries i < j of (Dm B)^T omega(gh) (Dm B)
    - B1^T omega(g) B1 - B2^T omega(h) B2, with B = [B1; B2] a basis of the
    composable tangents."""
    N = G.total_dim
    worst = 0.0
    for _ in range(n_pairs):
        g, h = G.sample_pair(rng)
        gh = G.mul(g, h)
        B = composable_tangents(G, g, h)
        Dm = _jac(lambda z: G.mul(z[:N], z[N:]), list(g) + list(h))
        DmB, B1, B2 = Dm @ B, B[:N], B[N:]
        D = DmB.T @ F.omega.at(gh) @ DmB - B1.T @ F.omega.at(g) @ B1 \
            - B2.T @ F.omega.at(h) @ B2
        worst = worst_of(worst, _upper_max(D))
    return worst


def check_rel_closed(G, F, rng, n_points=8):
    """Max |d omega - s*phi + t*phi| over the components at sampled
    arrows."""
    total = ext_d(F.omega)
    if F.phi is not None:
        ch, bch = F.omega.chart, F.phi.chart
        total = total - pullback(ChartMap(ch, bch, G.s), F.phi) \
            + pullback(ChartMap(ch, bch, G.t), F.phi)
    worst = 0.0
    for _ in range(n_points):
        worst = worst_of(worst, np.max(np.abs(total.at(G.sample_arrow(rng)))))
    return worst


def check_unit_identities(G, F, rng, n=8):
    """(max |eps* omega| at units, max |i* omega + omega| at arrows)."""
    r_eps = 0.0
    for _ in range(n):
        x = [float(c) for c in G.sample_unit(rng)]
        Deps = _jac(G.unit, x)
        M = Deps.T @ F.omega.at(G.unit(x)) @ Deps
        r_eps = worst_of(r_eps, _upper_max(M))
    r_inv = 0.0
    for _ in range(n):
        g = [float(c) for c in G.sample_arrow(rng)]
        Dinv = _jac(G.inv, g)
        M = Dinv.T @ F.omega.at(G.inv(g)) @ Dinv + F.omega.at(g)
        r_inv = worst_of(r_inv, _upper_max(M))
    return r_eps, r_inv


def check_kernel_orthogonality(G, F, rng, n=8):
    """Ker(ds) + Ker(omega) is omega-orthogonal to Ker(dt) at arrows.  A
    non-finite omega gives a NaN residual."""
    worst = 0.0
    for _ in range(n):
        g = [float(c) for c in G.sample_arrow(rng)]
        Om = F.omega.at(g)
        if not np.all(np.isfinite(Om)):
            worst = math.nan
            continue
        Ks = linear.null_basis(_jac(G.s, g))
        Kt = linear.null_basis(_jac(G.t, g))
        Kw = linear.null_basis(Om)
        span = linear.orth_basis(np.hstack([Ks, Kw]))
        if span.shape[1] and Kt.shape[1]:
            worst = worst_of(worst, np.max(np.abs(span.T @ Om @ Kt)))
    return worst


def check_orbit_form(G, F, theta, rng, n=8):
    """|omega - (t*theta - s*theta)| on transitive fixtures."""
    ch = F.omega.chart
    bch = theta.chart
    diff = F.omega - (pullback(ChartMap(ch, bch, G.t), theta)
                      - pullback(ChartMap(ch, bch, G.s), theta))
    worst = 0.0
    for _ in range(n):
        M = diff.at(G.sample_arrow(rng))
        worst = worst_of(worst, _upper_max(M))
    return worst


# -- units: splitting, rho*, induced Dirac --------------------------------

@dataclass
class UnitSplitting:
    """Data of the canonical splitting T_x G = T_x M + A_x at a unit."""

    x: np.ndarray          # base point
    point: np.ndarray      # unit arrow eps(x)
    TM: np.ndarray         # basis of T_xM inside T_{eps(x)}G (d eps columns)
    A: np.ndarray          # basis of A_x = Ker(ds) at eps(x)
    rho: np.ndarray        # dt restricted to A, in base coordinates (n x a)
    rho_star: np.ndarray   # matrix (a x n): row j = i_{A_j} omega |_{T_xM}
    omega: np.ndarray      # component matrix of omega at eps(x)


def extract_rho_star(G, F, x):
    """rho*_omega at the unit over x: alpha -> i_alpha(omega)|_{T_xM}."""
    x = [float(c) for c in x]
    ex = [float(c) for c in G.unit(x)]
    Deps = _jac(G.unit, x)
    A, _ = kernel_of_form(_jac(G.s, ex), "ds at unit")
    if A.shape[1] != G.total_dim - G.base_dim:
        raise linear.DegenerateRankError("rank defect in ds at the unit")
    Jt = _jac(G.t, ex)
    rho = Jt @ A
    Om = F.omega.at(ex)
    return UnitSplitting(np.array(x), np.array(ex), Deps, A, rho,
                         A.T @ Om @ Deps, Om)


def induced_dirac(G, F, x):
    """The Dirac structure at x induced on the base by a multiplicative form."""
    sp = extract_rho_star(G, F, x)
    n = G.base_dim
    Kw, _ = kernel_of_form(sp.omega, "omega at unit")
    KTM = linear.intersect_spans(Kw, sp.TM)
    # express Ker(omega) ∩ T_xM in base coordinates (d eps is injective)
    if KTM.shape[1]:
        coeff, *_ = np.linalg.lstsq(sp.TM, KTM, rcond=None)
        base_kernel = coeff
    else:
        base_kernel = np.zeros((n, 0))
    cols = []
    for j in range(sp.A.shape[1]):
        cols.append(np.concatenate([sp.rho[:, j], sp.rho_star[j]]))
    for j in range(base_kernel.shape[1]):
        cols.append(np.concatenate([base_kernel[:, j], np.zeros(n)]))
    span = np.array(cols).T if cols else np.zeros((2 * n, 0))
    return linear.LinearDirac.from_span(span)


# -- classification --------------------------------------------------------

@dataclass
class ClassificationReport:
    flags: dict
    dims: dict
    residuals: dict
    worst_points: dict = field(default_factory=dict)
    rank_gaps: dict = field(default_factory=dict)

    def to_json(self):
        # strict JSON has no Infinity or NaN: a gap with nothing below the
        # threshold, or a non-finite residual, is written as null
        return {"flags": self.flags, "dims": self.dims,
                "residuals": {k: finite_or_none(v)
                              for k, v in self.residuals.items()},
                "worst_points": self.worst_points,
                "rank_gaps": {k: finite_or_none(v)
                              for k, v in self.rank_gaps.items()}}


def finite_or_none(v):
    """A float for JSON, or None for a non-finite value."""
    return float(v) if np.isfinite(v) else None


def classify(G, F, rng, n_units=8, n_arrows=16):
    """Dimension/classification suite at sampled units and arrows.  The
    kernel identities report the sine of the largest principal angle
    between the two sides."""
    N, n = G.total_dim, G.base_dim
    dims = {}
    residuals = {"kernel_dim_sum": 0.0, "kernel_decomp": 0.0,
                 "kernel_orth": 0.0}
    worst = {}
    gaps = {}
    dim_ker, dim_ker_tm, dim_gx, dim_ker_ks = [], [], [], []
    over_symplectic = True
    min_gap = np.inf
    for _ in range(n_units):
        x = [float(c) for c in G.sample_unit(rng)]
        ex = G.unit(x)
        Om = F.omega.at(ex)
        Kw, gap = kernel_of_form(Om, f"unit {x}")
        min_gap = min(min_gap, gap)
        Deps = _jac(G.unit, x)
        TM = linear.orth_basis(Deps)
        Ks = linear.null_basis(_jac(G.s, ex))
        Kt = linear.null_basis(_jac(G.t, ex))
        Kst = linear.intersect_spans(Ks, Kt)
        KwTM = linear.intersect_spans(Kw, TM)
        KwKs = linear.intersect_spans(Kw, Ks)
        gx = linear.intersect_spans(Kw, Kst)
        dim_ker.append(Kw.shape[1])
        dim_ker_tm.append(KwTM.shape[1])
        dim_ker_ks.append(KwKs.shape[1])
        dim_gx.append(gx.shape[1])
        # Ker(ds) + Ker(omega) = omega-orthogonal of Ker(dt), and
        # T_xM + Ker(omega) = omega-orthogonal of T_xM  (kernel identities)
        lhs1 = linear.orth_basis(np.hstack([Ks, Kw]))
        rhs1 = linear.null_basis(Kt.T @ Om) if Kt.shape[1] else np.eye(N)
        lhs2 = linear.orth_basis(np.hstack([TM, Kw]))
        rhs2 = linear.null_basis(TM.T @ Om)
        residuals["kernel_orth"] = worst_of(
            residuals["kernel_orth"], linear.span_gap(lhs1, rhs1),
            linear.span_gap(lhs2, rhs2))
        # decomposition Ker(omega) = (Ker ∩ Ker ds) + (Ker ∩ TM)
        recomb = linear.orth_basis(np.hstack([KwKs, KwTM]))
        residuals["kernel_decomp"] = worst_of(
            residuals["kernel_decomp"], linear.span_gap(recomb, Kw))
        # dimension formulas
        want_tm = 0.5 * (Kw.shape[1] + 2 * n - N)
        want_ks = 0.5 * (Kw.shape[1] - 2 * n + N)
        err = max(abs(KwTM.shape[1] - want_tm), abs(KwKs.shape[1] - want_ks))
        residuals["kernel_dim_sum"] = worst_of(residuals["kernel_dim_sum"], err)
        if not linear.subspace_contained(Kw, Kst):
            over_symplectic = False
    dims["ker_omega_units"] = dim_ker
    dims["ker_omega_cap_TM"] = dim_ker_tm
    dims["ker_omega_cap_ker_ds"] = dim_ker_ks
    dims["g_x_omega"] = dim_gx
    gaps["units"] = min_gap

    # Dirac type at arrows
    dirac_type = True
    worst_fail = None
    min_gap_a = np.inf
    for _ in range(n_arrows):
        g = [float(c) for c in G.sample_arrow(rng)]
        Kg, gap = kernel_of_form(F.omega.at(g), f"arrow {g}")
        min_gap_a = min(min_gap_a, gap)
        sx = [jets.value_of(c) for c in G.s(g)]
        tx = [jets.value_of(c) for c in G.t(g)]
        Ks_, _ = kernel_of_form(F.omega.at(G.unit(sx)), "unit")
        Kt_, _ = kernel_of_form(F.omega.at(G.unit(tx)), "unit")
        want = 0.5 * (Ks_.shape[1] + Kt_.shape[1])
        if Kg.shape[1] != want:
            dirac_type = False
            if worst_fail is None:
                worst_fail = {"arrow": g, "s": sx, "t": tx,
                              "dim_ker_arrow": Kg.shape[1],
                              "expected": want}
    gaps["arrows"] = min_gap_a
    if worst_fail is not None:
        worst["dirac_type"] = worst_fail

    robust = all(d == N - 2 * n for d in dim_gx)
    presymplectic = robust and (N == 2 * n)
    nondegenerate = all(d == 0 for d in dim_gx)
    flags = {
        "is_dirac_type": dirac_type,
        "is_robust": robust,
        "is_presymplectic": presymplectic,
        "is_over_symplectic": over_symplectic,
        "is_nondegenerate": nondegenerate,
        "is_symplectic": nondegenerate and all(d == 0 for d in dim_ker)
                         and N == 2 * n,
    }
    return ClassificationReport(flags, dims, residuals, worst, gaps)


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
