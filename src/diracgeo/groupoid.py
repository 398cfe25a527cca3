"""Chart-presented Lie groupoids with evaluable structure maps, and the
numerical checks for multiplicative 2-forms: multiplicativity, relative
closedness, unit/inversion identities, kernel dimension identities,
classification (Dirac type / robust / presymplectic / over-symplectic /
nondegenerate), rho*-extraction at units, induced Dirac structures, and
gauge transformations.  Each check draws all its samples as one block of
uniform doubles (`Sampler`) and evaluates them as one (B, n) stack.  The
structure maps carry their Jacobians in closed form, and d goes through
the pullbacks: d(t*theta - s*theta) = t*d theta - s*d theta."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jets, linear
from .linear import (kernel_svd, mT, padded_contained, padded_kernel,
                     padded_null, padded_orth, padded_span_gap, projections)
from .geometry import (Chart, ChartMap, Form, block, coordinates, ext_d,
                       pull, pullback)


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
    values = f(coordinates(P))
    out = np.empty(P.shape[:-1] + (len(values),))
    for i, c in enumerate(values):
        out[..., i] = c
    return out


def each(f, *stacks):
    """[f(*S) for S in stacks], S a stack P or (P, *args), split back from
    one evaluation f(P) on the concatenation of the P (f acts sample by
    sample and gives arrays, batch-first).  Where that raises, f(*S) runs
    stack by stack: the first stack that fails raises its own error."""
    parts = [P if isinstance(P, tuple) else (P,) for P in stacks]
    try:
        out = f(np.concatenate([P for P, *_ in parts]))
    except (ArithmeticError, ValueError, MemoryError):
        return [f(*part) for part in parts]
    cuts = np.cumsum([0] + [len(P) for P, *_ in parts]).tolist()
    split = [[o[a:b] for a, b in zip(cuts, cuts[1:])]
             for o in (out if isinstance(out, tuple) else (out,))]
    return list(zip(*split)) if isinstance(out, tuple) else split[0]


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
    """Groupoid on global coordinate charts: arrows on chart, units on base.

    s and t are ChartMaps from chart to base, unit one back, inv from
    chart to chart and mul from the pairs (g, h), 2N coordinates, to
    chart; each carries its Jacobian in closed form, and all are
    evaluators over generic scalars, so that jets differentiate through
    them at jet points.  Composable pairs/triples come from the fixture's
    own samplers (never from root-finding): a pair is the stack row (g, h) with
    s(g) = t(h), a triple (g, h, k) with s(g) = t(h) and s(h) = t(k).
    Build one with `action_groupoid` or `fiberwise_pair_groupoid`.
    """

    chart: Chart
    base: Chart
    s: ChartMap
    t: ChartMap
    unit: ChartMap
    inv: ChartMap
    mul: ChartMap
    units: Sampler     # base points
    arrows: Sampler
    pairs: Sampler
    triples: Sampler

    def structure_residuals(self, rng, n=8):
        """Sanity residuals of the groupoid axioms at sampled points: a
        unit, a composable pair and a composable triple per sample, drawn
        in that order."""
        S = concat(self.units, self.pairs, self.triples).draw(rng, n)
        N = self.chart.dim
        x, g, h, a, b, c = np.split(S, self.base.dim + N * np.arange(5), 1)
        s, t, unit, inv = (partial(apply, f)
                           for f in (self.s, self.t, self.unit, self.inv))
        mul = partial(each, partial(apply, self.mul))
        ex, ig = unit(x), inv(g)
        gh, ab, bc, g_ig = mul(*map(np.hstack, [(g, h), (a, b), (b, c),
                                                (g, ig)]))
        ab_c, a_bc = mul(np.hstack([ab, c]), np.hstack([a, bc]))
        s_ex, s_gh, s_h = each(s, ex, gh, h)
        t_ex, t_gh, t_g = each(t, ex, gh, g)
        return {"unit": worst_of(0.0, abs(s_ex - x), abs(t_ex - x)),
                "source_target": worst_of(0.0, abs(s_gh - s_h),
                                          abs(t_gh - t_g)),
                "associativity": worst_of(0.0, abs(ab_c - a_bc)),
                "inverse": worst_of(0.0, abs(inv(ig) - g),
                                    abs(g_ig - unit(t_g)))}


def coboundary(G, theta):
    """t*theta - s*theta for a form theta on the base."""
    return pullback(G.t, theta) - pullback(G.s, theta)


def linear_map(source, target, f):
    """The ChartMap of a linear map f, its matrix as its Jacobian: the
    images of the basis vectors (-0.0 where f negates 0.0)."""
    return ChartMap(source, target, f, apply(f, np.eye(source.dim)).T)


def action_chart(Gp, base):
    """The arrows (g1..gd, base) of an action of Gp on the chart base."""
    return Chart(Chart.numbered(g=Gp.dim).names + base.names)


def pair_chart(ch):
    """The chart of the pairs (g, h) of points of ch, h's names primed."""
    return Chart(ch.names + tuple(c + "'" for c in ch.names))


def action_groupoid(Gp, base, act, group, point, group_near, act_jacobian):
    """The action groupoid H x M of a left action act(u, x) of the chart
    group Gp on the chart base.  An arrow (u, x) goes from x to act(u, x),
    and (u, act(v, x)).(v, x) = (uv, x).

    The samplers group and point draw the two parts of an arrow; the group
    parts that extend an arrow to a pair come from group, those that
    extend it to a triple from group_near, which may stay closer to the
    identity so that the products remain inside the chart.

    act_jacobian(u, y), given the group coordinates u of a point (u, x)
    or of a stack and y = act(u, x) there as an array, is the pair
    (D_u act, D_x act), from which the structure maps have their
    Jacobians in closed form.
    """
    d, m = Gp.dim, base.dim
    ch = action_chart(Gp, base)
    N = ch.dim

    def s(p):
        return list(p[d:])

    def t(p):
        return act(p[:d], p[d:])

    def unit(x):
        return Gp.identity() + list(x)

    def inv(p):
        return Gp.inv(p[:d]) + t(p)

    def mul(z):
        return Gp.mul(z[:d], z[N:N + d]) + list(z[N + d:])

    # D inv = [-I, 0; Dt] and, on (u, x_g, v, x_h), D mul = [D_u w, 0,
    # D_v w, 0; 0, 0, 0, I] for w = uv; they read the values Y of t, inv
    # (whose base part is t's) and mul where the caller holds them
    def Dt(P, Y):
        return block([list(act_jacobian(coordinates(P[..., :d]),
                                        apply(t, P) if Y is None else Y))])

    def Dmul(Z, Y):
        Du, Dv = Gp.mul_jacobian(
            coordinates(Z[..., :d]), coordinates(Z[..., N:N + d]),
            coordinates((apply(mul, Z) if Y is None else Y)[..., :d]))
        zero = np.zeros((d, m))
        return block([[Du, zero, Dv, zero], [np.eye(m, 2 * N, 2 * N - m)]])

    def extend(P, u):
        # the arrows (u, t(g)) for the first arrows g of P, put before P
        return np.hstack([u, apply(t, P[:, :N]), P])

    arrows = concat(group, point)
    return ChartGroupoid(
        ch, base, linear_map(ch, base, s), ChartMap(ch, base, t, Dt),
        linear_map(base, ch, unit), ChartMap(ch, ch, inv, lambda P, Y: block(
            [[-np.eye(d, N)], [Dt(P, Y if Y is None else Y[..., d:])]])),
        ChartMap(pair_chart(ch), ch, mul, Dmul), point, arrows,
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
    ch, base = Chart.numbered(y=k, x=k, q=n - k, v=r), Chart.numbered(x=n)
    N = ch.dim

    def s(p):
        return list(p[k:2 * k]) + list(p[2 * k:j])

    def t(p):
        return list(p[:k]) + list(p[2 * k:j])

    def unit(b):
        return list(b[:k]) + list(b) + [0.0] * r

    def inv(p):
        return list(p[k:2 * k]) + list(p[:k]) + list(p[2 * k:j]) \
            + [-c for c in p[j:]]

    def mul(z):
        return list(z[:k]) + list(z[N + k:N + j]) \
            + [a + b for a, b in zip(z[j:N], z[N + j:])]

    def extend(y, P, v):
        # the arrows (y, t(g), v) for the first arrows g of P, put before P
        return np.hstack([y, apply(t, P[:, :j + r]), v, P])

    # y is drawn before the arrows it extends, so that the pair groupoid
    # samples its pairs as (x, y), (y, z) from points drawn in that order
    slot = uniform(-1.0, 1.0, r)
    arrows = concat(leaf, point, slot)
    pairs = concat(leaf, arrows, slot, build=extend)
    # the maps select, negate and add coordinates
    return ChartGroupoid(ch, base, *(linear_map(*m) for m in (
        (ch, base, s), (ch, base, t), (base, ch, unit), (ch, ch, inv),
        (pair_chart(ch), ch, mul))), point, arrows, pairs,
        concat(leaf, pairs, slot, build=extend))


@dataclass
class GroupoidForm:
    """A 2-form on the total space plus the background 3-form on the base."""

    omega: Form
    phi: Form = None  # None means zero


# -- jacobians, kernels and rank decisions over stacks ---------------------
# Subspaces at a stack of samples are linear's padded bases.

def _jac(f, p, values=None):
    """The closed-form Jacobian of the structure map f at a float point,
    or the (B, m, n) stack of its Jacobians at a (B, n) stack of points;
    values are f's values there, where the caller holds them."""
    P = np.asarray(p, dtype=float)
    J = f.jacobian(P, values) if callable(f.jacobian) else f.jacobian
    return np.broadcast_to(J, P.shape[:-1] + J.shape[-2:])


def kernel_of_form(Om, where="omega", points=None):
    """Kernel of Om (a component matrix of omega, or a Jacobian, or a
    stack of them with their points) as a padded basis, its dimension, and
    the rank gap, each per sample of a stack.  The first sample whose
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
    return (*padded_kernel(Vt, r), gap)


# -- the multiplicative-form checks ---------------------------------------

def _upper_max(M):
    """Largest |M[..., i, j]| over i < j (and over a stack), NaN-
    propagating."""
    iu = np.triu_indices(M.shape[-1], 1)
    return worst_of(0.0, np.abs(M[..., iu[0], iu[1]]))


def check_multiplicative(G, F, rng, n_pairs=8):
    """Max |m*omega - pr1*omega - pr2*omega| over sampled composable pairs
    and tangent-basis pairs: the entries i < j of (Dm B)^T omega(gh) (Dm B)
    - B1^T omega(g) B1 - B2^T omega(h) B2, with B = [B1; B2] a basis of the
    composable tangents (u, v), ds_g u = dt_h v."""
    N = G.chart.dim
    Z = G.pairs.draw(rng, n_pairs)
    g, h = Z[:, :N], Z[:, N:]
    # t(h) is s(g) on a composable pair
    B, _ = padded_null(np.concatenate(
        [_jac(G.s, g), -_jac(G.t, h, apply(G.s, g))], -1))
    gh = apply(G.mul, Z)
    DmB, B1, B2 = _jac(G.mul, Z, gh) @ B, B[..., :N, :], B[..., N:, :]
    W, Wg, Wh = each(F.omega.at, gh, g, h)
    return _upper_max(mT(DmB) @ W @ DmB - mT(B1) @ Wg @ B1
                      - mT(B2) @ Wh @ B2)


def check_rel_closed(G, F, rng, n_points=8):
    """Max |d omega - s*phi + t*phi| over the components at sampled
    arrows, phi evaluated once at their sources and targets."""
    P = G.arrows.draw(rng, n_points)
    total = ext_d(F.omega).at(P)
    if F.phi is not None:
        T = apply(G.t, P)
        Ps, Pt = each(F.phi.at, apply(G.s, P), T)
        total = total + -pull(Ps, _jac(G.s, P), 3) \
            + pull(Pt, _jac(G.t, P, T), 3)
    return worst_of(0.0, np.abs(total))


def check_unit_identities(G, F, rng, n=8):
    """(max |eps* omega| at units, max |i* omega + omega| at arrows)."""
    x, g = G.units.draw(rng, n), G.arrows.draw(rng, n)
    ig = apply(G.inv, g)
    Deps, Dinv = _jac(G.unit, x), _jac(G.inv, g, ig)
    We, Wi, Wg = each(F.omega.at, apply(G.unit, x), ig, g)
    return (_upper_max(mT(Deps) @ We @ Deps),
            _upper_max(mT(Dinv) @ Wi @ Dinv + Wg))


def check_kernel_orthogonality(G, F, rng, n=8):
    """Ker(ds) + Ker(omega) is omega-orthogonal to Ker(dt) at arrows.  A
    non-finite omega gives a NaN residual."""
    g = G.arrows.draw(rng, n)
    Om = F.omega.at(g)
    finite = np.all(np.isfinite(Om), axis=(-2, -1))
    Om = np.where(finite[:, None, None], Om, 0.0)
    (Ks, _), (Kt, _) = each(padded_null, _jac(G.s, g), _jac(G.t, g))
    span, _ = padded_orth(block([[Ks, padded_null(Om)[0]]]))
    worst = np.max(np.abs(mT(span) @ Om @ Kt), axis=(-2, -1))
    return worst_of(0.0, np.where(finite, worst, np.nan))


def check_orbit_form(G, F, theta, rng, n=8):
    """|omega - (t*theta - s*theta)| on transitive fixtures."""
    diff = F.omega - coboundary(G, theta)
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
    if np.any(dim != G.chart.dim - G.base.dim):
        raise linear.DegenerateRankError("rank defect in ds at the unit")
    A = K[..., :G.chart.dim - G.base.dim]
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
    KTM, dim = padded_null(projections(Kw, padded_orth(sp.TM)[0]))
    # Ker(omega) ∩ T_xM in base coordinates (d eps is injective)
    base_kernel = linear.pinv_solve(sp.TM, KTM)[0]
    span = block([[sp.rho, base_kernel],
                  [mT(sp.rho_star), np.zeros_like(base_kernel)]])
    return span, sp.A.shape[-1] + dim


def induced_dirac(G, F, x):
    """The Dirac structure induced on the base at the point x."""
    span, width = induced_span(G, F, x)
    return linear.LinearDirac.from_span(span[:, :width])


# -- classification --------------------------------------------------------

def classify(G, F, rng, n_units=8, n_arrows=16):
    """Dimension/classification suite at sampled units and arrows: the dict
    of its flags, kernel dimensions, residuals, worst points and rank gaps.
    The kernel identities report the sine of the largest principal angle
    between the two sides.  Rank decisions of one shape that do not depend
    on each other are one SVD of their concatenation."""
    N, n = G.chart.dim, G.base.dim
    x, g = G.units.draw(rng, n_units), G.arrows.draw(rng, n_arrows)
    sx, tx = apply(G.s, g), apply(G.t, g)
    ex, esx, etx = each(partial(apply, G.unit), x, sx, tx)

    def kernel(P, *at):   # omega at P, and its kernel
        Om = F.omega.at(P)
        return (Om, *kernel_of_form(Om, *at))

    # Dirac type at arrows: dim Ker(omega_g) is the mean of the kernel
    # dimensions at the units over s(g) and t(g)
    (Om, Kw, dim_ker, gap_units), (_, _, dim_arrow, gap_arrows), \
        (_, _, dim_s, _), (_, _, dim_t, _) = each(
            kernel, (ex, "unit", x), (g, "arrow", g), (esx, "unit", sx),
            (etx, "unit", tx))
    (Ks, _), (Kt, _) = each(padded_null, _jac(G.s, ex), _jac(G.t, ex))
    Kst, _ = padded_null(projections(Ks, Kt))
    TM, _ = padded_orth(_jac(G.unit, x))
    # Ker(omega) meets Ker ds ∩ Ker dt, T_xM and Ker ds
    (_, dim_gx), (KwTM, dim_ker_tm), (KwKs, dim_ker_ks) = each(
        padded_null, *(projections(Kw, K) for K in (Kst, TM, Ks)))
    over_symplectic = bool(np.all(padded_contained(Kw, Kst)))
    # Ker(ds) + Ker(omega) = omega-orthogonal of Ker(dt), and
    # T_xM + Ker(omega) = omega-orthogonal of T_xM  (kernel identities);
    # decomposition Ker(omega) = (Ker ∩ Ker ds) + (Ker ∩ TM)
    (KsKw, r1), (KwKsTM, r3) = each(padded_orth, block([[Ks, Kw]]),
                                    block([[KwKs, KwTM]]))
    sides = [(KsKw, r1, *padded_null(mT(Kt) @ Om)),
             (*padded_orth(block([[TM, Kw]])), *padded_null(mT(TM) @ Om)),
             (KwKsTM, r3, Kw, dim_ker)]
    orth1, orth2, decomp = np.split(
        padded_span_gap(*map(np.concatenate, zip(*sides))), 3)
    # dimension formulas
    dim_err = np.maximum(abs(dim_ker_tm - 0.5 * (dim_ker + 2 * n - N)),
                         abs(dim_ker_ks - 0.5 * (dim_ker - 2 * n + N)))
    want = 0.5 * (dim_s + dim_t)
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
            "rank_gaps": {"units": float(gap_units.min()),
                          "arrows": float(gap_arrows.min())},
            "residuals": {"kernel_dim_sum": worst_of(0.0, dim_err),
                          "kernel_decomp": worst_of(0.0, decomp),
                          "kernel_orth": worst_of(0.0, orth1, orth2)},
            "dims": {"ker_omega_units": dim_ker, "g_x_omega": dim_gx,
                     "ker_omega_cap_TM": dim_ker_tm,
                     "ker_omega_cap_ker_ds": dim_ker_ks}}


# -- gauge transformations -------------------------------------------------

def gauge(G, F, B):
    """tau_B: omega -> omega + t*B - s*B, phi -> phi - dB."""
    omega2 = F.omega + coboundary(G, B)
    dB = ext_d(B)
    phi2 = (-dB) if F.phi is None else (F.phi - dB)
    return GroupoidForm(omega2, phi2)
