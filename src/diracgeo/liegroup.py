"""Compact matrix groups in exponential charts: SO(3), SU(2) (real 4x4
quaternion embedding), and tori; Maurer-Cartan forms, adjoint action, the
bi-invariant Cartan 3-form, the Cartan-Dirac structure, and the action
groupoids of Ad_exp(u) on algebra coordinates: the conjugation (AMM)
groupoid and T*H, from one builder, whose 2-forms integrate one action
algebroid.  The chart matrices and that algebroid's frame give their
derivatives in closed form, so the action forms carry closed-form Jacobians.

SO(3) and SU(2) share structure constants [e_i, e_j] = e_k (cyclic), so
their chart-level group operations coincide (the covering is a local
isomorphism); they differ in the matrix embedding and in global topology,
neither of which the local checks see.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jets, linear
from .jets import sin, cos, sqrt, atan2, value_of
from .courant import AnchoredDual
from .geometry import Chart, Form, block, dot, pull
from .groupoid import GroupoidForm, action_chart, action_groupoid, uniform
from .linear import mT


class ChartRadiusError(ValueError):
    """Point outside the safe exponential-chart radius."""


# -- quaternion helpers (generic over jets) --------------------------------

def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2]


def _small_or(s, cut, series, exact):
    """series(s) where the value of s is below cut, exact(s) elsewhere.
    On a batch that mixes both, exact is evaluated at s = 1 on the small
    samples, away from its singularity at 0, and the two are merged by
    mask."""
    small = value_of(s) < cut
    if not isinstance(small, np.ndarray):
        return series(s) if small else exact(s)
    if small.all():
        return series(s)
    if not small.any():
        return exact(s)
    lo, hi = series(s), exact(jets.where(small, 1.0, s))
    if isinstance(lo, tuple):   # several functions of s under one mask
        return tuple(jets.where(small, a, b) for a, b in zip(lo, hi))
    return jets.where(small, lo, hi)


def _half_angle(s):
    """(cos(|u|/2), sin(|u|/2)/|u|), analytic in s = |u|^2; one sqrt."""
    def exact(s):
        r = sqrt(s)
        return cos(r / 2.0), sin(r / 2.0) / r

    return _small_or(s, 1e-4, lambda s: (
        1.0 - s / 8.0 + s * s / 384.0 - s * s * s / 46080.0,
        0.5 - s / 48.0 + s * s / 3840.0 - s * s * s / 645120.0), exact)


def _qexp(u):
    """Unit quaternion exp for algebra coordinates u (half-angle |u|/2)."""
    w, f = _half_angle(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    return [w, u[0] * f, u[1] * f, u[2] * f]


def _qlog(q):
    """Inverse of _qexp on the branch |u| < 2*pi (w > -1)."""
    w, x, y, z = q

    def exact(s):
        r = sqrt(s)
        return atan2(r, w) / r

    def series(s):
        # atan2(r, w)/r = arctan(t)/(t w) for t = r/w, w > 0: the series
        # to t^8/9 in t^2 = s/w^2
        t2 = s / (w * w)
        return (1.0 / w) * (1.0 - t2 * (1.0 / 3.0 - t2 * (
            1.0 / 5.0 - t2 * (1.0 / 7.0 - t2 / 9.0))))

    f = _small_or(x * x + y * y + z * z, 1e-4, series, exact)
    return [2.0 * x * f, 2.0 * y * f, 2.0 * z * f]


# -- group fixtures --------------------------------------------------------

@dataclass
class MatrixGroup:
    """A compact group in one exponential chart at the identity."""

    name: str
    dim: int
    struct: np.ndarray   # [i, j, k] coefficient of e_k in [e_i, e_j]
    radius = 0.9 * math.pi   # inside |u| < pi, where exp is one-to-one

    def inv(self, u):
        return [-c for c in u]

    def identity(self):
        return [0.0] * self.dim

    @property
    def chart(self):
        return Chart.numbered(u=self.dim)

    def bracket(self, a, b):
        out = [0.0] * self.dim
        for i in range(self.dim):
            for j in range(self.dim):
                c = a[i] * b[j]
                for k in range(self.dim):
                    if self.struct[i, j, k]:
                        out[k] = out[k] + self.struct[i, j, k] * c
        return out

    def inner(self, a, b):
        """The invariant inner product; the algebra basis is orthonormal."""
        return dot(a, b)

    def check_radius(self, u):
        r2 = np.asarray(sum(value_of(c) ** 2 for c in u))
        out = r2 > self.radius ** 2
        if out.any():
            raise ChartRadiusError(
                f"|u| = {math.sqrt(r2.max()):.3f} outside the exp-chart "
                f"radius{jets.at_sample(out)}")

    # each chart defines the d x d matrices; these apply them to one vector
    def lam(self, u, V):
        return self.lam_matrix(u) @ np.asarray(V)

    def lam_bar(self, u, V):
        return self.lam_bar_matrix(u) @ np.asarray(V)

    def Ad(self, u, v):
        return self.Ad_matrix(u) @ np.asarray(v)

    def left_translate(self, u, v):
        return self.left_matrix(u) @ np.asarray(v)

    def right_translate(self, u, v):
        return self.right_matrix(u) @ np.asarray(v)

    # derivatives from the matrices above, at the chart coordinates u, v
    # and w of a point or of a stack
    def mul_jacobian(self, u, v, w):
        """(D_u w, D_v w) for the product w = log(exp(u) exp(v))."""
        left = self.left_matrix(w)
        return mT(left) @ self.lam_bar_matrix(u), left @ self.lam_matrix(v)

    def ad_matrix(self, y):
        """The matrix of [y, .] at an array y of algebra coordinates."""
        return np.einsum("...i,ijk->...kj", y, self.struct)

    def Ad_derivative(self, u, y):
        """D_u of Ad_exp(u) x, given the array y = Ad_exp(u) x: V ->
        [lam_bar(u) V, y] = ad_(-y) lam_bar(u) V."""
        return self.ad_matrix(-y) @ self.lam_bar_matrix(u)


def _chart_matrix(alpha, beta, dalpha=None, dbeta=None):
    """u -> I + alpha K + beta K^2 from the array of the coordinates (of
    floats, of a float stack or of jets): K^2 = u u^T - s I, and the
    coefficients are functions of s = |u|^2 and (w, f) = _half_angle(s).
    With the derivatives dalpha and dbeta in s, functions of (s, w, f, f'),
    also u -> (M, dM) at float coordinates or a float stack, dM[..., i, j,
    l] = d_l M_ij = 2 u_l (alpha' K + beta' K^2) + alpha E_l + beta (e_l u^T
    + u e_l^T - 2 u_l I), E_l = dK/du_l (None without them)."""
    def matrix(self, u, derivative=False):
        v = np.array(u)
        sq = v * v
        s = sq[0] + sq[1] + sq[2]
        w, f = _half_angle(s)
        a, b = (np.asarray(c)[..., None, None]
                for c in (alpha(s, w, f), beta(s, w, f)))
        # K_ij = _K_SIGN u[_K_INDEX] with K_ii = +-0.0, so that row i of K * K
        # sums to u_(i-1)^2 + u_(i-2)^2, the diagonal of -K^2
        v = v.T
        K = _K_SIGN * v[..., _K_INDEX]
        M = np.where(_DIAG, 1.0 - b * (K * K).sum(-1, keepdims=True),
                     a * K + b * (v[..., :, None] * v[..., None, :]))
        if not derivative:
            return M
        df = _F_PRIME(s, w, f)
        s, da, db = (np.asarray(c)[..., None, None, None] for c in (
            s, dalpha(s, w, f, df), dbeta(s, w, f, df)))
        a, b = a[..., None], b[..., None]
        # u_i, u_j and u_l on the axes i, j and l of dM
        ui, uj, ul = (v[..., :, None, None], v[..., None, :, None],
                      v[..., None, None, :])
        K = K[..., None]
        return M, (2.0 * ul * (da * K + db * (ui * uj - s * _I3[..., None]))
                   + a * _E + b * (_I3[:, None] * uj + ui * _I3
                                   - 2.0 * ul * _I3[..., None]))

    return matrix if dalpha is None else (
        matrix, lambda self, u: matrix(self, u, True))


def _series_or(coeffs, exact):
    """beta(s, ...): the Taylor series in s below s = 1, exact above."""
    return lambda s, *args: _small_or(s, 1.0, lambda s: functools.reduce(
        lambda acc, c: c + s * acc, coeffs[-2::-1], coeffs[-1]),
        lambda s: exact(s, *args))


# (th - sin th)/th^3 = (1 - 2wf)/s and 1/th^2 - cot(th/2)/(2 th) =
# (1 - w/(2f))/s = sum_n |B_2n| s^(n-1)/(2n)! (Bernoulli numbers B_2n) lose
# digits to cancellation at small s, where their series do not; so do the
# derivatives f' = (w - 2f)/(4s) (w' = -f/4) and beta' of the first
_MC_SERIES = [(-1) ** k / math.factorial(2 * k + 3) for k in range(9)]
_MC_BETA = _series_or(_MC_SERIES, lambda s, w, f: (1.0 - 2.0 * w * f) / s)
_TRANSLATION_BETA = _series_or(
    [b / math.factorial(2 * n + 2) for n, b in enumerate(
        (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730, 7 / 6,
         3617 / 510, 43867 / 798, 174611 / 330, 854513 / 138))],
    lambda s, w, f: (1.0 - w / (2.0 * f)) / s)
_F_PRIME = _series_or([(-1) ** k * k / (2 ** (2 * k + 1)
                                         * math.factorial(2 * k + 1))
                       for k in range(1, 10)],
                      lambda s, w, f: (w - 2.0 * f) / (4.0 * s))
_MC_BETA_PRIME = _series_or(
    [k * c for k, c in enumerate(_MC_SERIES)][1:], lambda s, w, f, df: (
        0.5 * f * f - 2.0 * w * df - (1.0 - 2.0 * w * f) / s) / s)
_I3, _DIAG = np.eye(3), np.eye(3, dtype=bool)


class _QuaternionChartGroup(MatrixGroup):
    """[e_i, e_j] = e_k, so ad_u is the cross-product matrix K of u.  The
    Maurer-Cartan forms V -> g^-1 dg(V) and dg(V) g^-1, Ad and the
    translations v -> d/ds u exp(sv) and d/ds exp(sv) u have the matrices
    I + alpha K + beta K^2, where th = |u|, w = cos(th/2), f = sin(th/2)/th:

        matrix          alpha                    beta
        Ad_matrix       sin th/th = 2wf          (1 - cos th)/th^2 = 2f^2
        lam_matrix      -(1 - cos th)/th^2       (th - sin th)/th^3
        left_matrix     +1/2                     1/th^2 - cot(th/2)/(2 th)

    K^T = -K, so the matrices with alpha negated are the transposes, to
    the bit: lam_bar_matrix = lam_matrix^T, right_matrix = left_matrix^T
    and Ad_matrix(-u) = Ad_matrix(u)^T.  lam_jet gives lam_matrix with its
    derivative in closed form, from the derivatives in s = th^2 of the
    coefficients: w' = -f/4, f' = (w - 2f)/(4s) and, for (th - sin th)/th^3
    = (1 - 2wf)/s, beta' = (f^2/2 - 2wf' - beta)/s; f' and beta' are their
    series below s = 1.
    """

    def mul(self, u, v):
        return _qlog(_qmul(_qexp(u), _qexp(v)))

    Ad_matrix = _chart_matrix(lambda s, w, f: 2.0 * w * f,
                              lambda s, w, f: 2.0 * f * f)
    lam_matrix, lam_jet = _chart_matrix(
        lambda s, w, f: -2.0 * f * f, _MC_BETA,
        lambda s, w, f, df: -4.0 * f * df, _MC_BETA_PRIME)
    left_matrix = _chart_matrix(lambda s, w, f: 0.5, _TRANSLATION_BETA)

    def lam_bar_matrix(self, u):
        return mT(self.lam_matrix(u))

    def right_matrix(self, u):
        return mT(self.left_matrix(u))


class _SO3(_QuaternionChartGroup):
    embed = _QuaternionChartGroup.Ad_matrix  # rotation = adjoint action


class _SU2(_QuaternionChartGroup):
    def embed(self, u):
        """Real 4x4 left-multiplication matrix of the quaternion exp(u)."""
        w, x, y, z = _qexp([c / 1.0 for c in u])
        return np.array([[w, -x, -y, -z],
                         [x, w, -z, y],
                         [y, z, w, -x],
                         [z, -y, x, w]], dtype=object)


class _Torus(MatrixGroup):
    radius = math.inf   # exp onto a torus is a local diffeomorphism at every u

    def mul(self, u, v):
        return [a + b for a, b in zip(u, v)]

    def lam_matrix(self, u):
        return np.eye(len(u))

    lam_bar_matrix = Ad_matrix = left_matrix = right_matrix = lam_matrix

    def lam_jet(self, u):
        return np.eye(len(u)), np.zeros((len(u),) * 3)

    def ad_matrix(self, y):
        return np.zeros(np.shape(y)[-1:] * 2)   # the algebra is abelian

    def embed(self, u):
        d = self.dim
        M = np.zeros((2 * d, 2 * d), dtype=object)
        for i in range(d):
            M[2 * i, 2 * i] = cos(u[i])
            M[2 * i, 2 * i + 1] = -sin(u[i])
            M[2 * i + 1, 2 * i] = sin(u[i])
            M[2 * i + 1, 2 * i + 1] = cos(u[i])
        return M


def _eps_struct():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = c[1, 2, 0] = c[2, 0, 1] = 1.0
    c[1, 0, 2] = c[2, 1, 0] = c[0, 2, 1] = -1.0
    return c


_E = -_eps_struct()   # E[i, j, l] = dK_ij/du_l
_K_INDEX, _K_SIGN = np.abs(_E).argmax(-1), _E.sum(-1)


def so3():
    return _SO3("so3", 3, _eps_struct())


def su2():
    return _SU2("su2", 3, _eps_struct())


def torus(d=2):
    return _Torus("torus", d, np.zeros((d, d, d)))


GROUPS = {"so3": so3, "su2": su2, "torus2": lambda: torus(2),
          "torus1": lambda: torus(1)}


# -- Cartan form and Cartan-Dirac structure --------------------------------

def cartan_form(Gp):
    """The bi-invariant 3-form: phi(V1,V2,V3) = (1/2)(lam V1, [lam V2, lam V3]),
    phi[p,q,r] = (1/2) lam[a,p] K[a,i,j] lam[i,q] lam[j,r] with
    K[a,i,j] = (e_a, [e_i, e_j])."""
    K = np.moveaxis(Gp.struct, -1, 0)

    def components(p):
        Gp.check_radius(p)
        return 0.5 * pull(K, Gp.lam_matrix(p), 3)

    return Form(Gp.chart, 3, components)


def chart_metric(Gp, u):
    """Matrix of the bi-invariant metric in chart coordinates at u."""
    L = Gp.lam_matrix(u)
    return mT(L) @ L


def cartan_frame(Gp, u):
    """The frame (v_r - v_l, ((v_r + v_l)/2)-flat) over the algebra basis,
    batch-first at a batch of points."""
    return cartan_dirac_frame(Gp).frame(u)


def cartan_dirac(Gp, u):
    """L_g = span of the Cartan frame at u."""
    return linear.LinearDirac.from_span(cartan_frame(Gp, u))


def cartan_dirac_frame(Gp):
    """The Cartan-Dirac structure: the anchored dual over the algebra basis
    with rho = v_r - v_l = L^T - L and sigma^T = ((v_r + v_l)/2)-flat, L =
    left_matrix(u), and the algebra bracket negated, as for conjugation."""
    def rho(u):
        L = Gp.left_matrix(u)
        return mT(L) - L

    return AnchoredDual(Gp.chart, rho, lambda u: mT(
        chart_metric(Gp, u) @ _half_sum(Gp.left_matrix(u))), -Gp.struct)


# -- the adjoint action groupoids ------------------------------------------

def conjugate(Gp, u, x):
    """Chart coordinates of exp(u) exp(x) exp(-u) = exp(Ad_exp(u) x): Ad
    keeps |x|, so they are Ad_exp(u) x.  On the orthonormal basis of a
    compact group's algebra this is also the coadjoint action on h*."""
    A = Gp.Ad_matrix(u)
    # (A x)_i; A[..., i, :].T lists row i entry by entry
    return [dot(A[..., i, :].T, x) for i in range(Gp.dim)]


def adjoint_groupoid(Gp, amm):
    """The action groupoid of conjugate on algebra coordinates, with the
    form of adjoint_algebroid: the conjugation groupoid H x H over the
    group chart, with the AMM form and the Cartan 3-form (amm), or T*H as
    H x h* with the canonical form."""
    d, r = Gp.dim, 0.7 if amm else 0.8
    group = uniform(-r, r, d, 0.5)
    G = action_groupoid(Gp, Gp.chart if amm else Chart.numbered(x=d),
                        functools.partial(conjugate, Gp), group,
                        group if amm else uniform(-1.0, 1.0, d),
                        uniform(-r, r, d, 0.4), lambda u, y: (
                            Gp.Ad_derivative(u, y), Gp.Ad_matrix(u)))
    D = adjoint_algebroid(Gp, G.base, amm)
    return G, GroupoidForm(general_action_form(Gp, D),
                           cartan_form(Gp) if amm else None)


# -- action algebroids and their multiplicative 2-forms --------------------

def adjoint_algebroid(Gp, ch, amm):
    """The action algebroid of conjugation (amm) or of the coadjoint action
    on the algebra coordinates x of ch, with its frame jet in closed form.
    Both act by Ad_exp(u) (on the orthonormal basis of a compact group's
    algebra), so the anchor is v -> [v, x] = ad_(-x) v, with d_l rho_i^k =
    c_ilk; the dual is amm_rho_star, or the identity for the coadjoint."""
    d, drho = Gp.dim, np.swapaxes(Gp.struct, -1, -2)

    def rho(x):
        return Gp.ad_matrix(-jets.stack([x])[..., 0, :])

    def frame_jet(x):
        if not amm:
            return mT(rho(x)), np.eye(d), drho, np.zeros((d,) * 3)
        L, dL = Gp.lam_jet(x)
        return mT(rho(x)), _half_sum(L), drho, _half_sum(dL, -3)

    return AnchoredDual(ch, rho, amm_rho_star(Gp) if amm
                        else lambda x: np.eye(d), -Gp.struct, frame_jet)


def _partials(jet):
    """(M, dM) of a chart matrix, or of a slice of a frame jet, with the
    partial axis of dM moved in front of its matrix axes and M given an
    axis of length 1 there."""
    M, dM = jet
    return M[..., None, :, :], np.moveaxis(dM, -1, -3)


def general_action_form(Gp, D):
    """The multiplicative 2-form on the action groupoid H x M determined by
    the action algebroid D:  omega_(g,x)((V,X),(V',X')) =
    <rho*_x(lam_g V), rho_x(lam_g V')> + <rho*_x(lam_g V), X'>
    - <rho*_x(lam_g V'), X>.

    With S = rho*_x^T lam_g the components are
    [[S^T rho_x lam_g, S^T], [-S, 0]].  Its Jacobian is the product rule
    over lam_g and the frame jet of D at x.
    """
    d = Gp.dim
    m = D.chart.dim

    def components(p):
        u, x = p[:d], p[d:]
        L = Gp.lam_matrix(u)
        S = mT(D.rho_star(x)) @ L
        return block([[mT(S) @ (D.rho(x) @ L), mT(S)],
                      [-S, np.zeros((m, m))]])

    def jacobian(p):
        # R = rho_x; St = S^T = lam_g^T rho*_x has the partials dSu, dSx,
        # whose blocks stack on the partial axis, then moved last; 0.0 - dS
        # is -dS with the zeros +0.0, as a jet pass gives them
        u, x = p[:d], p[d:]
        L, dL = _partials(Gp.lam_jet(u))
        rho, sigma, drho, dsigma = D.jet(x)
        R, dR = _partials((mT(rho), np.swapaxes(drho, -3, -2)))
        Sig, dSig = _partials((sigma, dsigma))
        St, zero = mT(L) @ Sig, np.zeros((m, m))
        dSu, dSx = mT(dL) @ Sig, mT(L) @ dSig
        return np.moveaxis(np.concatenate([block(
            [[dS @ (R @ L) + St @ A @ B, dS], [0.0 - mT(dS), zero]])
            for dS, A, B in ((dSu, R, dL), (dSx, dR, L))], axis=-3), -3, -1)

    return Form(action_chart(Gp, D.chart), 2, components, jacobian)


def amm_rho_star(Gp):
    """rho*_x = (1/2)(lam + lam_bar) at x: row v is the covector
    (1/2)((lam + lam_bar)(.), v) on the group chart."""
    return lambda x: _half_sum(Gp.lam_matrix(x))


def _half_sum(M, axis=-2):
    """(M + M^T)/2 for the matrix axes axis and axis + 1."""
    return 0.5 * (M + np.swapaxes(M, axis, axis + 1))
