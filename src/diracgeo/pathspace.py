"""Discretized algebroid paths and the reconstruction forms on path space.

Paths live on a uniform grid over [0, 1]; the two-form omega_tilde is the
(negative) finite-difference exterior derivative of the quadrature
one-form sigma_tilde, and gauge directions are built to first order from
time-dependent sections vanishing at the endpoints.  The checks in this
module establish that gauge directions are in the kernel of
omega_tilde + omega_phi as the grid and step are refined.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .courant import AnchoredDual
from .expr import parse
from .geometry import Chart, Form
from .groupoid import worst_of


def _trapz(vals, dt):
    vals = np.asarray(vals, dtype=float)
    return float(dt * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


@dataclass
class DiscretizedAPath:
    """Base curve gamma and fiber values a on the uniform grid."""

    pres: AnchoredDual
    gamma: np.ndarray   # (N+1, n)
    a: np.ndarray       # (N+1, r)

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if len(self.gamma) != len(self.a):
            raise ValueError("gamma and a must share the grid")

    @property
    def N(self):
        return len(self.gamma) - 1

    @property
    def dt(self):
        return 1.0 / self.N

    @property
    def times(self):
        return np.linspace(0.0, 1.0, self.N + 1)

    def rho_of_a(self, i):
        """rho(a(t_i)) at gamma(t_i)."""
        return self.pres.rho(list(self.gamma[i])) @ self.a[i]

    def apath_residual(self):
        """Max defect of rho(a) against the central-difference velocity."""
        worst = 0.0
        for i in range(1, self.N):
            vel = (self.gamma[i + 1] - self.gamma[i - 1]) / (2 * self.dt)
            worst = worst_of(worst, np.max(np.abs(self.rho_of_a(i) - vel)))
        return worst

    def shifted(self, s, T):
        return DiscretizedAPath(self.pres, self.gamma + s * T.dgamma,
                                self.a + s * T.da)

    @property
    def amplitude(self):
        return float(max(np.max(np.abs(self.gamma)), np.max(np.abs(self.a))))


@dataclass
class PathTangent:
    dgamma: np.ndarray  # (N+1, n)
    da: np.ndarray      # (N+1, r)

    def __post_init__(self):
        self.dgamma = np.asarray(self.dgamma, dtype=float)
        self.da = np.asarray(self.da, dtype=float)


def sampled_path(pres, gamma_exprs, a_exprs, N):
    """Evaluate curve expressions in the variable t on the uniform grid."""
    tch = ("t",)
    gfun = [parse(e, tch) for e in gamma_exprs]
    afun = [parse(e, tch) for e in a_exprs]
    ts = np.linspace(0.0, 1.0, N + 1)
    gamma = np.array([[f([t]) for f in gfun] for t in ts])
    a = np.array([[f([t]) for f in afun] for t in ts])
    return DiscretizedAPath(pres, gamma, a)


def sampled_tangent(path, dgamma_exprs, da_exprs):
    tch = ("t",)
    gfun = [parse(e, tch) for e in dgamma_exprs]
    afun = [parse(e, tch) for e in da_exprs]
    ts = path.times
    return PathTangent(np.array([[f([t]) for f in gfun] for t in ts]),
                       np.array([[f([t]) for f in afun] for t in ts]))


def fd_step(path, h=None):
    return 1e-4 * (1.0 + path.amplitude) if h is None else h


# -- the forms --------------------------------------------------------------

def omega_phi(path, V, W, phi):
    """Quadrature of phi(rho(a), dgamma V, dgamma W) along the path."""
    if phi is None:
        return 0.0
    vals = []
    for i in range(path.N + 1):
        p = list(path.gamma[i])
        vals.append(jets.value_of(phi(p, list(path.rho_of_a(i)),
                                      list(V.dgamma[i]), list(W.dgamma[i]))))
    return _trapz(vals, path.dt)


def sigma_tilde(path, X):
    """Quadrature of <rho*(a), dgamma X> along the path."""
    vals = [path.a[i] @ (path.pres.rho_star(list(path.gamma[i])) @ X.dgamma[i])
            for i in range(path.N + 1)]
    return _trapz(vals, path.dt)


def omega_tilde(path, V, W, h=None):
    """-(d sigma_tilde)(V, W) by central differences with constant
    (straight-line) extensions of V and W; the bracket term vanishes for
    constant extensions."""
    h = fd_step(path, h)
    dv = (sigma_tilde(path.shifted(h, V), W)
          - sigma_tilde(path.shifted(-h, V), W)) / (2 * h)
    dw = (sigma_tilde(path.shifted(h, W), V)
          - sigma_tilde(path.shifted(-h, W), V)) / (2 * h)
    return -(dv - dw)


# -- gauge directions -------------------------------------------------------

@dataclass
class GaugeParameter:
    """Time-dependent section eta_t given componentwise as expressions in
    (t, x1..xn); a factor t(1-t) enforces endpoint vanishing."""

    exprs: list

    def compiled(self, chart):
        names = ("t",) + chart.names
        return [parse(e, names) for e in self.exprs]


def gauge_vector(path, eta):
    """First-order gauge direction X_eta at the path.

    dgamma = rho(eta_t)(gamma);
    da = d eta/dt + [xi0, eta] along gamma, where xi0 is the extension of a
    constant in x.
    """
    pres = path.pres
    ch = pres.chart
    n = ch.dim
    r = pres.rank
    fns = eta.compiled(ch)
    ts = path.times
    dgamma = np.zeros_like(path.gamma)
    da = np.zeros_like(path.a)
    e_t = [1.0] + [0.0] * n

    def chi(t):
        return t * (1.0 - t)

    for i in range(path.N + 1):
        t = ts[i]
        p = list(path.gamma[i])
        z = [t] + p
        eta_here = np.array([chi(t) * f(z) for f in fns])
        dgamma[i] = pres.rho(p) @ eta_here
        rho_a = path.rho_of_a(i)
        # structure term sum_{i',j'} c^k a_{i'} eta_{j'}
        da[i] = np.einsum("a,b,abk->k", path.a[i], eta_here, pres.structure)
        for k in range(r):
            # time derivative of the section t(1-t) eta_k
            fk = fns[k]
            dt_eta = jets.directional(lambda q: chi(q[0]) * fk(q), z, e_t)
            # spatial derivative paired with rho(xi0) = rho(a)
            dx_eta = chi(t) * jets.directional(
                lambda q: fk([t] + q), p, list(rho_a))
            da[i, k] += dt_eta + dx_eta
    return PathTangent(dgamma, da)


# -- identities -------------------------------------------------------------

def basicness_residual(path, eta, phi, probes, h=None):
    """Max over probe tangents X of |omega_tilde(X_eta, X) +
    omega_phi(X_eta, X)|."""
    X_eta = gauge_vector(path, eta)
    worst = 0.0
    for X in probes:
        val = omega_tilde(path, X_eta, X, h) + omega_phi(path, X_eta, X, phi)
        worst = worst_of(worst, abs(val))
    return worst


def sigma_contraction_residual(path, eta):
    """Discrete-exact identity (granted the antisymmetry of <rho*, rho>):
    sigma_tilde(X_eta) = -quadrature of <rho*(eta), rho(a)>."""
    pres = path.pres
    X_eta = gauge_vector(path, eta)
    lhs = sigma_tilde(path, X_eta)
    fns = eta.compiled(pres.chart)
    ts = path.times
    vals = []
    for i in range(path.N + 1):
        t = ts[i]
        p = list(path.gamma[i])
        chi = t * (1.0 - t)
        eta_here = np.array([chi * f([t] + p) for f in fns])
        vals.append(eta_here @ (pres.rho_star(p) @ path.rho_of_a(i)))
    return abs(lhs + _trapz(vals, path.dt))


def path_variation_identity_residual(u_exprs, gamma, X):
    """Boundary identity for the first variation of the path functional
    F = integral <u(t, gamma), gamma-dot>:

    (d/d eps) F(gamma + eps X) - integral [du_t(X, gamma-dot)
        - <du/dt, X>] dt = <u, X> evaluated at the endpoints.

    Returns |LHS - boundary|.  u is a time-dependent 1-form given as
    component expressions in (t, x1..xn); gamma and X are discrete curves.
    """
    gamma = np.asarray(gamma, dtype=float)
    X = np.asarray(X, dtype=float)
    Np = len(gamma) - 1
    dt = 1.0 / Np
    n = gamma.shape[1]
    names = ("t",) + tuple(f"x{i+1}" for i in range(n))
    ufun = [parse(e, names) for e in u_exprs]
    ts = np.linspace(0.0, 1.0, Np + 1)

    def velocity(curve):
        v = np.zeros_like(curve)
        v[1:-1] = (curve[2:] - curve[:-2]) / (2 * dt)
        v[0] = (-3 * curve[0] + 4 * curve[1] - curve[2]) / (2 * dt)
        v[-1] = (3 * curve[-1] - 4 * curve[-2] + curve[-3]) / (2 * dt)
        return v

    def functional(curve):
        vel = velocity(curve)
        vals = []
        for i in range(Np + 1):
            z = [ts[i]] + list(curve[i])
            vals.append(sum(ufun[j](z) * vel[i, j] for j in range(n)))
        return _trapz(vals, dt)

    h = 1e-5
    lhs1 = (functional(gamma + h * X) - functional(gamma - h * X)) / (2 * h)
    vel = velocity(gamma)
    vals = []
    for i in range(Np + 1):
        z = [ts[i]] + list(gamma[i])
        grad = np.array(jets.jacobian(
            lambda q: [f(q) for f in ufun], z))  # grad[j][l] = d u_j / d z_l
        dt_u = grad[:, 0]
        dx_u = grad[:, 1:]          # dx_u[j, l] = d u_j / d x_l
        du_X_gdot = float(X[i] @ dx_u.T @ vel[i] - vel[i] @ dx_u.T @ X[i])
        vals.append(du_X_gdot - float(dt_u @ X[i]))
    lhs2 = -_trapz(vals, dt)
    z1 = [1.0] + list(gamma[-1])
    z0 = [0.0] + list(gamma[0])
    boundary = sum(ufun[j](z1) * X[-1, j] for j in range(n)) \
        - sum(ufun[j](z0) * X[0, j] for j in range(n))
    return abs(lhs1 + lhs2 - boundary)


def relative_closedness_residual(path, U, V, W, phi):
    """Discrete exterior derivative of omega_tilde + omega_phi on the
    constant-extension triple (U, V, W) minus the endpoint pullbacks
    (t*phi - s*phi)."""
    h = fd_step(path)

    def two_form(pp, A, B):
        return omega_tilde(pp, A, B, h) + omega_phi(pp, A, B, phi)

    def deriv(A, B, C):
        return (two_form(path.shifted(h, A), B, C)
                - two_form(path.shifted(-h, A), B, C)) / (2 * h)

    d_val = deriv(U, V, W) - deriv(V, U, W) + deriv(W, U, V)
    if phi is None:
        pulled = 0.0
    else:
        p1 = list(path.gamma[-1])
        p0 = list(path.gamma[0])
        pulled = jets.value_of(
            phi(p1, list(U.dgamma[-1]), list(V.dgamma[-1]),
                list(W.dgamma[-1]))) - jets.value_of(
            phi(p0, list(U.dgamma[0]), list(V.dgamma[0]),
                list(W.dgamma[0])))
    return abs(d_val - pulled)


def fitted_order(Ns, residuals):
    """Least-squares slope of residual decay against the grid size."""
    lo = np.log(np.asarray(Ns, dtype=float))
    lr = np.log(np.asarray(residuals, dtype=float))
    return float(-np.polyfit(lo, lr, 1)[0])


# -- stock presentations ----------------------------------------------------

def tangent_presentation(omega_comps, n):
    """A = TM on R^n with rho the identity and rho* the flat map of a
    2-form given by components {(i, j): expr}."""
    ch = Chart(tuple(f"x{i+1}" for i in range(n)))
    omega = Form.from_components(ch, 2, omega_comps)
    return AnchoredDual(ch, lambda p: np.eye(n), omega.components,
                        np.zeros((n, n, n)))
