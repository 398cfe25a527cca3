"""Discretized algebroid paths and the reconstruction forms on path space.

Paths live on a uniform grid over [0, 1]; the two-form omega_tilde is the
(negative) finite-difference exterior derivative of the quadrature
one-form sigma_tilde, and gauge directions are built to first order from
time-dependent sections vanishing at the endpoints.  The checks in this
module establish that gauge directions are in the kernel of
omega_tilde + omega_phi as the grid and step are refined.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr, jets
from .courant import AnchoredDual
from .geometry import coordinates, from_coordinates
from .groupoid import worst_of
from .linear import mv


def _trapz(vals, dt):
    vals = np.asarray(vals, dtype=float)
    return float(dt * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def _dot(u, v):
    """The stacked dot products u[i] @ v[i]."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def grid(N):
    """The times i/N, i = 0..N, as np.linspace gives them; np.empty first
    refuses a count past numpy's index range, which linspace would wrap."""
    np.empty(N + 1)
    return np.linspace(0.0, 1.0, N + 1)


def _chi(t):
    """The endpoint cut-off t(1 - t) of a gauge parameter."""
    return t * (1.0 - t)


def _at_grid(path, matrix):
    """matrix(p) read once at the stack of grid points gamma(t_i), as the
    (N+1, ., .) stack; a constant matrix is broadcast along the grid."""
    M = np.asarray(matrix(coordinates(path.gamma)), dtype=float)
    return np.broadcast_to(M, path.gamma.shape[:1] + M.shape[-2:])


@dataclass
class DiscretizedAPath:
    """Base curve gamma and fiber values a on the uniform grid."""

    pres: AnchoredDual
    gamma: np.ndarray   # (N+1, n)
    a: np.ndarray       # (N+1, r)
    gauges: dict = field(default_factory=dict, init=False, repr=False)

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
        return grid(self.N)

    def rho_of_a(self):
        """rho(a(t_i)) at gamma(t_i), the (N+1, n) stack."""
        return mv(_at_grid(self, self.pres.rho), self.a)

    def apath_residual(self):
        """Max defect of rho(a) against the central-difference velocity."""
        vel = (self.gamma[2:] - self.gamma[:-2]) / (2 * self.dt)
        return worst_of(0.0, np.abs(self.rho_of_a()[1:-1] - vel))

    def gauge(self, eta):
        """X_eta at this path, `gauge_vector` built once per gauge."""
        key = tuple(eta.exprs)
        if key not in self.gauges:
            self.gauges[key] = gauge_vector(self, eta)
        return self.gauges[key]

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


def _on_grid(exprs, ts):
    """Expressions in the variable t, each evaluated once on the grid ts,
    as the (N+1, m) stack."""
    return from_coordinates([expr.parse(e, ("t",))([ts]) for e in exprs],
                            ts.shape)


def sampled_path(pres, gamma_exprs, a_exprs, N):
    """Evaluate curve expressions in the variable t on the uniform grid."""
    ts = grid(N)
    return DiscretizedAPath(pres, _on_grid(gamma_exprs, ts),
                            _on_grid(a_exprs, ts))


def sampled_tangent(path, dgamma_exprs, da_exprs):
    ts = path.times
    return PathTangent(_on_grid(dgamma_exprs, ts), _on_grid(da_exprs, ts))


def fd_step(path, h=None):
    return 1e-4 * (1.0 + path.amplitude) if h is None else h


# -- the forms --------------------------------------------------------------

def omega_phi(path, V, W, phi):
    """Quadrature of phi(rho(a), dgamma V, dgamma W) along the path."""
    if phi is None:
        return 0.0
    vals = phi(coordinates(path.gamma), *(coordinates(v) for v in (
        path.rho_of_a(), V.dgamma, W.dgamma)))
    return _trapz(jets.value_of(vals), path.dt)


def sigma_tilde(path, X):
    """Quadrature of <rho*(a), dgamma X> along the path."""
    vals = _dot(path.a, mv(_at_grid(path, path.pres.rho_star), X.dgamma))
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
        return [expr.parse(e, ("t",) + chart.names) for e in self.exprs]


def _section_on_grid(path, fns):
    """chi(t) eta(t, gamma(t)) on the grid, the (N+1, r) stack."""
    ts = path.times
    z = [ts] + coordinates(path.gamma)
    return from_coordinates([_chi(ts) * f(z) for f in fns], ts.shape)


def gauge_vector(path, eta):
    """First-order gauge direction X_eta at the path.

    dgamma = rho(eta_t)(gamma);
    da = d eta/dt + [xi0, eta] along gamma, where xi0 is the extension of a
    constant in x.
    """
    pres = path.pres
    fns = eta.compiled(pres.chart)
    ts = path.times
    p = coordinates(path.gamma)
    z = [ts] + p
    e_t = [1.0] + [0.0] * pres.chart.dim
    eta_here = _section_on_grid(path, fns)
    dgamma = mv(_at_grid(path, pres.rho), eta_here)
    rho_a = coordinates(path.rho_of_a())
    # structure term sum_{i',j'} c^k a_{i'} eta_{j'}
    da = np.einsum("za,zb,abk->zk", path.a, eta_here, pres.structure)
    for k, fk in enumerate(fns):
        # time derivative of the section t(1-t) eta_k
        dt_eta = jets.directional(lambda q: _chi(q[0]) * fk(q), z, e_t)
        # spatial derivative paired with rho(xi0) = rho(a)
        dx_eta = _chi(ts) * jets.directional(
            lambda q: fk([ts] + q), p, rho_a)
        da[:, k] += dt_eta + dx_eta
    return PathTangent(dgamma, da)


# -- identities -------------------------------------------------------------

def basicness_residual(path, eta, phi, probes, h=None):
    """Max over probe tangents X of |omega_tilde(X_eta, X) +
    omega_phi(X_eta, X)|."""
    X_eta = path.gauge(eta)
    worst = 0.0
    for X in probes:
        val = omega_tilde(path, X_eta, X, h) + omega_phi(path, X_eta, X, phi)
        worst = worst_of(worst, abs(val))
    return worst


def sigma_contraction_residual(path, eta):
    """Discrete-exact identity (granted the antisymmetry of <rho*, rho>):
    sigma_tilde(X_eta) = -quadrature of <rho*(eta), rho(a)>."""
    X_eta = path.gauge(eta)
    lhs = sigma_tilde(path, X_eta)
    eta_here = _section_on_grid(path, eta.compiled(path.pres.chart))
    vals = _dot(eta_here, mv(_at_grid(path, path.pres.rho_star),
                             path.rho_of_a()))
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
    ufun = [expr.parse(e, names) for e in u_exprs]
    ts = grid(Np)

    def velocity(curve):
        v = np.zeros_like(curve)
        v[1:-1] = (curve[2:] - curve[:-2]) / (2 * dt)
        v[0] = (-3 * curve[0] + 4 * curve[1] - curve[2]) / (2 * dt)
        v[-1] = (3 * curve[-1] - 4 * curve[-2] + curve[-3]) / (2 * dt)
        return v

    def functional(curve):
        vel = velocity(curve)
        z = [ts] + coordinates(curve)
        return _trapz(sum(ufun[j](z) * vel[:, j] for j in range(n)), dt)

    h = 1e-5
    lhs1 = (functional(gamma + h * X) - functional(gamma - h * X)) / (2 * h)
    vel = velocity(gamma)
    # grad[i, j, l] = d u_j / d z_l at (t_i, gamma(t_i)), one jet pass
    grad = jets.jacobian(lambda q: [f(q) for f in ufun],
                         [ts] + coordinates(gamma))
    grad = np.broadcast_to(grad, (Np + 1,) + grad.shape[-2:])
    dt_u = grad[..., 0]
    dx_uT = grad[..., 1:].swapaxes(-1, -2)   # [i, l, j] = d u_j / d x_l
    du_X_gdot = ((X[:, None, :] @ dx_uT) @ vel[:, :, None]
                 - (vel[:, None, :] @ dx_uT) @ X[:, :, None])[:, 0, 0]
    lhs2 = -_trapz(du_X_gdot - _dot(dt_u, X), dt)
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
    pulled = 0.0
    if phi is not None:
        ends = [0, -1]
        vals = jets.value_of(phi(coordinates(path.gamma[ends]), *(
            coordinates(T.dgamma[ends]) for T in (U, V, W))))
        pulled = vals[1] - vals[0]
    return abs(d_val - pulled)


def fitted_order(Ns, residuals):
    """Least-squares slope of residual decay against the grid size."""
    lo = np.log(np.asarray(Ns, dtype=float))
    lr = np.log(np.asarray(residuals, dtype=float))
    return float(-np.polyfit(lo, lr, 1)[0])

