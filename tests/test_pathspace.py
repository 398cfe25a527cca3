"""Discretized algebroid paths and the reconstruction two-form."""

import numpy as np
import pytest

from diracgeo import fixtures, jets
from diracgeo import pathspace as ps
from diracgeo.courant import AnchoredDual, graph_of_form
from diracgeo.expr import parse
from diracgeo.geometry import Form
from references import chart


def pair_pres():
    return graph_of_form(fixtures.load("pair-groupoid-r2")["theta"])


def twisted_pres():
    # twisted-pair-r3's algebroid: rho* the flat map of x3 dx1^dx2, with
    # the 3-form -dx1^dx2^dx3
    fx = fixtures.load("twisted-pair-r3")
    return graph_of_form(fx["theta"]), fx["form"].phi


def pair_setup(N):
    pres = pair_pres()
    path = ps.sampled_path(pres, ["t", "t*t*(1.0-t)"],
                           ["1.0", "2.0*t - 3.0*t*t"], N)
    probes = [ps.sampled_tangent(path, ["sin(t)", "t*t"],
                                 ["cos(t)", "2.0*t"]),
              ps.sampled_tangent(path, ["t", "1.0 - t"], ["1.0", "-1.0"])]
    eta = ps.GaugeParameter(["1.0 + x2", "t - x1*x1"])
    return path, probes, eta


def test_path_grid_validation():
    pres = pair_pres()
    with pytest.raises(ValueError):
        ps.DiscretizedAPath(pres, np.zeros((5, 2)), np.zeros((4, 2)))


def test_grid_is_linspace_and_refuses_a_count_past_the_index_range():
    for N in (1, 2, 9, 1024, 4095):
        assert np.array_equal(ps.grid(N), np.linspace(0.0, 1.0, N + 1))
    for N in (2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 5):
        with pytest.raises(ValueError, match="array is too big|Maximum"):
            ps.grid(N)


def test_apath_residual_consistent_path():
    # gamma-dot = rho(a) by construction, so the defect is O(dt^2)
    path, _, _ = pair_setup(64)
    r64 = path.apath_residual()
    path2, _, _ = pair_setup(128)
    r128 = path2.apath_residual()
    assert r64 < 1e-3
    assert r128 < r64 / 3.0  # second-order decay


def test_apath_residual_detects_mismatch():
    pres = pair_pres()
    bad = ps.sampled_path(pres, ["t", "t"], ["0.0", "0.0"], 32)
    assert bad.apath_residual() > 0.5


def test_sigma_tilde_linear_in_probe():
    path, probes, _ = pair_setup(48)
    U, V = probes
    both = ps.PathTangent(U.dgamma + V.dgamma, U.da + V.da)
    assert ps.sigma_tilde(path, both) == pytest.approx(
        ps.sigma_tilde(path, U) + ps.sigma_tilde(path, V), abs=1e-12)


def test_omega_tilde_antisymmetric():
    path, probes, _ = pair_setup(32)
    U, V = probes
    assert ps.omega_tilde(path, U, V) == pytest.approx(
        -ps.omega_tilde(path, V, U), abs=1e-10)


def test_omega_tilde_matches_area_form_on_pair_presentation():
    # for A = TM with rho* = flat of a constant form, omega_tilde reduces
    # to the endpoint-difference of the form's action -- oracle by direct
    # quadrature of d/dt omega(U, V) terms; here simply compare against an
    # independent finite-difference of sigma_tilde with a different step
    path, probes, _ = pair_setup(64)
    U, V = probes
    a = ps.omega_tilde(path, U, V, h=1e-4)
    b = ps.omega_tilde(path, U, V, h=5e-5)
    assert a == pytest.approx(b, abs=1e-6)


def test_gauge_vector_endpoints_vanish():
    path, _, eta = pair_setup(32)
    X = ps.gauge_vector(path, eta)
    assert np.max(np.abs(X.dgamma[0])) == 0.0
    assert np.max(np.abs(X.dgamma[-1])) == 0.0


def test_basicness_converges_at_second_order():
    _, _, eta = pair_setup(8)
    Ns = [32, 64, 128]
    residuals = []
    for N in Ns:
        path, probes, _ = pair_setup(N)
        residuals.append(ps.basicness_residual(path, eta, None, probes))
    assert residuals[1] < 5e-4
    order = ps.fitted_order(Ns, residuals)
    assert order >= 1.8


def test_sigma_contraction_discrete_exact():
    path, _, eta = pair_setup(64)
    assert ps.sigma_contraction_residual(path, eta) < 1e-10


def test_twisted_basicness_converges():
    pres, phi = twisted_pres()
    eta = ps.GaugeParameter(["x3", "t", "x1"])
    Ns = [32, 64, 128]
    residuals = []
    for N in Ns:
        path = ps.sampled_path(pres, ["t", "t*t", "0.5 + 0.2*t"],
                               ["1.0", "2.0*t", "0.2"], N)
        probes = [ps.sampled_tangent(path, ["t", "1.0", "sin(t)"],
                                     ["1.0", "0.0", "cos(t)"]),
                  ps.sampled_tangent(path, ["1.0 - t", "t", "t*t"],
                                     ["-1.0", "1.0", "2.0*t"])]
        residuals.append(ps.basicness_residual(path, eta, phi, probes))
    assert ps.fitted_order(Ns, residuals) >= 1.8


def test_boundary_identity_linear_integrands():
    # u = t dx1 and u = x1 dx1 on gamma(t) = (t, 0) with X = (1, 0):
    # the trapezoid rule is exact for the linear integrands, so the
    # residual sits at FD roundoff level, far below 1e-6
    N = 128
    ts = np.linspace(0, 1, N + 1)
    gamma = np.stack([ts, np.zeros_like(ts)], axis=1)
    X = np.stack([np.ones_like(ts), np.zeros_like(ts)], axis=1)
    r1 = ps.path_variation_identity_residual(["t", "0.0"], gamma, X)
    r2 = ps.path_variation_identity_residual(["x1", "0.0"], gamma, X)
    assert r1 < 1e-6
    assert r2 < 1e-6


def test_boundary_identity_generic_curve_converges():
    res = []
    for N in [32, 64, 128]:
        ts = np.linspace(0, 1, N + 1)
        gamma = np.stack([ts, np.sin(ts)], axis=1)
        X = np.stack([ts * (1 - ts) + 0.2, np.cos(ts)], axis=1)
        res.append(ps.path_variation_identity_residual(
            ["t*x2", "x1*x1"], gamma, X))
    assert res[-1] < 1e-3
    assert ps.fitted_order([32, 64, 128], res) > 1.5


def test_relative_closedness_decays():
    pres, phi = twisted_pres()
    vals = []
    for N in [32, 64]:
        path = ps.sampled_path(pres, ["t", "t*t", "0.5 + 0.2*t"],
                               ["1.0", "2.0*t", "0.2"], N)
        U = ps.sampled_tangent(path, ["t", "1.0", "0.0"],
                               ["1.0", "0.0", "0.0"])
        V = ps.sampled_tangent(path, ["0.0", "t", "1.0"],
                               ["0.0", "1.0", "0.0"])
        W = ps.sampled_tangent(path, ["1.0", "0.0", "t"],
                               ["0.0", "0.0", "1.0"])
        vals.append(ps.relative_closedness_residual(path, U, V, W, phi))
    assert vals[-1] < 5e-3


def test_fitted_order_recovers_slope():
    Ns = [16, 32, 64]
    res = [1.0 / N ** 2 for N in Ns]
    assert ps.fitted_order(Ns, res) == pytest.approx(2.0, abs=1e-12)


def test_grid_domain_error_names_the_grid_index():
    # 0.5 - t < 0 first at t_3 = 0.75 on the grid of N = 4
    with pytest.raises(jets.DomainError, match=r"at sample 3"):
        ps.sampled_path(pair_pres(), ["sqrt(0.5 - t)", "t"], ["1.0", "1.0"],
                        4)


# -- the grid stack against a loop over the grid points ---------------------

def ref_sampled(exprs, ts):
    fns = [parse(e, ("t",)) for e in exprs]
    return np.array([[f([t]) for f in fns] for t in ts])


def ref_rho_of_a(path, i):
    return path.pres.rho(list(path.gamma[i])) @ path.a[i]


def ref_apath_residual(path):
    worst = 0.0
    for i in range(1, path.N):
        vel = (path.gamma[i + 1] - path.gamma[i - 1]) / (2 * path.dt)
        worst = max(worst, np.max(np.abs(ref_rho_of_a(path, i) - vel)))
    return worst


def ref_sigma_tilde(path, X):
    vals = [path.a[i] @ (path.pres.rho_star(list(path.gamma[i]))
                         @ X.dgamma[i]) for i in range(path.N + 1)]
    return ps._trapz(vals, path.dt)


def ref_omega_phi(path, V, W, phi):
    vals = [jets.value_of(phi(list(path.gamma[i]),
                              list(ref_rho_of_a(path, i)),
                              list(V.dgamma[i]), list(W.dgamma[i])))
            for i in range(path.N + 1)]
    return ps._trapz(vals, path.dt)


def ref_gauge_vector(path, eta):
    pres = path.pres
    fns = eta.compiled(pres.chart)
    e_t = [1.0] + [0.0] * pres.chart.dim
    dgamma, da = [], []
    for i, t in enumerate(path.times):
        p = list(path.gamma[i])
        z = [t] + p
        chi = t * (1.0 - t)
        eta_here = np.array([chi * f(z) for f in fns])
        dgamma.append(pres.rho(p) @ eta_here)
        rho_a = ref_rho_of_a(path, i)
        row = np.einsum("a,b,abk->k", path.a[i], eta_here, pres.structure)
        for k, fk in enumerate(fns):
            dt_eta = jets.directional(
                lambda q: q[0] * (1.0 - q[0]) * fk(q), z, e_t)
            dx_eta = chi * jets.directional(
                lambda q: fk([t] + q), p, list(rho_a))
            row[k] += dt_eta + dx_eta
        da.append(row)
    return np.array(dgamma), np.array(da)


def ref_path_variation(u_exprs, gamma, X):
    Np = len(gamma) - 1
    dt = 1.0 / Np
    n = gamma.shape[1]
    ufun = [parse(e, ("t",) + tuple(f"x{i+1}" for i in range(n)))
            for e in u_exprs]
    ts = np.linspace(0.0, 1.0, Np + 1)

    def velocity(curve):
        v = np.zeros_like(curve)
        v[1:-1] = (curve[2:] - curve[:-2]) / (2 * dt)
        v[0] = (-3 * curve[0] + 4 * curve[1] - curve[2]) / (2 * dt)
        v[-1] = (3 * curve[-1] - 4 * curve[-2] + curve[-3]) / (2 * dt)
        return v

    def functional(curve):
        vel = velocity(curve)
        return ps._trapz([sum(ufun[j]([ts[i]] + list(curve[i])) * vel[i, j]
                              for j in range(n)) for i in range(Np + 1)], dt)

    h = 1e-5
    lhs1 = (functional(gamma + h * X) - functional(gamma - h * X)) / (2 * h)
    vel = velocity(gamma)
    vals = []
    for i in range(Np + 1):
        grad = jets.jacobian(lambda q: [f(q) for f in ufun],
                             [ts[i]] + list(gamma[i]))
        dt_u, dx_u = grad[:, 0], grad[:, 1:]
        du_X_gdot = float(X[i] @ dx_u.T @ vel[i] - vel[i] @ dx_u.T @ X[i])
        vals.append(du_X_gdot - float(dt_u @ X[i]))
    lhs2 = -ps._trapz(vals, dt)
    z1 = [1.0] + list(gamma[-1])
    z0 = [0.0] + list(gamma[0])
    boundary = sum(ufun[j](z1) * X[-1, j] for j in range(n)) \
        - sum(ufun[j](z0) * X[0, j] for j in range(n))
    return abs(lhs1 + lhs2 - boundary)


def so3_pres():
    """The rotation generators on R^3 with a dual that varies along the
    path and nonzero structure constants."""
    def rho(p):
        x, y, z = p
        return jets.stack([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])

    def rho_star(p):
        x, y, z = p
        return jets.stack([[y, x * z, 1.0], [0.0, z, x], [y * y, 0.0, z]])

    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k], c[j, i, k] = -1.0, 1.0
    return AnchoredDual(chart("x1", "x2", "x3"), rho, rho_star, c)


# presentation, gamma, a, gauge parameter
STACK_CASES = {
    "pair": (pair_pres, ["t", "t*t*(1.0-t)"], ["1.0", "2.0*t - 3.0*t*t"],
             ["1.0 + x2", "t - x1*x1"]),
    "twisted": (lambda: twisted_pres()[0], ["t", "t*t", "0.5 + 0.2*t"],
                ["1.0", "2.0*t", "0.2"], ["x3", "t", "x1"]),
    "so3": (so3_pres, ["t", "t*t - 0.3", "0.5 + 0.2*t"],
            ["1.0 - t*t*t", "2.0*t", "0.2 - t"],
            ["x3*x2", "t + x1", "x1*x1 - t*x3"]),
}


def _agree(stacked, looped, through_sin=False):
    # numpy's sin on an array and math.sin on a float need not round alike
    # in the last place; everything else is the same arithmetic in the
    # same order
    looped = np.asarray(looped, dtype=float)
    assert np.shape(stacked) == looped.shape
    if through_sin:
        assert np.all(np.abs(stacked - looped)
                      <= 1e-14 * np.maximum(1.0, np.abs(looped)))
    else:
        assert np.array_equal(stacked, looped)


@pytest.mark.parametrize("name", sorted(STACK_CASES))
@pytest.mark.parametrize("N", [2, 9, 64])
def test_grid_stack_matches_the_per_point_loop(name, N):
    make, gamma, a, eta_exprs = STACK_CASES[name]
    path = ps.sampled_path(make(), gamma, a, N)
    n = path.pres.chart.dim
    ts = path.times
    _agree(path.gamma, ref_sampled(gamma, ts))
    _agree(path.a, ref_sampled(a, ts))
    probes = [(["sin(t)", "t*t", "1.0"][:n], ["cos(t)", "2.0*t", "t"][:n]),
              (["t", "1.0 - t", "t*t*t"][:n], ["1.0", "-1.0", "0.5*t"][:n])]
    V, W = [ps.sampled_tangent(path, dg, da) for dg, da in probes]
    for T, (dg, da) in zip((V, W), probes):
        _agree(T.dgamma, ref_sampled(dg, ts), through_sin=True)
        _agree(T.da, ref_sampled(da, ts), through_sin=True)
    _agree(path.rho_of_a(), [ref_rho_of_a(path, i) for i in range(N + 1)])
    _agree(path.apath_residual(), ref_apath_residual(path))
    eta = ps.GaugeParameter(eta_exprs)
    X = ps.gauge_vector(path, eta)
    dgamma, da = ref_gauge_vector(path, eta)
    _agree(X.dgamma, dgamma)
    _agree(X.da, da)
    for T in (X, V, W):
        _agree(ps.sigma_tilde(path, T), ref_sigma_tilde(path, T))
    if n == 3:
        ch = chart("x1", "x2", "x3")
        for phi, through_sin in (
                (twisted_pres()[1], False),
                (Form.from_components(ch, 3, {(0, 1, 2): "sin(x1) - x3"}),
                 True)):
            _agree(ps.omega_phi(path, X, V, phi),
                   ref_omega_phi(path, X, V, phi), through_sin)


@pytest.mark.parametrize("N", [2, 9, 64])
def test_path_variation_stack_matches_the_per_point_loop(N):
    ts = np.linspace(0.0, 1.0, N + 1)
    line = ts.reshape(-1, 1)
    curve = np.stack([ts, np.sin(ts)], axis=1)
    bump = np.stack([ts * (1 - ts) + 0.2, np.cos(ts)], axis=1)
    for u, gamma, X in ((["t"], line, np.ones_like(line)),
                        (["x1"], line, np.ones_like(line)),
                        (["t*x2", "x1*x1"], curve, bump),
                        (["0.0", "x1*t - x2"], curve, bump)):
        _agree(ps.path_variation_identity_residual(u, gamma, X),
               ref_path_variation(u, gamma, X))
