"""Realization solves and the quasi-hamiltonian axioms."""

import numpy as np
import pytest

from diracgeo import jets
from diracgeo import liegroup as lg
from diracgeo.courant import graph_of_form
from diracgeo.geometry import (Chart, ChartMap, Form, coordinates,
                               map_jacobian)
from diracgeo.realization import (annulus_samples, closedness_residual,
                                  equivalence_crosscheck,
                                  equivariance_residual,
                                  quasi_ham_check, realization_check,
                                  rotation_quasi_ham)


def annulus(rng, k=6):
    pts = []
    while len(pts) < k:
        p = rng.uniform(-1.2, 1.2, 2)
        if np.linalg.norm(p) > 0.3:
            pts.append(list(p))
    return pts


def test_eta_matrix_is_skew():
    ch = Chart(("x", "y", "z"))
    eta = Form.from_components(ch, 2, {(0, 1): "z", (1, 2): "x"})
    H = eta.at([0.4, 0.1, -0.7])
    assert np.allclose(H, -H.T)
    assert H[0, 1] == pytest.approx(-0.7)
    assert H[1, 2] == pytest.approx(0.4)


def test_identity_realization_of_cartan_dirac():
    # mu = id from the group chart to itself with eta = 0 is NOT a
    # realization (eta cannot produce mu* xi), but the tangent-lift target
    # with the right eta is checked through the quasi-ham route below;
    # here: identity map realizes the zero Dirac structure target, the
    # graph of the zero 2-form
    ch = Chart(("u1",))
    zero = Form.from_components(ch, 2, {})
    rep = realization_check(zero, ChartMap(ch, ch, lambda p: list(p)),
                            graph_of_form(zero), [[0.3], [-0.8]])
    assert rep["dirac_map"] is True
    assert rep["unique"] is True
    # Ker(eta) and Ker(L) are both the whole line
    assert rep["kernel_iso_ok"] is True
    assert rep["solve_residual"] < 1e-12
    # the lift of the frame element (1, 0) is the unit vector itself
    for vecs in rep["action_vectors"]:
        assert vecs[0][0] == pytest.approx(1.0)


def test_rotation_quasi_ham_passes():
    Q = rotation_quasi_ham(0.5)
    rng = np.random.default_rng(40)
    pts = annulus(rng)
    r1, r2, r3, r_inv = quasi_ham_check(Q, pts)
    assert r1 < 1e-12
    assert r2 < 1e-12
    assert r3 < 1e-12
    assert r_inv < 1e-12
    assert equivariance_residual(Q, pts) < 1e-12


def test_rotation_quasi_ham_wrong_factor_fails_moment_axiom():
    Q = rotation_quasi_ham(1.0)
    rng = np.random.default_rng(41)
    _, r2, _, _ = quasi_ham_check(Q, annulus(rng))
    assert r2 >= 0.1


def test_equivalence_crosscheck_rotation():
    Q = rotation_quasi_ham(0.5)
    rng = np.random.default_rng(42)
    rep = equivalence_crosscheck(Q, annulus(rng))
    assert rep["dirac_map"] is True
    assert rep["unique"] is True
    assert rep["kernel_iso_ok"] is True
    assert rep["generator_mismatch"] < 1e-10


def test_degenerate_moment_map_detected():
    # mu constant: d mu = 0, so frame elements with nonzero tangent part
    # are unsolvable and the kernel of the solve is positive-dimensional
    Q = rotation_quasi_ham(0.5)
    Gp = Q.group
    ch = Q.D.chart
    mu0 = ChartMap(ch, Gp.chart, lambda p: [0.25])
    rep = realization_check(Form.from_components(ch, 2, {}), mu0,
                            lg.cartan_dirac_frame(Gp), [[0.5, 0.2]])
    assert rep["unique"] is False
    assert rep["kernel_dim_max"] == 2
    # Ker(eta) is the plane, Ker(L) is 0
    assert rep["kernel_iso_ok"] is False


def test_closedness_residual_sees_twist():
    # eta = 0 into a twisted target: |d eta + mu* phi| = |mu* phi|
    Gp = lg.so3()
    ch = Chart(("a", "b", "c"))
    mu = ChartMap(ch, Gp.chart, lambda p: list(p))
    r = closedness_residual(Form.from_components(ch, 2, {}), mu,
                            lg.cartan_form(Gp), [[0.2, -0.1, 0.3]])
    assert r > 1e-3


def test_quasi_ham_kernel_axiom_nontrivial_case():
    # at points where Ad_mu(p) = -1 would have fixed vectors the kernel
    # condition kicks in; for the torus Ad = +1 always, so Ker(Ad+1) = 0
    # and eta must be nondegenerate -- which dx^dy is
    Q = rotation_quasi_ham(0.5)
    rng = np.random.default_rng(44)
    r1, r2, r3, _ = quasi_ham_check(Q, annulus(rng, 3))
    assert r3 < 1e-12


@pytest.mark.parametrize("factor", [0.5, 1.0])
def test_moment_map_jacobian_is_the_jet_pass(factor):
    # byte for byte, and against central differences along random unit
    # directions
    mu = rotation_quasi_ham(factor).mu
    rng = np.random.default_rng(45)
    P = annulus_samples(rng, 256)
    J = map_jacobian(mu, P)
    jet = jets.jacobian(mu.func, coordinates(P))
    assert J.shape == jet.shape == (256, 1, 2)
    assert np.array_equal(J.view(np.uint64), jet.view(np.uint64))
    v = rng.standard_normal(P.shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h = 1e-5
    fd = (mu(coordinates(P + h * v))[0]
          - mu(coordinates(P - h * v))[0]) / (2 * h)
    Jv = (J @ v[:, :, None])[:, 0, 0]
    assert np.all(np.abs(fd - Jv) <= 1e-8 * np.maximum(1.0, np.abs(Jv)))


def test_negated_moment_map_jacobian_fails_the_axioms():
    # the solve, the moment one-forms and the equivariance read d mu's
    # closed form: negated, the solved action vectors are -rho_P and sigma
    # changes sign (d mu(rho_P) = 0 on the circle either way)
    Q = rotation_quasi_ham(0.5)
    J, reads = Q.mu.jacobian, []
    Q.mu.jacobian = lambda P, Y: reads.append(P) or -J(P, Y)
    P = annulus_samples(np.random.default_rng(46), 64)
    assert equivalence_crosscheck(Q, P)["generator_mismatch"] > 1e-2
    assert max(quasi_ham_check(Q, P)) > 1e-2
    del reads[:]
    assert equivariance_residual(Q, P) < 1e-12 and len(reads) == 1
