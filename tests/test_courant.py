"""Twisted Courant bracket, anchored dual pairs as frames of TM + T*M,
the integrability of a Dirac frame, and the IM and Cartan-closedness
conditions."""

import numpy as np
import pytest

from diracgeo import fixtures, jets, linear, liegroup as lg
from diracgeo.courant import (AnchoredDual, cartan_closed_residual,
                              courant_bracket, graph_of_form,
                              im_conditions_residual, integrability_residual)
from diracgeo.geometry import Chart, Form, VectorField, chart, ext_d


CH2 = chart("x", "y")
CH3 = chart("x", "y", "z")


def section(ch, vec, cov):
    return (VectorField.from_components(ch, vec),
            Form.from_components(ch, 1, {(i,): c for i, c in enumerate(cov)}))


def samples(rng, n, k=6, scale=1.0):
    return [list(rng.uniform(-scale, scale, n)) for _ in range(k)]


def test_untwisted_bracket_on_exact_sections():
    # [(X, df), (Y, dg)] has covector part L_X dg - i_Y d(df) = d(X g)
    f = Form.function(CH3, "x*y")
    g = Form.function(CH3, "z^2")
    X = VectorField.from_components(CH3, ["y", "0.0", "x"])
    Y = VectorField.from_components(CH3, ["z", "x", "1.0"])
    _, zeta = courant_bracket((X, ext_d(f)), (Y, ext_d(g)))
    # oracle: d(X g) - the derivative of g along X differentiated again
    Xg = Form(CH3, 0, lambda p: ext_d(g)(p, X(p)))
    oracle = ext_d(Xg)
    rng = np.random.default_rng(0)
    for p in samples(rng, 3):
        for e in np.eye(3):
            assert zeta(p, list(e)) == pytest.approx(
                oracle(p, list(e)), abs=1e-12)


def test_twist_term_is_additive():
    phi = Form.from_components(CH3, 3, {(0, 1, 2): "x + 2.0"})
    a = section(CH3, ["1.0", "y", "0.0"], ["z", "0.0", "x"])
    b = section(CH3, ["0.0", "x", "1.0"], ["y", "x*z", "0.0"])
    _, plain = courant_bracket(a, b)
    _, twisted = courant_bracket(a, b, phi)
    rng = np.random.default_rng(1)
    for p in samples(rng, 3):
        for e in np.eye(3):
            diff = twisted(p, list(e)) - plain(p, list(e))
            assert diff == pytest.approx(phi(p, a[0](p), b[0](p), list(e)),
                                         abs=1e-13)


def test_graph_of_form_evaluates_to_linear_graph():
    omega = Form.from_components(CH2, 2, {(0, 1): "x + 2.0"})
    L = graph_of_form(omega)
    p = [0.5, -0.3]
    theta = np.array([[0.0, 2.5], [-2.5, 0.0]])
    assert linear.LinearDirac.from_span(L.frame(p)) == linear.from_form(theta)
    # at a stack of points the frames are batch-first
    P = np.array([p, [0.1, 0.2]])
    assert L.frame(list(P.T)).shape == (2, 4, 2)
    assert np.array_equal(L.frame(list(P.T))[0], L.frame(p))


def test_closed_form_graph_is_integrable_untwisted():
    omega = Form.from_components(CH2, 2, {(0, 1): "1.0 + x^2"})
    # omega on R^2 is automatically closed; graph integrable with phi = None
    L = graph_of_form(omega)
    rng = np.random.default_rng(2)
    r = integrability_residual(L, None, samples(rng, 2))
    assert r < 1e-12


def test_twisted_integrability_matches_d_omega():
    # graph of omega is phi-integrable iff d omega + phi = 0
    ch = Chart(("x1", "x2", "x3"))
    omega = Form.from_components(ch, 2, {(0, 1): "x3"})
    phi_good = Form.from_components(ch, 3, {(0, 1, 2): "-1.0"})
    phi_bad = Form.from_components(ch, 3, {(0, 1, 2): "1.0"})
    L = graph_of_form(omega)
    rng = np.random.default_rng(3)
    pts = samples(rng, 3)
    assert integrability_residual(L, phi_good, pts) < 1e-12
    assert integrability_residual(L, phi_bad, pts) > 1e-2
    assert integrability_residual(L, None, pts) > 1e-2


def test_pairing_vanishes_on_isotropic_frame():
    # <a_i, a_j> = sigma(a_i)(rho a_j) + sigma(a_j)(rho a_i) on the frame
    omega = Form.from_components(CH2, 2, {(0, 1): "sin(x) + 2.0"})
    P = np.array(samples(np.random.default_rng(4), 2))
    F = graph_of_form(omega).frame(list(P.T))
    S = linear.mT(F[:, 2:]) @ F[:, :2]
    assert np.max(np.abs(S + linear.mT(S))) <= 1e-13


def test_frame_size_validation():
    # a rank-1 pair on a 2-dimensional chart is not a Dirac frame
    D = AnchoredDual(CH2, lambda p: np.eye(2)[:, :1],
                     lambda p: np.array([[0.0, 1.0]]), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        integrability_residual(D, None, [[0.1, 0.2]])


# -- anchored dual pairs ----------------------------------------------------

def rotation_pair():
    """Rank-1 pair on R^2: rho = the rotation field, rho* = x dx + y dy."""
    return AnchoredDual(CH2, lambda p: jets.stack([[p[1]], [-p[0]]]),
                        lambda p: jets.stack([[p[0], p[1]]]),
                        np.zeros((1, 1, 1)))


def so3_anchor(sigma, sign):
    """The rotation generators on R^3 with structure c[i, j, k] = -sign for
    (i, j, k) cyclic and the dual sigma."""
    def rho(p):
        x, y, z = p
        return jets.stack([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])

    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k], c[j, i, k] = -sign, sign
    return AnchoredDual(CH3, rho, sigma, c)


def test_im_conditions_rotation_pair():
    # <rho*, rho> = x*y - y*x = 0 (r1).  A rank-1 pair has no pair of
    # sections i < j, so r2 is never evaluated and reads 0 by default; the
    # differential condition is tested on the rank-3 pairs below
    D = rotation_pair()
    rng = np.random.default_rng(6)
    r1, r2 = im_conditions_residual(D, None, samples(rng, 2))
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_im_conditions_detect_bad_dual():
    # rho* = x dy is not antisymmetric against the rotation field
    D = AnchoredDual(CH2, rotation_pair().rho,
                     lambda p: jets.stack([[0.0, p[0]]]), np.zeros((1, 1, 1)))
    rng = np.random.default_rng(7)
    r1, _ = im_conditions_residual(D, None, samples(rng, 2))
    assert r1 > 1e-2


@pytest.mark.parametrize("phi, r2", [(-1.0, 0.0), (1.0, 2.0), (None, 1.0)])
def test_im_conditions_tangent_presentation(phi, r2):
    # the graph of x3 dx1^dx2 (A = TM): rho* = its flat map has
    # d rho* = dx1^dx2^dx3, which the differential condition matches
    # against -phi
    D = graph_of_form(fixtures.load("twisted-pair-r3")["theta"])
    if phi is not None:
        phi = Form.from_components(D.chart, 3, {(0, 1, 2): str(phi)})
    rng = np.random.default_rng(9)
    got = im_conditions_residual(D, phi, samples(rng, 3))
    assert got == pytest.approx((0.0, r2), abs=1e-12)


@pytest.mark.parametrize("sign, r2", [(1.0, 0.0), (-1.0, 2.0)])
def test_im_conditions_so3_anchor(sign, r2):
    # sigma(e_i) = dx_i on the rotation anchor: rho*([e_i, e_j]) must equal
    # the Lie-derivative terms, so negated structure constants fail
    D = so3_anchor(lambda p: np.eye(3), sign)
    rng = np.random.default_rng(9)
    got = im_conditions_residual(D, None, samples(rng, 3))
    assert got == pytest.approx((0.0, r2), abs=1e-12)


def test_residuals_propagate_nan():
    # the built-in max drops a NaN that is not its first argument; every
    # residual folds with worst_of, so a NaN dual reads NaN
    D = AnchoredDual(CH2, lambda p: np.eye(2),
                     lambda p: np.full((2, 2), np.nan), np.zeros((2, 2, 2)))
    pts = [[0.1, 0.2], [0.3, -0.4]]
    r1, r2 = im_conditions_residual(D, None, pts)
    assert np.isnan(r1) and np.isnan(r2)
    r1, r2, r3 = cartan_closed_residual(D, None, pts)
    assert np.isnan(r1) and np.isnan(r3)
    assert r2 == 0.0    # d of a constant 1-form is 0, NaN or not


# -- action algebroids: IM conditions and Cartan closedness -----------------

def amm_algebroid(name="so3", rho_star=None):
    """The conjugation action algebroid with the dual amm_rho_star (or the
    given one) and the Cartan 3-form."""
    Gp = lg.GROUPS[name]()
    D = lg.action_algebroid(Gp, Gp.chart,
                            lg.conjugation_action(Gp),
                            rho_star or lg.amm_rho_star(Gp))
    return D, lg.cartan_form(Gp)


def coadjoint_algebroid(name="so3"):
    Gp = lg.GROUPS[name]()
    return lg.action_algebroid(
        Gp, Chart.numbered(x=Gp.dim),
        lg.coadjoint_action(Gp), lambda x: np.eye(Gp.dim))


def test_conjugation_triple_satisfies_all_conditions():
    rng = np.random.default_rng(31)
    D, phi = amm_algebroid("so3")
    r1, r2, r3 = cartan_closed_residual(D, phi, samples(rng, 3, 4, 0.4))
    assert r1 < 1e-12
    assert r2 < 1e-10
    assert r3 < 1e-10


def test_conjugation_triple_su2():
    rng = np.random.default_rng(32)
    D, phi = amm_algebroid("su2")
    r1, r2, r3 = cartan_closed_residual(D, phi, samples(rng, 3, 3, 0.4))
    assert max(r1, r2, r3) < 1e-10


def test_coadjoint_triple_satisfies_all_conditions():
    rng = np.random.default_rng(33)
    D = coadjoint_algebroid()
    r1, r2, r3 = cartan_closed_residual(D, None, samples(rng, 3, 4, 0.8))
    assert max(r1, r2, r3) < 1e-12


def test_wrong_dual_breaks_isotropy():
    # doubling rho* breaks nothing (r1 is still <rho*(v), rho(v)> = 0 for
    # conjugation), but swapping in a constant covector does
    D, phi = amm_algebroid(
        "so3", lambda x: np.eye(3) + np.outer(np.ones(3), [1.0, 0.0, 0.0]))
    rng = np.random.default_rng(34)
    r1, r2, r3 = cartan_closed_residual(D, phi, samples(rng, 3, 2, 0.4))
    assert max(r1, r2, r3) > 1e-2


def test_missing_twist_detected():
    # the conjugation dual pair needs the Cartan 3-form; dropping it breaks r2
    D, _ = amm_algebroid("so3")
    rng = np.random.default_rng(35)
    pts = [list(rng.uniform(0.2, 0.5, 3)) for _ in range(2)]
    _, r2, _ = cartan_closed_residual(D, None, pts)
    assert r2 > 1e-3


def test_cartan_closedness_is_stronger_than_the_im_conditions():
    # torus(1) acting trivially on R^2, sigma(e) = x2 dx1, no twist: the IM
    # conditions hold (rho = 0 and one section has no brackets), but
    # d sigma(e) = dx2 ^ dx1 differs from i_{rho(e)} phi = 0
    D = lg.action_algebroid(lg.torus(1), Chart(("x1", "x2")),
                            lambda u, x: list(x),
                            lambda x: jets.stack([[x[1], 0.0]]))
    pts = samples(np.random.default_rng(40), 2, 4, 0.4)
    assert cartan_closed_residual(D, None, pts) == pytest.approx(
        (0.0, 1.0, 0.0))
    assert im_conditions_residual(D, None, pts) == pytest.approx((0.0, 0.0))


@pytest.mark.parametrize("name", ["so3", "su2", "torus2"])
def test_im_conditions_on_conjugation_algebroids(name):
    D, phi = amm_algebroid(name)
    pts = samples(np.random.default_rng(41), D.chart.dim, 3, 0.4)
    r1, r2 = im_conditions_residual(D, phi, pts)
    assert max(r1, r2) <= 1e-12


def test_im_conditions_on_coadjoint_algebroid():
    D = coadjoint_algebroid()
    pts = samples(np.random.default_rng(42), 3, 3, 0.8)
    assert im_conditions_residual(D, None, pts) == (0.0, 0.0)


def test_im_conditions_reject_negated_dual_and_missing_twist():
    D, phi = amm_algebroid("so3")
    pts = samples(np.random.default_rng(41), 3, 3, 0.4)
    negated = AnchoredDual(D.chart, D.rho, lambda x: -D.rho_star(x),
                           D.structure)
    assert im_conditions_residual(negated, phi, pts)[1] > 1e-2
    assert im_conditions_residual(D, None, pts)[1] > 1e-2
