"""Twisted Courant bracket, almost-Dirac frames, anchored dual pairs."""

import numpy as np
import pytest

from diracgeo.courant import (AlmostDiracField, AnchoredDual, Section,
                              anchor_bracket_residual, courant_bracket,
                              graph_of_form, im_conditions_residual,
                              integrability_residual, pair_sections)
from diracgeo.geometry import Chart, Form, VectorField, chart, ext_d
from diracgeo.pathspace import tangent_presentation


CH2 = chart("x", "y")
CH3 = chart("x", "y", "z")


def section(ch, vec, cov):
    return Section(VectorField.from_components(ch, vec),
                   Form.from_components(ch, 1,
                                        {(i,): c for i, c in enumerate(cov)}))


def samples(rng, n, k=6):
    return [list(rng.uniform(-1, 1, n)) for _ in range(k)]


def test_section_validation():
    with pytest.raises(ValueError):
        Section(VectorField.from_components(CH2, ["x", "y"]),
                Form.from_components(CH2, 2, {(0, 1): "1.0"}))


def test_untwisted_bracket_on_exact_sections():
    # [(X, df), (Y, dg)] has covector part L_X dg - i_Y d(df) = d(X g)
    f = Form.function(CH3, "x*y")
    g = Form.function(CH3, "z^2")
    X = VectorField.from_components(CH3, ["y", "0.0", "x"])
    Y = VectorField.from_components(CH3, ["z", "x", "1.0"])
    a = Section(X, ext_d(f))
    b = Section(Y, ext_d(g))
    br = courant_bracket(a, b)
    # oracle: d(X g) - the derivative of g along X differentiated again
    Xg = Form(CH3, 0, lambda p: ext_d(g)(p, X(p)))
    oracle = ext_d(Xg)
    rng = np.random.default_rng(0)
    for p in samples(rng, 3):
        for e in np.eye(3):
            assert br.xi(p, list(e)) == pytest.approx(
                oracle(p, list(e)), abs=1e-12)


def test_twist_term_is_additive():
    phi = Form.from_components(CH3, 3, {(0, 1, 2): "x + 2.0"})
    a = section(CH3, ["1.0", "y", "0.0"], ["z", "0.0", "x"])
    b = section(CH3, ["0.0", "x", "1.0"], ["y", "x*z", "0.0"])
    plain = courant_bracket(a, b)
    twisted = courant_bracket(a, b, phi)
    rng = np.random.default_rng(1)
    for p in samples(rng, 3):
        for e in np.eye(3):
            diff = twisted.xi(p, list(e)) - plain.xi(p, list(e))
            assert diff == pytest.approx(phi(p, a.X(p), b.X(p), list(e)),
                                         abs=1e-13)


def test_graph_of_form_evaluates_to_linear_graph():
    from diracgeo import linear
    omega = Form.from_components(CH2, 2, {(0, 1): "x + 2.0"})
    L = graph_of_form(omega)
    p = [0.5, -0.3]
    theta = np.array([[0.0, 2.5], [-2.5, 0.0]])
    assert L.dirac_at(p) == linear.from_form(theta)


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
    omega = Form.from_components(CH2, 2, {(0, 1): "sin(x) + 2.0"})
    L = graph_of_form(omega)
    rng = np.random.default_rng(4)
    for p in samples(rng, 2):
        for a in L.frame:
            for b in L.frame:
                assert pair_sections(a, b, p) == pytest.approx(0.0, abs=1e-13)


def test_frame_size_validation():
    omega = Form.from_components(CH2, 2, {(0, 1): "1.0"})
    L = graph_of_form(omega)
    with pytest.raises(ValueError):
        AlmostDiracField(L.frame[:1])


# -- anchored dual pairs ----------------------------------------------------

def rotation_pair():
    """Rank-1 pair on R^2: rho = the rotation field, rho* = x dx + y dy."""
    return AnchoredDual(CH2, lambda p: np.array([[p[1]], [-p[0]]]),
                        lambda p: np.array([[p[0], p[1]]]), np.zeros((1, 1, 1)))


def so3_anchor(sigma, sign=1.0):
    """The rotation generators on R^3 with structure c[i, j, k] = -sign for
    (i, j, k) cyclic and the dual sigma."""
    def rho(p):
        x, y, z = p
        return np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])

    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k], c[j, i, k] = -sign, sign
    return AnchoredDual(CH3, rho, sigma, c)


def test_anchor_bracket_residual_abelian():
    D = rotation_pair()
    rng = np.random.default_rng(5)
    assert anchor_bracket_residual(D, samples(rng, 2)) < 1e-12


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
                     lambda p: np.array([[0.0, p[0]]]), np.zeros((1, 1, 1)))
    rng = np.random.default_rng(7)
    r1, _ = im_conditions_residual(D, None, samples(rng, 2))
    assert r1 > 1e-2


@pytest.mark.parametrize("phi, r2", [(-1.0, 0.0), (1.0, 2.0), (None, 1.0)])
def test_im_conditions_tangent_presentation(phi, r2):
    # rho* = flat of x3 dx1^dx2 has d rho* = dx1^dx2^dx3, which the
    # differential condition matches against -phi
    D = tangent_presentation({(0, 1): "x3"}, 3)
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


def test_structure_functions_so3_anchor():
    # generators of rotations on R^3 with c^k_{ij} the epsilon symbol
    D = so3_anchor(lambda p: np.zeros((3, 3)))
    rng = np.random.default_rng(8)
    assert anchor_bracket_residual(D, samples(rng, 3)) < 1e-12
