"""Leafwise calculus, the transverse invariant, and foliation groupoids."""

import numpy as np
import pytest

from diracgeo import foliation as fo
from diracgeo.geometry import Form, component_jacobian, coordinates


FOL = fo.CoordFoliation(3, 2)


def samples(rng, n=3, k=6):
    return [list(v) for v in rng.uniform(-1, 1, (k, n))]


def test_foliation_validation():
    with pytest.raises(ValueError):
        fo.CoordFoliation(2, 3)
    assert FOL.transverse == (2,)


def test_leafwise_d_matches_partial_derivatives():
    f = Form.function(FOL.chart, "x1*x2 + x3*x1")
    df = fo.d_F(FOL, f)
    p = [0.3, -0.6, 0.9]
    # only leaf derivatives appear: d_F f = (x2 + x3) dx1 + x1 dx2
    assert df.at(p)[0] == pytest.approx(-0.6 + 0.9)
    assert df.at(p)[1] == pytest.approx(0.3)


def test_leafwise_d_squared_zero():
    rng = np.random.default_rng(50)
    f = Form.function(FOL.chart, "x3*x1 + sin(x2)")
    assert fo.max_abs(fo.d_F(FOL, fo.d_F(FOL, f)), samples(rng)) == 0.0
    big = fo.CoordFoliation(4, 3)
    w = Form.from_components(big.chart, 1, {(0,): "x2*x4", (2,): "exp(x1)"})
    assert fo.max_abs(fo.d_F(big, fo.d_F(big, w)), samples(rng, 4)) < 1e-12


def test_leafwise_degree_overflow():
    # a leafwise 2-form on 2-dimensional leaves is top degree: d_F of it
    # vanishes, exactly
    rng = np.random.default_rng(59)
    top = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    assert fo.max_abs(fo.d_F(FOL, top), samples(rng)) == 0.0


def test_d_nu_on_reference_form():
    # theta = x3 dx1^dx2 extended verbatim: d_nu theta = dx1^dx2 (x) dx3
    rng = np.random.default_rng(51)
    theta = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    ext = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    pts = samples(rng)
    dn = fo.d_nu(FOL, theta, ext, pts)
    for p in pts:
        assert dn.at(p)[0, 1, 2] == pytest.approx(1.0, abs=1e-12)


def test_d_nu_rejects_bad_extension():
    theta = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    wrong = Form.from_components(FOL.chart, 2, {(0, 1): "x3 + x1"})
    rng = np.random.default_rng(52)
    with pytest.raises(ValueError):
        fo.d_nu(FOL, theta, wrong, samples(rng))


def test_d_nu_independent_of_extension():
    # two extensions differing by terms that vanish on leaf pairs give the
    # same transverse derivative components on leaf-leaf-transverse triples
    rng = np.random.default_rng(53)
    theta = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    ext1 = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    ext2 = Form.from_components(FOL.chart, 2, {(0, 1): "x3", (0, 2): "x2*x3"})
    pts = samples(rng)
    d1 = fo.d_nu(FOL, theta, ext1, pts)
    d2 = fo.d_nu(FOL, theta, ext2, pts)
    # the defect is d of a form vanishing on F in leaf-leaf-transverse slots:
    # here d(x2*x3 dx1^dx3) contributes x3 dx2^dx1^dx3 -- nonzero, so the
    # raw components can differ; what is extension-independent is the class
    # modulo d_F of conormal-valued 1-forms.  For this pair the difference
    # is exactly d_F(u) with u = -x2*x3 (dx1 (x) dx3):
    diff = d1 - d2
    u = Form.from_components(FOL.chart, 2, {(0, 2): "-x2*x3"})
    dfu = fo.d_F(FOL, u)
    assert fo.max_abs(diff - dfu, pts) < 1e-12


def test_classifying_rep_matches_d_nu():
    rng = np.random.default_rng(54)
    theta = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    ext = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    pts = samples(rng)
    u = fo.classifying_rep(FOL, ext)
    dn = fo.d_nu(FOL, theta, ext, pts)
    assert fo.max_abs(u - dn, pts) < 1e-12


def test_classifying_rep_is_generic_over_jets():
    # its components differentiate like those of any form: at jets it has
    # the component Jacobian of the transverse derivative
    fol = fo.CoordFoliation(4, 2)
    ext = Form.from_components(fol.chart, 2, {(0, 1): "x3*sin(x4) + x1*x2*x3",
                                              (0, 2): "x2*x4",
                                              (1, 3): "x1^2*x4"})
    P = np.random.default_rng(58).uniform(-1.0, 1.0, (5, 4))
    got = component_jacobian(fo.classifying_rep(fol, ext), coordinates(P))
    want = component_jacobian(fo.d_nu(fol, ext, ext, P), coordinates(P))
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got - want)) < 1e-12


def test_closed_extension_gives_zero_class():
    rng = np.random.default_rng(55)
    ext = Form.from_components(FOL.chart, 2, {(0, 1): "1.0"})
    u = fo.classifying_rep(FOL, ext)
    assert fo.max_abs(u, samples(rng)) < 1e-12


def test_twisted_shift_identity():
    rng = np.random.default_rng(56)
    ext = Form.from_components(FOL.chart, 2, {(0, 1): "x3"})
    phi = Form.from_components(FOL.chart, 3, {(0, 1, 2): "sin(x3) + x1"})
    assert fo.twisted_shift_residual(FOL, ext, phi, samples(rng)) < 1e-12


def test_foliation_groupoid_structure_and_form():
    from diracgeo.groupoid import (check_multiplicative, classify)
    G, F = fo.foliation_groupoid(3, 2)
    rng = np.random.default_rng(57)
    assert max(G.structure_residuals(rng, 6).values()) < 1e-12
    assert check_multiplicative(G, F, rng, 6) < 1e-10
    rep = classify(G, F, rng, 5, 10)
    assert rep["flags"]["is_presymplectic"] is True
    assert rep["flags"]["is_symplectic"] is False


def test_induced_structure_is_leaf_conormal_sum():
    from diracgeo.groupoid import induced_dirac
    G, F = fo.foliation_groupoid(3, 2)
    L = induced_dirac(G, F, [0.2, -0.4, 0.7])
    assert L == fo.leaf_conormal_dirac(3, 2)
