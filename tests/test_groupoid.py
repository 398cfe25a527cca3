"""Multiplicative-form checks on chart groupoids."""

import numpy as np
import pytest

from diracgeo import fixtures, linear
from diracgeo.geometry import Form, chart, pullback
from diracgeo.groupoid import (RankInstabilityError,
                               check_kernel_orthogonality,
                               check_multiplicative, check_orbit_form,
                               check_rel_closed, check_unit_identities,
                               classify, extract_rho_star, gauge,
                               induced_dirac, kernel_of_form)


def rng_for(name):
    return np.random.default_rng([7, sum(name.encode())])


def test_structure_residuals_all_fixtures():
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        res = fx["groupoid"].structure_residuals(rng_for(name), n=6)
        assert max(res.values()) < 1e-9, (name, res)


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_fixture_forms_live_on_the_groupoid_charts(name):
    # omega on the arrows; phi, every base form, the path-space algebroid
    # and the group on the units; phi pulls back along s and t
    fx = fixtures.load(name)
    G, F = fx["groupoid"], fx["form"]
    assert (G.s.source, G.s.target, G.t.source, G.t.target) == \
        (G.chart, G.base) * 2
    assert (G.unit.source, G.unit.target) == (G.base, G.chart)
    assert F.omega.chart == G.chart
    on_base = [fx[k] for k in ("theta", "leafwise", "twist", "group")
               if k in fx]
    if "paths" in fx:
        on_base.append(fx["paths"](2)[0].pres)
    for w in on_base + [F.phi] * (F.phi is not None):
        assert w.chart == G.base, (name, w)
    if F.phi is not None:
        g = G.arrows.draw(rng_for(name), 2)
        for f in (G.s, G.t):
            assert pullback(f, F.phi).at(g).shape == (2,) + (G.chart.dim,) * 3


def test_multiplicativity_all_fixtures():
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        r = check_multiplicative(fx["groupoid"], fx["form"], rng_for(name), 6)
        assert r < 1e-8, (name, r)


def test_relative_closedness_all_fixtures():
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        r = check_rel_closed(fx["groupoid"], fx["form"], rng_for(name), 6)
        assert r < 1e-8, (name, r)


def test_unit_and_inversion_identities():
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        r_eps, r_inv = check_unit_identities(fx["groupoid"], fx["form"],
                                             rng_for(name), 6)
        assert r_eps < 1e-8, (name, r_eps)
        assert r_inv < 1e-8, (name, r_inv)


def test_kernel_orthogonality_regular_fixtures():
    for name in sorted(fixtures.FIXTURES):
        if name == "nondirac-flow":
            continue
        fx = fixtures.load(name)
        r = check_kernel_orthogonality(fx["groupoid"], fx["form"],
                                       rng_for(name), 6)
        assert r < 1e-8, (name, r)


def test_orbit_form_where_theta_known():
    for name in ["pair-groupoid-r2", "twisted-pair-r3", "nondirac-flow"]:
        fx = fixtures.load(name)
        r = check_orbit_form(fx["groupoid"], fx["form"], fx["theta"],
                             rng_for(name), 6)
        assert r < 1e-10, (name, r)


def test_classification_flags_match_expectations():
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        rep = classify(fx["groupoid"], fx["form"], rng_for(name),
                       n_units=6, n_arrows=12)
        for flag, want in fx["expected_flags"].items():
            assert rep["flags"][flag] == want, (name, flag, rep["flags"])
        if name != "nondirac-flow":
            residuals = rep["residuals"]
            assert max(residuals.values()) < 1e-8, (name, residuals)


def test_flow_counterexample_witness():
    fx = fixtures.load("nondirac-flow")
    rep = classify(fx["groupoid"], fx["form"], rng_for("flow"),
                   n_units=8, n_arrows=16)
    assert rep["flags"]["is_dirac_type"] is False
    w = rep["worst_points"]["dirac_type"]
    # the rank jump happens over the points (1, 0) and (-1, 0)
    sx = np.array(w["s"])
    d = min(np.linalg.norm(sx - [1, 0]), np.linalg.norm(sx - [-1, 0]))
    dt = np.array(w["t"])
    d = min(d, np.linalg.norm(dt - [1, 0]), np.linalg.norm(dt - [-1, 0]))
    assert d < 1e-2
    assert w["dim_ker_arrow"] != w["expected"]


def test_rho_star_pair_groupoid():
    # pair groupoid of (R^2, dx^dy): A_x = Ker ds = {(u, 0)},
    # rho = id, rho* = omega-flat
    fx = fixtures.load("pair-groupoid-r2")
    sp = extract_rho_star(fx["groupoid"], fx["form"], [0.3, -0.5])
    assert sp.rho.shape == (2, 2)
    # rho has full rank (transitive groupoid)
    assert np.linalg.matrix_rank(sp.rho) == 2
    # rho*(a)(rho(b)) is antisymmetric and matches omega_M = dx^dy
    M = sp.rho_star @ sp.rho
    assert np.max(np.abs(M + M.T)) < 1e-12
    # pairing values reproduce omega_M up to the sign of the anchor basis
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-9


def test_induced_dirac_pair_groupoid_is_graph():
    fx = fixtures.load("pair-groupoid-r2")
    L = induced_dirac(fx["groupoid"], fx["form"], [0.4, 0.1])
    theta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert L == linear.from_form(theta)


def test_induced_dirac_twisted_pair():
    fx = fixtures.load("twisted-pair-r3")
    z = 0.7
    L = induced_dirac(fx["groupoid"], fx["form"], [0.2, -0.1, z])
    theta = np.array([[0.0, z, 0.0], [-z, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert L == linear.from_form(theta)


def test_gauge_preserves_multiplicativity_and_shifts_phi():
    fx = fixtures.load("twisted-pair-r3")
    bch = chart("x1", "x2", "x3")
    B = Form.from_components(bch, 2, {(0, 2): "x2", (1, 2): "x1*x3"})
    F2 = gauge(fx["groupoid"], fx["form"], B)
    rng = rng_for("gauge")
    assert check_multiplicative(fx["groupoid"], F2, rng, 5) < 1e-8
    assert check_rel_closed(fx["groupoid"], F2, rng, 5) < 1e-8
    # gauging by a closed form leaves phi unchanged
    Bc = Form.from_components(bch, 2, {(0, 1): "1.0"})
    F3 = gauge(fx["groupoid"], fx["form"], Bc)
    p = [0.1, 0.2, 0.5]
    u, v, w = np.eye(3)
    assert F3.phi(p, u, v, w) == pytest.approx(
        fx["form"].phi(p, u, v, w), abs=1e-12)


def test_unknown_fixture_raises():
    with pytest.raises(KeyError):
        fixtures.load("no-such-fixture")


def test_induced_dirac_equals_cartan_dirac_near_an_axis():
    # the first induced-dirac unit of amm-so3 at seed 7 lies near the x2
    # axis, where the RREF forms of the two spans had entries of 2e4 that
    # differed by 5e-8 although the spans agree to 1e-14
    from diracgeo import liegroup as lg
    fx = fixtures.load("amm-so3")
    rng = np.random.default_rng([7] + list(b"induced-dirac"))
    x = fx["groupoid"].units.draw(rng, 1)[0].tolist()
    assert x == pytest.approx([0.002, 0.343, 0.008], abs=5e-4)
    L1 = induced_dirac(fx["groupoid"], fx["form"], x)
    L2 = lg.cartan_dirac(fx["group"], x)
    assert L1 == L2


def test_rank_decision_near_the_threshold_is_refused():
    # 5e-9 and 5e-10 lie within a decade of the threshold 1e-9 on either
    # side, so the rank is indeterminate
    with pytest.raises(RankInstabilityError):
        kernel_of_form(np.diag([1.0, 5e-9, 5e-10]), "probe")
