"""Equivariant action data: closedness, invariance, and slice cocycles."""

import numpy as np
import pytest

from diracgeo import liegroup as lg
from diracgeo.courant import AnchoredDual, im_conditions_residual
from diracgeo.equivariant import (action_axiom_residual,
                                  cartan_closed_residual, cocycle_residual,
                                  group_invariance_residual, slice_form)
from diracgeo.geometry import Chart, Form


def amm_algebroid(name="so3", rho_star=None):
    """The conjugation action algebroid with the dual amm_rho_star (or the
    given one) and the Cartan 3-form."""
    Gp = lg.GROUPS[name]()
    act = lg.conjugation_action(Gp)
    D = lg.action_algebroid(Gp, Chart(Gp.chart_names()), act,
                            rho_star or lg.amm_rho_star(Gp))
    return Gp, act, D, lg.cartan_form(Gp)


def coadjoint_algebroid(name="so3"):
    Gp = lg.GROUPS[name]()
    act = lg.coadjoint_action(Gp)
    D = lg.action_algebroid(Gp, Chart(tuple(f"x{i+1}" for i in range(Gp.dim))),
                            act, lambda x: np.eye(Gp.dim))
    return Gp, act, D, None


def sample_pts(rng, m, k=4, scale=0.4):
    return [list(rng.uniform(-scale, scale, m)) for _ in range(k)]


def test_action_axioms_amm_and_coadjoint():
    rng = np.random.default_rng(30)
    for make in (amm_algebroid, coadjoint_algebroid):
        Gp, act, D, _ = make()
        assert action_axiom_residual(Gp, act, D.chart.dim, rng, 6) < 1e-10


def test_conjugation_triple_satisfies_all_conditions():
    rng = np.random.default_rng(31)
    _, _, D, phi = amm_algebroid("so3")
    r1, r2, r3 = cartan_closed_residual(D, phi, sample_pts(rng, 3))
    assert r1 < 1e-12
    assert r2 < 1e-10
    assert r3 < 1e-10


def test_conjugation_triple_su2():
    rng = np.random.default_rng(32)
    _, _, D, phi = amm_algebroid("su2")
    r1, r2, r3 = cartan_closed_residual(D, phi, sample_pts(rng, 3, k=3))
    assert max(r1, r2, r3) < 1e-10


def test_coadjoint_triple_satisfies_all_conditions():
    rng = np.random.default_rng(33)
    _, _, D, phi = coadjoint_algebroid()
    r1, r2, r3 = cartan_closed_residual(D, phi, sample_pts(rng, 3, scale=0.8))
    assert max(r1, r2, r3) < 1e-12


def test_wrong_dual_breaks_isotropy():
    # doubling rho* breaks nothing (r1 is still <rho*(v), rho(v)> = 0 for
    # conjugation), but swapping in a constant covector does
    _, _, D, phi = amm_algebroid(
        "so3", lambda x: np.eye(3) + np.outer(np.ones(3), [1.0, 0.0, 0.0]))
    rng = np.random.default_rng(34)
    r1, r2, r3 = cartan_closed_residual(D, phi, sample_pts(rng, 3, k=2))
    assert max(r1, r2, r3) > 1e-2


def test_missing_twist_detected():
    # the conjugation dual pair needs the Cartan 3-form; dropping it breaks r2
    _, _, D, _ = amm_algebroid("so3")
    rng = np.random.default_rng(35)
    pts = [list(rng.uniform(0.2, 0.5, 3)) for _ in range(2)]
    _, r2, _ = cartan_closed_residual(D, None, pts)
    assert r2 > 1e-3


def test_group_level_invariance():
    rng = np.random.default_rng(36)
    for make in (amm_algebroid, coadjoint_algebroid):
        Gp, act, D, _ = make()
        assert group_invariance_residual(Gp, act, D, rng, 5) < 1e-10


def test_slice_form_reads_base_block():
    Gp = lg.so3()
    omega = lg.amm_omega(Gp)
    g = [0.2, -0.1, 0.3]
    x = [0.1, 0.4, -0.2]
    X, Xp = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    direct = omega(list(g) + list(x),
                   [0.0] * 3 + X, [0.0] * 3 + Xp)
    assert slice_form(omega, 3, g, x, X, Xp) == pytest.approx(direct)


def test_cocycle_identity_amm_form():
    Gp, act, _, _ = amm_algebroid("so3")
    rng = np.random.default_rng(37)
    assert cocycle_residual(Gp, act, lg.amm_omega(Gp), rng, 5) < 1e-10


def test_cocycle_identity_survives_gauge_shift():
    # adding t*B - s*B for a base 2-form B keeps the cocycle identity
    from diracgeo.geometry import ChartMap, pullback
    Gp, act, _, _ = amm_algebroid("so3")
    omega = lg.amm_omega(Gp)
    bch = Chart(("x1", "x2", "x3"))
    ch = omega.chart
    B = Form.from_components(bch, 2, {(0, 1): "x3", (1, 2): "x1"})
    tmap = ChartMap(ch, bch,
                    lambda p: lg.conjugate(Gp, p[:3], p[3:]))
    smap = ChartMap(ch, bch, lambda p: list(p[3:]))
    gauged = omega + pullback(tmap, B) - pullback(smap, B)
    rng = np.random.default_rng(38)
    assert cocycle_residual(Gp, act, gauged, rng, 4) < 1e-10


def test_cocycle_detects_non_multiplicative_form():
    # an arbitrary 2-form on the total space fails the identity
    Gp, act, _, _ = amm_algebroid("so3")
    ch = lg.amm_omega(Gp).chart
    bad = Form.from_components(ch, 2, {(0, 4): "1.0", (3, 5): "x1"})
    rng = np.random.default_rng(39)
    assert cocycle_residual(Gp, act, bad, rng, 5) > 1e-3


def test_cartan_closedness_is_stronger_than_the_im_conditions():
    # torus(1) acting trivially on R^2, sigma(e) = x2 dx1, no twist: the IM
    # conditions hold (rho = 0 and one section has no brackets), but
    # d sigma(e) = dx2 ^ dx1 differs from i_{rho(e)} phi = 0
    Gp = lg.torus(1)
    D = lg.action_algebroid(Gp, Chart(("x1", "x2")), lambda u, x: list(x),
                            lambda x: np.array([[x[1], 0.0]]))
    pts = sample_pts(np.random.default_rng(40), 2)
    assert cartan_closed_residual(D, None, pts) == pytest.approx(
        (0.0, 1.0, 0.0))
    assert im_conditions_residual(D, None, pts) == pytest.approx((0.0, 0.0))


@pytest.mark.parametrize("name", ["so3", "su2", "torus2"])
def test_im_conditions_on_conjugation_algebroids(name):
    _, _, D, phi = amm_algebroid(name)
    pts = sample_pts(np.random.default_rng(41), D.chart.dim, k=3)
    r1, r2 = im_conditions_residual(D, phi, pts)
    assert max(r1, r2) <= 1e-12


def test_im_conditions_on_coadjoint_algebroid():
    _, _, D, _ = coadjoint_algebroid()
    pts = sample_pts(np.random.default_rng(42), 3, k=3, scale=0.8)
    assert im_conditions_residual(D, None, pts) == (0.0, 0.0)


def test_im_conditions_reject_negated_dual_and_missing_twist():
    Gp, _, D, phi = amm_algebroid("so3")
    pts = sample_pts(np.random.default_rng(41), 3, k=3)
    negated = AnchoredDual(D.chart, D.rho, lambda x: -D.rho_star(x),
                           D.structure)
    assert im_conditions_residual(negated, phi, pts)[1] > 1e-2
    assert im_conditions_residual(D, None, pts)[1] > 1e-2
