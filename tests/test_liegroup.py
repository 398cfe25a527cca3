"""Matrix groups in exponential charts and their canonical forms."""

import math

import numpy as np
import pytest

from diracgeo import jets
from diracgeo import liegroup as lg
from diracgeo.geometry import Chart
from diracgeo.jets import value_of
from diracgeo.linear import LinearDirac


def vals(seq):
    return np.array([value_of(c) for c in seq])


def rand_alg(rng, d, scale=0.6):
    return list(rng.uniform(-scale, scale, d))


# -- chart-level group laws -------------------------------------------------

@pytest.mark.parametrize("name", ["so3", "su2", "torus2"])
def test_group_axioms_in_chart(name):
    Gp = lg.GROUPS[name]()
    rng = np.random.default_rng(10)
    for _ in range(6):
        u, v, w = (rand_alg(rng, Gp.dim) for _ in range(3))
        e = Gp.identity()
        assert np.allclose(vals(Gp.mul(u, e)), u, atol=1e-12)
        assert np.allclose(vals(Gp.mul(e, u)), u, atol=1e-12)
        assert np.allclose(vals(Gp.mul(u, Gp.inv(u))), e, atol=1e-12)
        ab_c = Gp.mul(Gp.mul(u, v), w)
        a_bc = Gp.mul(u, Gp.mul(v, w))
        assert np.allclose(vals(ab_c), vals(a_bc), atol=1e-10)


@pytest.mark.parametrize("name", ["so3", "su2", "torus2"])
def test_chart_mul_matches_matrix_embedding(name):
    Gp = lg.GROUPS[name]()
    rng = np.random.default_rng(11)
    for _ in range(5):
        u, v = rand_alg(rng, Gp.dim), rand_alg(rng, Gp.dim)
        Mu = np.array([[value_of(c) for c in row] for row in Gp.embed(u)])
        Mv = np.array([[value_of(c) for c in row] for row in Gp.embed(v)])
        w = Gp.mul(u, v)
        Mw = np.array([[value_of(c) for c in row] for row in Gp.embed(w)])
        assert np.allclose(Mu @ Mv, Mw, atol=1e-10)


def test_so3_embed_small_angle_branch():
    # |u|^2 = 1e-14 takes the series branch of the Rodrigues formula
    Gp = lg.so3()
    R = np.array([[value_of(c) for c in row]
                  for row in Gp.embed([1e-7, 0.0, 0.0])])
    c, s = math.cos(1e-7), math.sin(1e-7)
    assert np.allclose(R, [[1, 0, 0], [0, c, -s], [0, s, c]],
                       rtol=0.0, atol=1e-15)


def test_so3_embed_is_rotation():
    Gp = lg.so3()
    u = [0.0, 0.0, 0.5]
    R = np.array([[value_of(c) for c in row] for row in Gp.embed(u)])
    c, s = math.cos(0.5), math.sin(0.5)
    assert np.allclose(R, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-12)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_chart_radius_guard():
    Gp = lg.so3()
    with pytest.raises(lg.ChartRadiusError):
        Gp.check_radius([3.0, 1.0, 0.0])
    Gp.check_radius([0.5, 0.5, 0.5])
    lg.torus(1).check_radius([10.0])


# -- Maurer-Cartan, adjoint, translations -----------------------------------

MATRICES = ["lam_matrix", "lam_bar_matrix", "Ad_matrix", "left_matrix",
            "right_matrix"]


def reference_matrix(Gp, name, u):
    """The chart matrix by its definition: the Jacobian at 0 of a chart
    curve v -> ... through the group law."""
    moved = lambda v: [a + b for a, b in zip(u, v)]  # noqa: E731
    curve = {"lam_matrix": lambda v: Gp.mul(Gp.inv(u), moved(v)),
             "lam_bar_matrix": lambda v: Gp.mul(moved(v), Gp.inv(u)),
             "Ad_matrix": lambda v: Gp.mul(Gp.mul(u, v), Gp.inv(u)),
             "left_matrix": lambda v: Gp.mul(u, v),
             "right_matrix": lambda v: Gp.mul(v, u)}[name]
    return jets.stack(jets.jacobian(curve, Gp.identity()))


def chart_points(d):
    """A (B, d) stack whose squared norms s lie below, between and above
    the series cuts (s = 1e-4 and s = 1), up to near the chart radius."""
    rng = np.random.default_rng(22)
    s = np.array([0.0, 1e-14, 5e-11, 2e-10, 9.9e-5, 1.01e-4, 0.09, 0.5,
                  0.999, 1.001, 2.0, 6.0, (0.9 * math.pi - 1e-6) ** 2])
    dirs = rng.standard_normal((len(s), d))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None] * np.sqrt(s)[:, None]


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("group", ["so3", "su2", "torus1", "torus2"])
def test_closed_forms_match_the_curve_jacobians(group, name):
    Gp = lg.GROUPS[group]()
    P = chart_points(Gp.dim)
    stacked = getattr(Gp, name)([c for c in P.T])
    for p, M in zip(P, np.broadcast_to(stacked, (len(P), Gp.dim, Gp.dim))):
        ref = reference_matrix(Gp, name, p.tolist())
        assert np.allclose(getattr(Gp, name)(p.tolist()), ref, rtol=0,
                           atol=1e-14)
        assert np.allclose(M, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("group", ["so3", "su2", "torus1", "torus2"])
def test_closed_form_derivatives_match_the_nested_jacobians(group, name):
    # first derivatives of every entry, at single points and at the stack
    Gp = lg.GROUPS[group]()
    P = chart_points(Gp.dim)[1:]   # the curve Jacobian is not smooth at 0

    def entries(f):
        return lambda q: list(np.ravel(f(q)))

    def both(point):
        return [jets.stack(jets.jacobian(entries(f), point)) for f in (
            getattr(Gp, name), lambda q: reference_matrix(Gp, name, q))]

    got, ref = both([c for c in P.T])
    assert np.all(np.abs(got - ref) <= 1e-13)
    for p in P:
        got, ref = both(p.tolist())
        assert np.all(np.abs(got - ref) <= 1e-13)


def test_amm_form_makes_no_jacobian_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("jets.jacobian called")

    monkeypatch.setattr(jets, "jacobian", refuse)
    P = np.random.default_rng(23).uniform(-0.4, 0.4, (16, 6))
    assert lg.amm_omega(lg.so3()).at(P).shape == (16, 6, 6)


@pytest.mark.parametrize("name", ["so3", "su2"])
def test_adjoint_is_orthogonal_algebra_morphism(name):
    Gp = lg.GROUPS[name]()
    rng = np.random.default_rng(12)
    for _ in range(5):
        u = rand_alg(rng, 3)
        A = Gp.Ad_matrix(u)
        assert np.allclose(A @ A.T, np.eye(3), atol=1e-10)
        v, w = rand_alg(rng, 3), rand_alg(rng, 3)
        lhs = vals(Gp.bracket(Gp.Ad(u, v), Gp.Ad(u, w)))
        rhs = vals(Gp.Ad(u, Gp.bracket(v, w)))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_translations_relate_by_adjoint():
    # v_r at u equals (Ad_u v)_l at u
    Gp = lg.so3()
    rng = np.random.default_rng(13)
    for _ in range(5):
        u, v = rand_alg(rng, 3), rand_alg(rng, 3)
        vr = vals(Gp.right_translate(u, v))
        vl = vals(Gp.left_translate(u, [value_of(c) for c in Gp.Ad(Gp.inv(u), v)]))
        assert np.allclose(vr, vl, atol=1e-10)


def test_lam_inverts_left_translate():
    Gp = lg.su2()
    rng = np.random.default_rng(14)
    for _ in range(5):
        u, v = rand_alg(rng, 3), rand_alg(rng, 3)
        V = [value_of(c) for c in Gp.left_translate(u, v)]
        assert np.allclose(vals(Gp.lam(u, V)), v, atol=1e-10)
        W = [value_of(c) for c in Gp.right_translate(u, v)]
        assert np.allclose(vals(Gp.lam_bar(u, W)), v, atol=1e-10)


def test_metric_is_bi_invariant():
    Gp = lg.so3()
    rng = np.random.default_rng(15)
    for _ in range(4):
        u, v, w = (rand_alg(rng, 3) for _ in range(3))
        # ad-invariance: <[u,v], w> + <v, [u,w]> = 0
        s = (value_of(Gp.inner(Gp.bracket(u, v), w))
             + value_of(Gp.inner(v, Gp.bracket(u, w))))
        assert abs(s) < 1e-12


# -- Cartan 3-form and Cartan-Dirac structure -------------------------------

def test_cartan_form_closed_and_bi_invariant():
    Gp = lg.so3()
    phi = lg.cartan_form(Gp)
    from diracgeo.geometry import ext_d
    rng = np.random.default_rng(16)
    p = rand_alg(rng, 3, 0.5)
    for _ in range(3):
        u, v, w, z = rng.standard_normal((4, 3))
        assert value_of(ext_d(phi)(p, u, v, w, z)) == pytest.approx(0.0, abs=1e-10)
    # value at the identity is the structure-constant 3-form
    e = np.eye(3)
    assert phi([0.0] * 3, e[0], e[1], e[2]) == pytest.approx(
        0.5 * value_of(Gp.inner(e[0], Gp.bracket(e[1], e[2]))))


def test_torus_cartan_form_vanishes():
    Gp = lg.torus(2)
    phi = lg.cartan_form(Gp)
    rng = np.random.default_rng(17)
    for _ in range(3):
        u, v, w = rng.standard_normal((3, 2))
        assert phi([0.3, -0.4], u, v, w) == 0.0


def test_cartan_dirac_at_identity_is_cotangent():
    # at e: v_r - v_l = 0 and (v_r+v_l)/2 = v, so L_e = {0} + T*_e
    from diracgeo import linear
    Gp = lg.so3()
    L = lg.cartan_dirac(Gp, [0.0, 0.0, 0.0])
    Tstar = linear.LinearDirac.from_span(
        np.vstack([np.zeros((3, 3)), np.eye(3)]))
    assert L == Tstar


def test_cartan_dirac_frame_integrable_against_cartan_form():
    # sampled frame-bracket residual of the Cartan-Dirac structure vanishes
    # against the Cartan 3-form
    from diracgeo.courant import integrability_residual
    Gp = lg.so3()
    rng = np.random.default_rng(18)
    pts = [rand_alg(rng, 3, 0.5) for _ in range(4)]
    assert integrability_residual(lg.cartan_dirac_frame(Gp),
                                  lg.cartan_form(Gp), pts) < 1e-9


def test_cartan_dirac_frame_is_cartan_frame():
    P = np.array([[0.2, -0.1, 0.3], [0.1, 0.4, -0.2]])
    for Gp in (lg.so3(), lg.su2()):
        F = lg.cartan_dirac_frame(Gp).frame(list(P.T))
        assert np.array_equal(F, lg.cartan_frame(Gp, list(P.T)))
        assert LinearDirac.from_span(F[0]).dim == 3


@pytest.mark.parametrize("name", ["so3", "su2", "torus2"])
def test_cartan_dirac_frame_satisfies_the_im_conditions(name):
    # the pairing of frame brackets cannot see the twist: the tangent parts
    # v_r - v_l span the conjugacy classes, of dimension 2 on so3, where
    # every 3-form vanishes; the IM conditions read phi on the anchor
    from diracgeo.courant import im_conditions_residual
    Gp = lg.GROUPS[name]()
    rng = np.random.default_rng(19)
    pts = [rand_alg(rng, Gp.dim, 0.5) for _ in range(3)]
    r1, r2 = im_conditions_residual(lg.cartan_dirac_frame(Gp),
                                    lg.cartan_form(Gp), pts)
    assert max(r1, r2) <= 1e-12


def test_cartan_dirac_frame_im_conditions_see_twist_and_structure():
    from diracgeo.courant import AnchoredDual, im_conditions_residual
    Gp = lg.so3()
    D = lg.cartan_dirac_frame(Gp)
    rng = np.random.default_rng(19)
    pts = [rand_alg(rng, 3, 0.5) for _ in range(3)]
    assert im_conditions_residual(D, None, pts)[1] > 1e-2
    flipped = AnchoredDual(D.chart, D.rho, D.rho_star, Gp.struct)
    assert im_conditions_residual(flipped, lg.cartan_form(Gp),
                                  pts)[1] > 1e-2


# -- AMM and coadjoint forms ------------------------------------------------

def test_amm_omega_equals_general_action_form():
    Gp = lg.so3()
    omega = lg.amm_omega(Gp)
    D = lg.action_algebroid(Gp, Chart(Gp.chart_names()),
                            lg.conjugation_action(Gp), lg.amm_rho_star(Gp))
    built = lg.general_action_form(Gp, D)
    rng = np.random.default_rng(19)
    for _ in range(5):
        p = rand_alg(rng, 6, 0.4)
        u, v = rng.standard_normal((2, 6))
        assert value_of(omega(p, u, v)) == pytest.approx(
            value_of(built(p, u, v)), abs=1e-12)


def test_coadjoint_form_is_canonical_symplectic():
    Gp = lg.so3()
    _, F = lg.coadjoint_groupoid(Gp)
    can = lg.canonical_cotangent_form(Gp)
    rng = np.random.default_rng(20)
    for _ in range(5):
        p = list(rng.uniform(-0.4, 0.4, 3)) + list(rng.uniform(-1, 1, 3))
        u, v = rng.standard_normal((2, 6))
        assert value_of(F.omega(p, u, v)) == pytest.approx(
            value_of(can(p, u, v)), abs=1e-12)


def test_coadjoint_action_preserves_pairing():
    Gp = lg.so3()
    act = lg.coadjoint_action(Gp)
    rng = np.random.default_rng(21)
    u = rand_alg(rng, 3)
    xi = rand_alg(rng, 3, 1.0)
    v = rand_alg(rng, 3, 1.0)
    lhs = np.dot(vals(act(u, xi)), vals(Gp.Ad(u, v)))
    assert lhs == pytest.approx(np.dot(xi, v), abs=1e-10)
