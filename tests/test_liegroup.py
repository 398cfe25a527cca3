"""Matrix groups in exponential charts and their canonical forms."""

import dataclasses
import math

import numpy as np
import pytest

from diracgeo import cli, fixtures, jets
from diracgeo import liegroup as lg
from diracgeo.geometry import (Form, block, component_jacobian, coordinates,
                               ext_d)
from diracgeo.jets import value_of
from diracgeo.linear import LinearDirac, mT


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


# -- closed-form derivatives against the jet pass ---------------------------

def _close(got, ref, exact):
    """Within 1e-14 max(1, |v|), or byte for byte where exact (and the
    same shape either way)."""
    assert np.shape(got) == np.shape(ref)
    if exact:
        assert np.ascontiguousarray(got).tobytes() \
            == np.ascontiguousarray(ref).tobytes()
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def _jet_derivative(matrix, d, point):
    """dM[..., i, j, l] = d_l M_ij from one jet pass."""
    D = jets.stack(jets.jacobian(lambda q: list(np.ravel(matrix(q))), point))
    return D.reshape(D.shape[:-2] + (d,) * 3)


@pytest.mark.parametrize("name", ["lam", "lam_bar"])
@pytest.mark.parametrize("group", ["so3", "su2", "torus1", "torus2"])
def test_chart_matrix_derivatives_match_the_jet_pass(group, name):
    # at each point as floats, at the stacks of the series (s < 1e-4) and
    # of the exact branch (s > 1), and at the stack that mixes both; on
    # the tori to the bit
    Gp = lg.GROUPS[group]()
    matrix, jet = (getattr(Gp, name + k) for k in ("_matrix", "_jet"))
    P = chart_points(Gp.dim)
    s = np.sum(P * P, axis=1)
    for point in [p.tolist() for p in P] + [
            list(Q.T) for Q in (P[s < 1e-4], P[s > 1.0], P)]:
        M, dM = jet(point)
        assert np.asarray(M).tobytes() == np.asarray(matrix(point)).tobytes()
        _close(dM, _jet_derivative(matrix, Gp.dim, point),
               group.startswith("torus"))


FORMS = {"amm-so3": lambda: lg.amm_groupoid(lg.so3())[1].omega,
         "amm-su2": lambda: lg.amm_groupoid(lg.su2())[1].omega,
         "amm-torus2": lambda: lg.amm_groupoid(lg.torus(2))[1].omega,
         "coadjoint-so3": lambda: lg.coadjoint_groupoid(lg.so3())[1].omega,
         "coadjoint-su2": lambda: lg.coadjoint_groupoid(lg.su2())[1].omega}


def _jet_form(w):
    """w without its closed-form Jacobian: d w by a jet pass."""
    return Form(w.chart, w.degree, w.components)


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("size", [None, 1, 8, 64])
def test_form_jacobians_match_the_jet_pass(name, size):
    # at one float point (size None) and at stacks; on the torus to the bit
    w = FORMS[name]()
    P = np.random.default_rng(24).uniform(-0.7, 0.7,
                                          (size or 1, w.chart.dim))
    p = coordinates(P if size else P[0])
    assert w.jacobian is not None
    _close(component_jacobian(w, p), component_jacobian(_jet_form(w), p),
           name == "amm-torus2")
    _close(ext_d(w).at(P), ext_d(_jet_form(w)).at(P), name == "amm-torus2")


def test_second_derivative_of_amm_form_keeps_the_nested_pass():
    # at jet points the closed form stands aside: d omega differentiated
    # once more is the nested jet pass, to the bit
    w = FORMS["amm-so3"]()
    P = np.random.default_rng(25).uniform(-0.7, 0.7, (8, 6))
    got, ref = (component_jacobian(ext_d(f), coordinates(P))
                for f in (w, _jet_form(w)))
    assert got.shape == (8, 6, 6, 6, 6)
    assert got.tobytes() == ref.tobytes()


# the algebroids of the two actions on algebra coordinates: (group, amm)
ADJOINT = {"amm-so3": ("so3", True), "amm-su2": ("su2", True),
           "amm-torus2": ("torus2", True), "coadjoint-so3": ("so3", False),
           "coadjoint-su2": ("su2", False)}


@pytest.mark.parametrize("name", sorted(ADJOINT))
@pytest.mark.parametrize("size", [None, 1, 8, 64, "mixed"])
def test_closed_form_frame_jet_matches_the_jet_pass(name, size):
    # the builders' frame jet against action_algebroid's, whose anchor and
    # frame jet are jet passes: at one point (size None), at stacks and at
    # the chart points, which mix the series and exact branches; on the
    # torus to the bit.  The constant d rho is broadcast to the stack
    group, amm = ADJOINT[name]
    Gp = lg.GROUPS[group]()
    D = lg.adjoint_algebroid(Gp, Gp.chart, amm)
    action = lg.conjugation_action if amm else lg.coadjoint_action
    ref = lg.action_algebroid(Gp, Gp.chart, action(Gp), lg.amm_rho_star(Gp)
                              if amm else lambda x: np.eye(Gp.dim))
    assert D.frame_jet is not None and ref.frame_jet is None
    P = chart_points(Gp.dim) if size == "mixed" else np.random.default_rng(
        26).uniform(-0.7, 0.7, (size or 1, Gp.dim))
    p = coordinates(P if size else P[0])
    for got, want in zip(D.jet(p), ref.jet(p)):
        _close(np.broadcast_to(got, np.shape(want)), want,
               group.startswith("torus"))
    # the frame itself is the one the reference differentiates
    _close(np.broadcast_to(D.frame(p), np.shape(ref.frame(p))), ref.frame(p),
           group.startswith("torus"))


def amm_closed_formula(Gp, P):
    """The AMM form by its closed formula, at a (B, 2d) stack:
    1/2 (P^T Ad^T P - P^T Ad P + P^T Q - Q^T P) with P = [lam_g, 0] and
    Q = [0, lam_x + lam_bar_x]."""
    d = Gp.dim
    u, x = list(P[:, :d].T), list(P[:, d:].T)
    A, Z = Gp.Ad_matrix(x), np.zeros((len(P), d, d))
    Pm = block([[Gp.lam_matrix(u), Z]])
    Qm = block([[Z, Gp.lam_matrix(x) + Gp.lam_bar_matrix(x)]])
    return 0.5 * (mT(Pm) @ mT(A) @ Pm - mT(Pm) @ A @ Pm + mT(Pm) @ Qm
                  - mT(Qm) @ Pm)


@pytest.mark.parametrize("group", ["so3", "su2", "torus2"])
def test_amm_form_matches_the_closed_formula(group):
    # the fixture's omega, general_action_form of the conjugation
    # algebroid, against the AMM formula, at a point and at a stack
    Gp = lg.GROUPS[group]()
    omega = lg.amm_groupoid(Gp)[1].omega
    P = np.random.default_rng(19).uniform(-0.4, 0.4, (16, 2 * Gp.dim))
    ref = amm_closed_formula(Gp, P)
    assert np.max(np.abs(ref)) > 0.1
    assert np.all(np.abs(omega.at(P) - ref) <= 1e-14)
    assert np.all(np.abs(omega.at(P[0]) - ref[0]) <= 1e-14)


@pytest.mark.parametrize("name, slot, fails", [
    ("amm-so3", 2, True), ("amm-so3", 3, True), ("coadjoint-so3", 2, True),
    ("coadjoint-so3", 3, False), ("amm-torus2", 2, False),
    ("amm-torus2", 3, False)])
def test_rel_closed_fails_on_a_wrong_sign_in_the_frame_jet(
        name, slot, fails, monkeypatch):
    # d rho (slot 2) or d sigma (slot 3) negated in the closed-form frame
    # jet breaks d omega.  The defect does not exist on amm-torus2 (rho = 0
    # and d sigma = 0) nor in d sigma on coadjoint-so3 (sigma = I): there
    # rel-closed reads what it reads on the true form
    def residual():
        return cli.CHECKS["rel-closed"](fixtures.load(name),
                                        np.random.default_rng(42),
                                        cli.DEFAULT_POLICY)

    true, real = residual(), lg.adjoint_algebroid

    def planted(*args):
        D = real(*args)

        def frame_jet(x):
            J = list(D.frame_jet(x))
            J[slot] = -J[slot]
            return tuple(J)

        return dataclasses.replace(D, frame_jet=frame_jet)

    monkeypatch.setattr(lg, "adjoint_algebroid", planted)
    if fails:
        assert residual() > 1e-2
    else:
        assert residual() == true


@pytest.mark.parametrize("name", ["amm-so3", "coadjoint-so3"])
@pytest.mark.parametrize("defect", ["_E", "_F_PRIME"])
def test_rel_closed_fails_on_a_wrong_sign_in_the_closed_form(
        name, defect, monkeypatch):
    # rel-closed reads d omega from the closed form: dK/du_l (the terms
    # 2 u_l alpha' K and alpha E_l) or df/ds negated breaks it
    real = getattr(lg, defect)
    monkeypatch.setattr(lg, defect, -real if defect == "_E"
                        else lambda *args: -real(*args))
    residual = cli.CHECKS["rel-closed"](fixtures.load(name),
                                        np.random.default_rng(42),
                                        cli.DEFAULT_POLICY)
    assert residual > 1e-2


def test_amm_form_makes_no_jacobian_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("jets.jacobian called")

    monkeypatch.setattr(jets, "jacobian", refuse)
    P = np.random.default_rng(23).uniform(-0.4, 0.4, (16, 6))
    assert FORMS["amm-so3"]().at(P).shape == (16, 6, 6)


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
    # the frame is cartan_frame, to the bit, and rho and rho_star are its
    # slices
    for name in ("so3", "su2", "torus2"):
        Gp = lg.GROUPS[name]()
        u = list(np.random.default_rng(3).uniform(-0.5, 0.5, (Gp.dim, 4)))
        want = lg.cartan_frame(Gp, u)
        D = lg.cartan_dirac_frame(Gp)
        F = D.frame(u)
        assert F.shape == want.shape
        assert np.array_equal(F.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(D.rho(u), want[..., :Gp.dim, :])
        assert np.array_equal(D.rho_star(u),
                              np.swapaxes(want[..., Gp.dim:, :], -1, -2))
        # the torus frame is constant, with no batch axis
        one = F.reshape((-1,) + F.shape[-2:])[0]
        assert LinearDirac.from_span(one).dim == Gp.dim


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


@pytest.mark.parametrize("group", ["so3", "su2"])
def test_coadjoint_anchor_matches_the_jet_anchor(group):
    # the closed-form anchor [., xi] against the Jacobian of the coadjoint
    # action at the identity: omega at a point and at a stack, and d omega,
    # which differentiates the anchor, to the bit
    Gp = getattr(lg, group)()
    G, F = lg.coadjoint_groupoid(Gp)
    D = lg.action_algebroid(Gp, G.base, lg.coadjoint_action(Gp),
                            lambda x: np.eye(3))
    ref = lg.general_action_form(Gp, D)
    P = G.arrows.draw(np.random.default_rng(21), 16)
    for got, want in ((F.omega.at(P), ref.at(P)),
                      (F.omega.at(P[0]), ref.at(P[0])),
                      (ext_d(F.omega).at(P), ext_d(ref).at(P))):
        assert got.tobytes() == want.tobytes()


def test_coadjoint_action_preserves_pairing():
    Gp = lg.so3()
    act = lg.coadjoint_action(Gp)
    rng = np.random.default_rng(21)
    u = rand_alg(rng, 3)
    xi = rand_alg(rng, 3, 1.0)
    v = rand_alg(rng, 3, 1.0)
    lhs = np.dot(vals(act(u, xi)), vals(Gp.Ad(u, v)))
    assert lhs == pytest.approx(np.dot(xi, v), abs=1e-10)
