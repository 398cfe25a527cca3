"""Twisted Courant bracket, anchored dual pairs as frames of TM + T*M,
the integrability of a Dirac frame, and the IM and Cartan-closedness
conditions.  The package reads all of them from one frame jet; the
composite bracket below, built from the lazy Lie derivative, interior
product and exterior derivative of geometry, is the reference they are
compared with."""

from itertools import combinations, permutations

import numpy as np
import pytest

from diracgeo import courant, fixtures, jets, linear, liegroup as lg
from diracgeo import foliation as fo
from diracgeo.courant import (AnchoredDual, cartan_closed_residual,
                              frame_brackets, graph_of_form,
                              im_conditions_residual, integrability_residual)
from diracgeo.geometry import (Chart, Form, VectorField, coordinates, ext_d,
                               interior, lie_derivative)
from diracgeo.groupoid import max_abs, worst_of
from references import (action_algebroid, chart, expression_field,
                        triple_product)


CH2 = chart("x", "y")
CH3 = chart("x", "y", "z")


# -- the composite reference ------------------------------------------------

def lie_bracket(X, Y):
    """[X, Y] = DY.X - DX.Y, two directional jet passes."""
    def ev(p):
        dY = jets.directional(Y, p, X(p))
        dX = jets.directional(X, p, Y(p))
        return [a - b for a, b in zip(dY, dX)]

    return VectorField(X.chart, ev)


def courant_bracket(a, b, phi=None):
    """[(X,xi),(Y,eta)]_phi = ([X,Y], L_X eta - i_Y d xi + phi(X,Y,.)) for
    sections given as (vector field, 1-form) pairs."""
    (X, xi), (Y, eta) = a, b
    zeta = lie_derivative(X, eta) - interior(Y, ext_d(xi))
    if phi is not None:
        zeta = zeta + interior(Y, interior(X, phi))
    return lie_bracket(X, Y), zeta


def dual(D, i):
    """sigma(a_i) as a 1-form."""
    return Form(D.chart, 1, lambda p: D.rho_star(p)[..., i, :])


def frame_section(D, i):
    """(rho(a_i), sigma(a_i)) as a section of TM + T*M."""
    return D.anchor(i), dual(D, i)


def bracket_dual(D, i, j):
    """sigma([a_i, a_j]) as a 1-form."""
    return Form(D.chart, 1, lambda p, c=D.structure[i, j]: c @ D.rho_star(p))


def reference_im_totals(D, phi):
    """d_A sigma(a_i, a_j) - i_{rho(a_i) ^ rho(a_j)} phi for i < j, with
    d_A sigma(a,b) = sigma([a,b]) - L_a sigma(b) + L_b sigma(a)
    + d<sigma(b), rho(a)>."""
    totals = []
    for i, j in combinations(range(D.rank), 2):
        X, Y = D.anchor(i), D.anchor(j)
        total = bracket_dual(D, i, j) - lie_derivative(X, dual(D, j)) \
            + lie_derivative(Y, dual(D, i)) + ext_d(interior(X, dual(D, j)))
        if phi is not None:
            total = total - interior(Y, interior(X, phi))
        totals.append(total)
    return totals


def reference_isotropy(D, P):
    S = D.rho_star(coordinates(P)) @ D.rho(coordinates(P))
    return worst_of(0.0, np.abs(S + linear.mT(S)))


def reference_im_conditions(D, phi, P):
    return reference_isotropy(D, P), worst_of(
        0.0, *(max_abs(w, P) for w in reference_im_totals(D, phi)))


def reference_cartan_closed(D, phi, P):
    closed = []
    for i in range(D.rank):
        w = -ext_d(dual(D, i))
        closed.append(w if phi is None else w + interior(D.anchor(i), phi))
    invariant = [lie_derivative(D.anchor(i), dual(D, j)) - bracket_dual(D, i, j)
                 for i, j in permutations(range(D.rank), 2)]
    return (reference_isotropy(D, P),
            worst_of(0.0, *(max_abs(w, P) for w in closed)),
            worst_of(0.0, *(max_abs(w, P) for w in invariant)))


def reference_integrability(D, phi, P):
    F = D.frame(coordinates(P))
    for Fp in np.broadcast_to(F, (len(P),) + F.shape[-2:]):
        linear.LinearDirac.from_span(Fp)   # raises where it degenerates
    worst = 0.0
    for i, j in combinations(range(D.rank), 2):
        Z, zeta = courant_bracket(frame_section(D, i), frame_section(D, j),
                                  phi)
        row = np.concatenate(np.broadcast_arrays(
            zeta.at(P)[:, None, :], jets.stack([Z(coordinates(P))])),
            axis=-1)
        worst = worst_of(worst, np.abs(row @ F))
    return worst


def section(ch, vec, cov):
    return (expression_field(ch, vec),
            Form.from_components(ch, 1, {(i,): c for i, c in enumerate(cov)}))


def samples(rng, n, k=6, scale=1.0):
    return [list(rng.uniform(-scale, scale, n)) for _ in range(k)]


def test_untwisted_bracket_on_exact_sections():
    # [(X, df), (Y, dg)] has covector part L_X dg - i_Y d(df) = d(X g)
    f = Form.function(CH3, "x*y")
    g = Form.function(CH3, "z^2")
    X = expression_field(CH3, ["y", "0.0", "x"])
    Y = expression_field(CH3, ["z", "x", "1.0"])
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


@pytest.mark.parametrize("rows, error, i", [
    ([[0.5, 0.0], [0.0, 0.0], [0.5, 0.3], [0.0, 0.0]],
     linear.DegenerateRankError, 1),
    ([[0.5, 0.0], [0.5, 0.3], [0.0, 0.0], [0.5, 0.3]], ValueError, 1),
    ([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
     linear.DegenerateRankError, 3)])
def test_frame_validation_names_the_first_failing_sample(rows, error, i):
    # rho = diag(1, x), sigma = diag(0, y): rank 1 where x = y = 0, and
    # <a_2, a_2> = 2xy; the stacked validation raises the error of the
    # per-sample loop, at its sample
    D = AnchoredDual(CH2, lambda p: jets.stack([[1.0, 0.0], [0.0, p[0]]]),
                     lambda p: jets.stack([[0.0, 0.0], [0.0, p[1]]]),
                     np.zeros((2, 2, 2)))
    P = np.array(rows)
    with pytest.raises(error) as looped:
        for p in P:
            linear.LinearDirac.from_span(D.frame(p.tolist()))
    with pytest.raises(error, match=f" at sample {i}$") as stacked:
        integrability_residual(D, None, P)
    assert type(stacked.value) is type(looped.value)
    assert str(stacked.value) == f"{looped.value} at sample {i}"


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
    D = action_algebroid(Gp, Gp.chart, triple_product(Gp),
                         rho_star or lg.amm_rho_star(Gp))
    return D, lg.cartan_form(Gp)


def coadjoint_algebroid(name="so3"):
    Gp = lg.GROUPS[name]()
    return action_algebroid(Gp, Chart.numbered(x=Gp.dim), triple_product(Gp),
                            lambda x: np.eye(Gp.dim))


def test_conjugation_triple_satisfies_all_conditions():
    rng = np.random.default_rng(31)
    D, phi = amm_algebroid("so3")
    r1, r2, r3 = cartan_closed_residual(D, phi, samples(rng, 3, 4, 0.4))
    assert r1 < 1e-12
    assert r2 < 1e-10
    assert r3 < 1e-10


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
    D = action_algebroid(lg.torus(1), Chart(("x1", "x2")),
                            lambda u, x: list(x),
                            lambda x: jets.stack([[x[1], 0.0]]))
    pts = samples(np.random.default_rng(40), 2, 4, 0.4)
    assert cartan_closed_residual(D, None, pts) == pytest.approx(
        (0.0, 1.0, 0.0))
    assert im_conditions_residual(D, None, pts) == pytest.approx((0.0, 0.0))


@pytest.mark.parametrize("name", ["so3", "torus2"])
def test_im_conditions_on_conjugation_algebroids(name):
    D, phi = amm_algebroid(name)
    pts = samples(np.random.default_rng(41), D.chart.dim, 3, 0.4)
    r1, r2 = im_conditions_residual(D, phi, pts)
    assert max(r1, r2) <= 1e-12


def test_im_conditions_on_coadjoint_algebroid():
    # exactly 0 on the package's closed-form anchor [., xi], to rounding on
    # the jet anchor of the triple product
    pts = samples(np.random.default_rng(42), 3, 3, 0.8)
    D = lg.adjoint_algebroid(lg.so3(), Chart.numbered(x=3), False)
    assert im_conditions_residual(D, None, pts) == (0.0, 0.0)
    assert max(im_conditions_residual(coadjoint_algebroid(), None,
                                      pts)) <= 1e-15


def test_im_conditions_reject_negated_dual_and_missing_twist():
    D, phi = amm_algebroid("so3")
    pts = samples(np.random.default_rng(41), 3, 3, 0.4)
    negated = AnchoredDual(D.chart, D.rho, lambda x: -D.rho_star(x),
                           D.structure)
    assert im_conditions_residual(negated, phi, pts)[1] > 1e-2
    assert im_conditions_residual(D, None, pts)[1] > 1e-2


# -- the frame jet against the composite reference --------------------------

def polynomial_sigma(p):
    return jets.stack([[p[1], p[0] * p[2], 1.0], [0.0, p[2], p[0]],
                       [p[1] * p[1], 0.0, p[2]]])


def cartan_dirac(name):
    Gp = lg.GROUPS[name]()
    return lg.cartan_dirac_frame(Gp), lg.cartan_form(Gp)


def fixture_graph(name, entry, twist):
    fx = fixtures.load(name)
    return graph_of_form(fx[entry]), twist(fx)


# name: () -> (anchored dual, twist or None)
ALGEBROIDS = {
    **{f"conjugation-{g}": lambda g=g: amm_algebroid(g)
       for g in ("so3", "torus2")},
    "coadjoint-so3": lambda: (coadjoint_algebroid(), None),
    **{f"so3-anchor{s:+.0f}": lambda s=s: (
        so3_anchor(polynomial_sigma, s),
        Form.from_components(CH3, 3, {(0, 1, 2): "x*y - z"}))
       for s in (1.0, -1.0)},
    "twisted-pair-r3": lambda: fixture_graph(
        "twisted-pair-r3", "theta", lambda fx: fx["form"].phi),
    **{f"cartan-dirac-{g}": lambda g=g: cartan_dirac(g)
       for g in ("so3", "torus2")},
    "foliated-r3": lambda: fixture_graph(
        "foliated-r3", "leafwise", lambda fx: fx["twist"]),
}


def assert_close(got, ref):
    """Elementwise within 1e-14 max(1, |ref|), as the stacked evaluations
    that go through transcendentals are held to the per-point ones."""
    got, ref = np.broadcast_arrays(np.asarray(got, float),
                                   np.asarray(ref, float))
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def vectors(X, P):
    """The (B, n) values of a vector field at the stack P."""
    v = jets.stack([X(coordinates(P))])[..., 0, :]
    return np.broadcast_to(v, (len(P), v.shape[-1]))


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_frame_jet_matches_the_composite_reference(name):
    D, phi = ALGEBROIDS[name]()
    P = np.random.default_rng(43).uniform(-0.4, 0.4, (4, D.chart.dim))
    J = D.jet(coordinates(P))
    Phi = None if phi is None else phi.at(P)
    a, b = np.triu_indices(D.rank, 1)     # the pairs i < j in order
    Z, zeta = frame_brackets(J, Phi, a, b)
    totals = courant._im_totals(D, J, Phi)
    references = reference_im_totals(D, phi)
    for k, (i, j) in enumerate(zip(a, b)):
        ref_Z, ref_zeta = courant_bracket(frame_section(D, i),
                                          frame_section(D, j), phi)
        assert_close(Z[..., k, :], vectors(ref_Z, P))
        assert_close(zeta[..., k, :], ref_zeta.at(P))
        assert_close(totals[..., k, :], references[k].at(P))
    assert_close(im_conditions_residual(D, phi, P),
                 reference_im_conditions(D, phi, P))
    assert_close(cartan_closed_residual(D, phi, P),
                 reference_cartan_closed(D, phi, P))
    if D.rank != D.chart.dim:
        return
    try:
        ref = reference_integrability(D, phi, P)
    except ValueError:      # not a Dirac frame at a sample
        with pytest.raises(ValueError):
            integrability_residual(D, phi, P)
    else:
        assert_close(integrability_residual(D, phi, P), ref)


# -- one frame jet per call --------------------------------------------------

def counted_passes(monkeypatch):
    """The nesting depth of every jet pass from now on: 0 for a pass that
    runs inside no other pass."""
    depths, depth = [], [0]
    for entry in ("jacobian", "directional"):
        real = getattr(jets, entry)

        def counted(*args, real=real):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(jets, entry, counted)
    return depths


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_each_residual_makes_one_frame_jet_pass(name, monkeypatch):
    # one pass over the frame, plus the passes that evaluating the frame
    # makes on its own (the jet pass of action_algebroid's anchor)
    D, phi = ALGEBROIDS[name]()
    P = np.random.default_rng(44).uniform(-0.4, 0.4, (8, D.chart.dim))
    residuals = [im_conditions_residual, cartan_closed_residual]
    try:
        integrability_residual(D, phi, P)
        residuals.append(integrability_residual)
    except ValueError:      # not a Dirac frame
        pass
    depths = counted_passes(monkeypatch)
    D.frame(coordinates(P))
    own = len(depths)
    for residual in residuals:
        del depths[:]
        residual(D, phi, P)
        assert (depths.count(0), len(depths)) == (1, 1 + own), residual


@pytest.mark.parametrize("twisted", [False, True])
def test_classifying_rep_makes_one_jet_pass(twisted, monkeypatch):
    fx = fixtures.load("foliated-r3")
    u = fo.classifying_rep(fx["foliation"], fx["leafwise"],
                           fx["twist"] if twisted else None)
    P = np.random.default_rng(45).uniform(-1.0, 1.0, (8, 3))
    depths = counted_passes(monkeypatch)
    u.at(P)
    assert depths == [0]
