"""Batched evaluation: a stack of sample points against the per-point loop,
the number of jet passes and SVDs a check makes, one SVD per run of
byte-equal matrices, one classify per scenario, and sample-indexed
errors."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from diracgeo import cli, expr, fixtures, jets, linear
from diracgeo import foliation as FO
from diracgeo import groupoid as GR
from diracgeo import liegroup as LG
from diracgeo import pathspace as PS
from diracgeo import realization as RZ
from diracgeo import courant
from diracgeo.courant import AnchoredDual
from diracgeo.geometry import (ChartMap, Form, component_jacobian,
                               coordinates, ext_d, lie_derivative,
                               map_jacobian, pullback)
from references import chart, expression_map

# These fixtures' maps and these checks' forms go through sin, cos or
# atan2, which numpy's array loops and math need not round alike in the
# last place; everything else is the same arithmetic in the same order, so
# it must agree to the bit.
THROUGH_TRANSCENDENTALS = {"amm-so3", "coadjoint-so3",
                           "nondirac-flow", "leafwise-d-squared",
                           "twisted-shift"}


def _agree(name, batched, single):
    single = np.asarray(single, dtype=float)
    assert batched.shape == single.shape
    if name in THROUGH_TRANSCENDENTALS:
        assert np.all(np.abs(batched - single)
                      <= 1e-14 * np.maximum(1.0, np.abs(single)))
    else:   # the sign of 0.0 too
        assert np.array_equal(*(np.ascontiguousarray(a, float).view(
            np.uint64) for a in (batched, single)))


def _jacobians_one_by_one(f, P):
    return [jets.jacobian(f, [float(c) for c in p]) for p in P]


def _stacked(f, P, *Y):
    """map_jacobian(f, P, *Y) broadcast over the stack P; f's constant
    matrix comes back as it is."""
    J = map_jacobian(f, P, *Y)
    if not callable(f.jacobian):
        assert J is f.jacobian
    return np.broadcast_to(J, P.shape[:-1] + J.shape[-2:])


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("size", [1, 8, 64])
def test_stack_matches_the_per_point_loop(name, size):
    fx = fixtures.load(name)
    G, F = fx["groupoid"], fx["form"]
    rng = np.random.default_rng(42)
    P = G.arrows.draw(rng, size)
    X = G.s.at(P)
    Z = G.pairs.draw(rng, size)
    _agree(name, F.omega.at(P), [F.omega.at(p) for p in P])
    if F.phi is not None:
        _agree(name, F.phi.at(X), [F.phi.at(x) for x in X])
    for f, points in ((G.s, P), (G.t, P), (G.inv, P), (G.unit, X),
                      (G.mul, Z)):
        _agree(name, _stacked(f, points), _jacobians_one_by_one(f, points))


# -- closed-form Jacobians of the groupoids' structure maps ----------------

CHART_GROUPS = ["amm-so3", "amm-torus2", "coadjoint-so3"]
COORDINATE = ["foliated-r3", "nondirac-flow", "pair-groupoid-r2",
              "twisted-pair-r3"]
# |u| on both sides of the cuts in |u|^2 at 1e-4 and 1 and near the chart
# radius 0.9 pi
NORMS = [1e-9, 5e-3, 0.0099, 0.0101, 0.5, 0.999, 1.001, 2.0, 2.7]


def _group_norm(M, G, r):
    """M with the group coordinates of each of its arrows scaled to |u| = r."""
    d, N = G.chart.dim - G.base.dim, G.chart.dim
    M = M.copy()
    for a in range(0, M.shape[1], N):
        u = M[:, a:a + d]
        M[:, a:a + d] = u * (r / np.linalg.norm(u, axis=1, keepdims=True))
    return M


@pytest.mark.parametrize("name", CHART_GROUPS + COORDINATE)
@pytest.mark.parametrize("size", [None, 1, 8, 64])
def test_closed_form_jacobians_match_the_jet_pass(name, size):
    # at one float point (size None) and at stacks, with and without the
    # map's values; to the bit where no transcendental is involved, the
    # sign of 0.0 too (inv negates foliated-r3's slot rows, zeros included)
    G = fixtures.load(name)["groupoid"]
    rng = np.random.default_rng(3)
    for r in NORMS if name in CHART_GROUPS else [None]:
        P, Z = (S.draw(rng, size or 1) for S in (G.arrows, G.pairs))
        if r is not None:
            P, Z = _group_norm(P, G, r), _group_norm(Z, G, r)
        X = G.units.draw(rng, size or 1)
        for f, points in ((G.s, P), (G.t, P), (G.unit, X), (G.inv, P),
                          (G.mul, Z)):
            points = points if size else points[0]
            J = jets.jacobian(f.func, coordinates(points))
            J = np.broadcast_to(J, points.shape[:-1] + J.shape[-2:])
            closed = _stacked(f, points)
            _agree(name, closed, J)
            assert _stacked(f, points, f.at(points)).tobytes() \
                == closed.tobytes()
            if name not in THROUGH_TRANSCENDENTALS:
                assert np.ascontiguousarray(closed).tobytes() \
                    == np.ascontiguousarray(J).tobytes()


def test_jet_pass_of_a_map_without_closed_form_matches_the_per_point_loop():
    # no closed form, so a (B, n) stack goes through one batched jet pass;
    # no transcendental, so it agrees with the per-point passes to the bit
    ch = chart("x1", "x2", "x3")
    f = expression_map(ch, chart("y1", "y2"),
                       ["x1*x2 - x3^3", "(x1 - x3)/(2 + x2*x2)"])
    P = np.random.default_rng(5).uniform(-1.0, 1.0, (16, 3))
    _agree("expression-map", map_jacobian(f, P),
           _jacobians_one_by_one(f.func, P))


def _counted(f):
    """f with its evaluator counting its calls, and the list of them."""
    calls = []
    return ChartMap(f.source, f.target, lambda p: calls.append(p)
                    or f.func(p), f.jacobian), calls


@pytest.mark.parametrize("name, key", [("nondirac-flow", "t"),
                                       ("amm-so3", "mul")])
def test_closed_form_reads_held_values_and_evaluates_the_map_once(name, key):
    # with Y held the map is not evaluated, without it once, by f.at, and
    # the two Jacobians are byte-equal
    G = fixtures.load(name)["groupoid"]
    f, calls = _counted(getattr(G, key))
    P = (G.pairs if key == "mul" else G.arrows).draw(
        np.random.default_rng(8), 16)
    held = map_jacobian(f, P, getattr(G, key).at(P))
    assert not calls
    computed = map_jacobian(f, P)
    assert len(calls) == 1
    assert held.tobytes() == computed.tobytes()


@pytest.mark.parametrize("name", COORDINATE)
def test_constant_jacobian_through_coordinates_evaluates_no_map(name):
    # the constant matrix itself, and f* w evaluates f once, for w
    G = fixtures.load(name)["groupoid"]
    f, calls = _counted(G.s)
    P = G.arrows.draw(np.random.default_rng(9), 16)
    assert map_jacobian(f, coordinates(P)) is G.s.jacobian and not calls
    assert map_jacobian(f, coordinates(P[0])) is G.s.jacobian and not calls
    x = G.base.names
    w = Form.from_components(G.base, 1, {(0,): f"{x[0]}*{x[-1]}"})
    _agree(name, pullback(f, w).at(P), pullback(G.s, w).at(P))
    assert len(calls) == 1


@pytest.mark.parametrize("name", CHART_GROUPS + COORDINATE)
def test_no_jet_pass_through_a_structure_map(name, monkeypatch):
    # no check differentiates s, t, unit, inv or mul, nor pulls back along
    # them by a jet pass
    passes = _count_calls(monkeypatch, jets, ("jacobian",))
    fx = fixtures.load(name)
    G = fx["groupoid"]
    maps = [G.s, G.t, G.unit, G.inv, G.mul]
    for check in GROUPOID_CHECKS:
        if feeds(fx, check):
            cli.CHECKS[check](fx, np.random.default_rng(42),
                              cli.DEFAULT_POLICY)
    assert not [f for f, _ in passes
                if any(f is m or f is m.func for m in maps)]


@pytest.mark.parametrize("name", CHART_GROUPS)
def test_group_checks_make_no_jet_pass_but_the_frame_jet(name,
                                                        monkeypatch):
    # d omega reads omega's closed-form Jacobian, and that the closed-form
    # frame jet of its algebroid: none of the 7 group checks makes a jet
    # pass, through the quaternion chart or the frame
    fx = fixtures.load(name)
    passes = _count_calls(monkeypatch, jets, ("jacobian", "directional"))
    for check in GROUP_CHECKS:
        if feeds(fx, check):
            cli.CHECKS[check](fx, np.random.default_rng(42),
                              cli.DEFAULT_POLICY)
    assert passes == []


@pytest.mark.parametrize("name", ["amm-so3", "coadjoint-so3"])
def test_checks_fail_on_a_wrong_sign_in_the_action_derivative(
        name, monkeypatch):
    # the checks read the closed forms: D_u t negated breaks them
    real = LG.MatrixGroup.Ad_derivative
    monkeypatch.setattr(LG.MatrixGroup, "Ad_derivative",
                        lambda Gp, u, y: -real(Gp, u, y))
    fx = fixtures.load(name)
    for check in ["multiplicative", "kernel-orthogonality"]:
        residual = cli.CHECKS[check](fx, np.random.default_rng(42),
                                     cli.DEFAULT_POLICY)
        assert residual > 1e-2, check


def test_multiplicative_fails_on_a_wrong_sign_in_the_rotation_derivative(
        monkeypatch):
    # nondirac-flow's structure maps with the rotation's D_u negated, under
    # the form pulled back along the true rotation, break multiplicative.
    # A form pulled back along the same wrong t would make the defect the
    # tangent reflection u -> -u, to which every first-order check is blind
    fx = fixtures.load("nondirac-flow")
    real = fixtures.action_groupoid

    def planted(*args):
        *rest, act_jacobian = args

        def negated(u, y):
            Du, Dx = act_jacobian(u, y)
            return -Du, Dx

        return real(*rest, negated)

    monkeypatch.setattr(fixtures, "action_groupoid", planted)
    fx["groupoid"] = fixtures.load("nondirac-flow")["groupoid"]
    residual = cli.CHECKS["multiplicative"](fx, np.random.default_rng(42),
                                            cli.DEFAULT_POLICY)
    assert residual > 1e-2


def test_rel_closed_fails_on_a_wrong_sign_of_phi():
    # d omega, now t*d theta - s*d theta, against s*phi - t*phi
    fx = fixtures.load("twisted-pair-r3")
    fx["form"].phi = -fx["form"].phi
    residual = cli.CHECKS["rel-closed"](fx, np.random.default_rng(42),
                                        cli.DEFAULT_POLICY)
    assert residual > 1e-2


@pytest.mark.parametrize("name", COORDINATE)
def test_d_through_the_pullbacks_matches_the_jet_pass(name):
    # d(t*theta - s*theta) = t*d theta - s*d theta against the alternated
    # jet pass over the components, which nests a pass through s and t:
    # at a float stack, and differentiated once more at jet points, where
    # the pullbacks' own jet passes still nest; foliated-r3 gets a base
    # 2-form of its own, since its omega is no coboundary
    fx = fixtures.load(name)
    G = fx["groupoid"]
    theta = fx.get("theta") or Form.from_components(
        G.base, 2, {(0, 1): "x3*x1", (0, 2): "sin(x2)"})
    w = GR.coboundary(G, theta)
    plain = Form(w.chart, w.degree, w.components)
    P = G.arrows.draw(np.random.default_rng(6), 16)
    for got, ref in ((ext_d(w).at(P), ext_d(plain).at(P)),
                     *[[component_jacobian(ext_d(f), p) for f in (w, plain)]
                       for p in (coordinates(P), coordinates(P[0]))]):
        got, ref = np.asarray(got, float), np.asarray(ref, float)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0,
                                                              np.abs(ref)))


@pytest.mark.parametrize("name", CHART_GROUPS)
def test_no_check_repeats_a_chart_product(name, monkeypatch):
    # a Jacobian takes the values of t, inv and mul that its check holds,
    # so no check multiplies the same stacks twice
    products = []
    for cls in (LG._SO3, LG._Torus):
        def counted(Gp, u, v, real=cls.mul):
            products.append(np.stack(np.broadcast_arrays(*u, *v)).tobytes())
            return real(Gp, u, v)

        monkeypatch.setattr(cls, "mul", counted)
    fx = fixtures.load(name)
    for check in GROUPOID_CHECKS:
        if feeds(fx, check):
            del products[:]
            cli.CHECKS[check](fx, np.random.default_rng(42),
                              cli.DEFAULT_POLICY)
            assert len(set(products)) == len(products), check


@pytest.mark.parametrize("name", ["amm-so3", "amm-torus2"])
def test_unit_splitting_stack_matches_the_per_point_loop(name):
    # one (rho, rho*, W) of the unit stack, read by rho-star-half-flat and
    # induced-dirac, against the reading at each unit
    fx = fixtures.load(name)
    G, F = fx["groupoid"], fx["form"]
    X = G.units.draw(np.random.default_rng(42), 8)
    for i, part in enumerate(GR.unit_frame(G, F, X)):
        # rho is one matrix where dt is constant, as on the torus
        single = [GR.unit_frame(G, F, x)[i] for x in X]
        _agree(name, np.broadcast_to(part, np.shape(single)), single)
    _agree(name, GR.induced_span(G, F, X)[0],
           [GR.induced_span(G, F, x)[0] for x in X])


# -- the draw order: each stack against the per-point draws ---------------

def _signed(rng, lo, hi):
    return rng.uniform(lo, hi) * (1.0 if rng.uniform() < 0.5 else -1.0)


def _flow_circle():
    """The flow's base point, one per call: the i-th call on a generator
    is forced to the angle 0 or pi where i % 4 < 2 and draws nothing."""
    state = {"rng": None, "count": 0}

    def circle(rng):
        if rng is not state["rng"]:
            state["rng"], state["count"] = rng, 0
        i = state["count"]
        state["count"] += 1
        ang = [0.0, np.pi][i % 4] if i % 4 < 2 \
            else rng.uniform(0.0, 2 * np.pi)
        return [np.cos(ang), np.sin(ang)]

    return circle


def _u(lo, hi, d, scale=1.0):
    return lambda rng: list(rng.uniform(lo, hi, d) * scale)


def _action(G, group, base, near):
    def t(g):
        return [float(jets.value_of(c)) for c in G.t(g)]

    def arrow(rng):
        return group(rng) + base(rng)

    def pair(rng):
        g2 = arrow(rng)
        return group(rng) + t(g2) + g2

    def triple(rng):
        g3 = arrow(rng)
        g2 = near(rng) + t(g3)
        return near(rng) + t(g2) + g2 + g3

    return base, arrow, pair, triple


def _fiberwise(G, r, leaf, point):
    N = G.chart.dim

    def arrow(rng):
        return leaf(rng) + point(rng) + list(rng.uniform(-1.0, 1.0, r))

    def left_of(g, y, rng):
        return y + list(G.t(g)) + list(rng.uniform(-1.0, 1.0, r))

    def pair(rng):
        y = leaf(rng)
        g2 = arrow(rng)
        return left_of(g2, y, rng) + g2

    def triple(rng):
        y = leaf(rng)
        g23 = pair(rng)
        return left_of(g23[:N], y, rng) + g23

    return point, arrow, pair, triple


def _per_point(name, G):
    """The unit, arrow, pair and triple samplers of a fixture as they drew
    one point per call, with their rng.uniform calls in that order."""
    if name == "nondirac-flow":
        def tau(rng):
            return [_signed(rng, 0.3, 2.0)]
        return _action(G, tau, _flow_circle(), tau)
    if name == "coadjoint-so3":
        return _action(G, _u(-0.8, 0.8, 3, 0.5), _u(-1.0, 1.0, 3),
                       _u(-0.8, 0.8, 3, 0.4))
    if name.startswith("amm-"):
        d = G.base.dim
        return _action(G, _u(-0.7, 0.7, d, 0.5), _u(-0.7, 0.7, d, 0.5),
                       _u(-0.7, 0.7, d, 0.4))
    if name == "foliated-r3":
        return _fiberwise(G, 1, _u(-1.0, 1.0, 2), _u(-1.0, 1.0, 3))
    if name == "twisted-pair-r3":
        def point(rng):
            return list(rng.uniform(-1.0, 1.0, 2)) + [_signed(rng, 0.3, 1.0)]
        return _fiberwise(G, 0, point, point)
    return _fiberwise(G, 0, _u(-1.0, 1.0, 2), _u(-1.0, 1.0, 2))


SAMPLERS = ("units", "arrows", "pairs", "triples")


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacks_draw_in_the_per_point_order(name, n):
    G = fixtures.load(name)["groupoid"]
    for field, one in zip(SAMPLERS, _per_point(name, G)):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        _agree(name, getattr(G, field).draw(rng, n),
               [one(ref) for _ in range(n)])
        # and the generator is left where the per-point draws leave it
        assert rng.random() == ref.random()
    assert set(SAMPLERS) == {f.name for f in dataclasses.fields(G)
                             if isinstance(getattr(G, f.name), GR.Sampler)}


def test_flow_schedule_carries_across_draws_on_one_generator():
    # 3 units leave the schedule at an offset that is not a multiple of 4,
    # where the arrows go on; a fresh generator starts it again
    G = fixtures.load("nondirac-flow")["groupoid"]
    unit, arrow, pair, triple = _per_point("nondirac-flow", G)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for sampler, one, n in ((G.units, unit, 3), (G.arrows, arrow, 6)):
        _agree("nondirac-flow", sampler.draw(rng, n),
               [one(ref) for _ in range(n)])
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    _agree("nondirac-flow", G.triples.draw(rng, 5),
           [triple(ref) for _ in range(5)])
    assert rng.random() == ref.random()


def _so3_anchor(sigma):
    """The rotation generators on R^3, [a_i, a_j] = -a_k for (i, j, k)
    cyclic, with the dual sigma."""
    def rho(p):
        x, y, z = p
        return jets.stack([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])

    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k], c[j, i, k] = -1.0, 1.0
    return AnchoredDual(chart("x", "y", "z"), rho, sigma, c)


@pytest.mark.parametrize("size", [1, 8, 64])
def test_sampled_forms_match_the_per_point_loop(size):
    # the forms behind the foliation, quasi-hamiltonian and IM residuals
    fx = fixtures.load("foliated-r3")
    fol, ext, phi = fx["foliation"], fx["leafwise"], fx["twist"]
    P = np.random.default_rng(42).uniform(-1.0, 1.0, (size, 3))
    f = Form.function(fol.chart, "x3*x1 + sin(x2)")
    Q = RZ.rotation_quasi_ham(0.5)
    D = _so3_anchor(lambda p: jets.stack([[p[1], p[0] * p[2], 1.0],
                                          [0.0, p[2], p[0]],
                                          [p[1] * p[1], 0.0, p[2]]]))
    forms = {
        "leafwise-d-squared": (FO.d_F(fol, FO.d_F(fol, f)), P),
        "transverse-derivative": (FO.classifying_rep(fol, ext)
                                  - FO.d_nu(fol, ext, ext, P), P),
        "twisted-shift": (FO.classifying_rep(fol, ext, phi)
                          - FO.classifying_rep(fol, ext)
                          - FO.phi_bar(fol, phi), P),
        "quasi-ham": (lie_derivative(Q.D.anchor(0), Q.eta), P[:, :2]),
        "quasi-ham-dual": (lie_derivative(Q.D.anchor(0), Form(
            Q.D.chart, 1, lambda p: Q.D.rho_star(p)[..., 0, :])), P[:, :2])}
    for name, (w, points) in forms.items():
        _agree(name, w.at(points), [w.at(p) for p in points])
    twist = Form.from_components(D.chart, 3, {(0, 1, 2): "x*y - z"})

    def im_totals(points):
        return courant._im_totals(D, D.jet(coordinates(points)),
                                  twist.at(points))

    _agree("im-totals", im_totals(P), [im_totals(p) for p in P])


def test_stacked_realization_solve_matches_per_point_lstsq():
    # the stacked pseudo-inverse against numpy's least squares, one point
    # at a time: the same solution up to rounding
    Q = RZ.rotation_quasi_ham(0.5)
    P = RZ.annulus_samples(np.random.default_rng(42), 16)
    rep = RZ.equivalence_crosscheck(Q, P)
    for p, vecs in zip(P, rep["action_vectors"]):
        Dmu = jets.jacobian(Q.mu.func, list(p))
        frame = LG.cartan_dirac_frame(Q.group).frame(
            [jets.value_of(c) for c in Q.mu(p)])
        m = len(Dmu)
        X, *_ = np.linalg.lstsq(np.vstack([Dmu, Q.eta.at(p).T]),
                                np.vstack([frame[:m], Dmu.T @ frame[m:]]),
                                rcond=None)
        assert np.all(np.abs(np.array(vecs).T - X)
                      <= 1e-14 * np.maximum(1.0, np.abs(X)))


def _count_calls(monkeypatch, module, entries):
    """The list of the arguments of every call of the entries from now on."""
    calls = []
    for entry in entries:
        real = getattr(module, entry)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, entry, counted)
    return calls


GROUP_CHECKS = ["structure", "multiplicative", "rel-closed",
                "unit-identities", "kernel-orthogonality", "orbit-form",
                "classification"]
GROUPOID_CHECKS = GROUP_CHECKS + ["dirac-type", "rho-star-half-flat"]
SAMPLED_CHECKS = ["quasi-ham", "quasi-ham-negative", "equivalence-crosscheck",
                  "leafwise-d-squared", "transverse-derivative",
                  "twisted-shift"]


def feeds(fx, check):
    """Whether the fixture carries every entry the check reads."""
    return all(key in fx for key in cli.TABLE[check][2])


@pytest.mark.parametrize("name", ["twisted-pair-r3", "nondirac-flow",
                                  "foliated-r3", "amm-so3", "amm-torus2",
                                  "coadjoint-so3"])
def test_jet_passes_do_not_grow_with_the_samples(name, monkeypatch):
    # nor do the SVDs: every sampled check evaluates its stack at once
    passes = _count_calls(monkeypatch, jets, ("jacobian", "directional"))
    svds = _count_calls(monkeypatch, np.linalg, ("svd",))
    fed = fixtures.load(name)
    for check in GROUPOID_CHECKS + SAMPLED_CHECKS:
        if not feeds(fed, check):
            continue
        counts = []
        for samples in (8, 64):
            fx = fixtures.load(name)
            policy = dict(cli.DEFAULT_POLICY, samples=samples)
            del passes[:], svds[:]
            cli.CHECKS[check](fx, np.random.default_rng(42), policy)
            counts.append((len(passes), len(svds)))
        assert counts[0] == counts[1], (check, counts)


# these checks read no samples: their cost is set by the grid
PATH_CHECKS = ["basicness", "sigma-contraction", "path-boundary-identity"]


def test_jet_passes_and_expression_calls_do_not_grow_with_the_grid(
        monkeypatch):
    # every grid quantity is one evaluation on the (N+1, n) stack
    passes = _count_calls(monkeypatch, jets, ("jacobian", "directional"))
    evals = _count_calls(monkeypatch, expr.ScalarExpr, ("__call__",))
    for check in PATH_CHECKS:
        counts = []
        for grid in ([16, 32], [256, 512]):
            policy = dict(cli.DEFAULT_POLICY, grid=grid)
            del passes[:], evals[:]
            cli.CHECKS[check](fixtures.load("pair-groupoid-r2"),
                              np.random.default_rng(42), policy)
            counts.append((len(passes), len(evals)))
        assert counts[0] == counts[1], (check, counts)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHSPACE = os.path.join(ROOT, "scenarios", "pathspace-pair.json")


@pytest.mark.parametrize("grid", [[], ["--grid", "256,512,1024"]])
def test_one_path_and_gauge_direction_per_grid(grid, capsys, monkeypatch):
    # basicness builds each grid's path and X_eta; sigma-contraction reads
    # those of the finest grid
    paths = _count_calls(monkeypatch, PS, ("sampled_path",))
    gauges = _count_calls(monkeypatch, PS, ("gauge_vector",))
    assert cli.main(["run", PATHSPACE, *grid]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    Ns = report["policy"]["grid"]
    assert [args[3] for args in paths] == Ns == [path.N for path, _ in gauges]


def test_each_run_builds_its_own_paths(capsys, monkeypatch):
    # the paths live in the fixture, which each scenario run loads anew
    gauges = _count_calls(monkeypatch, PS, ("gauge_vector",))
    for _ in range(2):
        assert cli.main(["run", PATHSPACE]) == 0
    capsys.readouterr()
    first, second = ([path for path, _ in gauges[i:i + 3]] for i in (0, 3))
    assert len(gauges) == 6
    assert not any(a is b for a in first for b in second)


def test_path_and_leaf_scenarios_share_their_jet_passes(capsys,
                                                        monkeypatch):
    # the benchmark's path-space and leaf scenarios: 21 passes, 8 fewer
    # than with a gauge direction rebuilt by sigma-contraction (4) and mu
    # differentiated by jets (4)
    runs = [os.path.join(ROOT, "perfbench", "scenarios", "paths-and-leaves",
                         name + ".json")
            for name in ("pathspace-pair", "foliation-x3",
                         "rotation-quasi-ham")]
    passes = _count_calls(monkeypatch, jets, ("jacobian", "directional"))
    counts = []
    for unshared in (False, True):
        if unshared:
            monkeypatch.setattr(PS.DiscretizedAPath, "gauge",
                                lambda path, eta: PS.gauge_vector(path, eta))
            quasi_ham = RZ.rotation_quasi_ham

            def jet_mu(factor):
                Q = quasi_ham(factor)
                Q.mu.jacobian = None
                return Q
            monkeypatch.setattr(RZ, "rotation_quasi_ham", jet_mu)
        del passes[:]
        assert cli.main(["run", *runs, "--seed", "42"]) == 0
        counts.append((len(passes), capsys.readouterr().out))
    (shared, report), (unshared, same) = counts
    assert (shared, unshared) == (21, 29)
    assert json.loads(report)["reports"] == json.loads(same)["reports"]


def test_domain_errors_name_the_first_failing_sample():
    x1 = np.array([1.0, 4.0, -1.0, -9.0])
    with pytest.raises(jets.DomainError,
                       match=r"sqrt of negative value at sample 2 in sqrt"):
        expr.parse("sqrt(x1)", ["x1"])([x1])
    with pytest.raises(jets.DomainError,
                       match=r"division by zero at sample 0 in"):
        expr.parse("1.0/(x1 - x1)", ["x1"])([x1])
    with pytest.raises(OverflowError, match=r"exp overflow at sample 1"):
        expr.parse("exp(800*x1)", ["x1"])([np.array([0.5, 1.0])])
    # a zero before a negative value: the zero is the first failure
    jet_x1 = jets.Jet(jets.new_tag(), np.array([0.0, 1.0, 4.0, -1.0]),
                      (1.0,))
    with pytest.raises(jets.DomainError,
                       match=r"^sqrt not differentiable at zero at sample 0$"):
        jets.sqrt(jet_x1)
    # a float point names no sample
    with pytest.raises(jets.DomainError, match=r"^sqrt of negative value in"):
        expr.parse("sqrt(x1)", ["x1"])([-1.0])


@pytest.mark.parametrize("omega, reason", [
    ("sqrt(x1)", "sqrt of negative value"),
    ("1.0/(x1 - x1)", "division by zero")])
def test_inline_domain_error_names_the_sample(omega, reason, tmp_path,
                                              capsys):
    scn = {"id": "bad-omega", "fixture":
           {"inline": {"n": 2, "omega": {"0,1": omega}}},
           "suite": ["rel-closed"], "policy": {"samples": 8}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(scn))
    assert cli.main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    error = json.loads(captured.out)["reports"][0]["checks"]["rel-closed"][
        "error"]
    found = re.search(r"at sample (\d+)", error)
    assert reason in error and found, error
    # omega is pr1*omega_M - pr2*omega_M, and omega_M is read at the first
    # two coordinates of an arrow first
    fx = cli.load_fixture(scn["fixture"])[1]
    rng = np.random.default_rng([42] + list(b"rel-closed"))
    arrows = fx["groupoid"].arrows.draw(rng, 8)
    bad = arrows[:, 0] < 0 if omega == "sqrt(x1)" else np.ones(8, bool)
    assert int(found.group(1)) == int(np.argmax(bad))


# -- one SVD per run of byte-equal matrices -------------------------------

def _svd_stacks():
    rng = np.random.default_rng(7)
    one = rng.standard_normal((5, 3))
    mixed = rng.standard_normal((6, 5, 3))
    signed = np.zeros((4, 5, 3))
    signed[2, 1, 1] = -0.0
    signed[:, 0, 0] = 1.0
    other = rng.standard_normal((5, 3))
    broken = np.repeat(np.where(one > 0, one, 0.0)[None], 5, axis=0)
    broken[2][broken[2] == 0.0] = -0.0
    return {"constant": np.broadcast_to(one, (8, 5, 3)),
            "two runs": np.stack([one] * 3 + [other] * 3),
            "A B A": np.stack([one, other, one]),
            "run broken by -0.0": broken,
            "constant copy": np.repeat(one[None], 8, axis=0),
            "two axes": np.broadcast_to(one, (2, 3, 5, 3)),
            "mixed": mixed,
            "half constant": np.concatenate([mixed, np.repeat(
                one[None], 6, axis=0)]),
            "one": mixed[:1],
            "one matrix": one,
            "wide": np.broadcast_to(one.T, (4, 3, 5)),
            "-0.0 and 0.0": signed}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(_svd_stacks()))
@pytest.mark.parametrize("form", [
    {}, {"full_matrices": False}, {"compute_uv": False}])
def test_svd_matches_each_matrix_to_the_bit(name, form):
    M = _svd_stacks()[name]
    got = linear.svd(M, **form)
    per = [np.linalg.svd(m, **form)
           for m in np.reshape(M, (-1,) + M.shape[-2:])]
    if form.get("compute_uv", True):
        for k, factor in enumerate(got):
            _same_bits(factor, np.reshape([f[k] for f in per],
                                          factor.shape))
    else:
        _same_bits(got, np.reshape(per, got.shape))
        # the first singular value is the spectral norm
        _same_bits(got[..., 0], np.linalg.norm(M, 2, axis=(-2, -1)))


def test_svd_keeps_the_sign_of_zero_apart(monkeypatch):
    # the third matrix differs from its neighbours only in the sign of one
    # zero entry, so the stack is three runs, decomposed as a stack of
    # three; without it, the stack is one run and one matrix is decomposed
    M = _svd_stacks()["-0.0 and 0.0"]
    calls = _count_calls(monkeypatch, np.linalg, ("svd",))
    linear.svd(M)
    linear.svd(np.abs(M))
    assert [A.shape for A, *_ in calls] == [(3,) + M.shape[-2:],
                                            M.shape[-2:]]


def test_svd_decomposes_each_run_once(monkeypatch):
    # a run is decomposed at its head only; a stack with no repeats is
    # one stacked call on the stack itself
    calls = _count_calls(monkeypatch, np.linalg, ("svd",))
    stacks = _svd_stacks()
    for name in ["two runs", "A B A", "run broken by -0.0", "mixed",
                 "half constant"]:
        linear.svd(stacks[name], False)
    assert [A.shape for A, *_ in calls] == [(2, 5, 3), (3, 5, 3), (3, 5, 3),
                                            (6, 5, 3), (7, 5, 3)]


@pytest.mark.parametrize("name", ["constant", "two axes", "wide",
                                  "constant copy"])
def test_svd_of_a_constant_stack_is_one_matrix_call(monkeypatch, name):
    # a broadcast stack (stride 0 on its batch axes) is decomposed once,
    # on a view of its one matrix: no copy of the stack is made.  A
    # materialised constant stack is one run, the same one 2-D call
    M = _svd_stacks()[name]
    calls = _count_calls(monkeypatch, np.linalg, ("svd",))
    for form in ({}, {"full_matrices": False}, {"compute_uv": False}):
        linear.svd(M, **form)
    assert [A.shape for A, *_ in calls] == [M.shape[-2:]] * 3
    assert all(np.shares_memory(A, M) for A, *_ in calls)


@pytest.mark.parametrize("stack", ["constant", "mixed"])
def test_svd_of_a_nan_matrix_raises(stack):
    M = np.array(_svd_stacks()[stack])
    M[-1, 0, 0] = np.nan
    if stack == "constant":
        M[:] = M[-1]
    for form in ({}, {"full_matrices": False}, {"compute_uv": False}):
        with pytest.raises(np.linalg.LinAlgError):
            linear.svd(M, **form)


def _pinv_stacks():
    rng = np.random.default_rng(11)
    one = rng.standard_normal((6, 3))
    # singular values 1, 1e-8 (in the rank) and 5e-15 (in the kernel, and
    # inverted: above pinv's cutoff)
    U, _, Vt = np.linalg.svd(rng.standard_normal((16, 6, 3)), False)
    return {**{f"random {shape}": rng.standard_normal(shape) for shape in (
                (256, 3, 2), (64, 6, 3), (8, 2, 3), (5, 4, 4))},
            "graded": U * [1.0, 1e-8, 5e-15] @ Vt,
            "zero": np.zeros((8, 6, 3)),
            "rank 1": rng.standard_normal((16, 6, 1))
            @ rng.standard_normal((16, 1, 3)),
            "runs": np.stack([one] * 3 + [2 * one] * 4 + [one]),
            "stride 0": np.broadcast_to(one, (32, 6, 3)),
            "one matrix": one}


@pytest.mark.parametrize("name", sorted(_pinv_stacks()))
def test_pinv_is_numpy_pinv_to_the_bit(name):
    # the solve, the formula of np.linalg.pinv on one linear.svd, and
    # the kernel dimensions as padded_null counts them
    A = _pinv_stacks()[name]
    B = np.random.default_rng(12).standard_normal(A.shape[-2:-1] + (4,))
    X, dim = linear.pinv_solve(A, B)
    _same_bits(X, np.linalg.pinv(A) @ B)
    assert np.array_equal(dim, linear.padded_null(A)[1])


def test_pinv_of_a_nan_sample_raises():
    A = np.array(_pinv_stacks()["random (8, 2, 3)"])
    A[5, 1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.pinv(A)
    with pytest.raises(np.linalg.LinAlgError):
        linear.pinv_solve(A, np.ones((2, 1)))


def test_every_svd_goes_through_numpy_svd(tmp_path, capsys, monkeypatch):
    # no pseudo-inverse or least squares hides an SVD from the counter
    def hidden(*args, **kwargs):
        raise AssertionError("an SVD outside np.linalg.svd")
    for name in ("pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, hidden)
    _groupoid_reports(tmp_path, capsys)
    assert cli.main(["run", os.path.join(ROOT, "scenarios",
                                         "rotation-quasi-ham.json")]) == 0


def _groupoid_reports(tmp_path, capsys, samples=64):
    paths = []
    for name in sorted(fixtures.FIXTURES):
        fx = fixtures.load(name)
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"id": name, "fixture": name, "suite": [
            c for c in GROUPOID_CHECKS + ["induced-dirac"] if feeds(fx, c)]}))
        paths.append(str(p))
    cli.main(["run", *paths, "--samples", str(samples), "--seed", "1"])
    return json.loads(capsys.readouterr().out)["reports"]


def test_groupoid_reports_match_the_plain_stacked_svd(tmp_path, capsys,
                                                      monkeypatch):
    # every entry of every groupoid check on every fixture, with the one
    # SVD per constant stack and with numpy's stacked SVD throughout
    shared = _groupoid_reports(tmp_path, capsys)
    monkeypatch.setattr(linear, "svd", lambda M, full_matrices=True,
                        compute_uv=True: np.linalg.svd(M, full_matrices,
                                                       compute_uv))
    assert _groupoid_reports(tmp_path, capsys) == shared
    assert len(shared) == 7


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_dirac_type_matches_a_full_classify(name):
    # dirac-type's entry is the flags and witness of a full classify on a
    # fixture of its own, drawn from the classification stream
    policy = dict(cli.DEFAULT_POLICY, samples=64, seed=1)
    entry = cli.check_dirac_type(fixtures.load(name), None, policy)
    fx = fixtures.load(name)
    full = GR.classify(fx["groupoid"], fx["form"],
                       np.random.default_rng([1] + list(b"classification")),
                       64, 128)
    assert "dims" in full and "residuals" in full
    assert cli._strict_json(entry) == cli._strict_json(
        {"pass": full["flags"]["is_dirac_type"], "flags": full["flags"],
         **({"worst_point": full["worst_points"]["dirac_type"]}
            if "dirac_type" in full["worst_points"] else {})})


def test_dirac_type_reads_the_classification_of_its_scenario(tmp_path,
                                                             capsys):
    # in one report, dirac-type's flags and witness are classification's
    reports = _groupoid_reports(tmp_path, capsys)
    for report in reports:
        entry, full = (report["checks"][c]
                       for c in ("dirac-type", "classification"))
        assert entry["flags"] == full["flags"]
        assert entry.get("worst_point") == \
            full["worst_points"].get("dirac_type")
    assert any("worst_point" in r["checks"]["dirac-type"] for r in reports)


def test_one_classify_per_scenario(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, GR, ("classify",))
    assert len(_groupoid_reports(tmp_path, capsys)) == len(calls) == 7


def test_a_classify_error_is_the_error_of_both_entries(tmp_path, capsys,
                                                       monkeypatch):
    calls = _count_calls(monkeypatch, GR, ("classify",))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "id": "bad", "suite": ["classification", "dirac-type"],
        "fixture": {"inline": {"n": 2, "omega": {"0,1": "sqrt(x1)"}}}}))
    assert cli.main(["run", str(p)]) == 1
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    error = checks["classification"]["error"]
    assert "sqrt of negative value" in error and " at sample " in error
    assert checks["dirac-type"]["error"] == error and len(calls) == 1


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
@pytest.mark.parametrize("samples", [8, 64])
def test_classify_makes_at_most_twelve_svds(name, samples, monkeypatch):
    # independent rank decisions of one shape are one stacked SVD
    svds = _count_calls(monkeypatch, np.linalg, ("svd",))
    fx = fixtures.load(name)
    GR.classify(fx["groupoid"], fx["form"], np.random.default_rng(42),
                samples, 2 * samples)
    assert len(svds) <= 12


# -- one evaluation per check over the concatenation of its stacks --------

def _per_stack(f, *stacks):
    """groupoid.each as a loop: f at each stack on its own, in order."""
    return [f(*(S if isinstance(S, tuple) else (S,))) for S in stacks]


@pytest.mark.parametrize("samples", [1, 3, 64])
def test_groupoid_entries_match_the_per_stack_evaluation(samples, tmp_path,
                                                         capsys,
                                                         monkeypatch):
    # every entry of every groupoid check on every fixture, to the bit
    # (the JSON text keeps every digit and the sign of a zero)
    merged = _groupoid_reports(tmp_path, capsys, samples)
    monkeypatch.setattr(GR, "each", _per_stack)
    looped = _groupoid_reports(tmp_path, capsys, samples)
    assert json.dumps(looped) == json.dumps(merged)
    assert len(merged) == 7


def _count_components(form, calls, key):
    # an evaluation of the components, of their closed-form Jacobian or of
    # the closed-form d of a sum or pullback (d through its parts)
    for entry in ("components", "jacobian", "exterior"):
        real = getattr(form, entry)

        def counted(*p, real=real):
            calls[key] = calls.get(key, 0) + 1
            return real(*p)

        if real is not None:
            setattr(form, entry, counted)


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_each_check_evaluates_omega_and_phi_once(name):
    # one evaluation of the fixture's omega per check, on the concatenation
    # of the check's stacks; rel-closed evaluates d omega once (omega's
    # closed-form Jacobian, t*d theta - s*d theta on a coboundary, or its
    # components in one jet pass) and phi once
    for check in ["multiplicative", "unit-identities", "classification",
                  "dirac-type", "kernel-orthogonality", "rel-closed"]:
        fx = fixtures.load(name)
        F, calls = fx["form"], {}
        _count_components(F.omega, calls, "omega")
        if F.phi is not None:
            _count_components(F.phi, calls, "phi")
        cli.CHECKS[check](fx, np.random.default_rng(42), cli.DEFAULT_POLICY)
        want = {"omega": 1}
        if check == "rel-closed" and F.phi is not None:
            want["phi"] = 1
        assert calls == want, check


def _arrow_pair(n, omega, phi=None):
    """The pair groupoid of R^n on [-1, 1]^n with omega given by its
    components on the arrow chart (y1..yn, x1..xn) and phi on the base."""
    fx = fixtures.pair_fixture(n, GR.uniform(-1.0, 1.0, n), {}, phi)
    fx["form"].omega = Form.from_components(fx["groupoid"].chart, 2, omega)
    return fx


def _raised(fx, check):
    """The exception a check raises at the runner's generator, as (type,
    message)."""
    rng = np.random.default_rng([42] + list(check.encode()))
    with pytest.raises((ArithmeticError, ValueError)) as caught:
        cli.CHECKS[check](fx, rng, cli.DEFAULT_POLICY)
    return type(caught.value), str(caught.value)


def _draws(fx, check, *counts):
    """The units and arrows a check draws, in its order."""
    rng = np.random.default_rng([42] + list(check.encode()))
    G = fx["groupoid"]
    return [S.draw(rng, k) for S, k in zip((G.units, G.arrows), counts)]


FAILING = {
    # 0 at the units (y = x), a domain error at arrows with y1 < x1
    "arrows": lambda: _arrow_pair(2, {(0, 2): "sqrt(y1 - x1)"}),
    # a domain error at units and arrows with x1 < 0
    "units": lambda: _arrow_pair(2, {(0, 2): "sqrt(x1)"}),
    # every unit's rank is indeterminate (singular values 2e-9 and 5e-10
    # around the 1e-9 cut), and arrows with y1 < x1 fail
    "unstable": lambda: _arrow_pair(3, {(0, 1): "1.0", (2, 3): "2e-9",
                                        (4, 5): "5e-10 + 0*sqrt(y1 - x1)"}),
    # phi fails at sources and targets with x1 < -0.5
    "phi": lambda: _arrow_pair(3, {(0, 1): "1.0"},
                               {(0, 1, 2): "sqrt(x1 + 0.5)"}),
}
FAILING_CHECKS = {"arrows": ["multiplicative", "unit-identities",
                             "kernel-orthogonality", "classification",
                             "dirac-type"],
                  "units": ["unit-identities", "classification",
                            "dirac-type"],
                  "unstable": ["classification", "dirac-type"],
                  "phi": ["rel-closed"]}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_merged_errors_are_the_per_stack_errors(case, monkeypatch):
    # the first stack that fails, in the order the stacks are evaluated
    # one by one, names its own error at its own sample index
    for check in FAILING_CHECKS[case]:
        merged = _raised(FAILING[case](), check)
        with monkeypatch.context() as m:
            m.setattr(GR, "each", _per_stack)
            assert _raised(FAILING[case](), check) == merged, check


def _first(bad):
    assert bad.any()
    return f"at sample {int(np.argmax(bad))} "


def test_merged_errors_name_the_stack_and_sample():
    fx = FAILING["arrows"]()
    # classify's units pass; its arrows (y1, y2, x1, x2) come next
    _, g = _draws(fx, "classification", 8, 16)
    assert _first(g[:, 0] < g[:, 2]) in _raised(fx, "classification")[1]
    # unit-identities evaluates omega at eps(x), then at i(g) = (x, y),
    # then at g
    _, g = _draws(fx, "unit-identities", 8, 8)
    assert _first(g[:, 2] < g[:, 0]) in _raised(fx, "unit-identities")[1]
    x, _ = _draws(FAILING["units"](), "classification", 8, 16)
    kind, message = _raised(FAILING["units"](), "classification")
    assert kind is jets.DomainError and _first(x[:, 0] < 0) in message
    # the unit kernel is decided before omega at the arrows is read
    kind, message = _raised(FAILING["unstable"](), "classification")
    assert kind is GR.RankInstabilityError
    assert message.startswith("indeterminate rank at unit [")
    assert " at sample 0: " in message
    # rel-closed draws arrows only; phi at their sources s(P) = (x1, x2,
    # x3) comes before the targets
    _, P = _draws(FAILING["phi"](), "rel-closed", 0, 8)
    assert _first(P[:, 3] < -0.5) in _raised(FAILING["phi"](), "rel-closed")[1]
