"""Chart calculus: d, interior product, Lie operations, pullbacks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgeo import jets, linear
from diracgeo.courant import AnchoredDual, frame_brackets
from diracgeo.geometry import (Chart, ChartMap, Form, VectorField, alternate,
                               block, component_jacobian, ext_d, interior,
                               lie_derivative, pullback)
from references import canonical_cotangent_form, chart, expression_map


CH3 = chart("x", "y", "z")


def rand_vecs(rng, n, k):
    return [list(rng.uniform(-1, 1, n)) for _ in range(k)]


def test_chart_requires_distinct_names():
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    assert CH3.dim == 3


def test_form_component_validation():
    with pytest.raises(ValueError):
        Form.from_components(CH3, 2, {(1, 0): "1.0"})
    with pytest.raises(ValueError):
        Form.from_components(CH3, 2, {(0, 1, 2): "1.0"})
    with pytest.raises(ValueError):
        Form.from_components(CH3, 2, {(0, 1): "1.0"})([0, 0, 0], [1, 0, 0])


def test_form_is_alternating():
    w = Form.from_components(CH3, 2, {(0, 1): "x", (1, 2): "y*z"})
    rng = np.random.default_rng(0)
    p = [0.3, 0.5, -0.2]
    u, v = rand_vecs(rng, 3, 2)
    assert w(p, u, v) == pytest.approx(-w(p, v, u), abs=1e-15)
    assert w(p, u, u) == pytest.approx(0.0, abs=1e-15)


def test_exterior_derivative_of_function():
    f = Form.function(CH3, "x*y + sin(z)")
    df = ext_d(f)
    p = [0.4, -0.8, 0.6]
    grad = [-0.8, 0.4, math.cos(0.6)]
    for i in range(3):
        e = [0.0] * 3
        e[i] = 1.0
        assert df(p, e) == pytest.approx(grad[i], abs=1e-14)


def test_d_squared_is_zero():
    rng = np.random.default_rng(1)
    f = Form.function(CH3, "exp(x)*y + z^2*x")
    w = Form.from_components(CH3, 1, {(0,): "y*z", (2,): "sin(x)"})
    p = [0.2, 0.7, -0.4]
    for _ in range(5):
        u, v = rand_vecs(rng, 3, 2)
        assert ext_d(ext_d(f))(p, u, v) == pytest.approx(0.0, abs=1e-12)
        u, v, s = rand_vecs(rng, 3, 3)
        assert ext_d(ext_d(w))(p, u, v, s) == pytest.approx(0.0, abs=1e-12)


def test_d_of_known_two_form():
    # d(z dx^dy) = dz^dx^dy = dx^dy^dz
    w = Form.from_components(CH3, 2, {(0, 1): "z"})
    vol = ext_d(w)
    e = np.eye(3)
    p = [0.5, 0.5, 0.5]
    assert vol(p, list(e[0]), list(e[1]), list(e[2])) == pytest.approx(1.0)
    assert vol(p, list(e[1]), list(e[0]), list(e[2])) == pytest.approx(-1.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_of_a_top_degree_form_is_zero_without_a_jet_pass(n, monkeypatch):
    # zero at a stack, at a point and at jet points, as the alternated jet
    # pass gives it; NaN at a sample where the form is not finite, as the
    # jet pass gives it, and a domain error raises with its sample
    ch = chart(*"xyz"[:n])
    top = tuple(range(n))
    w = Form.from_components(ch, n, {top: "sin(x) + 1e308*x*x*10.0"})
    P = np.random.default_rng(7).uniform(-0.05, 0.05, (6, n))
    P[3, 0] = 0.5           # w overflows to inf there
    plain = Form(ch, n + 1,
                 lambda p: alternate(component_jacobian(w, p), n))
    want = plain.at(P)
    assert np.isnan(want[3]).any()
    assert np.all(np.abs(np.delete(want, 3, 0)) == 0.0)
    q = jets.seed_point(list(P[0]), np.eye(n).tolist(), jets.new_tag())
    nested = jets.stack([np.ravel(ext_d(w).components(q))])
    monkeypatch.setattr(jets, "jacobian", None)
    got = ext_d(w).at(P)
    assert got.shape == want.shape == (6,) + (n,) * (n + 1)
    assert np.isnan(got[3]).any() and np.all(np.delete(got, 3, 0) == 0.0)
    assert np.all(got[3][~np.isnan(got[3])] == 0.0)
    assert np.all(ext_d(w).at(P[0]) == 0.0)
    assert all(jets.value_of(c) == 0.0 for c in nested[0])
    bad = Form.from_components(ch, n, {top: "sqrt(x)"})
    with pytest.raises(jets.DomainError, match="at sample 1"):
        ext_d(bad).at(np.array([[0.5] * n, [-0.5] * n]))


def test_interior_product():
    w = Form.from_components(CH3, 2, {(0, 1): "1.0"})
    X = VectorField.from_components(CH3, ["y", "-x", "0.0"])
    iw = interior(X, w)
    p = [0.3, 0.8, 0.0]
    assert iw(p, [1.0, 0.0, 0.0]) == pytest.approx(w(p, X(p), [1.0, 0.0, 0.0]))
    assert iw(p, [0.0, 1.0, 0.0]) == pytest.approx(X(p)[0])
    with pytest.raises(ValueError):
        interior(X, Form.function(CH3, "x"))


def lie_bracket(X, Y):
    """[X, Y] as a vector field: the vector part of the frame bracket of
    the anchored dual whose anchor columns are X and Y, with sigma = 0
    (generic over jets, so brackets nest)."""
    D = AnchoredDual(X.chart, lambda q: linear.mT(jets.stack([X(q), Y(q)])),
                     lambda q: np.zeros((2, X.chart.dim)),
                     np.zeros((2, 2, 2)))
    return VectorField(X.chart, lambda q: list(
        frame_brackets(D.jet(q), None, [0], [1])[0][..., 0, :]))


def test_lie_bracket_matches_closed_form():
    X = VectorField.from_components(CH3, ["y", "-x", "0.0"])
    Y = VectorField.from_components(CH3, ["x*z", "0.0", "1.0"])
    got = lie_bracket(X, Y)(p := [0.4, -0.9, 0.7])
    # finite-difference oracle for [X,Y]^i = X(Y^i) - Y(X^i)
    h = 1e-6

    def deriv(F, i, along):
        plus = F([p[j] + h * along[j] for j in range(3)])[i]
        minus = F([p[j] - h * along[j] for j in range(3)])[i]
        return (plus - minus) / (2 * h)

    for i in range(3):
        fd = deriv(Y, i, X(p)) - deriv(X, i, Y(p))
        assert got[i] == pytest.approx(fd, abs=1e-8)


def test_lie_bracket_antisymmetry_and_jacobi():
    X = VectorField.from_components(CH3, ["y*z", "x", "0.5"])
    Y = VectorField.from_components(CH3, ["sin(x)", "z", "x*y"])
    Z = VectorField.from_components(CH3, ["1.0", "x^2", "y"])
    p = [0.3, -0.5, 0.8]
    ab = lie_bracket(X, Y)(p)
    ba = lie_bracket(Y, X)(p)
    assert np.allclose(ab, [-b for b in ba], atol=1e-12)
    jac = [a + b + c for a, b, c in zip(
        lie_bracket(lie_bracket(X, Y), Z)(p),
        lie_bracket(lie_bracket(Y, Z), X)(p),
        lie_bracket(lie_bracket(Z, X), Y)(p))]
    assert np.max(np.abs(jac)) < 1e-10


def test_cartan_magic_formula_consistency():
    # L_X w computed by the package vs the FD flow derivative of w
    X = VectorField.from_components(CH3, ["y", "-x", "0.1"])
    w = Form.from_components(CH3, 2, {(0, 1): "z", (0, 2): "x*y"})
    p = [0.6, 0.2, -0.3]
    rng = np.random.default_rng(2)
    u, v = rand_vecs(rng, 3, 2)
    got = lie_derivative(X, w)(p, u, v)
    # flow oracle: (d/dt) (phi_t^* w)(u, v) at t=0 with frozen u, v
    h = 1e-5

    def flow(q, t, steps=64):
        q = list(q)
        dt = t / steps
        for _ in range(steps):
            k = X(q)
            q2 = [a + 0.5 * dt * b for a, b in zip(q, k)]
            k2 = X(q2)
            q = [a + dt * b for a, b in zip(q, k2)]
        return q

    def pulled(t):
        q = flow(p, t)
        # push u, v through the flow differential by FD
        eps = 1e-6

        def push(vec):
            qp = flow([a + eps * b for a, b in zip(p, vec)], t)
            qm = flow([a - eps * b for a, b in zip(p, vec)], t)
            return [(a - b) / (2 * eps) for a, b in zip(qp, qm)]

        return w(q, push(u), push(v))

    fd = (pulled(h) - pulled(-h)) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-6)


def test_pullback_chain_and_values():
    src = chart("u", "v")
    f = expression_map(src, CH3, ["u*v", "u + v", "v^2"])
    w = Form.from_components(CH3, 2, {(0, 1): "1.0", (1, 2): "x"})
    fw = pullback(f, w)
    p = [0.7, -0.4]
    rng = np.random.default_rng(3)
    a, b = rand_vecs(rng, 2, 2)
    # oracle by explicit jacobian
    J = np.array([[p[1], p[0]], [1.0, 1.0], [0.0, 2 * p[1]]])
    q = [p[0] * p[1], p[0] + p[1], p[1] ** 2]
    assert fw(p, a, b) == pytest.approx(
        w(q, list(J @ a), list(J @ b)), abs=1e-13)
    # d commutes with pullback
    u, v2 = a, b
    c = list(rng.uniform(-1, 1, 2))
    assert ext_d(fw)(p, u, v2, c) == pytest.approx(0.0, abs=1e-12)  # 3-form on 2d chart
    w1 = Form.from_components(CH3, 1, {(0,): "y*z"})
    lhs = ext_d(pullback(f, w1))(p, a, b)
    rhs = pullback(f, ext_d(w1))(p, a, b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_lie_derivative_of_a_function():
    # L_X f = X(f): along X = (y, -x), L_X(xy) = y^2 - x^2
    ch = chart("x", "y")
    X = VectorField.from_components(ch, ["y", "-x"])
    Lf = lie_derivative(X, Form.function(ch, "x*y"))
    assert Lf.degree == 0
    for p in ([0.6, -0.3], [-1.2, 0.5]):
        assert Lf(p) == pytest.approx(p[1] ** 2 - p[0] ** 2, abs=1e-15)


def test_pullback_of_a_one_form_along_a_closed_form_jacobian():
    # f* w at a stack, f's Jacobian in closed form against the jet pass:
    # (f* w)_l = w_k(f(p)) J_kl
    src = chart("u", "v")
    f = expression_map(src, CH3, ["u*v", "u + v", "v^2"])

    def jacobian(P, Y):
        u, v = P[..., 0], P[..., 1]
        return np.stack([np.stack([v, u], -1), np.ones_like(P),
                         np.stack([0.0 * v, 2.0 * v], -1)], -2)

    closed = ChartMap(src, CH3, f.func, jacobian)
    w = Form.from_components(CH3, 1, {(0,): "y*z", (2,): "x"})
    P = np.random.default_rng(6).uniform(-1, 1, (16, 2))
    got, want = pullback(closed, w).at(P), pullback(f, w).at(P)
    assert got.shape == want.shape == (16, 2)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    u, v = P.T
    assert np.allclose(got[:, 0], (u + v) * v ** 2 * v, rtol=0.0, atol=1e-15)


_coord = st.floats(min_value=-1.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)


@given(st.lists(_coord, min_size=3, max_size=3),
       st.lists(_coord, min_size=3, max_size=3),
       st.lists(_coord, min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_d_is_alternating_and_linear(p, u, v):
    w = Form.from_components(CH3, 1, {(0,): "y", (1,): "x*z"})
    dw = ext_d(w)
    assert dw(p, u, v) == pytest.approx(-dw(p, v, u), abs=1e-12)
    s = [a + b for a, b in zip(u, v)]
    assert dw(p, s, v) == pytest.approx(dw(p, u, v), abs=1e-12)


# -- the component representation -------------------------------------------

def test_evaluation_is_contraction_of_components():
    w = Form.from_components(CH3, 2, {(0, 1): "x*z", (1, 2): "sin(y)"})
    rng = np.random.default_rng(4)
    p = [0.3, -0.6, 0.9]
    C = w.components(p)
    assert C.shape == (3, 3)
    assert np.allclose(C, -C.T, atol=0.0)
    for _ in range(3):
        u, v = rng.standard_normal((2, 3))
        assert w(p, u, v) == pytest.approx(u @ C @ v, abs=1e-15)


def test_three_form_value_is_a_determinant():
    # f dx^dy^dz on (u, v, s) is f times the determinant of [u v s]
    w = Form.from_components(CH3, 3, {(0, 1, 2): "x*y + z"})
    rng = np.random.default_rng(5)
    p = [0.4, -0.7, 1.3]
    u, v, s = rng.standard_normal((3, 3))
    f = p[0] * p[1] + p[2]
    assert w(p, u, v, s) == pytest.approx(
        f * np.linalg.det(np.array([u, v, s]).T), abs=1e-14)


def test_d_squared_vanishes_on_all_components():
    w = Form.from_components(CH3, 1, {(0,): "y*z^2", (1,): "exp(x)*z",
                                      (2,): "sin(x*y)"})
    p = [0.2, -0.5, 0.8]
    assert ext_d(w).at(p).shape == (3, 3)
    assert np.max(np.abs(ext_d(ext_d(w)).at(p))) < 1e-13


def test_d_squared_vanishes_on_the_canonical_cotangent_form():
    # -d sigma through the quaternion chart needs second derivatives of lam,
    # so d(-d sigma) exercises nested Jacobians
    from diracgeo import liegroup as lg
    can = canonical_cotangent_form(lg.so3())
    p = [0.3, -0.2, 0.25, 0.7, -0.4, 0.1]
    assert np.max(np.abs(can.at(p))) > 0.1
    assert np.max(np.abs(ext_d(can).at(p))) < 1e-12


def test_pullback_commutes_with_d_on_components():
    f = expression_map(CH3, CH3, ["x*y", "sin(z) + x", "y*z^2"])
    w = Form.from_components(CH3, 2, {(0, 1): "z", (0, 2): "x*y",
                                      (1, 2): "cos(x)"})
    p = [0.6, -0.3, 0.45]
    lhs = ext_d(pullback(f, w)).at(p)
    rhs = pullback(f, ext_d(w)).at(p)
    assert np.max(np.abs(rhs)) > 0.1
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_group_forms_have_skew_component_matrices():
    from diracgeo import liegroup as lg
    Gp = lg.so3()
    p = [0.3, -0.2, 0.1, 0.25, 0.05, -0.35]
    for omega in (lg.adjoint_groupoid(Gp, True)[1].omega,
                  lg.adjoint_groupoid(Gp, False)[1].omega):
        Om = omega.at(p)
        assert Om.shape == (6, 6)
        assert np.max(np.abs(Om)) > 0.1
        assert np.max(np.abs(Om + Om.T)) < 1e-14


def test_form_given_by_values_on_vectors_reads_its_components():
    # (p, vectors) -> value defines the same form as its components
    w = Form.from_components(CH3, 2, {(0, 1): "x*z", (1, 2): "sin(y)"})
    by_values = Form(CH3, 2, lambda p, vs: w(p, *vs))
    lam = Form(CH3, 2, lambda p, i=0: w.components(p))
    p = [0.3, -0.6, 0.9]
    assert np.array_equal(by_values.at(p), w.at(p))
    assert np.array_equal(lam.at(p), w.at(p))
    u, v = np.random.default_rng(6).standard_normal((2, 3))
    assert by_values(p, u, v) == pytest.approx(w(p, u, v), abs=1e-15)


def _concatenated(rows):
    """block as the concatenation of its broadcast blocks: the reference."""
    batch = np.broadcast_shapes(*(np.shape(M)[:-2] for row in rows
                                  for M in row))
    return np.concatenate([np.concatenate(
        [np.broadcast_to(M, batch + np.shape(M)[-2:]) for M in row],
        axis=-1) for row in rows], axis=-2)


def test_block_matches_the_concatenation_to_the_bit():
    # batch-first and constant blocks, -0.0 entries, integer, boolean and
    # float32 blocks among float64 ones, a row of one block under a row of
    # four, and object arrays
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 2, 3))
    A[1, 0, 0] = A[2, 1, 2] = -0.0
    Z = np.full((2, 2), -0.0)
    cases = [
        [[A, Z], [np.zeros((1, 3)), np.ones((1, 2), dtype=int)]],
        [[A, np.eye(2, dtype=int), A[:1], np.ones((2, 1), dtype=bool)],
         [np.eye(3, 9, 2, dtype=np.float32)]],
        [[np.eye(2, dtype=int), np.ones((2, 1), dtype=int)]],
        [[-A], [A.astype(np.float32)]],
        [[np.array([[1.0, None]], dtype=object), np.zeros((1, 1))],
         [np.full((2, 3), -0.0)]]]
    for rows in cases:
        got, want = block(rows), _concatenated(rows)
        assert got.dtype == want.dtype and got.shape == want.shape
        if got.dtype == object:
            assert [repr(a) for a in got.ravel()] \
                == [repr(b) for b in want.ravel()]
        else:
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        block([[A, Z], [np.zeros((1, 4))]])
