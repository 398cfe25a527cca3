"""Forward-mode jets: derivatives vs closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgeo import jets


def test_directional_matches_closed_form():
    f = lambda q: jets.sin(q[0]) * jets.exp(q[1])
    p, d = [0.4, -0.2], [1.0, 2.0]
    exact = (math.cos(0.4) * math.exp(-0.2) * 1.0
             + math.sin(0.4) * math.exp(-0.2) * 2.0)
    assert jets.directional(f, p, d) == pytest.approx(exact, abs=1e-14)


def test_jacobian_matches_closed_form():
    def f(q):
        return [q[0] * q[1], jets.sqrt(q[0]) + q[1] ** 3]

    J = jets.jacobian(f, [0.9, 0.5])
    assert isinstance(J, np.ndarray) and J.shape == (2, 2)
    expected = [[0.5, 0.9], [0.5 / math.sqrt(0.9), 3 * 0.25]]
    assert np.allclose(J, expected, atol=1e-14)


def test_vector_valued_directional():
    def f(q):
        return [q[0] + q[1], q[0] * q[1]]

    out = jets.directional(f, [2.0, 3.0], [1.0, -1.0])
    assert out == pytest.approx([0.0, 3.0 * 1.0 + 2.0 * -1.0])


def test_nested_jets_give_second_derivatives():
    # d^2/dxdy of sin(x*y) at (a, b) is cos(ab) - ab sin(ab)
    a, b = 0.7, -0.3

    def outer(q):
        return jets.directional(
            lambda r: jets.sin(r[0] * r[1]), q, [1.0, 0.0])

    mixed = jets.directional(outer, [a, b], [0.0, 1.0])
    exact = math.cos(a * b) - a * b * math.sin(a * b)
    assert mixed == pytest.approx(exact, abs=1e-13)


def test_tags_do_not_mix_across_nesting():
    # f(x) = x * g(x) with g computed through an inner differentiation;
    # the inner tag must not leak into the outer derivative.
    def f(q):
        inner = jets.directional(lambda r: r[0] ** 2, [q[0]], [1.0])
        return q[0] * inner  # = 2 x^2, derivative 4x

    assert jets.directional(f, [1.5], [1.0]) == pytest.approx(6.0)


def test_division_by_a_jet_of_a_later_tag():
    # x / r with r seeded by an inner pass inside the outer pass over x:
    # d/dx d/dr (x / r) = -1 / r^2
    out = jets.directional(lambda q: jets.directional(
        lambda r: q[0] / r[0], [q[1]], [1.0]), [0.7, -1.3], [1.0, 0.0])
    assert out == pytest.approx(-1.0 / 1.3 ** 2, abs=1e-15)
    assert out == pytest.approx(-0.5917159763313609, abs=1e-15)


def test_power_rules():
    assert jets.directional(lambda q: q[0] ** 4, [2.0], [1.0]) == pytest.approx(32.0)
    assert jets.directional(lambda q: q[0] ** -2, [2.0], [1.0]) == pytest.approx(-2.0 / 8.0)
    assert jets.directional(lambda q: q[0] ** 0, [2.0], [1.0]) == 0.0
    with pytest.raises(TypeError):
        jets.directional(lambda q: q[0] ** 1.5, [2.0], [1.0])


def test_domain_errors():
    with pytest.raises(jets.DomainError):
        jets.directional(lambda q: jets.sqrt(q[0]), [0.0], [1.0])
    with pytest.raises(jets.DomainError):
        jets.directional(lambda q: 1.0 / q[0], [0.0], [1.0])


def test_atan2_derivative():
    f = lambda q: jets.atan2(q[1], q[0])
    x, y = 0.8, -0.6
    d = [0.3, 0.7]
    r2 = x * x + y * y
    exact = (-y / r2) * d[0] + (x / r2) * d[1]
    assert jets.directional(f, [x, y], d) == pytest.approx(exact, abs=1e-14)


_coords = st.floats(min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False)


@given(st.lists(_coords, min_size=2, max_size=2),
       st.lists(_coords, min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_directional_matches_central_difference(p, d):
    f = lambda q: jets.sin(q[0]) * jets.cos(q[1]) + q[0] * q[1]
    h = 1e-6
    plus = f([p[0] + h * d[0], p[1] + h * d[1]])
    minus = f([p[0] - h * d[0], p[1] - h * d[1]])
    fd = (plus - minus) / (2 * h)
    assert jets.directional(f, p, d) == pytest.approx(fd, abs=1e-7)


@given(st.lists(_coords, min_size=3, max_size=3),
       st.lists(_coords, min_size=3, max_size=3),
       st.lists(_coords, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_directional_is_linear_in_direction(p, d1, d2):
    f = lambda q: jets.exp(0.3 * q[0]) * q[1] + q[2] ** 2
    a = jets.directional(f, p, d1)
    b = jets.directional(f, p, d2)
    both = jets.directional(f, p, [u + v for u, v in zip(d1, d2)])
    assert both == pytest.approx(a + b, abs=1e-10)


def test_nested_jacobian_is_the_hessian():
    # f = sin(x y) + x^3 y; the inner Jacobian must return jets of the
    # outer pass, not their values, for the outer one to see the gradient
    def f(q):
        return jets.sin(q[0] * q[1]) + q[0] ** 3 * q[1]

    x, y = 0.7, -0.4
    H = jets.jacobian(lambda q: jets.jacobian(f, q), [x, y])
    c, s = math.cos(x * y), math.sin(x * y)
    expected = [[-y * y * s + 6 * x * y, c - x * y * s + 3 * x * x],
                [c - x * y * s + 3 * x * x, -x * x * s]]
    assert np.allclose(H, expected, atol=1e-14)


# f, and its Jacobian at (x, y): d(xy) = (y, x), d(y^2) = (0, 2y); the
# constant entries 2 and 1, and the linear value, have constant partials
LAYOUTS = {
    "scalar": (lambda q: q[0] * q[1], lambda x, y: [y, x]),
    "list": (lambda q: [q[0] * q[1], 2.0], lambda x, y: [[y, x], [0, 0]]),
    "array": (lambda q: np.array([[q[0], 1.0], [q[1] ** 2, q[0] * q[1]]],
                                 dtype=object),
              lambda x, y: [[[1, 0], [0, 0]], [[0, 2 * y], [y, x]]]),
    "linear": (lambda q: (q[0] + 2.0 * q[1], 1.0),
               lambda x, y: [[1, 2], [0, 0]]),
}


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_jacobian_layout(kind):
    # D[..., l] = d f(p)[...] / d p_l: the shape of f's value followed by
    # n, floats at a float point, batch-first at a stack unless constant,
    # an object array of the outer pass's jets at nested jets, and 0.0
    # for an entry without partials
    f, exact = LAYOUTS[kind]
    shape = np.shape(exact(0.0, 0.0))
    D = jets.jacobian(f, [0.7, -1.3])
    assert D.dtype == float and D.shape == shape
    assert np.array_equal(D, exact(0.7, -1.3))
    xs, ys = np.array([0.7, 0.2, -0.5]), np.array([-1.3, 0.4, 2.0])
    D = jets.jacobian(f, [xs, ys])
    assert D.dtype == float
    if kind == "linear":
        assert np.array_equal(D, exact(0.0, 0.0))
    else:
        assert D.shape == (3,) + shape
        for i in range(3):
            assert np.array_equal(D[i], exact(xs[i], ys[i]))
    inner = []

    def nested(q):
        inner.append(jets.jacobian(f, q))
        return inner[0]

    H = jets.jacobian(nested, [0.7, -1.3])
    assert inner[0].shape == shape and H.shape == shape + (2,)
    assert np.array_equal(np.vectorize(jets.value_of)(inner[0]),
                          exact(0.7, -1.3))
    assert (inner[0].dtype == object) == (kind != "linear")
