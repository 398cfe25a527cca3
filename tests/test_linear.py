"""Linear Dirac structures: subspaces, graphs of forms, images."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgeo.linear import (DegenerateRankError, LinearDirac, from_form,
                             padded_contained, padded_null, padded_orth,
                             padded_span_gap, pull_back, push_forward, trim)


def random_skew(rng, n):
    A = rng.standard_normal((n, n))
    return A - A.T


def random_dirac(rng, n):
    """A Dirac structure from a random form pushed through a random iso."""
    L = from_form(random_skew(rng, n))
    psi = rng.standard_normal((n, n)) + 2 * np.eye(n)
    return push_forward(psi, L)


# -- subspace utilities -----------------------------------------------------

def test_orth_and_null_are_complementary():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 5))
    R = trim(padded_orth(M.T))     # row space
    K = trim(padded_null(M))
    assert R.shape[1] + K.shape[1] == 5
    assert np.max(np.abs(M @ K)) < 1e-12
    assert np.allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)


def test_spans_equal_is_basis_independent():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((6, 3))
    C = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    assert padded_span_gap(*padded_orth(B), *padded_orth(B @ C)) <= 1e-9
    assert padded_span_gap(*padded_orth(B), *padded_orth(
        rng.standard_normal((6, 3)))) > 1e-9


def test_span_gap_of_padded_bases_with_different_widths():
    # a line against padded bases with one more (zero) column, at a stack
    # of two matrices: the same line, then an orthogonal one
    e1 = np.array([[1.0], [0.0], [0.0]])
    wide = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]])
    gap = padded_span_gap(e1, 1, wide, np.array([1, 1]))
    assert np.array_equal(gap, [0.0, 1.0])


# -- graphs and canonical equality -----------------------------------------

def test_graph_of_form_members():
    theta = np.array([[0.0, 2.0], [-2.0, 0.0]])
    L = from_form(theta)
    x = np.array([1.0, 3.0])
    # the graph pairs x with the covector theta(x, .) = theta^T x
    for xi, member in [(theta.T @ x, True),
                       (theta.T @ x + np.array([0.1, 0.0]), False)]:
        v = np.concatenate([x, xi])[:, None]
        assert padded_contained(v / np.linalg.norm(v), L.basis) == member


def test_from_form_rejects_non_skew():
    with pytest.raises(ValueError):
        from_form(np.ones((2, 2)))
    with pytest.raises(ValueError):
        from_form(np.ones((2, 3)))


def test_tangent_and_cotangent_extremes():
    n = 3
    TM = LinearDirac.from_span(np.vstack([np.eye(n), np.zeros((n, n))]))
    TstarM = LinearDirac.from_span(np.vstack([np.zeros((n, n)), np.eye(n)]))
    assert TM == from_form(np.zeros((n, n)))
    assert TM != TstarM


def test_non_isotropic_span_rejected():
    bad = np.vstack([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        LinearDirac.from_span(bad)
    with pytest.raises(DegenerateRankError):
        LinearDirac.from_span(np.zeros((4, 1)))


# -- push-forward / pull-back ----------------------------------------------

def test_push_forward_of_graph_under_iso():
    rng = np.random.default_rng(3)
    n = 3
    theta = random_skew(rng, n)
    psi = rng.standard_normal((n, n)) + 2 * np.eye(n)
    L = from_form(theta)
    # graph of theta pushes to graph of (psi^-T theta psi^-1)
    inv = np.linalg.inv(psi)
    target = from_form(inv.T @ theta @ inv)
    assert push_forward(psi, L) == target


def test_pull_back_of_graph():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 2))
    theta = random_skew(rng, 3)
    L = from_form(theta)
    assert pull_back(f, L) == from_form(f.T @ theta @ f)


def test_pull_back_then_push_forward_round_trip_iso():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        L = random_dirac(rng, n)
        psi = rng.standard_normal((n, n)) + 2 * np.eye(n)
        assert push_forward(psi, pull_back(psi, L)) == L
        assert pull_back(psi, push_forward(psi, L)) == L


def test_singular_map_images_are_still_dirac():
    # linear forward/backward images stay Lagrangian even for rank-deficient
    # maps; check the explicit answers for a coordinate collapse
    n = 2
    TM = LinearDirac.from_span(np.vstack([np.eye(n), np.zeros((n, n))]))
    TstarM = LinearDirac.from_span(np.vstack([np.zeros((n, n)), np.eye(n)]))
    f = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert pull_back(f, TM) == from_form(np.zeros((2, 2)))
    assert push_forward(f, TstarM) == TstarM
    # f*(T*M) = span{(e2, 0), (0, e1)}
    mixed = LinearDirac.from_span(np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert pull_back(f, TstarM) == mixed
    # pushing the tangent structure forward mixes the two extremes too
    assert push_forward(f, TM) == LinearDirac.from_span(np.array(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))


# -- property tests ---------------------------------------------------------

@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_random_dirac_is_lagrangian(n, seed):
    """Any constructed structure is isotropic of dimension n and equal to itself."""
    rng = np.random.default_rng(seed)
    L = random_dirac(rng, n)
    B = trim(padded_orth(L.span))
    assert B.shape[1] == n
    P = np.zeros((2 * n, 2 * n))
    P[:n, n:] = np.eye(n)
    P[n:, :n] = np.eye(n)
    assert np.max(np.abs(B.T @ P @ B)) < 1e-8
    # canonical form is representation independent
    C = rng.standard_normal((n, n)) + 2 * np.eye(n)
    again = LinearDirac.from_span(L.span @ C)
    assert again == L

