"""Linear algebra of Dirac structures on a finite-dimensional vector space.

A Dirac structure on V is a maximal isotropic subspace L of V + V* for the
pairing <(x,xi),(y,eta)> = xi(y) + eta(x).  A Dirac structure keeps the
frame it was built from and an orthonormal basis of its span; two spans are
equal when the largest principal angle between them vanishes.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class DegenerateRankError(ValueError):
    """Numerical rank of a pushed/pulled subspace is not the expected one."""


# -- subspaces over a stack of matrices -----------------------------------
# One SVD-based implementation per operation, for a matrix or a stack of
# matrices (leading batch axes), one stacked SVD per rank decision.  A
# subspace at each matrix is a padded basis: an array (..., N, k) whose
# first columns are orthonormal and span it and whose columns past its
# dimension are zeroed, so that subspaces whose dimensions differ across
# the stack share one shape; at one matrix, `trim` cuts it to its
# dimension.  (Zero columns in front would make zero rows in front of the
# products whose kernels are taken, and LAPACK loses digits on those.)

def mT(M):
    """The matrices of a stack transposed (numpy >= 2 spells it M.mT)."""
    return np.swapaxes(M, -1, -2)


def mv(M, v):
    """The stacked matrix-vector products M[i] @ v[i]."""
    return (M @ v[..., None])[..., 0]


def _keep(M, dim):
    """M with its columns from dim on zeroed."""
    return M * (np.arange(M.shape[-1]) < dim[..., None])[..., None, :]


def svd(M, full_matrices=True, compute_uv=True):
    """np.linalg.svd of a matrix or stack; a run of consecutive byte-equal
    matrices (-0.0 is not 0.0) is decomposed once, at its head, and a
    broadcast stack (stride 0 on every batch axis) once, uncopied."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 2 or not M.size:
        return np.linalg.svd(M, full_matrices, compute_uv)
    batch, head = M.shape[:-2], np.ones(1, bool)
    if any(M.strides[:-2]):
        flat = np.ascontiguousarray(M).reshape((-1,) + M.shape[-2:])
        bits = flat.view(np.uint64)
        head = np.append(head, np.any(bits[1:] != bits[:-1], axis=(1, 2)))
    if head.sum() == 1:   # one run: one matrix, broadcast
        one = np.linalg.svd(M[(0,) * len(batch)], full_matrices, compute_uv)
        run = None
    elif head.all():
        return np.linalg.svd(flat.reshape(M.shape), full_matrices, compute_uv)
    else:
        one = np.linalg.svd(flat[head], full_matrices, compute_uv)
        run = np.cumsum(head) - 1   # the run of each matrix

    def spread(f):
        if run is None:
            return np.broadcast_to(f, batch + f.shape)
        return f[run].reshape(batch + f.shape[1:])
    return tuple(map(spread, one)) if compute_uv else spread(one)


def pinv_solve(A, B):
    """np.linalg.pinv(A) @ B to the bit, numpy's formula on one `svd`, and
    the kernel dimensions of A as `padded_null` counts them."""
    U, s, Vt = svd(A, full_matrices=False)
    large = s > 1e-15 * np.amax(s, axis=-1, keepdims=True)
    inv = np.divide(1, s, where=large, out=np.zeros(s.shape))
    return mT(Vt) @ (inv[..., None] * mT(U)) @ B, \
        Vt.shape[-1] - np.sum(s > DEFAULT_TOL * s[..., :1], axis=-1)


def padded_orth(M, tol=DEFAULT_TOL):
    """Padded orthonormal bases of the column spans and their dimensions:
    the rank counts the singular values above tol times the largest (none
    for a zero matrix)."""
    U, s, _ = svd(M, full_matrices=False)
    r = np.sum(s > tol * s[..., :1], axis=-1)
    return _keep(U, r), r


def padded_kernel(Vt, r):
    """The rows of Vt past the rank r of each matrix, in order, as a padded
    basis of its kernel, and the kernel dimensions."""
    n = Vt.shape[-1]
    dim = n - r
    flat = Vt.reshape((-1, n, n))
    order = (np.arange(n) + np.reshape(r, (-1, 1))) % n
    return _keep(mT(flat[np.arange(len(flat))[:, None], order].reshape(
        Vt.shape)), dim), dim


def kernel_svd(M, floor=0.0):
    """The singular values s, the rank cut and the right singular vectors
    Vt of each matrix: the rank counts the singular values above the cut,
    1e-9 times the largest or times floor where that is larger."""
    _, s, Vt = svd(M)
    return s, DEFAULT_TOL * np.maximum(s[..., :1], floor), Vt


def padded_null(M):
    """Padded orthonormal bases of the kernels (rows are constraints) and
    their dimensions."""
    s, cut, Vt = kernel_svd(M)
    return padded_kernel(Vt, np.sum(s > cut, axis=-1))


def trim(padded):
    """The basis of one matrix's subspace from its padded basis and
    dimension."""
    B, dim = padded
    return B[:, :dim]


def projections(A, B):
    """The projections I - A A^T over I - B B^T for padded orthonormal
    bases A and B, on which the padding columns have no weight: their
    common kernel, padded_null(projections(A, B)), is (span A) ∩ (span B)."""
    eye = np.eye(A.shape[-2])
    return np.concatenate(
        np.broadcast_arrays(eye - A @ mT(A), eye - B @ mT(B)), axis=-2)


def padded_span_gap(A, da, B, db):
    """sin of the largest principal angle between the column spans of A
    and B, which have the dimensions da and db; 1.0 where these differ.
    The sines are the singular values of the part of one orthonormal basis
    that lies outside the other span."""
    eps = np.finfo(float).eps
    QA, ra = padded_orth(A, eps * max(A.shape[-2:]))
    QB, rb = padded_orth(B, eps * max(B.shape[-2:]))
    # pad the narrower basis with zero columns, so that the two share one
    # shape
    k = max(QA.shape[-1], QB.shape[-1])
    QA, QB = (np.concatenate([Q, np.zeros(Q.shape[:-1] + (k - Q.shape[-1],))],
                             axis=-1) for Q in (QA, QB))
    swap = (ra < rb)[..., None, None]
    QA, QB = np.where(swap, QB, QA), np.where(swap, QA, QB)
    # the spectral norm, the largest singular value
    gap = np.minimum(1.0, svd(QB - QA @ (mT(QA) @ QB),
                              compute_uv=False)[..., 0])
    return np.where(da != db, 1.0,
                    np.where(np.minimum(ra, rb) == 0, 0.0, gap))


def padded_contained(A, B):
    """Is span A contained in span B, for padded orthonormal bases
    (residual test)?"""
    return np.max(np.abs(A - B @ (mT(B) @ A)), axis=(-2, -1)) <= 1e-8


# -- pairing and Dirac structures ----------------------------------------

def _pairing_matrix(n):
    P = np.zeros((2 * n, 2 * n))
    P[:n, n:] = np.eye(n)
    P[n:, :n] = np.eye(n)
    return P


def dirac_basis(span):
    """The orthonormal basis of the span of a 2n x k frame, or of each
    frame of a stack, from one stacked SVD.  The first frame whose span is
    not maximal isotropic raises, the sample named at a stack."""
    span = np.asarray(span, dtype=float)
    if span.ndim < 2 or span.shape[-2] % 2 != 0:
        raise ValueError("span must be a 2n x k matrix")
    n = span.shape[-2] // 2
    B, rank = padded_orth(span)
    B = B[..., :n]
    iso = np.max(np.abs(mT(B) @ _pairing_matrix(n) @ B), axis=(-2, -1))
    bad = np.ravel((rank != n) | (iso > 1e-7))
    if bad.any():
        i = int(np.argmax(bad))
        rank, iso = np.ravel(rank)[i], np.ravel(iso)[i]
        at = f" at sample {i}" if span.ndim > 2 else ""
        if rank != n:
            raise DegenerateRankError(
                f"span has rank {rank}, expected {n}{at}")
        raise ValueError(f"span is not isotropic (residual {iso:.2e}){at}")
    return B


@dataclass(frozen=True, eq=False)
class LinearDirac:
    """Maximal isotropic subspace of V + V*: its frame `span` and an
    orthonormal `basis` of that span."""

    dim: int
    span: np.ndarray
    basis: np.ndarray

    @staticmethod
    def from_span(span):
        span = np.asarray(span, dtype=float)
        if span.ndim != 2:
            raise ValueError("span must be a 2n x k matrix")
        return LinearDirac(span.shape[0] // 2, span, dirac_basis(span))

    def __eq__(self, other):
        if not isinstance(other, LinearDirac):
            return NotImplemented
        return self.dim == other.dim and self.gap(other) <= 1e-9

    def gap(self, other):
        """sin of the largest principal angle between the two spans."""
        return float(padded_span_gap(self.basis, self.dim, other.basis,
                                     other.dim))


def from_form(theta):
    """Graph of the 2-form theta: L = {(x, theta(x, .))}."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != theta.shape[1]:
        raise ValueError("theta must be square")
    scale = max(1.0, np.abs(theta).max())
    if np.max(np.abs(theta + theta.T)) > 1e-9 * scale:
        raise ValueError("theta must be skew-symmetric")
    n = theta.shape[0]
    # column j is (e_j, theta(e_j, .)); theta(e_j, e_i) = theta[j, i]
    return LinearDirac.from_span(np.vstack([np.eye(n), theta.T]))


def push_forward(psi, L):
    """Forward image F_psi(L) = {(psi x, eta) : (x, psi* eta) in L}; a rank
    drop (a discontinuity point) raises DegenerateRankError."""
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    m, n = psi.shape
    if n != L.dim:
        raise ValueError("psi domain dimension mismatch")
    # constraints: for every basis column (a, alpha) of L,
    # alpha(x) + eta(psi a) = 0  -- unknowns (x, eta) in R^{n+m}
    A, Al = L.basis[:n], L.basis[n:]
    K = trim(padded_null(np.hstack([Al.T, (psi @ A).T])))
    return LinearDirac.from_span(np.vstack([psi @ K[:n], K[n:]]))


def pull_back(f, L):
    """Backward image f*L = {(X, f* xi) : (f X, xi) in L} on the source; a
    rank drop (a non-smooth pull-back point) raises DegenerateRankError."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    m, n = f.shape  # f: R^n -> R^m, L lives on R^m
    if m != L.dim:
        raise ValueError("f codomain dimension mismatch")
    # constraints: for basis (b, beta) of L: xi(b) + beta(f X) = 0
    A, Al = L.basis[:m], L.basis[m:]
    K = trim(padded_null(np.hstack([(Al.T @ f), A.T])))  # unknowns (X, xi)
    return LinearDirac.from_span(np.vstack([K[:n], f.T @ K[n:]]))
