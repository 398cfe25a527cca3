"""The phi-twisted Courant bracket on sections of TM + T*M and anchored
dual pairs (rho, sigma), the one presentation of a frame of TM + T*M: the
graph of a 2-form, the integrability residual of a Dirac frame, and the
infinitesimal-multiplicativity and Cartan-closedness conditions."""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import jets, linear
from .geometry import (Chart, Form, VectorField, block, coordinates, ext_d,
                       interior, lie_bracket, lie_derivative)
from .groupoid import max_abs, worst_of


def courant_bracket(a, b, phi=None):
    """[(X,xi),(Y,eta)]_phi = ([X,Y], L_X eta - i_Y d xi + phi(X,Y,.)) for
    sections given as (vector field, 1-form) pairs."""
    (X, xi), (Y, eta) = a, b
    zeta = lie_derivative(X, eta) - interior(Y, ext_d(xi))
    if phi is not None:
        zeta = zeta + interior(Y, interior(X, phi))
    return lie_bracket(X, Y), zeta


@dataclass
class AnchoredDual:
    """An anchored bundle A of rank r over a chart with a dual map
    sigma: A -> T*M, presented in a frame a_1..a_r of A: rho(p) is the
    n x r anchor matrix, rho_star(p) the r x n matrix of sigma (both
    generic over jets, batch-first (..., n, r) and (..., r, n) at a batch
    of points, or constant) and structure[i, j, k] the constant
    coefficient of a_k in [a_i, a_j] (zeros when A is abelian); whole,
    if given, is the frame function whose slices rho and rho_star are."""

    chart: Chart
    rho: object
    rho_star: object
    structure: np.ndarray
    whole: object = None

    @property
    def rank(self):
        return len(self.structure)

    def anchor(self, i):
        """rho(a_i) as a vector field."""
        return VectorField(self.chart, lambda p: list(
            np.moveaxis(self.rho(p)[..., i], -1, 0)))

    def dual(self, i):
        """sigma(a_i) as a 1-form."""
        return Form(self.chart, 1, lambda p: self.rho_star(p)[..., i, :])

    def section(self, i):
        """(rho(a_i), sigma(a_i)) as a section of TM + T*M."""
        return self.anchor(i), self.dual(i)

    def frame(self, p):
        """The (2n, r) frame matrix [rho; sigma^T] at p, whose column i is
        the section a_i; batch-first at a batch of points."""
        return self.whole(p) if self.whole is not None else block(
            [[self.rho(p)], [linear.mT(self.rho_star(p))]])


def graph_of_form(theta):
    """The graph {(X, i_X theta)} of a 2-form theta: A = TM with rho the
    identity, sigma the flat map of theta and zero structure."""
    n = theta.chart.dim
    return AnchoredDual(theta.chart, lambda p: np.eye(n), theta.components,
                        np.zeros((n, n, n)))


def integrability_residual(D, phi, samples):
    """Largest pairing of the frame brackets [a_i, a_j]_phi against the
    frame, each bracket evaluated once on the stack of samples.

    Vanishing pairing against all of L_p is membership in L_p (maximal
    isotropy), so this measures closure under the twisted bracket.  A frame
    of rank other than n, or one that is not a Dirac structure at a
    sample, raises.
    """
    n = D.chart.dim
    if D.rank != n:
        raise ValueError(f"a Dirac frame needs {n} sections, got {D.rank}")
    P = np.asarray(samples, dtype=float)
    p = coordinates(P)
    F = D.frame(p)
    for Fp in np.broadcast_to(F, (len(P),) + F.shape[-2:]):
        linear.LinearDirac.from_span(Fp)   # raises where it degenerates
    worst = 0.0
    for i, j in combinations(range(n), 2):
        Z, zeta = courant_bracket(D.section(i), D.section(j), phi)
        # the row [zeta, Z] of the bracket at each sample, against F
        row = np.concatenate(np.broadcast_arrays(
            zeta.at(P)[:, None, :], jets.stack([Z(p)])), axis=-1)
        worst = worst_of(worst, np.abs(row @ F))
    return worst


def _bracket_dual(D, i, j):
    """sigma([a_i, a_j]) as a 1-form."""
    return Form(D.chart, 1, lambda p, c=D.structure[i, j]: c @ D.rho_star(p))


def _isotropy_residual(D, samples):
    """max |S + S^T| for S = rho_star . rho on the stack of samples:
    <sigma(a_i), rho(a_j)> is antisymmetric."""
    p = coordinates(samples)
    S = D.rho_star(p) @ D.rho(p)
    return worst_of(0.0, np.abs(S + linear.mT(S)))


def _worst_form(forms, samples):
    """The largest max_abs of the forms (0 when there are none)."""
    return worst_of(0.0, *(max_abs(w, samples) for w in forms))


def im_totals(D, phi):
    """The 1-forms d_A sigma(a_i, a_j) - i_{rho(a_i) ^ rho(a_j)} phi for
    i < j, where d_A sigma(a,b) = sigma([a,b]) - L_a sigma(b) + L_b sigma(a)
    + d<sigma(b), rho(a)>   (L_a means L_{rho(a)})."""
    totals = []
    for i, j in combinations(range(D.rank), 2):
        X, Y = D.anchor(i), D.anchor(j)
        total = _bracket_dual(D, i, j) - lie_derivative(X, D.dual(j)) \
            + lie_derivative(Y, D.dual(i)) + ext_d(interior(X, D.dual(j)))
        if phi is not None:
            total = total - interior(Y, interior(X, phi))
        totals.append(total)
    return totals


def im_conditions_residual(D, phi, samples):
    """Residuals of the two infinitesimal multiplicativity conditions.

    r1: the isotropy residual max |S + S^T| for S = rho_star . rho.
    r2: the largest component of the im_totals.
    """
    return _isotropy_residual(D, samples), \
        _worst_form(im_totals(D, phi), samples)


def cartan_closed_residual(D, phi, samples):
    """Residuals of the three pointwise conditions on (rho*, phi) for the
    action algebroid D.

    r1: the isotropy residual, as in im_conditions_residual.
    r2: |i_{rho(a_i)} phi - d(rho*(a_i))| over the frame.
    r3: |L_{rho(a_i)} rho*(a_j) - rho*([a_i, a_j])| -- infinitesimal
        invariance of rho* under the action (the algebroid bracket is the
        algebra bracket negated, as the generator map of a left action is
        an anti-morphism).

    r2 is stronger than the IM conditions: it says that the form
    liegroup.general_action_form built from D is closed, while the IM
    conditions only say that some relatively closed form exists.
    """
    closed = []
    for i in range(D.rank):
        w = -ext_d(D.dual(i))
        closed.append(w if phi is None else w + interior(D.anchor(i), phi))
    invariant = [lie_derivative(D.anchor(i), D.dual(j))
                 - _bracket_dual(D, i, j)
                 for i, j in permutations(range(D.rank), 2)]
    return (_isotropy_residual(D, samples), _worst_form(closed, samples),
            _worst_form(invariant, samples))
