"""The phi-twisted Courant bracket on sections of TM + T*M, almost-Dirac
fields given by global frames, and the infinitesimal-multiplicativity and
Cartan-closedness conditions for anchored dual pairs (rho, rho*)."""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import jets, linear
from .geometry import (Chart, Form, VectorField, coordinates, ext_d,
                       interior, lie_bracket, lie_derivative, _check_chart)
from .groupoid import max_abs, worst_of


@dataclass
class Section:
    """A section (X, xi) of TM + T*M over one chart."""

    X: VectorField
    xi: Form  # degree 1

    def __post_init__(self):
        _check_chart(self.X.chart, self.xi.chart)
        if self.xi.degree != 1:
            raise ValueError("xi must be a 1-form")

    @property
    def chart(self):
        return self.X.chart


def courant_bracket(a, b, phi=None):
    """[(X,xi),(Y,eta)]_phi = ([X,Y], L_X eta - i_Y d xi + phi(X,Y,.))."""
    _check_chart(a.chart, b.chart)
    Z = lie_bracket(a.X, b.X)
    zeta = lie_derivative(a.X, b.xi) - interior(b.X, ext_d(a.xi))
    if phi is not None:
        _check_chart(phi.chart, a.chart)
        zeta = zeta + interior(b.X, interior(a.X, phi))
    return Section(Z, zeta)


def pair_sections(a, b, p):
    """<(X,xi),(Y,eta)>_+ = xi(Y) + eta(X) at the point p."""
    return a.xi(p, b.X(p)) + b.xi(p, a.X(p))


@dataclass
class AlmostDiracField:
    """Almost-Dirac structure given by a global frame of n sections."""

    frame: list

    def __post_init__(self):
        ch = self.frame[0].chart
        for s in self.frame:
            _check_chart(s.chart, ch)
        if len(self.frame) != ch.dim:
            raise ValueError("frame size must equal the chart dimension")

    def dirac_at(self, p):
        """Evaluate the frame into a LinearDirac at the point p."""
        cols = [np.concatenate([[jets.value_of(c) for c in s.X(p)],
                                s.xi.at(p)]) for s in self.frame]
        return linear.LinearDirac.from_span(np.array(cols).T)


def graph_of_form(omega):
    """The almost-Dirac field {(X, i_X omega)} of a 2-form omega."""
    ch = omega.chart
    frame = []
    for i in range(ch.dim):
        e = [1.0 if j == i else 0.0 for j in range(ch.dim)]
        X = VectorField(ch, lambda p, e=e: list(e))
        frame.append(Section(X, interior(X, omega)))
    return AlmostDiracField(frame)


def integrability_residual(L, phi, samples):
    """Max pairing of frame brackets against the frame over the samples.

    Vanishing pairing against all of L_p is membership in L_p (maximal
    isotropy), so this measures closure under the twisted bracket.
    """
    brackets = [courant_bracket(a, b, phi)
                for a, b in combinations(L.frame, 2)]
    worst = 0.0
    for p in samples:
        L.dirac_at(p)  # raises if the frame degenerates here
        for br in brackets:
            for s in L.frame:
                worst = worst_of(worst, abs(jets.value_of(
                    pair_sections(br, s, p))))
    return worst


@dataclass
class AnchoredDual:
    """An anchored bundle A of rank r over a chart with a dual map
    sigma: A -> T*M, presented in a frame a_1..a_r of A: rho(p) is the
    n x r anchor matrix, rho_star(p) the r x n matrix of sigma (both
    generic over jets, batch-first (..., n, r) and (..., r, n) at a batch
    of points, or constant) and structure[i, j, k] the constant
    coefficient of a_k in [a_i, a_j] (zeros when A is abelian)."""

    chart: Chart
    rho: object
    rho_star: object
    structure: np.ndarray

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
