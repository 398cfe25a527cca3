"""Anchored dual pairs (rho, sigma), the one presentation of a frame of
TM + T*M: the graph of a 2-form, the phi-twisted frame brackets, the
integrability of a Dirac frame, and the IM and Cartan-closedness
conditions.  All are first order in the frame: each reads one frame jet
(AnchoredDual.jet) with (d sigma_j)_am = d_a sigma_jm - d_m sigma_ja,
(L_X alpha)_m = X^l d_l alpha_m + alpha_l d_m X^l and [X, Y]^k =
X^l d_l Y^k - Y^l d_l X^k (rho_i = rho(a_i), sigma_i = sigma(a_i)); a
quantity of pairs (a_p, b_p) of frame elements is (..., P, n)."""

from dataclasses import dataclass

import numpy as np

from . import jets
from .geometry import Chart, VectorField, block, coordinates
from .groupoid import worst_of
from .linear import dirac_basis, mT, mv


@dataclass
class AnchoredDual:
    """An anchored bundle A of rank r over a chart with a dual map
    sigma: A -> T*M, presented in a frame a_1..a_r of A: rho(p) is the
    n x r anchor matrix, rho_star(p) the r x n matrix of sigma (both
    generic over jets, batch-first (..., n, r) and (..., r, n) at a batch
    of points, or constant) and structure[i, j, k] the constant
    coefficient of a_k in [a_i, a_j] (zeros when A is abelian); frame_jet,
    if given, is jet(p) in closed form, at float points and float stacks."""

    chart: Chart
    rho: object
    rho_star: object
    structure: np.ndarray
    frame_jet: object = None

    @property
    def rank(self):
        return len(self.structure)

    def anchor(self, i):
        """rho(a_i) as a vector field."""
        return VectorField(self.chart, lambda p: list(
            np.moveaxis(self.rho(p)[..., i], -1, 0)))

    def frame(self, p):
        """The (2n, r) frame matrix [rho; sigma^T] at p, whose column i is
        the section a_i; batch-first at a batch of points."""
        return block([[self.rho(p)], [mT(self.rho_star(p))]])

    def jet(self, p):
        """(rho, sigma, d rho, d sigma) at p from frame_jet, or where p
        carries jets or there is none one jet pass over the frame:
        rho[..., i, k] = rho_i^k, d rho[..., i, k, l] = d_l rho_i^k, and so
        for sigma; batch-first at a stack unless constant (frame_jet's four
        each on its own, the pass's values together and its derivatives
        together), object arrays of jets where p carries jets."""
        if self.frame_jet and not any(isinstance(c, jets.Jet) for c in p):
            return self.frame_jet(p)
        n, values = self.chart.dim, []

        def f(q):
            F, tag = self.frame(q), q[0].tag
            # each value is its entry without this pass's jet layer
            values[:] = [[c.value if isinstance(c, jets.Jet) and c.tag == tag
                          else c for c in row] for row in F]
            return F

        D = np.swapaxes(jets.jacobian(f, p), -3, -2)   # [..., i, k, l]
        V = mT(jets.stack(values))
        return V[..., :n], V[..., n:], D[..., :n, :], D[..., n:, :]


def graph_of_form(theta):
    """The graph {(X, i_X theta)} of a 2-form theta: A = TM with rho the
    identity, sigma the flat map of theta and zero structure."""
    n = theta.chart.dim
    return AnchoredDual(theta.chart, lambda p: np.eye(n), theta.components,
                        np.zeros((n, n, n)))


def _lie(J, a, b):
    """L_{rho_a} sigma_b."""
    rho, sigma, drho, dsigma = J
    return mv(dsigma[..., b, :, :], rho[..., a, :]) \
        + mv(mT(drho[..., a, :, :]), sigma[..., b, :])


def frame_brackets(J, Phi, a, b):
    """The twisted brackets [a_i, a_j]_phi of the frame elements for the
    pairs (i, j) of the index arrays a, b, from the frame jet J and the
    components Phi of phi (None for no twist): the vector parts
    [rho_i, rho_j] and the covector parts L_{rho_i} sigma_j
    - i_{rho_j} d sigma_i + phi(rho_i, rho_j, .)."""
    rho, _, drho, dsigma = J
    X, Y, ds = rho[..., a, :], rho[..., b, :], dsigma[..., a, :, :]
    Z = mv(drho[..., b, :, :], X) - mv(drho[..., a, :, :], Y)
    # i_Y d sigma_i = (d sigma_i)^T Y, and phi(X, Y, .) is Phi contracted
    # with Y and then X in its last slots
    zeta = _lie(J, a, b) - mv(ds - mT(ds), Y)
    if Phi is not None:
        zeta = zeta + mv(mv(Phi[..., None, :, :, :], Y[..., None, :]), X)
    return Z, zeta


def integrability_residual(D, phi, samples):
    """Largest pairing of the frame brackets [a_i, a_j]_phi, i < j, against
    the frame.  Vanishing pairing against all of L_p is membership in L_p
    (maximal isotropy), so this measures closure under the twisted
    bracket.  A frame of rank other than n, or one that is not a Dirac
    structure at a sample, raises."""
    n = D.chart.dim
    if D.rank != n:
        raise ValueError(f"a Dirac frame needs {n} sections, got {D.rank}")
    P = np.asarray(samples, dtype=float)
    J, Phi = D.jet(coordinates(P)), None if phi is None else phi.at(P)
    rho, sigma = J[:2]
    F = block([[mT(rho)], [mT(sigma)]])
    dirac_basis(np.broadcast_to(F, (len(P),) + F.shape[-2:]))  # or raises
    Z, zeta = frame_brackets(J, Phi, *np.triu_indices(n, 1))
    return worst_of(0.0, np.abs(zeta @ mT(rho) + Z @ mT(sigma)))


def _isotropy_residual(J):
    """max |S + S^T| for S_ij = <sigma(a_i), rho(a_j)>."""
    S = J[1] @ mT(J[0])
    return worst_of(0.0, np.abs(S + mT(S)))


def _im_totals(D, J, Phi):
    """The 1-forms d_A sigma(a_i, a_j) - i_{rho_i ^ rho_j} phi, i < j, by
    the Cartan formula c_ij . sigma - i_{rho_i} d sigma_j + L_{rho_j}
    sigma_i - phi(rho_i, rho_j, .): c_ij . sigma + pr_T* [a_j, a_i]_phi."""
    a, b = np.triu_indices(D.rank, 1)
    return D.structure[a, b] @ J[1] + frame_brackets(J, Phi, b, a)[1]


def im_conditions_residual(D, phi, samples):
    """Residuals of the two infinitesimal multiplicativity conditions:
    r1 the isotropy residual, r2 the largest component of the IM totals."""
    P = np.asarray(samples, dtype=float)
    J, Phi = D.jet(coordinates(P)), None if phi is None else phi.at(P)
    return _isotropy_residual(J), \
        worst_of(0.0, np.abs(_im_totals(D, J, Phi)))


def cartan_closed_residual(D, phi, samples):
    """Residuals of the three pointwise conditions on (rho*, phi) for the
    action algebroid D.

    r1: the isotropy residual.
    r2: |i_{rho(a_i)} phi - d(rho*(a_i))| over the frame.
    r3: |L_{rho(a_i)} rho*(a_j) - rho*([a_i, a_j])| -- infinitesimal
        invariance of rho* under the action (the algebroid bracket is the
        algebra bracket negated, as the generator map of a left action is
        an anti-morphism).

    r2 is stronger than the IM conditions: it says that the form
    liegroup.general_action_form built from D is closed, while the IM
    conditions only say that some relatively closed form exists.
    """
    P = np.asarray(samples, dtype=float)
    J, Phi = D.jet(coordinates(P)), None if phi is None else phi.at(P)
    closed = J[3] - mT(J[3])        # -d sigma_i
    if Phi is not None:             # i_{rho_i} phi, its last slot rho_i
        closed = closed + mv(Phi[..., None, :, :, :], J[0][..., None, :])
    a, b = np.nonzero(~np.eye(D.rank, dtype=bool))     # all pairs i != j
    invariant = _lie(J, a, b) - D.structure[a, b] @ J[1]
    return (_isotropy_residual(J), worst_of(0.0, np.abs(closed)),
            worst_of(0.0, np.abs(invariant)))
