"""Presymplectic realization and quasi-hamiltonian checkers.

A realization is (P, eta, mu) mapping into a Dirac-structured target,
given as the AnchoredDual of its frame; the defining property is that each
target frame element (w, xi) lifts to a unique tangent vector X with
d mu(X) = w and i_X eta = mu* xi, and that d eta + mu* phi = 0 for the
target's 3-form phi.  The quasi-hamiltonian axioms specialize the target
to the Cartan-Dirac structure on a group.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .courant import AnchoredDual
from .geometry import (Chart, ChartMap, Form, block, coordinates, ext_d,
                       lie_derivative, map_jacobian, pullback)
from .groupoid import max_abs, worst_of
from .liegroup import (MatrixGroup, amm_rho_star, cartan_dirac_frame,
                       cartan_form, torus)
from .linear import mT, padded_null, padded_orth, padded_span_gap, pinv_solve


def closedness_residual(eta, mu, phi, samples):
    """|d eta + mu* phi| at the samples (|d eta| when phi is None)."""
    total = ext_d(eta) if phi is None else ext_d(eta) + pullback(mu, phi)
    return max_abs(total, samples)


def realization_check(eta, mu, target, samples):
    """Solve d mu(X) = w, i_X eta = mu* xi for each column (w, xi) of the
    target's frame, at the stack of samples.

    Returns a report dict with the solvability residual, the uniqueness
    and kernel-isomorphism flags, and the induced action vectors per
    sample (one X per frame column of the target Dirac space).
    """
    P = np.asarray(samples, dtype=float)
    Y = mu(coordinates(P))
    Dmu = map_jacobian(mu, P, Y)
    H = eta.at(P)
    m = Dmu.shape[-2]
    frame = target.frame(Y)
    A = block([[Dmu], [mT(H)]])
    rhs = block([[frame[..., :m, :]], [mT(Dmu) @ frame[..., m:, :]]])
    X, ker_dim = pinv_solve(A, rhs)
    solve = worst_of(0.0, np.abs(A @ X - rhs))
    kdim = int(np.max(ker_dim))
    # d mu maps Ker(eta) isomorphically onto Ker(L), the tangent parts of
    # the frame combinations with no covector part: equal dimensions, an
    # injective image and a zero principal angle
    ker_eta, dim_eta = padded_null(H)
    ker_L, dim_L = padded_orth(frame[..., :m, :]
                               @ padded_null(frame[..., m:, :])[0])
    image = Dmu @ ker_eta
    iso = (dim_eta == dim_L) & ((dim_eta == 0) | (
        (padded_orth(image)[1] == dim_eta)
        & (padded_span_gap(image, dim_eta, ker_L, dim_L) <= 1e-7)))
    return {"kernel_iso_ok": bool(np.all(iso)),
            "action_vectors": mT(X), "solve_residual": solve,
            "dirac_map": solve <= 1e-8, "kernel_dim_max": kdim,
            "unique": kdim == 0}


@dataclass
class QuasiHamData:
    """A space P with a group action, a 2-form eta and a moment map mu.  D
    is the action algebroid P x h: its anchor is the generator matrix
    rho_P(p), n x dim(h), and its dual mu*(amm_rho_star), whose row v is the
    moment one-form (1/2) mu*((lam + lam_bar)(.), v)."""

    group: MatrixGroup
    D: AnchoredDual
    eta: Form
    mu: ChartMap             # P -> group chart


def equivariance_residual(Q, samples):
    """|d mu(rho_P(v)) - (v_r - v_l) at mu(p)| over the algebra basis."""
    p = coordinates(samples)
    y = Q.mu(p)
    gen = cartan_dirac_frame(Q.group).rho(y)
    return worst_of(0.0, np.abs(map_jacobian(Q.mu, p, y) @ Q.D.rho(p) - gen))


def moment_residual(Q, samples):
    """|i_{rho_P(v)} eta - moment 1-form| over the algebra basis: the
    entries of rho^T H - sigma at the stack of samples."""
    p = coordinates(samples)
    return worst_of(0.0, np.abs(mT(Q.D.rho(p)) @ Q.eta.at(samples)
                                - Q.D.rho_star(p)))


def quasi_ham_check(Q, samples):
    """Residuals (r1, r2, r3, r_inv) of the quasi-hamiltonian axioms.

    r1: |d eta + mu* phi|;  r2: the moment_residual;
    r3: span gap between Ker(eta_p) and rho_P(Ker(Ad_{mu(p)} + 1));
    r_inv: |L_{rho_P(v)} eta| (invariance of eta under the action).
    """
    Gp = Q.group
    D = Q.D
    r1 = closedness_residual(Q.eta, Q.mu, cartan_form(Gp), samples)
    r_inv = worst_of(0.0, *(max_abs(lie_derivative(D.anchor(i), Q.eta),
                                    samples) for i in range(D.rank)))
    P = np.asarray(samples, dtype=float)
    ker_v, dim_v = padded_null(Gp.Ad_matrix(Q.mu(coordinates(P)))
                               + np.eye(Gp.dim))
    r3 = worst_of(0.0, padded_span_gap(D.rho(coordinates(P)) @ ker_v, dim_v,
                                       *padded_null(Q.eta.at(P))))
    return r1, moment_residual(Q, P), r3, r_inv


def equivalence_crosscheck(Q, samples):
    """Run the realization solve against the Cartan-Dirac target and compare
    the solved action vectors with Q's generators.

    Column j of the Cartan-Dirac frame is (v_r - v_l, ((v_r + v_l)/2)-flat)
    for the basis vector v = e_j; its realization solve must return
    rho_P(e_j).
    """
    report = realization_check(Q.eta, Q.mu, cartan_dirac_frame(Q.group),
                               samples)
    gap = mT(report["action_vectors"]) - Q.D.rho(coordinates(samples))
    report["generator_mismatch"] = worst_of(0.0, np.abs(gap))
    return report


# -- the plane with a circle action -----------------------------------------

def rotation_quasi_ham(factor=0.5):
    """The plane R^2 with area form dx^dy, the clockwise rotation
    generator (y, -x), and moment map mu = factor*(x^2 + y^2) into the
    circle group chart, with its Jacobian in closed form.  factor=1/2
    satisfies the axioms; other factors give a negative control."""
    ch = Chart(("x", "y"))
    Gp = torus(1)
    eta = Form.from_components(ch, 2, {(0, 1): "1.0"})
    mu = ChartMap(ch, Gp.chart,
                  lambda p: [factor * (p[0] * p[0] + p[1] * p[1])],
                  lambda P, _: factor * (P + P)[..., None, :])
    sigma = amm_rho_star(Gp)

    def rho_star(p):
        y = mu(p)
        return sigma(y) @ map_jacobian(mu, p, y)

    D = AnchoredDual(ch, lambda p: jets.stack([[p[1]], [-p[0]]]), rho_star,
                     -Gp.struct)
    return QuasiHamData(Gp, D, eta, mu)


def annulus_samples(rng, n):
    """The (n, 2) stack of the first n draws from [-1.2, 1.2]^2 outside the
    disc of radius 0.3, drawn in blocks of n; |p| is sqrt(p . p), as
    np.linalg.norm computes it."""
    out = np.empty((0, 2))
    while len(out) < n:
        P = rng.uniform(-1.2, 1.2, (n, 2))
        keep = np.sqrt((P[:, None, :] @ P[:, :, None])[:, 0, 0]) > 0.3
        out = np.concatenate([out, P[keep]])
    return out[:n]
