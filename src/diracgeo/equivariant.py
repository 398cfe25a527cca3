"""Degree-3 equivariant data (rho*, phi) for a group action on a chart:
closedness/invariance residuals and the slice-restriction cocycle identity
for multiplicative 2-forms on action groupoids.  The pair (rho, rho*) is the
action algebroid `liegroup.action_algebroid`."""

import numpy as np

from . import jets
from .geometry import Form, ext_d, interior, lie_derivative


def action_axiom_residual(Gp, action, m, rng, n_samples=8):
    """Max defect of g.(h.x) = (gh).x and e.x = x at random samples of a
    base chart of dimension m."""
    d = Gp.dim
    worst = 0.0
    for _ in range(n_samples):
        g = list(rng.uniform(-0.4, 0.4, d))
        h = list(rng.uniform(-0.4, 0.4, d))
        x = list(rng.uniform(-0.4, 0.4, m))
        lhs = action(g, action(h, x))
        rhs = action(Gp.mul(g, h), x)
        worst = max(worst, max(abs(jets.value_of(a - b))
                               for a, b in zip(lhs, rhs)))
        ex = action(Gp.identity(), x)
        worst = max(worst, max(abs(jets.value_of(a - b))
                               for a, b in zip(ex, x)))
    return worst


def cartan_closed_residual(D, phi, samples):
    """Residuals of the three pointwise conditions on (rho*, phi) for the
    action algebroid D.

    r1: max |S + S^T| for S = rho* . rho, the symmetric part of
        <rho*(v), rho(w)>.
    r2: |i_{rho(a_i)} phi - d(rho*(a_i))| over the frame.
    r3: |L_{rho(a_i)} rho*(a_j) - rho*([a_i, a_j])| -- infinitesimal
        invariance of rho* under the action (the algebroid bracket is the
        algebra bracket negated, as the generator map of a left action is
        an anti-morphism).
    """
    closed = []
    for i in range(D.rank):
        w = -ext_d(D.dual(i))
        closed.append(w if phi is None else w + interior(D.anchor(i), phi))
    invariant = [lie_derivative(D.anchor(i), D.dual(j)) - Form(
        D.chart, 1, lambda p, c=D.structure[i, j]: c @ D.rho_star(p))
        for i in range(D.rank) for j in range(D.rank) if i != j]
    r1 = r2 = r3 = 0.0
    for p in samples:
        S = D.rho_star(p) @ D.rho(p)
        r1 = max(r1, float(np.max(np.abs(S + S.T))))
        for w in closed:
            r2 = max(r2, float(np.max(np.abs(w.at(p)))))
        for w in invariant:
            r3 = max(r3, float(np.max(np.abs(w.at(p)))))
    return r1, r2, r3


def group_invariance_residual(Gp, action, D, rng, n_samples=8):
    """Residual of the group-level invariance of rho*: the pullback by the
    action of g of rho*(Ad_g v) equals rho*(v), i.e.
    Ad_g^T rho*(g.x) J = rho*(x) with J the Jacobian of x -> g.x."""
    worst = 0.0
    for _ in range(n_samples):
        g = list(rng.uniform(-0.4, 0.4, Gp.dim))
        x = list(rng.uniform(-0.4, 0.4, D.chart.dim))
        gx = [jets.value_of(c) for c in action(g, x)]
        dact = np.array(jets.jacobian(lambda q: action(g, q), x))
        lhs = Gp.Ad_matrix(g).T @ D.rho_star(gx) @ dact
        worst = max(worst, float(np.max(np.abs(lhs - D.rho_star(x)))))
    return worst


def slice_form(omega, group_dim, g, x, X, Xp):
    """c(g)(X, X') at x: omega at (g, x) on purely-base tangent vectors."""
    zeros = [0.0] * group_dim
    p = list(g) + list(x)
    return omega(p, zeros + list(X), zeros + list(Xp))


def cocycle_residual(Gp, action, omega, rng, n_samples=8):
    """Max defect of c(hg) = g*c(h) + c(g) over sampled (h, g, x) and base
    tangent pairs, where c(g) is the slice restriction of omega."""
    d = Gp.dim
    m = omega.chart.dim - d
    tangent = np.eye(m)
    worst = 0.0
    for _ in range(n_samples):
        h = list(rng.uniform(-0.4, 0.4, d))
        g = list(rng.uniform(-0.4, 0.4, d))
        x = list(rng.uniform(-0.4, 0.4, m))
        hg = Gp.mul(h, g)
        gx = [jets.value_of(c) for c in action(g, x)]
        dact = jets.jacobian(lambda q: action(g, q), x)
        for a in range(m):
            for b in range(a + 1, m):
                X, Xp = list(tangent[a]), list(tangent[b])
                lhs = slice_form(omega, d, hg, x, X, Xp)
                pulled = slice_form(omega, d, h, gx,
                                    list(dact @ tangent[a]),
                                    list(dact @ tangent[b]))
                rhs = pulled + slice_form(omega, d, g, x, X, Xp)
                worst = max(worst, abs(jets.value_of(lhs - rhs)))
    return worst
