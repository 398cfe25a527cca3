"""Degree-3 equivariant data (rho*, phi) for a group action on a chart:
closedness/invariance residuals and the slice-restriction cocycle identity
for multiplicative 2-forms on action groupoids."""

from dataclasses import dataclass

import numpy as np

from . import jets
from .geometry import Chart, Form, VectorField, dot, ext_d, lie_derivative
from .liegroup import MatrixGroup, action_generators


@dataclass
class CartanTriple:
    """Action data on a chart M: a group acting via `action(u, x)` in the
    exp chart, a linear map rho*: algebra -> 1-forms given as an evaluator
    rho_star(x, v) -> covector components, and a closed 3-form phi (or None)."""

    group: MatrixGroup
    chart: Chart
    action: object          # (u, x) -> x'
    rho_star: object        # (x, v) -> covector list
    phi: object = None      # degree-3 Form on chart, or None

    def __post_init__(self):
        self.rho = action_generators(self.action)

    def rho_field(self, v):
        v = list(v)
        return VectorField(self.chart, lambda p: self.rho(p, v))

    def rho_star_form(self, v):
        v = list(v)
        return Form(self.chart, 1, lambda p: np.asarray(self.rho_star(p, v)))


def action_axiom_residual(T, rng, n_samples=8):
    """Max defect of g.(h.x) = (gh).x and e.x = x at random samples."""
    d = T.group.dim
    m = T.chart.dim
    worst = 0.0
    for _ in range(n_samples):
        g = list(rng.uniform(-0.4, 0.4, d))
        h = list(rng.uniform(-0.4, 0.4, d))
        x = list(rng.uniform(-0.4, 0.4, m))
        lhs = T.action(g, T.action(h, x))
        rhs = T.action(T.group.mul(g, h), x)
        worst = max(worst, max(abs(jets.value_of(a - b))
                               for a, b in zip(lhs, rhs)))
        ex = T.action(T.group.identity(), x)
        worst = max(worst, max(abs(jets.value_of(a - b))
                               for a, b in zip(ex, x)))
    return worst


def cartan_closed_residual(T, samples):
    """Residuals of the three pointwise conditions on (rho*, phi).

    r1: |i_{rho(v)} rho*(v)| over the basis and polarized sums e_i + e_j
        (so the full symmetric condition is covered).
    r2: |i_{rho(v)} phi - d(rho*(v))| over basis covectors and tangent pairs.
    r3: |rho*([v,w]) + L_{rho(v)} rho*(w)| -- infinitesimal invariance of
        rho* under the action (the generator map of a left action is an
        anti-morphism, hence the plus sign).
    """
    d = T.group.dim
    m = T.chart.dim
    basis = [list(e) for e in np.eye(d)]
    probes = list(basis)
    for i in range(d):
        for j in range(i + 1, d):
            probes.append([a + b for a, b in zip(basis[i], basis[j])])
    upper = np.triu_indices(m, 1)
    r1 = r2 = r3 = 0.0
    for p in samples:
        for v in probes:
            rv = T.rho(p, v)
            r1 = max(r1, abs(jets.value_of(dot(T.rho_star(p, v), rv))))
        for v in basis:
            val = -ext_d(T.rho_star_form(v)).at(p)
            if T.phi is not None:
                val = val + np.tensordot(T.rho(p, v), T.phi.at(p), axes=1)
            r2 = max(r2, float(np.max(np.abs(val[upper]), initial=0.0)))
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                br = T.group.bracket(basis[i], basis[j])
                val = T.rho_star_form(br) + lie_derivative(
                    T.rho_field(basis[i]), T.rho_star_form(basis[j]))
                r3 = max(r3, float(np.max(np.abs(val.at(p)))))
    return r1, r2, r3


def group_invariance_residual(T, rng, n_samples=8):
    """Residual of the group-level invariance of rho*:
    the pullback by the action of g of rho*(Ad_g v) equals rho*(v)."""
    d = T.group.dim
    m = T.chart.dim
    worst = 0.0
    basis = [list(e) for e in np.eye(d)]
    tangent = np.eye(m)
    for _ in range(n_samples):
        g = list(rng.uniform(-0.4, 0.4, d))
        x = list(rng.uniform(-0.4, 0.4, m))
        gx = [jets.value_of(c) for c in T.action(g, x)]
        dact = jets.jacobian(lambda q: T.action(g, q), x)
        for v in basis:
            adv = [jets.value_of(c) for c in T.group.Ad(g, v)]
            cov = T.rho_star(gx, adv)
            ref = T.rho_star(x, v)
            for e in tangent:
                lhs = dot(cov, list(dact @ e))
                rhs = dot(ref, list(e))
                worst = max(worst, abs(jets.value_of(lhs - rhs)))
    return worst


def slice_form(omega, group_dim, g, x, X, Xp):
    """c(g)(X, X') at x: omega at (g, x) on purely-base tangent vectors."""
    zeros = [0.0] * group_dim
    p = list(g) + list(x)
    return omega(p, zeros + list(X), zeros + list(Xp))


def cocycle_residual(T, omega, rng, n_samples=8):
    """Max defect of c(hg) = g*c(h) + c(g) over sampled (h, g, x) and base
    tangent pairs, where c(g) is the slice restriction of omega."""
    d = T.group.dim
    m = T.chart.dim
    tangent = np.eye(m)
    worst = 0.0
    for _ in range(n_samples):
        h = list(rng.uniform(-0.4, 0.4, d))
        g = list(rng.uniform(-0.4, 0.4, d))
        x = list(rng.uniform(-0.4, 0.4, m))
        hg = T.group.mul(h, g)
        gx = [jets.value_of(c) for c in T.action(g, x)]
        dact = jets.jacobian(lambda q: T.action(g, q), x)
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
