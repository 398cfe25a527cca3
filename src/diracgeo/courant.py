"""The phi-twisted Courant bracket on sections of TM + T*M, almost-Dirac
fields given by global frames, and the infinitesimal-multiplicativity
conditions for anchored dual pairs (rho, rho*)."""

from dataclasses import dataclass

import numpy as np

from . import jets, linear
from .geometry import (Form, VectorField, ext_d, interior, lie_bracket,
                       lie_derivative, _check_chart)


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
    worst = 0.0
    for p in samples:
        L.dirac_at(p)  # raises if the frame degenerates here
        for i in range(len(L.frame)):
            for j in range(i + 1, len(L.frame)):
                br = courant_bracket(L.frame[i], L.frame[j], phi)
                for s in L.frame:
                    r = abs(jets.value_of(pair_sections(br, s, p)))
                    worst = max(worst, r)
    return worst


@dataclass
class AnchoredDual:
    """Frame presentation of (A, rho, rho*): anchor vector fields, candidate
    dual forms, and structure functions c[i][j][k] for the frame bracket."""

    rho: list        # r vector fields
    rho_star: list   # r 1-forms
    structure: object  # c[i][j] -> list of r exprs/callables, or None for abelian

    @property
    def chart(self):
        return self.rho[0].chart

    @property
    def rank(self):
        return len(self.rho)

    def struct_coeff(self, i, j, k, p):
        if self.structure is None:
            return 0.0
        c = self.structure[i][j][k]
        if isinstance(c, (int, float)):
            return float(c)
        return c(p)

    def bracket_field(self, i, j):
        """rho([alpha_i, alpha_j]) as a vector field via structure functions."""
        ch = self.chart

        def ev(p):
            out = [0.0] * ch.dim
            for k in range(self.rank):
                c = self.struct_coeff(i, j, k, p)
                if isinstance(c, float) and c == 0.0:
                    continue
                v = self.rho[k](p)
                out = [o + c * vc for o, vc in zip(out, v)]
            return out

        return VectorField(ch, ev)

    def rho_star_bracket(self, i, j):
        """rho*([alpha_i, alpha_j]) as a 1-form via structure functions."""
        ch = self.chart

        def components(p):
            total = np.zeros(ch.dim)
            for k in range(self.rank):
                c = self.struct_coeff(i, j, k, p)
                if isinstance(c, float) and c == 0.0:
                    continue
                total = total + self.rho_star[k].components(p) * c
            return total

        return Form(ch, 1, components)


def anchor_bracket_residual(D, samples):
    """|rho([a_i,a_j]) - [rho(a_i), rho(a_j)]| -- the anchor is a morphism."""
    worst = 0.0
    for p in samples:
        for i in range(D.rank):
            for j in range(D.rank):
                lhs = D.bracket_field(i, j)(p)
                rhs = lie_bracket(D.rho[i], D.rho[j])(p)
                worst = max(worst, max(abs(jets.value_of(a - b))
                                       for a, b in zip(lhs, rhs)))
    return worst


def im_conditions_residual(D, phi, samples):
    """Residuals of the two infinitesimal multiplicativity conditions.

    r1: antisymmetry <rho*(a_i), rho(a_j)> + <rho*(a_j), rho(a_i)>.
    r2: d_A rho*(a,b) - i_{rho(a) ^ rho(b)} phi, where
        d_A rho*(a,b) = rho*([a,b]) - L_a rho*(b) + L_b rho*(a)
                        + d<rho*(b), rho(a)>   (L_a means L_{rho(a)}).
    """
    r1 = 0.0
    r2 = 0.0
    for p in samples:
        for i in range(D.rank):
            for j in range(D.rank):
                s = jets.value_of(D.rho_star[i](p, D.rho[j](p))
                                  + D.rho_star[j](p, D.rho[i](p)))
                r1 = max(r1, abs(s))
                if j <= i:
                    continue
                term1 = D.rho_star_bracket(i, j)
                term2 = lie_derivative(D.rho[i], D.rho_star[j])
                term3 = lie_derivative(D.rho[j], D.rho_star[i])
                term4 = ext_d(interior(D.rho[i], D.rho_star[j]))
                total = term1 - term2 + term3 + term4
                if phi is not None:
                    total = total - interior(D.rho[j],
                                             interior(D.rho[i], phi))
                r2 = max(r2, float(np.max(np.abs(total.at(p)))))
    return r1, r2
