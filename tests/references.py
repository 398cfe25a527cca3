"""Reference constructions that the tests check the package against.  No
run of the package uses them, so they live with the tests: the action
algebroid of any group action, whose anchor is a jet pass, conjugation
by two chart products, the canonical symplectic form of T*H by its
definition, Ker(omega) ∩ T_xM through the projections of padded bases, a
source map that is no coordinate selection, and charts, chart maps and
vector fields from names and expressions."""

import dataclasses

from diracgeo import jets
from diracgeo.courant import AnchoredDual
from diracgeo.expr import parse
from diracgeo.geometry import (Chart, ChartMap, Form, VectorField, dot,
                               ext_d)
from diracgeo.groupoid import action_chart, kernel_of_form, linear_map
from diracgeo.linear import (padded_null, padded_orth, pinv_solve,
                             projections)


def chart(*names):
    """The chart of the coordinate names."""
    return Chart(tuple(names))


def expression_map(source, target, comps):
    """The chart map whose components are expressions on the source."""
    exprs = [parse(c, source.names) for c in comps]
    if len(exprs) != target.dim:
        raise ValueError("component count must match target dimension")
    return ChartMap(source, target, lambda p: [e(p) for e in exprs])


def expression_field(ch, comps):
    """The vector field whose components are expressions on the chart."""
    return VectorField(ch, expression_map(ch, ch, comps).func)


def action_algebroid(Gp, ch, action, rho_star):
    """The action algebroid h x M of a left action on the chart ch with the
    dual rho_star(x), an r x n matrix.  Its anchor is the Jacobian at the
    identity of u -> action(u, x); the generator map of a left action is
    an anti-morphism, so the structure constants are those of h negated."""

    def rho(x):
        return jets.jacobian(lambda u: action(u, x), Gp.identity())

    return AnchoredDual(ch, rho, rho_star, -Gp.struct)


def triple_product(Gp):
    """Conjugation (u, x) -> u x u^-1 by two chart products: the quaternion
    triple product on SO(3), with no Ad_matrix in it."""
    return lambda u, x: Gp.mul(Gp.mul(u, x), Gp.inv(u))


def canonical_cotangent_form(Gp):
    """-d sigma with sigma_(g,xi)(V, Xi) = <xi, lam_g V>: the canonical
    symplectic form of T*H in the left trivialization chart."""
    d = Gp.dim

    def sigma(p):
        u, xi = p[:d], p[d:]
        L = Gp.lam_matrix(u)
        return jets.stack([[dot(L[..., :, i].T, xi) for i in range(d)]
                           + [0.0] * d])[..., 0, :]

    return -ext_d(Form(action_chart(Gp, Chart.numbered(x=d)), 1, sigma))


def unit_kernel_by_projections(G, F, x):
    """Ker(omega) ∩ T_xM at the units over the (B, n) stack x, in base
    coordinates, and its dimensions: the padded kernel of omega at eps(x)
    met with the span of d eps through the projections of the two padded
    bases, then solved back through d eps (a constant matrix on both
    builders) by its pseudo-inverse."""
    TM = G.unit.jacobian
    Kw, _, _ = kernel_of_form(F.omega.at(G.unit.at(x)), "omega at unit")
    K, dim = padded_null(projections(Kw, padded_orth(TM)[0]))
    return pinv_solve(TM, K)[0], dim


def mixed_source(G):
    """G with its source map replaced by x + y on the first n arrow
    coordinates y and the last n coordinates x (N >= 2n): a linear map
    that reads every coordinate of an arrow when N = 2n."""
    N, n = G.chart.dim, G.base.dim
    return dataclasses.replace(G, s=linear_map(G.chart, G.base, lambda p: [
        p[i] + p[N - n + i] for i in range(n)]))
