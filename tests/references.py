"""Reference constructions that the tests check the package against.  No
run of the package uses them, so they live with the tests: the action
algebroid of any group action, whose anchor is a jet pass, conjugation
by two chart products, the canonical symplectic form of T*H by its
definition, and charts and chart maps from names and expressions."""

from diracgeo import jets
from diracgeo.courant import AnchoredDual
from diracgeo.expr import parse
from diracgeo.geometry import Chart, ChartMap, Form, dot, ext_d
from diracgeo.groupoid import action_chart


def chart(*names):
    """The chart of the coordinate names."""
    return Chart(tuple(names))


def expression_map(source, target, comps):
    """The chart map whose components are expressions on the source."""
    exprs = [parse(c, source.names) for c in comps]
    if len(exprs) != target.dim:
        raise ValueError("component count must match target dimension")
    return ChartMap(source, target, lambda p: [e(p) for e in exprs])


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
    triple product on SO(3) and SU(2), with no Ad_matrix in it."""
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
