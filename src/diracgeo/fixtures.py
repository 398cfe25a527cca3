"""Built-in fixtures by name: chart groupoids with multiplicative forms,
and the data of the path-space, foliation and induced-Dirac checks they
feed.  Every sampler maps a block of uniform doubles from the supplied
generator to its points (`groupoid.Sampler`), so runs are reproducible
from the seed."""

import functools

import numpy as np

from . import liegroup as lg
from . import pathspace as ps
from .courant import graph_of_form
from .foliation import CoordFoliation, foliation_groupoid
from .geometry import Chart, Form
from .groupoid import (GroupoidForm, Sampler, action_groupoid, coboundary,
                       concat, fiberwise_pair_groupoid, uniform)
from .jets import cos, sin, stack


# the classification of every fixture but the rotation flow: a robust,
# nondegenerate presymplectic groupoid of Dirac type
_PRESYMPLECTIC = {"is_dirac_type": True, "is_robust": True,
                 "is_presymplectic": True, "is_nondegenerate": True}


# -- pair groupoids ---------------------------------------------------------

def pair_fixture(n, point, omega_comps, phi_comps=None):
    """The pair groupoid of R^n, both ends of an arrow drawn by the sampler
    point, with the form t*omega_M - s*omega_M of the 2-form given by
    omega_comps and the background 3-form given by phi_comps."""
    G = fiberwise_pair_groupoid(n, n, 0, point, point)
    omega_M = Form.from_components(G.base, 2, omega_comps)
    phi = None
    if phi_comps is not None:
        phi = Form.from_components(G.base, 3, phi_comps)
    return {"groupoid": G, "form": GroupoidForm(coboundary(G, omega_M), phi),
            "theta": omega_M}


def _signed(lo, hi):
    """A coordinate of magnitude uniform in [lo, hi), then a fair sign."""
    return concat(uniform(lo, hi, 1),
                  Sampler(1, lambda U: np.where(U < 0.5, 1.0, -1.0)),
                  build=np.multiply)


def pair_groupoid_r2():
    """The pair groupoid of the symplectic plane, with the path space of
    its algebroid TM, rho* = theta-flat: a gauge parameter, and for each
    grid size N a path on the grid with two probe tangents, built once."""
    fx = pair_fixture(2, uniform(-1.0, 1.0, 2), {(0, 1): "1.0"})
    pres = graph_of_form(fx["theta"])

    @functools.cache
    def paths(N):
        path = ps.sampled_path(pres, ["t", "t*t*(1.0-t)"],
                               ["1.0", "2.0*t - 3.0*t*t"], N)
        return path, [ps.sampled_tangent(path, *probe) for probe in (
            (["sin(t)", "t*t"], ["cos(t)", "2.0*t"]),
            (["t", "1.0 - t"], ["1.0", "-1.0"]))]

    return {**fx, "gauge": ps.GaugeParameter(["1.0 + x2", "t - x1*x1"]),
            "paths": paths,
            "expected_flags": {**_PRESYMPLECTIC, "is_over_symplectic": True,
                               "is_symplectic": True}}


def twisted_pair_r3():
    """Pair groupoid of R^3 with the form built from z dx^dy; the matching
    background 3-form is -dx^dy^dz.  Points keep |z| away from 0 so the
    kernel rank is stable."""
    point = concat(uniform(-1.0, 1.0, 2), _signed(0.3, 1.0))
    fx = pair_fixture(3, point, {(0, 1): "x3"}, {(0, 1, 2): "-1.0"})
    return {**fx,
            "expected_flags": {**_PRESYMPLECTIC, "is_over_symplectic": False,
                               "is_symplectic": False}}


# -- the rotation-flow counterexample ---------------------------------------

def flow_groupoid():
    """The flow groupoid R x R^2 of the rotation field, as the action of the
    chart group torus(1) by rotation, with the multiplicative form
    t*theta - s*theta for theta = x2 dx1^dx2.

    Base points are drawn on the unit circle, with the angles 0 and pi
    forced into every sampling sequence: the kernel of the form jumps
    dimension exactly over (1, 0) and (-1, 0), so arrows out of those
    points break the constant-rank pattern that holds elsewhere on the
    circle.
    """
    def rotate(u, x):
        c, sn = cos(u[0]), sin(u[0])
        return [c * x[0] - sn * x[1], sn * x[0] + c * x[1]]

    def drotate(u, y):
        # D_u = (-y2, y1)^T and D_x = R(u)
        c, sn = cos(u[0]), sin(u[0])
        return (np.stack([-y[..., 1], y[..., 0]], -1)[..., None],
                stack([[c, -sn], [sn, c]]))

    state = {"rng": None, "count": 0}

    def schedule(rng, m):
        # the forcing schedule restarts for each new generator, so that a
        # check's samples do not depend on the checks that ran before it;
        # the angles 0 and pi are 2 pi u at u = 0 and 0.5
        if rng is not state["rng"]:
            state["rng"], state["count"] = rng, 0
        i = (state["count"] + np.arange(m)) % 4
        state["count"] += m
        return np.where(i < 2, 0.5 * i, np.nan)

    def circle(U):
        ang = 2 * np.pi * U   # numpy's uniform(0, 2 pi), to the bit
        return np.hstack([np.cos(ang), np.sin(ang)])

    tau = _signed(0.3, 2.0)
    G = action_groupoid(lg.torus(1), Chart.numbered(x=2), rotate, tau,
                        Sampler(1, circle, (0,), schedule), tau, drotate)
    theta = Form.from_components(G.base, 2, {(0, 1): "x2"})
    return {"groupoid": G, "form": GroupoidForm(coboundary(G, theta), None),
            "theta": theta,
            "expected_flags": {"is_dirac_type": False}}


# -- registry ---------------------------------------------------------------

def foliated_r3():
    """The conormal groupoid of the planes x3 = const in R^3, with the
    leafwise form x3 dx1^dx2 (its own extension) and twisted-shift's 3-form."""
    fol = CoordFoliation(3, 2)
    G, F = foliation_groupoid(fol.n, fol.k)
    return {"groupoid": G, "form": F, "foliation": fol,
            "leafwise": Form.from_components(fol.chart, 2, {(0, 1): "x3"}),
            "twist": Form.from_components(fol.chart, 3,
                                          {(0, 1, 2): "sin(x3) + x1"}),
            "expected_flags": {**_PRESYMPLECTIC, "is_symplectic": False}}


def chart_group(group_name, amm):
    """The adjoint groupoid of a chart group: the conjugation groupoid,
    carrying the group for the induced-Dirac checks (amm), or T*H."""
    Gp = lg.GROUPS[group_name]()
    G, F = lg.adjoint_groupoid(Gp, amm)
    return {"groupoid": G, "form": F, **({"group": Gp} if amm else {}),
            "expected_flags": {**_PRESYMPLECTIC, "is_symplectic": True}}


FIXTURES = {
    "pair-groupoid-r2": pair_groupoid_r2,
    "twisted-pair-r3": twisted_pair_r3,
    "nondirac-flow": flow_groupoid,
    "foliated-r3": foliated_r3,
    "amm-so3": lambda: chart_group("so3", True),
    "amm-torus2": lambda: chart_group("torus2", True),
    "coadjoint-so3": lambda: chart_group("so3", False),
}


def load(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: "
                       + ", ".join(sorted(FIXTURES)))
    return FIXTURES[name]()
