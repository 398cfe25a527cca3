"""Built-in fixtures: chart groupoids with multiplicative forms (pair,
flow, foliation, conjugation and coadjoint groupoids), by name.  The data
of the realization, path-space and foliation suites lives in `cli`.  Every
sampler draws from the supplied generator only, so runs are reproducible
from the seed."""

import math

from . import liegroup as lg
from .foliation import foliation_groupoid
from .geometry import Chart, ChartMap, Form, pullback
from .groupoid import GroupoidForm, action_groupoid, fiberwise_pair_groupoid
from .jets import cos, sin


# -- pair groupoids ---------------------------------------------------------

def _pair_form(n, omega_comps, phi_comps=None):
    bch = Chart(tuple(f"x{i+1}" for i in range(n)))
    ch = Chart(tuple(f"p{i+1}" for i in range(n))
               + tuple(f"q{i+1}" for i in range(n)))
    omega_M = Form.from_components(bch, 2, omega_comps)
    pr1 = ChartMap(ch, bch, lambda p: list(p[:n]))
    pr2 = ChartMap(ch, bch, lambda p: list(p[n:]))
    omega = pullback(pr1, omega_M) - pullback(pr2, omega_M)
    phi = None
    if phi_comps is not None:
        phi = Form.from_components(bch, 3, phi_comps)
    return GroupoidForm(omega, phi), omega_M


def pair_groupoid_r2():
    """The pair groupoid of the symplectic plane."""

    def sample_point(rng):
        return list(rng.uniform(-1.0, 1.0, 2))

    G = fiberwise_pair_groupoid(2, 2, 0, sample_point, sample_point)
    F, omega_M = _pair_form(2, {(0, 1): "1.0"})
    return {"groupoid": G, "form": F, "theta": omega_M,
            "expected_flags": {"is_dirac_type": True, "is_robust": True,
                               "is_presymplectic": True,
                               "is_over_symplectic": True,
                               "is_nondegenerate": True,
                               "is_symplectic": True}}


def twisted_pair_r3():
    """Pair groupoid of R^3 with the form built from z dx^dy; the matching
    background 3-form is -dx^dy^dz.  Points keep |z| away from 0 so the
    kernel rank is stable."""

    def sample_point(rng):
        p = list(rng.uniform(-1.0, 1.0, 2))
        z = rng.uniform(0.3, 1.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return p + [z]

    G = fiberwise_pair_groupoid(3, 3, 0, sample_point, sample_point)
    F, omega_M = _pair_form(3, {(0, 1): "x3"}, {(0, 1, 2): "-1.0"})
    return {"groupoid": G, "form": F, "theta": omega_M,
            "expected_flags": {"is_dirac_type": True, "is_robust": True,
                               "is_presymplectic": True,
                               "is_over_symplectic": False,
                               "is_nondegenerate": True,
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
    bch = Chart(("x1", "x2"))
    ch = Chart(("tau", "x1", "x2"))

    def rotate(u, x):
        c, sn = cos(u[0]), sin(u[0])
        return [c * x[0] - sn * x[1], sn * x[0] + c * x[1]]

    state = {"rng": None, "count": 0}

    def circle_point(rng):
        # the forcing schedule restarts for each new generator, so that a
        # check's samples do not depend on the checks that ran before it
        if rng is not state["rng"]:
            state["rng"], state["count"] = rng, 0
        forced = [0.0, math.pi]
        i = state["count"]
        state["count"] += 1
        if i % 4 < 2:
            ang = forced[i % 4]
        else:
            ang = rng.uniform(0.0, 2 * math.pi)
        return [math.cos(ang), math.sin(ang)]

    def sample_tau(rng):
        return [rng.uniform(0.3, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)]

    G = action_groupoid(lg.torus(1), 2, rotate, sample_tau, circle_point,
                        sample_tau)
    theta = Form.from_components(bch, 2, {(0, 1): "x2"})
    tmap = ChartMap(ch, bch, G.t)
    smap = ChartMap(ch, bch, G.s)
    omega = pullback(tmap, theta) - pullback(smap, theta)
    return {"groupoid": G, "form": GroupoidForm(omega, None), "theta": theta,
            "expected_flags": {"is_dirac_type": False}}


# -- registry ---------------------------------------------------------------

def foliated_r3():
    G, F = foliation_groupoid(3, 2)
    return {"groupoid": G, "form": F, "theta": None,
            "expected_flags": {"is_dirac_type": True, "is_robust": True,
                               "is_presymplectic": True,
                               "is_nondegenerate": True,
                               "is_symplectic": False}}


def amm(group_name):
    Gp = lg.GROUPS[group_name]()
    G, F = lg.amm_groupoid(Gp)
    return {"groupoid": G, "form": F, "theta": None, "group": Gp,
            "kind": "amm",
            "expected_flags": {"is_dirac_type": True, "is_robust": True,
                               "is_presymplectic": True,
                               "is_nondegenerate": True,
                               "is_symplectic": True}}


def coadjoint(group_name):
    Gp = lg.GROUPS[group_name]()
    G, F = lg.coadjoint_groupoid(Gp)
    return {"groupoid": G, "form": F, "theta": None, "group": Gp,
            "kind": "coadjoint",
            "expected_flags": {"is_dirac_type": True, "is_robust": True,
                               "is_presymplectic": True,
                               "is_nondegenerate": True,
                               "is_symplectic": True}}


FIXTURES = {
    "pair-groupoid-r2": pair_groupoid_r2,
    "twisted-pair-r3": twisted_pair_r3,
    "nondirac-flow": flow_groupoid,
    "foliated-r3": foliated_r3,
    "amm-so3": lambda: amm("so3"),
    "amm-torus2": lambda: amm("torus2"),
    "coadjoint-so3": lambda: coadjoint("so3"),
}


def load(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: "
                       + ", ".join(sorted(FIXTURES)))
    return FIXTURES[name]()
