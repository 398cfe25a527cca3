"""Output checks made apart from the program.

Each workload gets two kinds of check, both run outside the timed region:

* model checks recompute a quantity from a model written here (rotation
  matrices with ``scipy.linalg.expm`` and central differences, or closed
  forms in numpy) and compare it with what the program's public objects
  give at points drawn from the benchmark seed;
* report checks read the program's JSON report and test it against facts
  written out here (the paper's classification, limits, a re-derived
  residual).

Every check returns a dict mapping an operation ``(scenario, check)`` to a
list of problems; an empty list means the output agrees.  Nothing is read
from ``fixtures.py`` or from a stored copy of an earlier report.
"""

import math

import numpy as np
from scipy.linalg import expm, logm, subspace_angles

# Central-difference step of the matrix models and the tolerance it sets:
# truncation is O(H**2) and rounding O(eps/H); the factor leaves room for
# the constants of third derivatives and for chained differences.
H = 1e-5
TOL_FD = 1e3 * (H * H + np.finfo(float).eps / H)


def _problems(out, op, ok, message):
    out.setdefault(op, [])
    if not ok:
        out[op].append(message)


# -- matrix models of the groups --------------------------------------------

class MatrixModel:
    """A compact group as matrices: hat maps algebra coordinates into the
    matrix algebra, vee is its inverse on the image."""

    def __init__(self, dim, hat, vee):
        self.dim = dim
        self.hat = hat
        self.vee = vee

    def R(self, u):
        return expm(self.hat(np.asarray(u, float)))

    def log(self, M):
        return self.vee(np.real(logm(M)))

    def bracket(self, a, b):
        A, B = self.hat(a), self.hat(b)
        return self.vee(A @ B - B @ A)

    def _dR(self, u, e):
        return (self.R(u + H * e) - self.R(u - H * e)) / (2 * H)

    def theta_left(self, u):
        """Matrix of the left Maurer-Cartan form g^-1 dg at g = exp(u)."""
        u = np.asarray(u, float)
        Rt = self.R(u).T
        return np.array([self.vee(Rt @ self._dR(u, e))
                         for e in np.eye(self.dim)]).T

    def theta_right(self, u):
        """Matrix of the right Maurer-Cartan form dg g^-1 at g = exp(u)."""
        u = np.asarray(u, float)
        Rt = self.R(u).T
        return np.array([self.vee(self._dR(u, e) @ Rt)
                         for e in np.eye(self.dim)]).T

    def Ad(self, x):
        """Matrix of Ad_exp(x) on the algebra."""
        Rx = self.R(x)
        return np.array([self.vee(Rx @ self.hat(e) @ Rx.T)
                         for e in np.eye(self.dim)]).T


def _hat_so3(u):
    return np.array([[0.0, -u[2], u[1]],
                     [u[2], 0.0, -u[0]],
                     [-u[1], u[0], 0.0]])


def _vee_so3(A):
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _hat_torus2(u):
    M = np.zeros((4, 4))
    M[:2, :2] = u[0] * _J
    M[2:, 2:] = u[1] * _J
    return M


def _vee_torus2(A):
    return np.array([A[1, 0], A[3, 2]])


SO3 = MatrixModel(3, _hat_so3, _vee_so3)
TORUS2 = MatrixModel(2, _hat_torus2, _vee_torus2)


# -- the two multiplicative forms, from matrices ------------------------------
#
# A form is given by its matrix Omega(p) in chart coordinates, so that
# omega_p(V, W) = V . Omega(p) W.

def amm_omega(M):
    """The AMM form on the conjugation groupoid G x G at the arrow (g, x):
    1/2 ((Ad_x a, b) - (Ad_x b, a) + (a, c_W) - (b, c_V)) with a, b the
    left Maurer-Cartan form of g on V, W and c the sum of both
    Maurer-Cartan forms of x on the x-parts of V, W."""
    d = M.dim

    def omega(p):
        A = M.theta_left(p[:d])
        C = M.theta_left(p[d:]) + M.theta_right(p[d:])
        Ad = M.Ad(p[d:])
        Om = np.zeros((2 * d, 2 * d))
        Om[:d, :d] = 0.5 * A.T @ (Ad.T - Ad) @ A
        Om[:d, d:] = 0.5 * A.T @ C
        Om[d:, :d] = -0.5 * C.T @ A
        return Om

    return omega


def canonical_omega(M):
    """-d sigma for sigma_(g, xi)(V, Xi) = <xi, a> on T*G in the left
    trivialization, a = g^-1 dg(V).  With d(g^-1 dg)(V, W) = -[a, b] this
    is <H, a> - <Xi, b> + <xi, [a, b]> for the tangents (V, Xi), (W, H)."""
    d = M.dim

    def omega(p):
        A = M.theta_left(p[:d])
        K = np.array([[p[d:] @ M.bracket(ei, ej) for ej in np.eye(d)]
                      for ei in np.eye(d)])
        Om = np.zeros((2 * d, 2 * d))
        Om[:d, :d] = A.T @ K @ A
        Om[:d, d:] = A.T
        Om[d:, :d] = -A
        return Om

    return omega


def _action_mul(M):
    """Multiplication of an action groupoid G x X:
    (g1, t(g2, x)) (g2, x) = (g1 g2, x)."""
    d = M.dim

    def mul(p1, p2):
        return np.concatenate([M.log(M.R(p1[:d]) @ M.R(p2[:d])), p2[d:]])

    return mul


def conjugation_maps(M):
    """Target and multiplication of the conjugation groupoid, arrows
    (g, x): x -> g x g^-1."""
    d = M.dim

    def target(p):
        Rg = M.R(p[:d])
        return M.log(Rg @ M.R(p[d:]) @ Rg.T)

    return target, _action_mul(M)


def cotangent_maps(M):
    """Target and multiplication of T*G, arrows (g, xi): xi -> Ad*_g xi
    (the rotation of xi by g for the invariant metric)."""
    d = M.dim

    def target(p):
        return M.R(p[:d]) @ p[d:]

    return target, _action_mul(M)


def multiplicativity_defect(omega, target, mul, dim, pairs):
    """max |m*omega - pr1*omega - pr2*omega| on the composable-pair set.

    Composable pairs are parametrized by z = (g1, g2, x2):
    ((g1, t(g2, x2)), (g2, x2)); tangents come from central differences of
    the three maps along the coordinate axes of z."""
    d = dim

    def arrows(z):
        g1, g2, x2 = z[:d], z[d:2 * d], z[2 * d:]
        a2 = np.concatenate([g2, x2])
        a1 = np.concatenate([g1, target(a2)])
        return a1, a2, mul(a1, a2)

    worst = 0.0
    for z in pairs:
        z = np.asarray(z, float)
        base = arrows(z)
        tangents = []
        for e in np.eye(3 * d):
            plus, minus = arrows(z + H * e), arrows(z - H * e)
            tangents.append([(p - m) / (2 * H) for p, m in zip(plus, minus)])
        # pulled-back matrices T_k^T Omega(arrow_k) T_k on the z-axes
        a1, a2, m = (np.array([t[k] for t in tangents])
                     @ omega(base[k]) @ np.array([t[k] for t in tangents]).T
                     for k in range(3))
        worst = max(worst, float(np.max(np.abs(m - a1 - a2))))
    return worst


def cartan_dirac_span(M, x):
    """Columns (v_r - v_l, ((v_r + v_l)/2)-flat) over the algebra basis at
    exp(x), in chart coordinates: v_r, v_l are the derivatives of
    log(exp(s e) exp(x)) and log(exp(x) exp(s e)) at s = 0, and the metric
    is the invariant one pulled back by the left Maurer-Cartan form."""
    x = np.asarray(x, float)
    Rx = M.R(x)
    A = M.theta_left(x)
    Gm = A.T @ A
    cols = []
    for e in np.eye(M.dim):
        vr = (M.log(M.R(H * e) @ Rx) - M.log(M.R(-H * e) @ Rx)) / (2 * H)
        vl = (M.log(Rx @ M.R(H * e)) - M.log(Rx @ M.R(-H * e))) / (2 * H)
        cols.append(np.concatenate([vr - vl, Gm @ (0.5 * (vr + vl))]))
    return np.array(cols).T


def span_gap(A, B):
    """Sine of the largest principal angle between two column spans."""
    if A.shape[1] != B.shape[1]:
        return 1.0
    return float(np.sin(np.max(subspace_angles(A, B))))


def form_gap(program_form, model_form, points, rng):
    """max |program omega - model omega| on random tangent pairs."""
    worst = 0.0
    for p in points:
        p = np.asarray(p, float)
        Om = model_form(p)
        for _ in range(3):
            V, W = rng.standard_normal((2, len(p)))
            got = float(program_form(list(p), list(V), list(W)))
            worst = max(worst, abs(got - V @ Om @ W))
    return worst


# -- lie-groupoids --------------------------------------------------------------

# The paper's classification: the conjugation (AMM) groupoids are twisted
# presymplectic groupoids of Dirac type, robust and nondegenerate; T*G is a
# symplectic groupoid, so it has all of these and is symplectic too.
CONJUGATION_FLAGS = {"is_dirac_type": True, "is_robust": True,
                     "is_presymplectic": True, "is_nondegenerate": True}
SYMPLECTIC_FLAGS = dict(CONJUGATION_FLAGS, is_symplectic=True)


def conjugation_target_gap(M, t, p):
    """|exp(t) - g x g^-1| for the program's target t of the arrow p."""
    Rg = M.R(p[:M.dim])
    return float(np.max(np.abs(M.R(t) - Rg @ M.R(p[M.dim:]) @ Rg.T)))


def cotangent_target_gap(M, t, p):
    """|t - Ad*_g xi| for the program's target t of the arrow p."""
    return float(np.max(np.abs(np.asarray(t) - M.R(p[:M.dim]) @ p[M.dim:])))


LIE_MODELS = {
    "amm-so3": (SO3, amm_omega, conjugation_maps, conjugation_target_gap,
                CONJUGATION_FLAGS),
    "coadjoint-so3": (SO3, canonical_omega, cotangent_maps,
                      cotangent_target_gap, SYMPLECTIC_FLAGS),
    "amm-torus2": (TORUS2, amm_omega, conjugation_maps,
                   conjugation_target_gap, CONJUGATION_FLAGS),
}


def _lie_base_point(rng, d, scenario):
    """A group element near the identity, or a covector for T*SO(3)."""
    box = 1.0 if scenario == "coadjoint-so3" else 0.35
    return rng.uniform(-box, box, d)


def _lie_arrow(rng, d, scenario):
    return np.concatenate([rng.uniform(-0.35, 0.35, d),
                           _lie_base_point(rng, d, scenario)])


def lie_model_checks(fixtures, seed, n_points=3):
    """Recompute targets, forms, multiplicativity and the induced Dirac
    structure of the lie-groupoid fixtures from rotation matrices.

    ``fixtures`` maps a scenario id to the program's fixture dict."""
    out = {}
    rng = np.random.default_rng([seed, 1])
    for scenario, (M, form_of, maps_of, target_gap, _) in \
            LIE_MODELS.items():
        fx = fixtures[scenario]
        G, F = fx["groupoid"], fx["form"]
        d = M.dim
        target, mul = maps_of(M)
        omega = form_of(M)
        arrows = [_lie_arrow(rng, d, scenario) for _ in range(n_points)]
        t_gap = max(target_gap(M, [float(c) for c in G.t(list(p))], p)
                    for p in arrows)
        _problems(out, (scenario, "structure"), t_gap <= 1e-12,
                  f"target map differs from g x g^-1 by {t_gap:.2e}")
        f_gap = form_gap(F.omega, omega, arrows, rng)
        _problems(out, (scenario, "multiplicative"), f_gap <= TOL_FD,
                  f"omega differs from the matrix model by {f_gap:.2e}")
        pairs = [np.concatenate([rng.uniform(-0.3, 0.3, 2 * d),
                                 _lie_base_point(rng, d, scenario)])
                 for _ in range(n_points)]
        defect = multiplicativity_defect(omega, target, mul, d, pairs)
        _problems(out, (scenario, "multiplicative"), defect <= TOL_FD,
                  f"matrix-model multiplicativity defect {defect:.2e}")
    # the Dirac structure induced at units is Cartan-Dirac; it is built from
    # the rho* the program extracts, so it belongs to that operation.  The
    # import waits until run.py has put the program's sources on the path.
    from diracgeo import groupoid as GR
    fx = fixtures["amm-so3"]
    worst = 0.0
    for _ in range(n_points):
        x = list(rng.uniform(-0.35, 0.35, 3))
        L = GR.induced_dirac(fx["groupoid"], fx["form"], x)
        worst = max(worst, span_gap(L.span, cartan_dirac_span(SO3, x)))
    _problems(out, ("amm-so3", "rho-star-half-flat"), worst <= TOL_FD,
              f"induced Dirac structure is {worst:.2e} from Cartan-Dirac")
    return out


def lie_report_checks(reports, seed):
    out = {}
    for scenario, (*_, flags) in LIE_MODELS.items():
        got = reports[scenario]["checks"]["classification"]["flags"]
        wrong = {k: got.get(k) for k, v in flags.items() if got.get(k) != v}
        _problems(out, (scenario, "classification"), not wrong,
                  f"flags disagree with the paper: {wrong}")
    return out


# -- coordinate-groupoids ---------------------------------------------------------

_E12 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _theta3(x):
    T = np.zeros((3, 3))
    T[0, 1], T[1, 0] = x[2], -x[2]
    return T


def _rot(tau):
    return np.array([[math.cos(tau), -math.sin(tau)],
                     [math.sin(tau), math.cos(tau)]])


class ClosedForm:
    """omega(p) as a matrix, the structure-map Jacobians Ds(p), Dt(p), and
    the base 3-form phi(x) as an antisymmetric array (None for zero)."""

    def __init__(self, omega, ds, dt, s, t, phi, sample):
        self.omega, self.ds, self.dt = omega, ds, dt
        self.s, self.t, self.phi, self.sample = s, t, phi, sample


def _pair_closed_form(n, theta, phi):
    def omega(p):
        Om = np.zeros((2 * n, 2 * n))
        Om[:n, :n] = theta(p[:n])
        Om[n:, n:] = -theta(p[n:])
        return Om

    eye = np.eye(n)
    zero = np.zeros((n, n))
    return ClosedForm(omega,
                      lambda p: np.hstack([zero, eye]),
                      lambda p: np.hstack([eye, zero]),
                      lambda p: p[n:], lambda p: p[:n], phi,
                      lambda rng: rng.uniform(-1.0, 1.0, 2 * n))


def _volume3(c):
    phi = np.zeros((3, 3, 3))
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        phi[i, j, k] = sign * c
    return phi


def _foliated_closed_form():
    # coordinates (y1, y2, x1, x2, q1, v1); omega = dv1 ^ dq1
    def omega(p):
        Om = np.zeros((6, 6))
        Om[5, 4], Om[4, 5] = 1.0, -1.0
        return Om

    ds = np.zeros((3, 6))
    ds[0, 2] = ds[1, 3] = ds[2, 4] = 1.0
    dt = np.zeros((3, 6))
    dt[0, 0] = dt[1, 1] = dt[2, 4] = 1.0
    return ClosedForm(omega, lambda p: ds, lambda p: dt,
                      lambda p: p[[2, 3, 4]], lambda p: p[[0, 1, 4]], None,
                      lambda rng: rng.uniform(-1.0, 1.0, 6))


def _flow_closed_form():
    # arrows (tau, x) of the rotation flow; omega = t*theta - s*theta for
    # theta = x2 dx1 ^ dx2
    def dt(p):
        R = _rot(p[0])
        dR = np.array([[-math.sin(p[0]), -math.cos(p[0])],
                       [math.cos(p[0]), -math.sin(p[0])]])
        return np.hstack([(dR @ p[1:]).reshape(2, 1), R])

    def ds(p):
        return np.hstack([np.zeros((2, 1)), np.eye(2)])

    def t(p):
        return _rot(p[0]) @ p[1:]

    def omega(p):
        Dt, Ds = dt(p), ds(p)
        return Dt.T @ (t(p)[1] * _E12) @ Dt - Ds.T @ (p[2] * _E12) @ Ds

    return ClosedForm(omega, ds, dt, lambda p: p[1:], t, None,
                      lambda rng: np.concatenate([rng.uniform(-2.0, 2.0, 1),
                                                  rng.uniform(-1.0, 1.0, 2)]))


COORDINATE_FORMS = {
    "pair-groupoid-r2": _pair_closed_form(2, lambda x: _E12, None),
    "twisted-pair-r3": _pair_closed_form(3, _theta3, lambda x: _volume3(-1.0)),
    "foliated-r3": _foliated_closed_form(),
    "nondirac-flow": _flow_closed_form(),
}


def program_omega_matrix(form, p):
    n = len(p)
    E = np.eye(n)
    return np.array([[float(form(list(p), list(E[i]), list(E[j])))
                      for j in range(n)] for i in range(n)])


def program_phi_array(phi, x):
    if phi is None:
        return None
    n = len(x)
    E = np.eye(n)
    return np.array([[[float(phi(list(x), list(E[i]), list(E[j]), list(E[k])))
                       for k in range(n)] for j in range(n)]
                     for i in range(n)])


def _pull3(phi, J):
    return np.einsum("abc,ai,bj,ck->ijk", phi, J, J, J)


def rel_closed_defect(cf, phi, points):
    """max |d omega - s*phi + t*phi| from the closed-form omega: d omega by
    central differences of its matrix, phi a callable x -> 3-array or None."""
    worst = 0.0
    for p in points:
        N = len(p)
        dOm = np.array([(cf.omega(p + H * e) - cf.omega(p - H * e)) / (2 * H)
                        for e in np.eye(N)])   # dOm[i] = d_i Omega
        d_omega = (dOm + dOm.transpose(1, 2, 0) + dOm.transpose(2, 0, 1))
        rhs = np.zeros((N, N, N))
        if phi is not None:
            rhs = _pull3(phi(cf.s(p)), cf.ds(p)) - _pull3(phi(cf.t(p)), cf.dt(p))
        worst = max(worst, float(np.max(np.abs(d_omega - rhs))))
    return worst


COORDINATE_POINTS = 4   # points per scenario where closed forms are compared


def coordinate_model_checks(fixtures, seed):
    """Compare the program's omega and phi with the closed forms, and the
    closed forms with relative closedness."""
    out = {}
    rng = np.random.default_rng([seed, 2])
    for scenario, cf in COORDINATE_FORMS.items():
        F = fixtures[scenario]["form"]
        points = [cf.sample(rng) for _ in range(COORDINATE_POINTS)]
        gap = max(float(np.max(np.abs(program_omega_matrix(F.omega, p)
                                      - cf.omega(p)))) for p in points)
        for check in ("multiplicative", "orbit-form"):
            _problems(out, (scenario, check), gap <= 1e-12,
                      f"omega differs from its closed form by {gap:.2e}")
        phi_gap = 0.0
        for p in points:
            got = program_phi_array(F.phi, cf.s(p))
            want = None if cf.phi is None else cf.phi(cf.s(p))
            if (got is None) != (want is None):
                phi_gap = 1.0
            elif got is not None:
                phi_gap = max(phi_gap, float(np.max(np.abs(got - want))))
        _problems(out, (scenario, "rel-closed"), phi_gap <= 1e-12,
                  f"phi differs from its closed form by {phi_gap:.2e}")
        program_phi = None if F.phi is None else \
            (lambda x, phi=F.phi: program_phi_array(phi, x))
        defect = rel_closed_defect(cf, program_phi, points)
        _problems(out, (scenario, "rel-closed"), defect <= TOL_FD,
                  f"d omega - s*phi + t*phi = {defect:.2e} on closed forms")
    return out


def flow_witness_problem(report_checks):
    """The Dirac-type failure of the rotation flow sits over (+-1, 0)."""
    wp = report_checks["dirac-type"].get("worst_point")
    if not wp:
        return "no Dirac-type witness reported"
    s = np.asarray(wp["s"], float)
    dist = min(np.linalg.norm(s - [1.0, 0.0]), np.linalg.norm(s + [1.0, 0.0]))
    if dist > 1e-2:
        return f"witness source {list(s)} is {dist:.2e} from (+-1, 0)"
    return None


def coordinate_report_checks(reports, seed):
    out = {}
    problem = flow_witness_problem(reports["nondirac-flow"]["checks"])
    _problems(out, ("nondirac-flow", "dirac-type"), problem is None, problem)
    return out


# -- paths-and-leaves ------------------------------------------------------------

MIN_ORDER = 1.8   # the trapezoid-type grids converge at second order


def basicness_problem(entry):
    """Residuals must fall under refinement at a fitted order >= MIN_ORDER."""
    grid = np.asarray(entry["grid"], float)
    res = np.asarray(entry["convergence"], float)
    if len(grid) < 2 or len(res) != len(grid) or np.any(res <= 0):
        return f"unusable convergence data {entry['convergence']}"
    if np.any(np.diff(res) >= 0):
        return f"residuals do not fall under refinement: {list(res)}"
    order = -np.polyfit(np.log(grid), np.log(res), 1)[0]
    if order < MIN_ORDER:
        return f"fitted order {order:.3f} < {MIN_ORDER}"
    if abs(order - entry["order"]) > 1e-9 * max(1.0, abs(order)):
        return f"reported order {entry['order']} != fitted {order}"
    return None


def annulus_samples(seed, check, n):
    """The annulus points a quasi-hamiltonian check draws: uniform in
    [-1.2, 1.2]^2, kept when |p| > 0.3, from the check's own stream
    (seed followed by the check name's bytes)."""
    rng = np.random.default_rng([seed] + list(check.encode()))
    out = []
    while len(out) < n:
        p = rng.uniform(-1.2, 1.2, 2)
        if np.linalg.norm(p) > 0.3:
            out.append(p)
    return np.array(out)


def moment_defect(c, samples):
    """|i_X eta - (1/2) mu*(lam + lam_bar)| for eta = dx ^ dy, X = (y, -x),
    mu = c (x^2 + y^2) on the circle: i_X eta = x dx + y dy and the moment
    1-form is d mu = 2c (x dx + y dy), so the defect is |1 - 2c| max |p_i|."""
    return abs(1.0 - 2.0 * c) * float(np.max(np.abs(samples)))


def negative_moment_problem(entry, seed, samples_per_check):
    want = moment_defect(1.0, annulus_samples(seed, "quasi-ham-negative",
                                              samples_per_check))
    got = entry["residual"]
    if abs(got - want) > 1e-12 * max(1.0, want):
        return f"moment defect {got!r} != |1 - 2c| max|p_i| = {want!r}"
    return None


def paths_report_checks(reports, seed):
    out = {}
    problem = basicness_problem(reports["pathspace-pair"]["checks"]["basicness"])
    _problems(out, ("pathspace-pair", "basicness"), problem is None, problem)
    rq = reports["rotation-quasi-ham"]
    problem = negative_moment_problem(rq["checks"]["quasi-ham-negative"], seed,
                                      rq["policy"]["samples"])
    _problems(out, ("rotation-quasi-ham", "quasi-ham-negative"),
              problem is None, problem)
    return out
