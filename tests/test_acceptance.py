"""End-to-end acceptance criteria.

Each test covers one acceptance criterion, prints a single PASS/FAIL line,
and enforces the stated tolerance and runtime budget.
"""

import glob
import json
import os
import time

import numpy as np

from diracgeo import cli, fixtures, linear
from diracgeo import liegroup as lg
from diracgeo import pathspace as ps
from diracgeo import realization as rz
from diracgeo import foliation as fo
from diracgeo import groupoid as gr
from diracgeo.courant import graph_of_form, integrability_residual
from diracgeo.geometry import Chart, Form, ext_d
from diracgeo.jets import value_of


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def random_skew(rng, n):
    A = rng.standard_normal((n, n))
    return A - A.T


def test_acceptance_1_linear_round_trips():
    """500 seeded linear Dirac structures in dims 1-6 round-trip through
    push-forward/pull-back along invertible maps to 1e-12, within 5 s."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(500):
        n = 1 + case % 6
        L = linear.from_form(random_skew(rng, n))
        psi0 = rng.standard_normal((n, n)) + 2.5 * np.eye(n)
        L = linear.push_forward(psi0, L)
        psi = rng.standard_normal((n, n)) + 2.5 * np.eye(n)

        def proj_gap(A, B):
            # orthogonal-projection distance between the two spans
            BA = linear.trim(linear.padded_orth(A.span))
            BB = linear.trim(linear.padded_orth(B.span))
            return float(np.max(np.abs(BA @ BA.T - BB @ BB.T)))

        back = linear.push_forward(psi, linear.pull_back(psi, L))
        worst = max(worst, proj_gap(back, L))
        fwd = linear.pull_back(psi, linear.push_forward(psi, L))
        worst = max(worst, proj_gap(fwd, L))
    elapsed = time.time() - start
    report("linear-round-trip",
           worst <= 1e-12 and elapsed < 5.0,
           f"residual {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_2_graph_characterization():
    """Graphs of 2-forms are integrable for the matching twist (residual
    <= 1e-9 on 20 positives) and fail for a mismatched twist (>= 1e-3 on
    20 negatives), within 10 s."""
    start = time.time()
    ch = Chart(("x1", "x2", "x3"))
    rng = np.random.default_rng(7)
    worst_pos = 0.0
    worst_neg = np.inf

    def random_omega():
        coeffs = {}
        for idx in [(0, 1), (0, 2), (1, 2)]:
            a, b, c, d = rng.uniform(-1, 1, 4)
            coeffs[idx] = f"{a:.6f} + {b:.6f}*x1 + {c:.6f}*x2 + {d:.6f}*x3"
        return Form.from_components(ch, 2, coeffs)

    pts = [list(rng.uniform(-1, 1, 3)) for _ in range(3)]
    for _ in range(20):
        omega = random_omega()
        L = graph_of_form(omega)
        phi = -ext_d(omega)
        worst_pos = max(worst_pos, integrability_residual(L, phi, pts))
        c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        bad = phi + Form.from_components(ch, 3, {(0, 1, 2): repr(c)})
        worst_neg = min(worst_neg, integrability_residual(L, bad, pts))
    elapsed = time.time() - start
    report("graph-characterization",
           worst_pos <= 1e-9 and worst_neg >= 1e-3 and elapsed < 10.0,
           f"pos {worst_pos:.2e}, neg {worst_neg:.2e}, {elapsed:.2f}s")


def test_acceptance_3_groupoid_suite():
    """The multiplicative-form suite over six fixtures: residuals at
    1e-8 with 64 sampled arrows, expected classification flags, and the
    flow counterexample failing Dirac type with a witness within 1e-2 of
    (+-1, 0), all within 60 s."""
    start = time.time()
    names = ["pair-groupoid-r2", "twisted-pair-r3", "nondirac-flow",
             "foliated-r3", "amm-so3", "coadjoint-so3"]
    ok = True
    details = []
    for name in names:
        fx = fixtures.load(name)
        G, F = fx["groupoid"], fx["form"]
        rng = np.random.default_rng([42, sum(name.encode())])
        res = [max(G.structure_residuals(rng, 8).values()),
               gr.check_multiplicative(G, F, rng, 16),
               gr.check_rel_closed(G, F, rng, 16)]
        res.extend(gr.check_unit_identities(G, F, rng, 16))
        if name != "nondirac-flow":
            res.append(gr.check_kernel_orthogonality(G, F, rng, 16))
        worst = max(res)
        rep = gr.classify(G, F, rng, n_units=16, n_arrows=64)
        flags_ok = all(rep["flags"][k] == v
                       for k, v in fx["expected_flags"].items())
        this_ok = worst <= 1e-8 and flags_ok
        if name == "nondirac-flow":
            w = rep["worst_points"].get("dirac_type")
            wit_ok = w is not None and min(
                np.linalg.norm(np.array(w["s"]) - [1, 0]),
                np.linalg.norm(np.array(w["s"]) - [-1, 0]),
                np.linalg.norm(np.array(w["t"]) - [1, 0]),
                np.linalg.norm(np.array(w["t"]) - [-1, 0])) < 1e-2
            this_ok = this_ok and not rep["flags"]["is_dirac_type"] and wit_ok
        else:
            this_ok = this_ok and max(rep["residuals"].values()) <= 1e-8
        ok = ok and this_ok
        details.append(f"{name} {'ok' if this_ok else 'BAD'} ({worst:.1e})")
    elapsed = time.time() - start
    report("groupoid-suite", ok and elapsed < 60.0,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_acceptance_4_unit_extraction():
    """At 32 sampled conjugation-groupoid units: rho* equals the
    half-sum-flat of the translates (1e-9), the induced base Dirac
    structure equals the group's own structure (1e-8), and that structure
    is integrable against the invariant 3-form (1e-8)."""
    start = time.time()
    fx = fixtures.load("amm-so3")
    Gp = fx["group"]
    G, F = fx["groupoid"], fx["form"]
    rng = np.random.default_rng(11)
    d = Gp.dim
    worst_star = 0.0
    worst_ind = 0.0
    for x in G.units.draw(rng, 32).tolist():
        sp = gr.extract_rho_star(G, F, x)
        Gm = lg.chart_metric(Gp, x)
        for j in range(sp.A.shape[1]):
            v = list(sp.A[:d, j])
            worst_star = max(worst_star, float(np.max(np.abs(sp.A[d:, j]))))
            vr = np.array([value_of(c) for c in Gp.right_translate(x, v)])
            vl = np.array([value_of(c) for c in Gp.left_translate(x, v)])
            worst_star = max(worst_star, float(np.max(np.abs(
                sp.rho_star[j] - Gm @ (0.5 * (vr + vl))))))
            worst_star = max(worst_star, float(np.max(np.abs(
                sp.rho[:, j] - (vr - vl)))))
        L1 = gr.induced_dirac(G, F, x)
        L2 = lg.cartan_dirac(Gp, x)
        worst_ind = max(worst_ind, L1.gap(L2))
    # frame integrability of the group's structure against its 3-form
    pts = [list(rng.uniform(-0.5, 0.5, d)) for _ in range(4)]
    r_int = integrability_residual(lg.cartan_dirac_frame(Gp),
                                   lg.cartan_form(Gp), pts)
    elapsed = time.time() - start
    report("unit-extraction",
           worst_star <= 1e-9 and worst_ind <= 1e-8 and r_int <= 1e-8,
           f"rho* {worst_star:.1e}, induced {worst_ind:.1e}, "
           f"integrability {r_int:.1e}, {elapsed:.1f}s")


def test_acceptance_5_quasi_hamiltonian():
    """The plane with the circle action: all quasi-hamiltonian residuals
    at 1e-8, crosscheck against the realization solve at 1e-8, and the
    perturbed moment map (factor 1.0) breaking the moment axiom by at
    least 0.1."""
    rng = np.random.default_rng(13)
    pts = []
    while len(pts) < 8:
        p = rng.uniform(-1.2, 1.2, 2)
        if np.linalg.norm(p) > 0.3:
            pts.append(list(p))
    Q = rz.rotation_quasi_ham(0.5)
    r1, r2, r3, r_inv = rz.quasi_ham_check(Q, pts)
    rep = rz.equivalence_crosscheck(Q, pts)
    bad_r2 = rz.quasi_ham_check(rz.rotation_quasi_ham(1.0), pts)[1]
    worst = max(r1, r2, r3, r_inv, rep["solve_residual"],
                rep["generator_mismatch"])
    report("quasi-hamiltonian",
           worst <= 1e-8 and rep["dirac_map"] and rep["unique"]
           and rep["kernel_iso_ok"] and bad_r2 >= 0.1,
           f"residual {worst:.1e}, perturbed moment defect {bad_r2:.2f}")


def test_acceptance_6_path_space():
    """Gauge directions annihilate the reconstruction form: residual at
    5e-4 on the N=64 grid with fitted order >= 1.8 over {32, 64, 128};
    the boundary variation identity holds to 1e-6 at N=128; within
    120 s."""
    start = time.time()
    pres = graph_of_form(fixtures.load("pair-groupoid-r2")["theta"])
    eta = ps.GaugeParameter(["1.0 + x2", "t - x1*x1"])
    Ns = [32, 64, 128]
    residuals = []
    for N in Ns:
        path = ps.sampled_path(pres, ["t", "t*t*(1.0-t)"],
                               ["1.0", "2.0*t - 3.0*t*t"], N)
        probes = [ps.sampled_tangent(path, ["sin(t)", "t*t"],
                                     ["cos(t)", "2.0*t"]),
                  ps.sampled_tangent(path, ["t", "1.0 - t"],
                                     ["1.0", "-1.0"])]
        residuals.append(ps.basicness_residual(path, eta, None, probes))
    order = ps.fitted_order(Ns, residuals)
    # boundary identity at N = 128
    N = 128
    ts = np.linspace(0, 1, N + 1)
    gamma = np.stack([ts, np.zeros_like(ts)], axis=1)
    X = np.stack([np.ones_like(ts), np.zeros_like(ts)], axis=1)
    r_bound = max(
        ps.path_variation_identity_residual(["t", "0.0"], gamma, X),
        ps.path_variation_identity_residual(["x1", "0.0"], gamma, X))
    elapsed = time.time() - start
    report("path-space",
           residuals[1] <= 5e-4 and order >= 1.8
           and r_bound <= 1e-6 and elapsed < 120.0,
           f"basicness {residuals[1]:.1e} (order {order:.2f}), "
           f"boundary {r_bound:.1e}, {elapsed:.1f}s")


def test_acceptance_7_foliation():
    """Leafwise calculus and the transverse invariant: d_F squared exactly
    zero, the curvature of the splitting agreeing with the transverse
    derivative of x3 dx1^dx2 at 1e-9, the conormal groupoid presymplectic
    with induced structure F + conormal(F), and the twisted shift identity
    at 1e-9."""
    rng = np.random.default_rng(17)
    fol = fo.CoordFoliation(3, 2)
    pts = [list(v) for v in rng.uniform(-1, 1, (8, 3))]
    f = Form.function(fol.chart, "x3*x1 + sin(x2)")
    r_dd = fo.max_abs(fo.d_F(fol, fo.d_F(fol, f)), pts)
    theta = Form.from_components(fol.chart, 2, {(0, 1): "x3"})
    ext = Form.from_components(fol.chart, 2, {(0, 1): "x3"})
    r_dnu = fo.max_abs(fo.classifying_rep(fol, ext)
                       - fo.d_nu(fol, theta, ext, pts), pts)
    G, F = fo.foliation_groupoid(3, 2)
    rep = gr.classify(G, F, rng, 8, 16)
    L = gr.induced_dirac(G, F, list(rng.uniform(-1, 1, 3)))
    ind_ok = L == fo.leaf_conormal_dirac(3, 2)
    phi = Form.from_components(fol.chart, 3, {(0, 1, 2): "sin(x3) + x1"})
    r_shift = fo.twisted_shift_residual(fol, ext, phi, pts)
    report("foliation",
           r_dd == 0.0 and r_dnu <= 1e-9
           and rep["flags"]["is_presymplectic"] and ind_ok
           and r_shift <= 1e-9,
           f"d_F^2 {r_dd:.1e}, d_nu {r_dnu:.1e}, shift {r_shift:.1e}")


def test_acceptance_8_cli_determinism(tmp_path):
    """Two runs of every shipped scenario at seed 42 produce identical
    reports modulo wall time, with exit code 0."""
    scns = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))
    outs = []
    codes = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        codes.append(cli.main(["run", *scns, "--seed", "42",
                               "--out", str(out)]))
        payload = json.loads(out.read_text())
        payload.pop("wall_time", None)
        outs.append(payload)
    report("cli-determinism",
           codes == [0, 0] and outs[0] == outs[1],
           f"exit codes {codes}, identical={outs[0] == outs[1]}")
