"""Tests of the benchmark itself: each output check rejects a broken input,
and the benchmark's own output is strict JSON.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
from diracgeo import cli, fixtures, geometry, liegroup  # noqa: E402


def strict_loads(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def lie_fixtures():
    return {k: fixtures.load(k) for k in C.LIE_MODELS}


def flipped_amm_form(Gp):
    """The AMM form with the sign of its (a, c_W) - (b, c_V) term flipped."""
    d = Gp.dim
    ch = geometry.Chart(tuple(f"g{i+1}" for i in range(d))
                        + tuple(f"x{i+1}" for i in range(d)))

    def ev(p, vs):
        u, x = p[:d], p[d:]
        V, W = vs
        a, b = Gp.lam(u, V[:d]), Gp.lam(u, W[:d])
        cV = [s + t for s, t in zip(Gp.lam(x, V[d:]), Gp.lam_bar(x, V[d:]))]
        cW = [s + t for s, t in zip(Gp.lam(x, W[d:]), Gp.lam_bar(x, W[d:]))]
        return 0.5 * (Gp.inner(Gp.Ad(x, a), b) - Gp.inner(Gp.Ad(x, b), a)
                      - Gp.inner(a, cW) + Gp.inner(b, cV))

    return geometry.Form(ch, 2, ev)


# -- lie-groupoids ------------------------------------------------------------

def test_lie_model_checks_accept_the_program(lie_fixtures):
    found = C.lie_model_checks(lie_fixtures, 42, n_points=2)
    assert found and not any(found.values()), found


def test_lie_model_checks_reject_flipped_amm_term(lie_fixtures):
    broken = dict(lie_fixtures)
    fx = dict(broken["amm-so3"])
    fx["form"] = type(fx["form"])(flipped_amm_form(fx["group"]),
                                  fx["form"].phi)
    broken["amm-so3"] = fx
    found = C.lie_model_checks(broken, 42, n_points=2)
    assert found[("amm-so3", "multiplicative")]
    assert not found[("coadjoint-so3", "multiplicative")]


@pytest.mark.parametrize("form_of, maps_of, block", [
    (C.amm_omega, C.conjugation_maps, (slice(0, 3), slice(3, 6))),
    (C.canonical_omega, C.cotangent_maps, (slice(0, 3), slice(0, 3))),
])
def test_multiplicativity_defect_rejects_a_flipped_term(form_of, maps_of,
                                                        block):
    rng = np.random.default_rng(3)
    pairs = [rng.uniform(-0.3, 0.3, 9) for _ in range(2)]
    target, mul = maps_of(C.SO3)
    good = form_of(C.SO3)

    def flipped(p):
        Om = good(p)
        Om[block] *= -1
        if block[0] != block[1]:
            Om[block[::-1]] *= -1
        return Om

    assert C.multiplicativity_defect(good, target, mul, 3, pairs) <= C.TOL_FD
    assert C.multiplicativity_defect(flipped, target, mul, 3, pairs) > 1e-3


def test_target_gap_rejects_a_wrong_conjugation():
    p = np.array([0.2, -0.1, 0.3, 0.1, 0.25, -0.2])
    Gp = liegroup.so3()
    right = [float(c) for c in liegroup.conjugate(Gp, list(p[:3]),
                                                  list(p[3:]))]
    wrong = [float(c) for c in liegroup.conjugate(Gp, list(-p[:3]),
                                                  list(p[3:]))]
    assert C.conjugation_target_gap(C.SO3, right, p) <= 1e-12
    assert C.conjugation_target_gap(C.SO3, wrong, p) > 1e-3


def test_cartan_dirac_span_matches_program_and_rejects_another_structure():
    x = [0.3, -0.2, 0.1]
    model = C.cartan_dirac_span(C.SO3, x)
    program = liegroup.cartan_dirac(liegroup.so3(), x).span
    assert C.span_gap(program, model) <= C.TOL_FD
    graph_of_zero = np.vstack([np.eye(3), np.zeros((3, 3))])
    assert C.span_gap(graph_of_zero, model) > 1e-2


def test_flags_must_follow_the_paper():
    good = {sc: {"checks": {"classification": {"flags": dict(flags)}}}
            for sc, (*_, flags) in C.LIE_MODELS.items()}
    assert not any(C.lie_report_checks(good, 42).values())
    good["amm-so3"]["checks"]["classification"]["flags"]["is_robust"] = False
    found = C.lie_report_checks(good, 42)
    assert found[("amm-so3", "classification")]
    del good["coadjoint-so3"]["checks"]["classification"]["flags"][
        "is_symplectic"]
    assert C.lie_report_checks(good, 42)[("coadjoint-so3", "classification")]


# -- coordinate-groupoids -----------------------------------------------------

def coordinate_fixtures(**replace):
    fx = {k: fixtures.load(k) for k in C.COORDINATE_FORMS}
    for scenario, inline in replace.items():
        fx[scenario] = cli.load_fixture({"inline": inline})[1]
    return fx


def test_coordinate_model_checks_accept_the_program():
    found = C.coordinate_model_checks(coordinate_fixtures(), 42)
    assert found and not any(found.values()), found


def test_coordinate_checks_reject_phi_not_matching_d_theta():
    broken = {"n": 3, "omega": {"0,1": "x3"}, "phi": {"0,1,2": "1.0"}}
    found = C.coordinate_model_checks(
        coordinate_fixtures(**{"twisted-pair-r3": broken}), 42)
    assert found[("twisted-pair-r3", "rel-closed")]
    assert not found[("twisted-pair-r3", "multiplicative")]


def test_coordinate_checks_reject_a_wrong_pair_form():
    broken = {"n": 2, "omega": {"0,1": "1.0 + 0.5*x1"}}
    found = C.coordinate_model_checks(
        coordinate_fixtures(**{"pair-groupoid-r2": broken}), 42)
    assert found[("pair-groupoid-r2", "multiplicative")]
    assert found[("pair-groupoid-r2", "orbit-form")]


def test_rel_closed_defect_sees_a_sign_error_in_phi():
    cf = C.COORDINATE_FORMS["twisted-pair-r3"]
    pts = [np.random.default_rng(0).uniform(-1, 1, 6)]
    assert C.rel_closed_defect(cf, cf.phi, pts) <= C.TOL_FD
    assert C.rel_closed_defect(cf, lambda x: -cf.phi(x), pts) > 1.0


@pytest.mark.parametrize("source, ok", [
    ([1.0, 0.0], True), ([-0.999, 0.005], True),
    ([0.0, 1.0], False), ([0.98, 0.2], False)])
def test_flow_witness_near_the_jump_points(source, ok):
    entry = {"dirac-type": {"worst_point": {"s": source}}}
    assert (C.flow_witness_problem(entry) is None) == ok
    assert C.flow_witness_problem({"dirac-type": {}}) is not None


# -- paths-and-leaves ---------------------------------------------------------

def basicness_entry(order, grid=(256, 512, 1024)):
    res = [3.0 * n ** -order for n in grid]
    fitted = -np.polyfit(np.log(grid), np.log(res), 1)[0]
    return {"grid": list(grid), "convergence": res, "order": float(fitted)}


def test_basicness_order_and_monotone_decay():
    assert C.basicness_problem(basicness_entry(2.0)) is None
    assert C.basicness_problem(basicness_entry(1.5)) is not None
    rising = basicness_entry(2.0)
    rising["convergence"][2] = rising["convergence"][0]
    assert C.basicness_problem(rising) is not None
    misreported = basicness_entry(2.0)
    misreported["order"] = 2.5
    assert C.basicness_problem(misreported) is not None


def test_negative_moment_defect_matches_the_program_and_rejects_others():
    seed, n = 5, 16
    samples = C.annulus_samples(seed, "quasi-ham-negative", n)
    want = C.moment_defect(1.0, samples)
    assert want == pytest.approx(float(np.max(np.abs(samples))))
    program = cli.check_quasi_ham_negative(
        None, np.random.default_rng([seed] + list(b"quasi-ham-negative")),
        {"samples": n})
    assert C.negative_moment_problem(program, seed, n) is None
    assert C.negative_moment_problem({"residual": want * 1.01}, seed,
                                     n) is not None
    assert C.negative_moment_problem({"residual": want}, seed + 1,
                                     n) is not None


# -- the benchmark's own output -------------------------------------------------

def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_is_strict_json(trace):
    done = run_bench(HERE.parent, "--workload", "paths-and-leaves",
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = strict_loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 9 == 0
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    if trace == "1":
        strict_loads((HERE / "out" / "trace-paths-and-leaves.json")
                     .read_text())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "paths-and-leaves",
                     "--seconds", "1")
    assert done.returncode != 0
    assert "{" not in done.stdout
