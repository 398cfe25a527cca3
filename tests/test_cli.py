"""Scenario runner: loading, determinism, exit codes, report schema."""

import argparse
import copy
import glob
import json
import os
import resource
import subprocess
import sys
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracgeo import cli, fixtures
from diracgeo import groupoid as GR
from diracgeo import liegroup as LG
from references import mixed_source


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCN = os.path.join(ROOT, "scenarios")


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def _strict(text):
    """Parse text as JSON that has no NaN or infinite literal."""
    def reject(name):
        raise ValueError(f"non-strict JSON literal {name}")
    return json.loads(text, parse_constant=reject)


def scrub(payload):
    payload = json.loads(json.dumps(payload))
    payload.pop("wall_time", None)
    return payload


def test_list_fixtures_and_checks(capsys):
    code, out = run_cli(["list-fixtures"], capsys)
    assert code == 0
    names = out.split()
    assert "pair-groupoid-r2" in names
    assert "nondirac-flow" in names
    code, out = run_cli(["list-checks"], capsys)
    assert code == 0
    assert "classification" in out.split()
    assert "basicness" in out.split()


def test_one_parser_serves_every_call(capsys):
    # the parser is built on the first call, not at import, and once: a
    # usage error, a run and list-checks in one process give the output
    # and exit codes of fresh calls
    probe = subprocess.run(
        [sys.executable, "-c", "from diracgeo import cli; "
         "print(cli._parser.cache_info().currsize)"], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert probe.stdout.split() == ["0"]
    scenario = os.path.join(SCN, "pair-groupoid-r2.json")
    calls = [["run", scenario, "--samples", "x"],
             ["run", scenario, "--samples", "4"], ["list-checks"]]

    def results(fresh):
        out = []
        for args in calls:
            if fresh:
                cli._parser.cache_clear()
            code = cli.main(args)
            text, err = capsys.readouterr()
            if code == 0 and args[0] == "run":
                text = scrub(json.loads(text))
            out.append((code, text, err))
        return out

    cli._parser.cache_clear()
    shared = results(False)
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "invalid int value" in shared[0][2]
    assert shared == results(True)


def test_run_single_scenario_report_schema(capsys):
    code, out = run_cli(
        ["run", os.path.join(SCN, "pair-groupoid-r2.json"),
         "--samples", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "v1"
    (report,) = payload["reports"]
    assert report["scenario"] == "pair-groupoid-r2"
    assert report["seed"] == 42
    assert report["ok"] is True
    for name, entry in report["checks"].items():
        assert entry["as_expected"] is True
        assert "residual" in entry or name == "classification"
    assert set(report["versions"]) == {"diracgeo", "numpy"}


def test_deterministic_reports(capsys):
    args = ["run", os.path.join(SCN, "rotation-quasi-ham.json"),
            "--seed", "42", "--samples", "4"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert scrub(json.loads(out1)) == scrub(json.loads(out2))


def test_seed_changes_sampled_residuals(capsys, monkeypatch):
    # the residuals are rounding noise and may coincide across seeds, so
    # compare the first composable pair each run samples
    sampled = []
    real = GR.check_multiplicative

    def spy(G, F, rng, *args):
        sampled.append(G.pairs.draw(copy.deepcopy(rng), 1)[0].tolist())
        return real(G, F, rng, *args)

    monkeypatch.setattr(GR, "check_multiplicative", spy)
    scn = os.path.join(SCN, "twisted-pair-r3.json")
    for seed in ("1", "2"):
        _, out = run_cli(["run", scn, "--seed", seed, "--samples", "4"],
                         capsys)
        entry = json.loads(out)["reports"][0]["checks"]["multiplicative"]
        assert entry["pass"]
    # both pass, but the sampled arrows differ
    assert sampled[0] != sampled[1]


def test_counterexample_scenario_expected_failure(capsys):
    code, out = run_cli(
        ["run", os.path.join(SCN, "nondirac-flow.json"),
         "--samples", "4"], capsys)
    assert code == 0
    report = json.loads(out)["reports"][0]
    entry = report["checks"]["dirac-type"]
    assert entry["pass"] is False
    assert entry["expected"] is False
    assert entry["as_expected"] is True
    assert report["ok"] is True


def test_expectation_mismatch_exits_one(tmp_path, capsys):
    # force the counterexample to be expected to pass
    scn = json.load(open(os.path.join(SCN, "nondirac-flow.json")))
    scn["expect"] = {}
    p = tmp_path / "flow.json"
    p.write_text(json.dumps(scn))
    code, out = run_cli(["run", str(p), "--samples", "4"], capsys)
    assert code == 1
    assert json.loads(out)["reports"][0]["ok"] is False


def test_expect_file_overrides_the_scenario(tmp_path, capsys):
    p = tmp_path / "expect.json"
    p.write_text(json.dumps({"pair-groupoid-r2": {"multiplicative": False}}))
    code, out = run_cli(["run", os.path.join(SCN, "pair-groupoid-r2.json"),
                         "--expect-file", str(p)], capsys)
    assert code == 1
    entry = json.loads(out)["reports"][0]["checks"]["multiplicative"]
    assert entry["pass"] is True
    assert entry["expected"] is False
    assert entry["as_expected"] is False


def test_inline_fixture(tmp_path, capsys):
    scn = {"id": "inline-demo", "fixture":
           {"inline": {"n": 2, "omega": {"0,1": "1.0 + x1*x1"}}},
           "suite": ["structure", "multiplicative", "rel-closed"]}
    p = tmp_path / "inline.json"
    p.write_text(json.dumps(scn))
    code, out = run_cli(["run", str(p), "--samples", "4"], capsys)
    assert code == 0
    assert json.loads(out)["reports"][0]["ok"] is True


def test_parse_errors_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["run", str(p)]) == 2
    capsys.readouterr()
    scn = {"id": "bad-expr", "fixture":
           {"inline": {"n": 2, "omega": {"0,1": "1.0 + *"}}},
           "suite": ["structure"]}
    p2 = tmp_path / "badexpr.json"
    p2.write_text(json.dumps(scn))
    assert cli.main(["run", str(p2)]) == 2
    capsys.readouterr()
    scn2 = {"id": "bad-check", "fixture": "pair-groupoid-r2",
            "suite": ["no-such-check"]}
    p3 = tmp_path / "badcheck.json"
    p3.write_text(json.dumps(scn2))
    assert cli.main(["run", str(p3)]) == 2
    capsys.readouterr()
    # an unknown fixture is named as the message, not as its repr
    p3.write_text(json.dumps({"id": "x", "fixture": "nope",
                              "suite": ["structure"]}))
    assert cli.main(["run", str(p3)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown fixture 'nope'; known: "
        + ", ".join(sorted(fixtures.FIXTURES)) + "\n")
    # a list is unhashable: as a check name, and as an id that
    # --expect-file looks up
    expect = tmp_path / "expect.json"
    expect.write_text("{}")
    for scn3 in ({"id": "x", "fixture": "pair-groupoid-r2",
                  "suite": [["structure"]]},
                 {"id": ["x"], "fixture": "pair-groupoid-r2",
                  "suite": ["structure"]}):
        p3.write_text(json.dumps(scn3))
        assert cli.main(["run", str(p3), "--expect-file", str(expect)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    # an expectation must be a boolean, for a check that the suite runs;
    # inline and through --expect-file
    scn4 = {"id": "x", "fixture": "pair-groupoid-r2", "suite": ["structure"]}
    for bad in ({"structure": "no"}, {"nosuch": False},
                {"classification": False}):
        expect.write_text(json.dumps({"x": bad}))
        for inline, flags in ((bad, []),
                              ({}, ["--expect-file", str(expect)])):
            p3.write_text(json.dumps({**scn4, "expect": inline}))
            assert cli.main(["run", str(p3), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1
    good = os.path.join(SCN, "foliation-x3.json")
    assert cli.main(["run", good, "--expect-file",
                     str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert cli.main(["run", good, "--expect-file", str(p)]) == 2
    capsys.readouterr()


def test_bad_policy_rejected(tmp_path, capsys):
    # "tol": 1e400 is valid JSON that reads as inf
    for policy in ({"samples": 0}, {"samples": "8"}, {"tol": "1e-8"},
                   {"grid": [4, 4]}, {"seed": -1}, {"fd_step": "x"}, [8],
                   {"sample": 8},
                   "{\"tol\": 1e400}", "{\"fd_step\": 1e400}"):
        text = policy if isinstance(policy, str) else json.dumps(policy)
        p = tmp_path / "policy.json"
        p.write_text('{"id": "bad-policy", "fixture": "pair-groupoid-r2", '
                     f'"suite": ["structure"], "policy": {text}}}')
        assert cli.main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "policy" in err
        assert len(err.splitlines()) == 1
    for flags in (["--grid", "4,4"], ["--tol", "inf"], ["--fd-step", "inf"]):
        assert cli.main(["run", os.path.join(SCN, "pathspace-pair.json"),
                         *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unknown_policy_key_is_named(tmp_path, capsys):
    # a misspelt key would otherwise run at the default and be copied into
    # the report
    p = tmp_path / "policy.json"
    p.write_text('{"id": "typo", "suite": ["structure"], '
                 '"policy": {"samplez": 3}}')
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown policy key 'samplez'")
    assert len(err.splitlines()) == 1


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["run", os.path.join(SCN, "foliation-x3.json"),
                     "--samples", "4", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["ok"] is True


def _count_checks(monkeypatch):
    calls = []
    for name, check in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, lambda *a, check=check:
                            calls.append(1) or check(*a))
    return calls


def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch):
    # a missing directory and a path that is a directory: one error line
    # and the exit code of a usage error, not a traceback, before any
    # check runs
    calls = _count_checks(monkeypatch)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        code = cli.main(["run", os.path.join(SCN, "pair-groupoid-r2.json"),
                         "--samples", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.splitlines()) == 1
    assert calls == []


@pytest.mark.parametrize("args", [
    [os.path.join(SCN, "foliation-x3.json"), "--samples", "10000000000000"],
    [os.path.join(SCN, "pair-groupoid-r2.json"),
     "--samples", "10000000000000"],
    [os.path.join(SCN, "pathspace-pair.json"), "--grid", "2,10000000000000"],
    [os.path.join(SCN, "foliation-x3.json"),
     "--samples", "100000000000000000000"],
    [os.path.join(SCN, "rotation-quasi-ham.json"),
     "--samples", "100000000000000000000"],
    [os.path.join(SCN, "pair-groupoid-r2.json"),
     "--samples", "100000000000000000000"],
    [os.path.join(SCN, "pathspace-pair.json"),
     "--grid", "2,100000000000000000000"]])
def test_refused_allocation_fails_its_checks(args, capsys):
    # stacks of 1e13 samples are far past any memory, so the allocator
    # refuses them outright, and numpy refuses a shape of 1e20, past its
    # index range, before it allocates; each check reports that, with no
    # traceback
    size = int(args[-1].split(",")[-1])
    reason = "cannot allocate: " if size > np.iinfo(np.intp).max \
        else "out of memory: "
    code = cli.main(["run", *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    checks = json.loads(captured.out)["reports"][0]["checks"]
    assert checks and all(e["pass"] is False
                          and e["error"].startswith(reason)
                          for e in checks.values())


def test_unrelated_value_error_is_not_an_entry(tmp_path, monkeypatch):
    # only numpy's refusals of a size become entries: any other ValueError
    # is a fault of the program and keeps its traceback
    def broken(fx, rng, policy):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli.CHECKS, "structure", broken)
    with pytest.raises(ValueError, match="broadcast"):
        cli.main(["run", os.path.join(SCN, "pair-groupoid-r2.json"),
                  "--out", str(tmp_path / "r.json")])


def test_chart_radius_and_rank_defects_are_entries(capsys, monkeypatch):
    # an amm-so3 sampler that leaves the exp-chart radius fails rel-closed,
    # whose Cartan 3-form refuses the points, and a source map that is no
    # coordinate selection fails rho-star-half-flat, which reads Ker ds
    # from the coordinates ds does not read: entries, exit 1, no traceback
    monkeypatch.setattr(LG, "uniform", lambda lo, hi, d, scale=1.0:
                        GR.uniform(lo, hi, d, 8 * scale))
    real = fixtures.FIXTURES["amm-so3"]

    def mixed():
        fx = real()
        return {**fx, "groupoid": mixed_source(fx["groupoid"])}

    monkeypatch.setitem(fixtures.FIXTURES, "amm-so3", mixed)
    code = cli.main(["run", os.path.join(SCN, "amm-so3.json")])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    checks = _strict(captured.out)["reports"][0]["checks"]
    assert "outside the exp-chart radius at sample" in \
        checks["rel-closed"]["error"]
    assert checks["rho-star-half-flat"]["error"] == \
        "ds is not a coordinate selection"
    assert not (checks["rel-closed"]["pass"]
                or checks["rho-star-half-flat"]["pass"])


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
def test_stream_is_the_generator_of_the_seed_and_the_name(seed):
    # one uint32 array of the seed's 32-bit words and the name bytes is the
    # entropy SeedSequence makes of the list [seed, *name bytes]
    for name in cli.TABLE:
        want = np.random.default_rng([seed] + list(name.encode()))
        assert cli.stream({"seed": seed}, name).bit_generator.state \
            == want.bit_generator.state


@pytest.mark.parametrize("key", ["box", "tol", "fd_step"])
def test_integer_past_the_float_range_exits_two(key, tmp_path, capsys):
    # JSON integers are unbounded: 10**400 has no float, so it is refused
    # like the literal 1e400, with one error line
    inline = {"n": 2, "omega": {"0,1": "1.0"}}
    scn = {"id": "huge", "fixture": {"inline": inline},
           "suite": ["structure"]}
    if key == "box":
        inline["box"] = 10 ** 400
    else:
        scn["policy"] = {key: 10 ** 400}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(scn))
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("N", [2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63,
                               2 ** 63 + 5])
def test_grid_count_at_the_index_range_is_refused(N, capsys):
    # np.linspace wraps N + 1 near 2**63 to a negative size and indexed an
    # empty array; the path grid is refused as too large before that
    code = cli.main(["run", os.path.join(SCN, "pathspace-pair.json"),
                     "--grid", f"2,{N}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    checks = json.loads(captured.out)["reports"][0]["checks"]
    assert len(checks) == 3
    assert all(e["pass"] is False
               and e["error"].startswith("cannot allocate: ")
               for e in checks.values())


def test_grid_flag_overrides_policy(capsys):
    code, out = run_cli(
        ["run", os.path.join(SCN, "pathspace-pair.json"),
         "--grid", "16,32,64"], capsys)
    assert code == 0
    entry = json.loads(out)["reports"][0]["checks"]["basicness"]
    assert entry["grid"] == [16, 32, 64]
    assert entry["order"] >= 1.8


def test_induced_dirac_compares_spans_by_angle(capsys):
    # near a coordinate axis the RREF forms of the two spans had entries of
    # 2e4, so comparing them entrywise exceeded 1e-8 here; the residual is
    # the sine of the largest principal angle between the two spans
    code, out = run_cli(["run", os.path.join(SCN, "amm-so3.json"),
                         "--seed", "7"], capsys)
    entry = json.loads(out)["reports"][0]["checks"]["induced-dirac"]
    assert entry["residual"] <= 1e-12
    assert code == 0


def test_rank_deficient_induced_span_reads_one(capsys, monkeypatch):
    # a span of rank below the base dimension is no Dirac structure: the
    # check fails with the largest gap instead of raising
    induced_span = GR.induced_span

    def deficient(G, F, x):
        span, width = induced_span(G, F, x)
        return span * (np.arange(span.shape[-1]) > 0), width

    monkeypatch.setattr(GR, "induced_span", deficient)
    code, out = run_cli(["run", os.path.join(SCN, "amm-so3.json")], capsys)
    assert code == 1
    entry = _strict(out)["reports"][0]["checks"]["induced-dirac"]
    assert entry["residual"] == 1.0 and entry["pass"] is False


def test_flow_samples_do_not_depend_on_suite(tmp_path, capsys):
    scn = json.load(open(os.path.join(SCN, "nondirac-flow.json")))
    _, out = run_cli(["run", os.path.join(SCN, "nondirac-flow.json"),
                      "--samples", "3"], capsys)
    in_suite = json.loads(out)["reports"][0]["checks"]["dirac-type"]
    scn["suite"], scn["expect"] = ["dirac-type"], {"dirac-type": False}
    p = tmp_path / "alone.json"
    p.write_text(json.dumps(scn))
    _, out = run_cli(["run", str(p), "--samples", "3"], capsys)
    alone = json.loads(out)["reports"][0]["checks"]["dirac-type"]
    assert alone == in_suite


def test_reports_are_strict_json(capsys):
    for name in ("pair-groupoid-r2", "nondirac-flow"):
        _, out = run_cli(["run", os.path.join(SCN, f"{name}.json"),
                          "--samples", "4"], capsys)
        report = _strict(out)["reports"][0]
        gaps = report["checks"]["classification"]["rank_gaps"]
        assert set(gaps) == {"units", "arrows"}


def test_runner_makes_each_entry_strict_json(tmp_path, capsys,
                                             monkeypatch):
    # a check returns plain data: non-finite floats in a dict, a list and
    # an array, and numpy scalars; the runner alone makes it strict JSON
    def check(fx, rng, policy):
        return {"pass": np.bool_(False), "residual": np.float64(np.nan),
                "parts": {"a": np.inf, "b": 0.5},
                "series": [1.0, -np.inf, np.nan],
                "array": np.array([[1.0, np.nan], [np.inf, -2.0]]),
                "dims": np.array([0, 2]), "count": np.int64(3),
                "flag": np.bool_(True)}

    monkeypatch.setitem(cli.CHECKS, "structure", check)
    p = tmp_path / "plain.json"
    p.write_text(json.dumps({"id": "plain", "suite": ["structure"]}))
    code, out = run_cli(["run", str(p)], capsys)
    assert code == 1
    entry = _strict(out)["reports"][0]["checks"]["structure"]
    assert entry == {"pass": False, "residual": None,
                     "parts": {"a": None, "b": 0.5},
                     "series": [1.0, None, None],
                     "array": [[1.0, None], [None, -2.0]], "dims": [0, 2],
                     "count": 3, "flag": True,
                     "expected": True, "as_expected": False}
    assert type(entry["count"]) is int and entry["flag"] is True
    assert entry["pass"] is False


def test_nan_residuals_fail_and_stay_strict_json(tmp_path, capsys):
    # 1e308*x1*10.0 overflows, so omega is inf - inf = NaN on the samples;
    # a plain max fold would drop the NaN, since max(0.0, nan) is 0.0
    scn = {"id": "nan-omega", "fixture":
           {"inline": {"n": 2, "omega": {"0,1": "1e308*x1*10.0"}}},
           "suite": ["multiplicative", "rel-closed", "unit-identities",
                     "kernel-orthogonality"]}
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(scn))

    code = cli.main(["run", str(p), "--samples", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    checks = _strict(captured.out)["reports"][0]["checks"]
    assert set(checks) == set(scn["suite"])
    for name, entry in checks.items():
        assert entry["pass"] is False, name
        assert entry["residual"] is None, name


def test_classification_names_each_unexpected_flag():
    # a fixture that expects a flag the classification does not find fails
    # the check, which names the flag with what was expected and got
    fx = fixtures.load("pair-groupoid-r2")
    fx["expected_flags"]["is_symplectic"] = False
    rep = cli.check_classification(fx, None, cli.DEFAULT_POLICY)
    assert rep["pass"] is False
    assert rep["mismatches"] == {
        "is_symplectic": {"expected": False, "got": True}}


def test_classification_fails_on_non_finite_omega(tmp_path, capsys):
    # the kernel SVD of a NaN matrix does not converge, and sqrt(x1) has no
    # value at the sampled x1 < 0; the checks must fail with a reason
    # instead of a traceback
    for omega, suite, reason in [
            ("1e308*x1*10.0", ["classification", "dirac-type"], "not finite"),
            ("sqrt(x1)", ["multiplicative"], "sqrt of negative value")]:
        scn = {"id": "bad-omega", "fixture":
               {"inline": {"n": 2, "omega": {"0,1": omega}}},
               "suite": suite}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(scn))
        code = cli.main(["run", str(p), "--samples", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        checks = json.loads(captured.out)["reports"][0]["checks"]
        for name in suite:
            assert checks[name]["pass"] is False, name
            assert reason in checks[name]["error"], name


def test_non_finite_basicness_fails_and_stays_strict_json(capsys):
    # a step of 1e308 overflows the shifted paths, so every grid residual
    # is NaN; the fold must keep the NaN and the report must stay strict
    code = cli.main(["run", os.path.join(SCN, "pathspace-pair.json"),
                     "--fd-step", "1e308"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    entry = _strict(captured.out)["reports"][0]["checks"]["basicness"]
    assert entry["pass"] is False
    assert entry["residual"] is None
    assert entry["order"] is None


@pytest.mark.parametrize("change", [
    {"box": "abc"}, {"box": -1}, {"box": 1e309},
    {"omega": {"0,0": "1.0"}}, {"omega": {"1,0": "1.0"}},
    {"omega": {"0,5": "1.0"}}, {"omega": []}, {"omega": {"0,1": [1]}},
    {"phi": {"0,1,2": "1.0"}}, {"phi": "x1"},
    {"n": 0}, {"n": -1}, {"n": 2.5}, {"n": "2"}])
def test_malformed_inline_fixture_exits_two(tmp_path, capsys, change):
    inline = {"n": 2, "omega": {"0,1": "1.0"}}
    inline.update(change)
    p = tmp_path / "inline.json"
    p.write_text(json.dumps({"id": "bad-inline", "fixture":
                             {"inline": inline}, "suite": ["structure"]}))
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _run_inline(inline, suite):
    scn = {"id": "fuzz", "fixture": {"inline": inline}, "suite": suite,
           "policy": {"samples": 2}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w") as fh:
            json.dump(scn, fh)
        code = cli.main(["run", path, "--out", out])
        text = open(out).read() if os.path.exists(out) else None
    return code, text


RANK = ({"n": 4, "omega": {"0,1": "5e-9", "2,3": "5e-10"}},
        ["classification"])
EXP = ({"n": 2, "omega": {"0,1": "exp(800*x1)"}}, ["multiplicative"])
POW = ({"n": 2, "omega": {"0,1": "x1^200"}, "box": 1000.0},
       ["multiplicative"])
# 2 * box overflows, and numpy's uniform refuses such a range at each draw
BOX = ({"n": 2, "omega": {"0,1": "1.0"}, "box": 1e308}, ["structure"])


@pytest.mark.parametrize("inline, suite, key, reason", [
    (*RANK, "indeterminate", "straddle the threshold"),
    (*EXP, "error", "overflow"),
    (*POW, "error", "overflow"),
    (*BOX, "error", "range exceeds valid bounds")])
def test_overflow_and_ambiguous_rank_fail_without_traceback(
        inline, suite, key, reason, capsys):
    code, text = _run_inline(inline, suite)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    entry = _strict(text)["reports"][0]["checks"][suite[0]]
    assert entry["pass"] is False
    assert reason in entry[key]


@pytest.mark.parametrize("omega", ["(" * 200 + "x1" + ")" * 200,
                                   "-" * 990 + "x1"],
                         ids=["parentheses", "signs"])
def test_deeply_nested_expression_exits_two(omega, tmp_path, capsys):
    # the parser recurses once per parenthesis or sign
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"id": "deep", "fixture": {"inline": {
        "n": 2, "omega": {"0,1": omega}}}, "suite": ["structure"]}))
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_long_sum_fails_its_check_without_traceback(capsys):
    # a sum of 1000 terms parses, but its evaluation nests 1000 deep
    code, text = _run_inline(
        {"n": 2, "omega": {"0,1": "+".join(["x1"] * 1000)}},
        ["multiplicative"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    entry = _strict(text)["reports"][0]["checks"]["multiplicative"]
    assert entry["pass"] is False and "recursion" in entry["error"]


def _run_process(scenario, tmp_path, limit=None):
    """The runner on a scenario in a fresh interpreter, as from the command
    line, with its address space limited to limit bytes if given."""
    p = tmp_path / "process.json"
    p.write_text(scenario)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1")

    def limit_address_space():
        if limit is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "diracgeo.cli", "run", str(p)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=limit_address_space)


def test_builtin_reference_is_not_a_fixture(tmp_path, capsys):
    # a fixture is a builtin name or {"inline": ...}; {"builtin": name} is
    # refused, also nested 980 deep, where following it overflowed the
    # stack while the scenario's JSON still parses
    refused = "error: fixture must be a builtin name or {'inline': ...}\n"
    p = tmp_path / "ref.json"
    p.write_text(json.dumps({"id": "ref", "suite": ["structure"], "fixture":
                             {"builtin": "pair-groupoid-r2"}}))
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == refused
    proc = _run_process('{"id": "ref", "suite": ["structure"], "fixture": '
                        + '{"builtin": ' * 980 + '"pair-groupoid-r2"'
                        + "}" * 980 + "}", tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", refused)


def test_fixture_too_large_to_build_exits_two(tmp_path):
    # the chart of a 10^9-dimensional pair groupoid does not fit in the
    # limited address space; never run this input without the limit
    proc = _run_process(json.dumps({"id": "big", "suite": ["structure"],
                                    "fixture": {"inline": {
                                        "n": 10**9, "omega": {"0,1": "1"}}}}),
                        tmp_path, limit=512 * 2**20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: inline fixture too large to build "
                           "(n = 1000000000)\n")


@pytest.mark.parametrize("where", ["scenario", "expect-file"])
def test_deeply_nested_json_exits_two(where, tmp_path, capsys):
    deep = "[" * 1000 + "]" * 1000
    scn = tmp_path / "scn.json"
    args = ["run", str(scn)]
    if where == "scenario":
        scn.write_text('{"id": "deep", "suite": ["structure"], "policy": '
                       + deep + "}")
    else:
        scn.write_text(json.dumps({"id": "deep", "suite": ["structure"]}))
        (tmp_path / "expect.json").write_text('{"deep": ' + deep + "}")
        args += ["--expect-file", str(tmp_path / "expect.json")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# an inline fixture carries no group, so the induced-Dirac checks are
# refused on it (test_check_the_fixture_cannot_feed_is_refused)
GROUPOID_CHECKS = ["structure", "multiplicative", "rel-closed",
                   "unit-identities", "kernel-orthogonality", "orbit-form",
                   "classification", "dirac-type"]
EXPRESSIONS = st.one_of(
    st.floats(-5.0, 5.0), st.integers(-3, 3),
    st.sampled_from(["x1", "sqrt(x1)", "1.0/(x1 - x1)", "x1^-3", "1e-9*x1",
                     "exp(800*x1)"]))


@st.composite
def inline_fixtures(draw):
    n = draw(st.integers(1, 4))
    pairs = [f"{i},{j}" for i, j in combinations(range(n), 2)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True,
                         max_size=3)) if pairs else []
    inline = {"n": n, "omega": {k: draw(EXPRESSIONS) for k in keys}}
    triples = [",".join(map(str, c)) for c in combinations(range(n), 3)]
    if triples and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(triples), unique=True,
                             max_size=2))
        inline["phi"] = {k: draw(EXPRESSIONS) for k in keys}
    if draw(st.booleans()):
        inline["box"] = draw(st.sampled_from([0.5, 1000.0]))
    return inline


@settings(max_examples=40, deadline=None)
@given(inline_fixtures(),
       st.lists(st.sampled_from(GROUPOID_CHECKS), min_size=1, max_size=3,
                unique=True))
@example(*RANK)
@example(*EXP)
@example(*POW)
def test_fuzzed_inline_fixtures_exit_cleanly(inline, suite):
    # whatever the expressions do (overflow, divide by zero, leave their
    # domain, make a rank ambiguous), the runner reports a check entry:
    # exit 0 or 1 with a strict JSON report, or 2 for a rejected input
    code, text = _run_inline(inline, suite)
    assert code in (0, 1, 2)
    if code != 2:
        _strict(text)


# -- a check that the fixture cannot feed -------------------------------------

INLINE = {"inline": {"n": 2, "omega": {"0,1": "1.0"}}}


@pytest.mark.parametrize("fixture, check, entry", [
    (INLINE, "basicness", "paths"),
    ("amm-so3", "twisted-shift", "foliation"),
    ("coadjoint-so3", "induced-dirac", "group"),
    (INLINE, "rho-star-half-flat", "group")])
def test_check_the_fixture_cannot_feed_is_refused(fixture, check, entry,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    # refused before any check runs, with one line that names the check,
    # the entry it reads and the fixture
    calls = _count_checks(monkeypatch)
    p = tmp_path / "unfed.json"
    p.write_text(json.dumps({"id": "unfed", "fixture": fixture,
                             "suite": ["structure", check]}))
    assert cli.main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    name = fixture if isinstance(fixture, str) else "inline"
    assert captured.err == (f"error: check {check!r} reads {entry!r}, which "
                            f"fixture {name!r} does not carry\n")


def test_no_shipped_scenario_is_refused(capsys, monkeypatch):
    paths = sorted(glob.glob(os.path.join(SCN, "*.json"))
                   + glob.glob(os.path.join(ROOT, "perfbench", "scenarios",
                                            "*", "*.json")))
    for name in cli.CHECKS:
        monkeypatch.setitem(cli.CHECKS, name, lambda *a: {"pass": True})
    for path in paths:
        assert cli.main(["run", path]) in (0, 1), path
        assert capsys.readouterr().err == "", path
    assert len(paths) == 20


def test_every_fixture_and_check_is_refused_or_reported(tmp_path, capsys):
    # a check runs where its fixture carries what it reads, and gives an
    # entry; anywhere else the suite is refused
    for fixture in sorted(fixtures.FIXTURES):
        fx = fixtures.load(fixture)
        for check in sorted(cli.CHECKS):
            p = tmp_path / "pair.json"
            p.write_text(json.dumps({"id": "pair", "fixture": fixture,
                                     "suite": [check]}))
            code = cli.main(["run", str(p), "--samples", "2",
                             "--grid", "4,8"])
            captured = capsys.readouterr()
            fed = all(key in fx for key in cli.TABLE[check][2])
            assert code <= 1 if fed else code == 2, (fixture, check)
            if fed:
                assert check in _strict(captured.out)["reports"][0]["checks"]
            assert "Traceback" not in captured.err


# -- the table of checks ------------------------------------------------------

def test_every_row_is_run_by_a_shipped_scenario():
    suites = set()
    for path in glob.glob(os.path.join(SCN, "*.json")):
        suites.update(cli.load_scenario(path)["suite"])
    assert set(cli.TABLE) <= suites


def test_residual_entries_carry_their_rows_threshold(monkeypatch):
    # on each fixture that feeds it, a check that returns a residual is
    # judged by its row's threshold, or by the policy's tol where the row
    # has None; classification, dirac-type, quasi-ham-negative and a
    # skipped orbit-form return their whole entry
    returned = {}

    def spy(name, check):
        def run(fx, rng, policy):
            returned[name] = check(fx, rng, policy)
            return returned[name]
        return run

    for name, check in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, spy(name, check))
    args = argparse.Namespace(samples=2, grid=[4, 8], tol=3e-8,
                              expect_file=None)
    judged = set()
    for fixture in sorted(fixtures.FIXTURES):
        fx = fixtures.load(fixture)
        for name, (_, threshold, reads) in cli.TABLE.items():
            if not all(key in fx for key in reads):
                continue
            returned.clear()
            report, _ = cli.run_scenario(
                {"id": "row", "fixture": fixture, "suite": [name]}, args)
            if isinstance(returned.get(name, {}), dict):
                continue
            judged.add(name)
            entry = report["checks"][name]
            assert entry["threshold"] == (3e-8 if threshold is None
                                          else threshold), (fixture, name)
    assert judged == set(cli.TABLE) - {"classification", "dirac-type",
                                       "quasi-ham-negative"}
