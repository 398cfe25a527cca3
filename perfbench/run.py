"""Benchmark of the diracgeo scenario runner, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 20]
                             [--trace 0|1]

A workload is a set of scenario files under perfbench/scenarios/NAME.  Every
pass runs all of them through the runner's public entry point
``cli.main(["run", ..., "--seed", SEED, "--out", REPORT])`` in this process,
with BLAS pinned to one thread.  The first pass is a warm-up; timed passes
follow until --seconds have gone by, and at least two of them ran.

An operation is one check of one scenario in one pass.  It fails if the
pass raises, if the check is missing from the report or not
``as_expected``, or if an output check of ``checks.py`` disagrees with it.
"correct" is false when an output check could not be made at all.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters timed by setup_probe.py), run_s (median timed pass, each pass
scaled to the machine's nominal speed by the kernel of speed.py run around
it) and peak_rss_mb.  --trace 1 runs a warm-up pass, two untraced passes
alternating with two traced ones, and one Jet-counting pass; it prints the
per-layer metrics (per pass) and the tracing overhead (median traced minus
median untraced pass, unscaled) and writes perfbench/out/trace-NAME.json.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

import os

# before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_TIMED_PASSES = 2
TRACE_PAIRS = 2   # untraced and traced passes alternate, for the overhead

# workload -> (model check or None, report check)
WORKLOADS = {
    "lie-groupoids": (checks.lie_model_checks, checks.lie_report_checks),
    "coordinate-groupoids": (checks.coordinate_model_checks,
                             checks.coordinate_report_checks),
    "paths-and-leaves": (None, checks.paths_report_checks),
}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "fixtures.build_s": "s",
    "groupoid.self_s": "s", "groupoid.check_calls": "count",
    "geometry.self_s": "s", "geometry.form_evals": "count",
    "liegroup.self_s": "s", "liegroup.chart_mul_calls": "count",
    "jets.self_s": "s", "jets.passes": "count", "jets.jets_built": "count",
    "expr.self_s": "s", "expr.evals": "count",
    "linear.self_s": "s", "linear.svd_calls": "count",
    "pathspace.self_s": "s", "pathspace.sigma_tilde_calls": "count",
    "realization.self_s": "s", "foliation.self_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    if not (SRC / "diracgeo" / "__init__.py").is_file():
        raise BenchError(f"no diracgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diracgeo
    from diracgeo import cli
    if Path(diracgeo.__file__).resolve().parent != SRC / "diracgeo":
        raise BenchError(f"imported diracgeo from {diracgeo.__file__}, "
                         f"not from {SRC}")
    return cli


def load_workload(name):
    files = sorted((HERE / "scenarios" / name).glob("*.json"))
    if not files:
        raise BenchError(f"no scenario files for workload {name}")
    scenarios = [json.loads(f.read_text()) for f in files]
    ops = [(sc["id"], check) for sc in scenarios
           for check in sorted(set(sc["suite"]))]
    return files, scenarios, ops


def measure_setup(files):
    """Median set-up time over fresh interpreters; the first one, which
    also writes the bytecode cache, is not counted.  It is not scaled by
    speed.py: interpreter start and imports did not follow the kernel."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *map(str, files)]

    def probe():
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout.split()[-1])

    probe()
    return statistics.median(probe() for _ in range(SETUP_REPEATS))


class Runner:
    """Runs passes and records, per pass, which operations failed."""

    def __init__(self, cli, files, seed, ops, report_check):
        self.cli = cli
        self.seed = seed
        self.ops = ops
        self.report_check = report_check
        self.report_path = OUT / f"report-{os.getpid()}.json"
        self.argv = ["run", *map(str, files), "--seed", str(seed),
                     "--out", str(self.report_path)]
        self.failures = []   # per pass: {op: [problems]}
        self.unverified = []  # output checks that could not be made

    def run_pass(self):
        """One pass through cli.main; returns its wall time."""
        self.report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            self.cli.main(self.argv)
            error = None
        except Exception as e:  # a fault in the program fails the pass
            error = f"pass raised {e!r}"
        elapsed = time.perf_counter() - start
        self.failures.append(self._judge(error))
        return elapsed

    def _judge(self, error):
        if error is None and not self.report_path.is_file():
            error = "no report written"
        if error is not None:
            return {op: [error] for op in self.ops}
        payload = json.loads(self.report_path.read_text())
        reports = {r["scenario"]: r for r in payload["reports"]}
        failed = {}
        for sc, check in self.ops:
            entry = reports.get(sc, {}).get("checks", {}).get(check)
            if entry is None:
                failed[(sc, check)] = ["missing from the report"]
            elif not entry.get("as_expected"):
                failed[(sc, check)] = [f"not as expected: pass="
                                       f"{entry.get('pass')}, expected="
                                       f"{entry.get('expected')}"]
        try:
            found = self.report_check(reports, self.seed)
        except (KeyError, TypeError, ValueError) as e:
            self.unverified.append(f"report check: {e!r}")
            found = {}
        for op, problems in found.items():
            if problems:
                failed.setdefault(op, []).extend(problems)
        return failed

    def add_model_problems(self, problems):
        for per_pass in self.failures:
            for op, found in problems.items():
                if found:
                    per_pass.setdefault(op, []).extend(found)

    def counts(self):
        failed = sum(len(f) for f in self.failures)
        return len(self.ops) * len(self.failures), failed


def model_problems(runner, cli, scenarios, model_check, seed):
    """Run a workload's model checks on freshly built fixtures."""
    try:
        fixtures = {sc["id"]: cli.load_fixture(
            sc.get("fixture", "pair-groupoid-r2"))[1] for sc in scenarios}
        runner.add_model_problems(model_check(fixtures, seed))
    except Exception as e:  # the outputs could not be checked
        runner.unverified.append(f"model check: {e!r}")


def end_to_end(runner, files, seconds):
    setup_s = measure_setup(files)
    measured, scaled = [], []
    before = speed.kernel_mean(runner.run_pass())   # after a warm-up pass
    start = time.perf_counter()
    while len(measured) < MIN_TIMED_PASSES or \
            time.perf_counter() - start < seconds:
        measured.append(runner.run_pass())
        after = speed.kernel_mean(measured[-1])
        scaled.append(measured[-1] * speed.NOMINAL_S / ((before + after) / 2))
        before = after
    return {"setup_s": setup_s,
            "run_s": statistics.median(scaled)}, measured, scaled


def per_layer(runner, workload, seed):
    runner.run_pass()   # warm-up
    tracer = spans.Tracer()
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
    counter = spans.JetCounter()
    counter.install()
    try:
        runner.run_pass()
    finally:
        counter.uninstall()
    layers, by_name = tracer.summary(passes=TRACE_PAIRS)
    layers["jets.jets_built"] = counter.count
    u, t = statistics.median(untraced), statistics.median(traced)
    overhead = {"untraced_run_s": untraced, "traced_run_s": traced,
                "overhead_s": t - u, "overhead_share": (t - u) / u,
                "spans_per_pass": layers["spans"]}
    trace_file = OUT / f"trace-{workload}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload, "seed": seed, "overhead": overhead,
         "layers": layers, "spans_by_name": by_name},
        indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"trace overhead: traced run_s {t:.4f} s - untraced {u:.4f} s = "
          f"{t - u:.4f} s ({100 * (t - u) / u:.1f} %), medians of "
          f"{TRACE_PAIRS} alternating passes; {layers['spans']} spans per "
          f"pass; trace in {trace_file}")
    return {k: layers[k] for k in PER_LAYER_UNITS}


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = import_program()
        files, scenarios, ops = load_workload(args.workload)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    model_check, report_check = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, files, args.seed, ops, report_check)
    try:
        if args.trace:
            values = per_layer(runner, args.workload, args.seed)
            units = PER_LAYER_UNITS
        else:
            values, measured, scaled = end_to_end(runner, files,
                                                  args.seconds)
            values["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
            print(f"{len(measured)} timed passes, measured s: "
                  + " ".join(f"{t:.4f}" for t in measured)
                  + f"; median {statistics.median(measured):.4f}")
            print("scaled to speed.NOMINAL_S, s: "
                  + " ".join(f"{t:.4f}" for t in scaled))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        runner.report_path.unlink(missing_ok=True)
    if model_check is not None:
        model_problems(runner, cli, scenarios, model_check, args.seed)
    attempted, failed = runner.counts()
    for op, problems in sorted(runner.failures[-1].items()):
        print(f"failed {op[0]} {op[1]}: {'; '.join(problems)}",
              file=sys.stderr)
    for problem in runner.unverified:
        print(f"unverified: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    result = {"correct": not runner.unverified, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
