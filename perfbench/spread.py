"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]
                                [--seconds S]

S defaults to run_seconds of BENCHMARK.json.

Runs are sequential.  For each metric it prints the median, the quartiles
from statistics.quantiles(values, n=4) and their distance as a share of
the median, plus the failed share of attempted operations over all runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", default="0")
    p.add_argument("--seconds", default=str(
        json.loads(BENCHMARK.read_text())["run_seconds"]))
    args = p.parse_args(argv)
    values, attempted, failed = {}, 0, 0
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        line = " ".join(f"{k}={v['value']:.6g}"
                        for k, v in result["metrics"].items())
        passes = [x for x in lines if "timed passes" in x]
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} {line} {' '.join(passes)}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: failed {failed}/{attempted}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {share:.4f} min {min(vals):.6g} max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
