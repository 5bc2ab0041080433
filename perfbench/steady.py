"""Steadiness check: repeat each workload over several seeds and print, for
every end-to-end metric, its median, quartiles and spread against the bound
in ``BENCHMARK.json``.

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads monitor-scale

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is steady when its spread is below a third of its bound; ``setup_s`` is
reported but its spread is not held to the bound.  Exits non-zero when any
run fails or a metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            completed = subprocess.run(
                [sys.executable, *config["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: exit code {completed.returncode}")
                ok = False
                continue
            report = json.loads(completed.stdout.strip().splitlines()[-1])
            shares.add((report["failed"], report["attempted"]))
            if report["failed"]:
                ok = False
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        failed = sorted({f"{f}/{a}" for f, a in shares})
        print(f"== {workload} ({args.runs} seeds; failed/attempted: {', '.join(failed)})")
        for name, series in values.items():
            if len(series) < 2:
                continue
            median, q1, q3, share = spread(series)
            bound = bounds.get(name, 0.0)
            steady = name == "setup_s" or share <= bound / 3
            ok &= steady
            print(f"  {name:20s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {share:7.4f}  bound {bound:5.3f}  {'ok' if steady else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
