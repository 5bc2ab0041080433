"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

It compiles the sources to bytecode, measures set-up several times in fresh
processes, runs the workload in one more fresh process (see
``perfbench/harness.py``), and prints one JSON object as the last line of
standard output.  Every process it starts is waited for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("consensus-spectrum", "kv-service", "monitor-scale", "quick-suite-pool2")
#: Extra fresh-process set-ups measured per run; set-up is their median.
SETUP_SAMPLES = 5
#: Every process this script starts must end within this many seconds.
TOTAL_TIMEOUT_S = 170


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.harness", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"workload process exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TOTAL_TIMEOUT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at src/repro; nothing to measure", file=sys.stderr)
        return 2
    # Bytecode is compiled before any set-up is timed.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1) or not compileall.compile_dir(
        str(ROOT / "perfbench"), quiet=1
    ):
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_child(common + ["--setup-only"], deadline)["setup_s"])
    report = _child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    if not args.trace:
        setups.append(report["metrics"]["setup_s"]["value"])
        report["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
