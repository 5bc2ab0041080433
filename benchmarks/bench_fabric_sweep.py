"""The sweep fabric under the stopwatch: coordinator fan-out and early stopping.

Two questions, one row each in ``BENCH_core.json``:

* ``fabric_sweep_e1_workers3`` — what does full process isolation cost?  The
  quick E1 plan (13 runs) through the coordinator with 3 worker
  *subprocesses*, fresh state directory, no cache — so every round pays
  worker spawn, library import, framing, and journaling.  This is a
  wall-clock row (``kind: wallclock``, 150% budget like the transport rows):
  it measures OS process churn, not simulator compute, and jitters
  accordingly.  The determinism gate for this path is
  ``digest_manifest.py --fabric``, not this row.
* ``fabric_adaptive_e1`` vs ``fabric_fixed_grid_e1`` — what does
  convergence-based early stopping save?  The same three E1 cells swept with
  a fixed 16-seeds-per-cell grid and with :func:`repro.fabric.adaptive_sweep`
  (stop a cell when the 95% CI half-width on the ◇HP convergence time,
  ``diamond_hp_time``, is within
  10% of its mean).  The adaptive row records ``total_runs`` /
  ``fixed_grid_runs`` / ``runs_saved`` into the baseline, so "early stopping
  demonstrably saves work" is a committed number, not a claim.
"""

import tempfile

from repro.experiments.e1_ohp_convergence import make_spec as e1_spec
from repro.fabric import adaptive_sweep, plan_experiments
from repro.fabric.coordinator import Coordinator
from repro.runtime import Engine

#: The quick E1 experiment executes 12 sweep configs plus 1 ablation run.
E1_QUICK_RUNS = 13

#: The adaptive-vs-fixed comparison grid: E1's quick cells at gst=10.
CELLS = [
    {"n": 4, "distinct_ids": d, "gst": 10.0, "delta": 1.0, "fixed_timeout": False}
    for d in (1, 2, 4)
]
MAX_SEEDS = 16


def _fabric_quick_e1(plan):
    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as state_dir:
        result = Coordinator(plan, state_dir=state_dir, workers=3).run()
    assert len(result.results) == E1_QUICK_RUNS
    assert all(row["digest"] for row in result.rows)
    return result


def test_fabric_sweep_e1_workers3(benchmark):
    """Quick E1 through the coordinator: plan once, spawn+execute per round."""
    plan = plan_experiments(["E1"], quick=True, seed=0)
    benchmark.pedantic(lambda: _fabric_quick_e1(plan), rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["bench_core_key"] = "fabric_sweep_e1_workers3"
    benchmark.extra_info["runs_per_round"] = E1_QUICK_RUNS
    benchmark.extra_info["workers"] = 3
    benchmark.extra_info["kind"] = "wallclock"
    benchmark.extra_info["max_regression_pct"] = 150


def _fixed_grid():
    configs = [
        {**cell, "seed": index * MAX_SEEDS + k}
        for index, cell in enumerate(CELLS)
        for k in range(MAX_SEEDS)
    ]
    rows = Engine().run_sweep(e1_spec, configs)
    assert len(rows) == len(CELLS) * MAX_SEEDS
    return rows


def _adaptive():
    report = adaptive_sweep(
        e1_spec,
        CELLS,
        metric="diamond_hp_time",
        max_seeds_per_cell=MAX_SEEDS,
        rel_tol=0.10,
    )
    assert report.all_converged
    assert report.total_runs < report.fixed_grid_runs
    for cell in report.cells:
        assert abs(cell.median - cell.mean) <= cell.half_width
    return report


def test_fabric_fixed_grid_e1(benchmark):
    """The baseline the adaptive allocator competes against: the full grid."""
    benchmark.pedantic(_fixed_grid, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["bench_core_key"] = "fabric_fixed_grid_e1"
    benchmark.extra_info["runs_per_round"] = len(CELLS) * MAX_SEEDS


def test_fabric_adaptive_e1(benchmark):
    """Early stopping: same cells, converged CIs, a fraction of the seeds."""
    report = benchmark.pedantic(_adaptive, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["bench_core_key"] = "fabric_adaptive_e1"
    benchmark.extra_info["runs_per_round"] = report.total_runs
    benchmark.extra_info["total_runs"] = report.total_runs
    benchmark.extra_info["fixed_grid_runs"] = report.fixed_grid_runs
    benchmark.extra_info["runs_saved"] = report.runs_saved
