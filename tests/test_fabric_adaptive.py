"""Adaptive seed allocation: CI math, early stopping, budget reallocation."""

from __future__ import annotations

import math
import random

import pytest

from repro.context import ProcessProgram
from repro.detectors import CheckResult
from repro.fabric import adaptive_sweep, confidence_interval
from repro.fabric.adaptive import NORMAL_MIN_SAMPLES, AdaptiveError
from repro.runtime import register_check, register_program, scenario


# A deterministic "noisy metric": mean `loc`, spread `scale`, reproducible
# from the seed alone.  A one-process program records the draw and a check
# publishes it, so every sample is an ordinary spec run (metric
# ``noisy_value``) that adaptive_sweep dispatches through Engine.run_sweep.
class _NoisyProgram(ProcessProgram):
    def __init__(self, *, loc: float, scale: float, draw_seed: int) -> None:
        rng = random.Random(draw_seed)
        self.value = loc + scale * (rng.random() - 0.5)

    def setup(self, ctx) -> None:
        ctx.record("noisy.value", self.value)


def _check_noisy(trace, pattern) -> CheckResult:
    (process,) = pattern.correct
    value = trace.final_value(process, "noisy.value")
    return CheckResult(ok=True, details={"metrics": {"value": value}})


register_program("noisy", lambda params: _NoisyProgram(**params), overwrite=True)
register_check("noisy", _check_noisy, overwrite=True)


def noisy_spec(config: dict):
    return (
        scenario("noisy")
        .processes(1)
        .program("noisy", loc=config["loc"], scale=config["scale"], draw_seed=config["seed"])
        .check("noisy")
        .horizon(1.0)
        .seed(config["seed"])
        .build()
    )


# ---------------------------------------------------------------------------
# confidence_interval
# ---------------------------------------------------------------------------
def test_ci_degenerate_and_tiny_samples() -> None:
    assert confidence_interval([]) == (pytest.approx(math.nan, nan_ok=True), math.inf)
    assert confidence_interval([4.2]) == (4.2, math.inf)
    mean, half_width = confidence_interval([10.0] * 12)
    assert (mean, half_width) == (10.0, 0.0)


def test_ci_normal_matches_hand_computation() -> None:
    values = [float(v) for v in range(1, 13)]  # n=12 >= NORMAL_MIN_SAMPLES
    assert len(values) >= NORMAL_MIN_SAMPLES
    mean, half_width = confidence_interval(values, confidence=0.95)
    assert mean == pytest.approx(6.5)
    # z_{0.975} * s / sqrt(n) with s = stdev([1..12]) = sqrt(13)
    assert half_width == pytest.approx(1.959964 * math.sqrt(13.0 / 12.0), rel=1e-5)


def test_ci_bootstrap_is_deterministic_and_covers_the_mean() -> None:
    values = [9.0, 10.5, 10.0, 11.0, 9.5]  # below NORMAL_MIN_SAMPLES: bootstrap
    first = confidence_interval(values, seed=7)
    second = confidence_interval(values, seed=7)
    assert first == second
    mean, half_width = first
    assert mean == pytest.approx(10.0)
    assert 0.0 < half_width < max(values) - min(values)
    # the bootstrap seed never moves the centre (only the interval)
    other_mean, _ = confidence_interval(values, seed=8)
    assert other_mean == mean


def test_ci_rejects_bad_arguments() -> None:
    with pytest.raises(AdaptiveError):
        confidence_interval([1.0, 2.0], confidence=1.0)
    with pytest.raises(AdaptiveError):
        confidence_interval([1.0, 2.0], method="student-t")


# ---------------------------------------------------------------------------
# adaptive_sweep
# ---------------------------------------------------------------------------
def test_adaptive_stops_early_and_keeps_medians_inside_ci() -> None:
    cells = [{"loc": 10.0, "scale": 0.1}, {"loc": 20.0, "scale": 0.2}]
    report = adaptive_sweep(
        noisy_spec, cells, metric="noisy_value", max_seeds_per_cell=32, rel_tol=0.05
    )
    assert report.all_converged
    assert report.total_runs < report.fixed_grid_runs  # demonstrably saves work
    assert report.runs_saved == report.fixed_grid_runs - report.total_runs
    for cell in report.cells:
        assert cell.seeds_used == len(cell.values) == len(cell.rows)
        assert abs(cell.median - cell.mean) <= cell.half_width
        assert cell.half_width <= 0.05 * abs(cell.mean)
    assert len(report.rows) == report.total_runs


def test_adaptive_reallocates_budget_to_noisy_cells() -> None:
    cells = [{"loc": 10.0, "scale": 0.01}, {"loc": 10.0, "scale": 8.0}]
    report = adaptive_sweep(
        noisy_spec,
        cells,
        metric="noisy_value",
        max_seeds_per_cell=64,
        abs_tol=0.5,
        budget=40,
    )
    quiet, noisy = report.cells
    assert quiet.converged
    assert noisy.seeds_used > quiet.seeds_used  # the budget went where the noise is
    assert report.total_runs <= 40


def test_adaptive_runs_are_reproducible() -> None:
    cells = [{"loc": 5.0, "scale": 1.0}, {"loc": 7.0, "scale": 2.0}]
    kwargs = dict(metric="noisy_value", max_seeds_per_cell=16, rel_tol=0.1, base_seed=11)
    first = adaptive_sweep(noisy_spec, cells, **kwargs)
    second = adaptive_sweep(noisy_spec, cells, **kwargs)
    assert first.summary() == second.summary()
    assert first.rows == second.rows
    # convergence order cannot perturb a cell's seed sequence
    seeds = [row["seed"] for row in first.cells[1].rows]
    assert seeds == [11 + 1 * 16 + k for k in range(len(seeds))]


def test_adaptive_budget_exhaustion_reports_unconverged_cells() -> None:
    cells = [{"loc": 0.0, "scale": 50.0}]
    report = adaptive_sweep(
        noisy_spec, cells, metric="noisy_value", max_seeds_per_cell=8, abs_tol=1e-9
    )
    assert report.total_runs == 8  # grid cap reached
    assert not report.all_converged
    assert not math.isnan(report.cells[0].median)


def test_adaptive_rejects_bad_configurations() -> None:
    with pytest.raises(AdaptiveError, match="abs_tol"):
        adaptive_sweep(noisy_spec, [{"loc": 1.0, "scale": 1.0}], metric="noisy_value")
    with pytest.raises(AdaptiveError, match="seed"):
        adaptive_sweep(
            noisy_spec, [{"loc": 1.0, "seed": 3}], metric="noisy_value", abs_tol=1.0
        )
    with pytest.raises(AdaptiveError, match="no cells"):
        adaptive_sweep(noisy_spec, [], metric="noisy_value", abs_tol=1.0)
    with pytest.raises(AdaptiveError, match="missing or non-numeric"):
        adaptive_sweep(
            noisy_spec,
            [{"loc": 1.0, "scale": 1.0}],
            metric="no_such_metric",
            abs_tol=1.0,
        )
