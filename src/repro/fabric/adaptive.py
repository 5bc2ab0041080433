"""Adaptive seed allocation: waves, confidence intervals, early stopping.

A fixed sweep grid spends the same number of seeds on every cell, which at
paper scale means most of the budget is burned on cells whose statistic
settled after a handful of runs.  This module runs seeds in *waves* instead:

1. every cell gets ``initial_wave`` seeds;
2. after each wave the target metric's confidence interval is computed per
   cell — a normal approximation (``mean ± z·s/√n``) once there are enough
   samples, a seeded bootstrap percentile interval as the small-``n``
   fallback;
3. a cell whose CI half-width drops below the threshold (absolute, relative,
   or both) is **retired** — it receives no further seeds;
4. the remaining budget flows to the still-active cells, noisiest first,
   until every cell converges or the budget/``max_seeds_per_cell`` is hit.

Determinism: cell ``i``'s ``k``-th seed is always
``base_seed + i·max_seeds_per_cell + k`` — independent of the order cells
converge in — so two adaptive runs with the same inputs execute the same
seeds, produce identical rows, and the per-run outcomes are ordinary cache
hits for any fixed sweep (or fabric run) that covered the same cells.

Each wave is one :meth:`~repro.runtime.engine.Engine.run_sweep` of the
caller's ``make_spec`` over the wave's configs, so it fans out across the
warm pool (``Engine(jobs=N)``) or is served from a
:class:`~repro.runtime.cache.RunCache` like any other sweep.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import ReproError
from ..runtime.engine import Engine
from ..runtime.spec import ScenarioSpec

__all__ = ["AdaptiveError", "CellStats", "AdaptiveReport", "adaptive_sweep", "confidence_interval"]

#: Sample size at or above which the normal approximation is trusted;
#: below it the bootstrap percentile interval is used instead.
NORMAL_MIN_SAMPLES = 8

#: Bootstrap resamples for the small-n fallback.
BOOTSTRAP_RESAMPLES = 400


class AdaptiveError(ReproError):
    """The adaptive sweep was configured or measured inconsistently."""


def confidence_interval(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    method: str = "auto",
    seed: int = 0,
) -> tuple[float, float]:
    """``(mean, half_width)`` of a CI on the mean of ``values``.

    ``method`` is ``"normal"`` (``mean ± z·s/√n``), ``"bootstrap"`` (seeded
    percentile interval over :data:`BOOTSTRAP_RESAMPLES` resampled means —
    makes no normality assumption, so it is the fallback while ``n`` is too
    small to lean on the CLT), or ``"auto"`` (normal from
    :data:`NORMAL_MIN_SAMPLES` samples, bootstrap below).  Fewer than two
    values have no spread estimate: the half-width is infinite.
    """
    if not 0.0 < confidence < 1.0:
        raise AdaptiveError(f"confidence must be in (0, 1), got {confidence}")
    if method not in ("auto", "normal", "bootstrap"):
        raise AdaptiveError(f"unknown CI method {method!r}")
    values = [float(value) for value in values]
    if not values:
        return math.nan, math.inf
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, math.inf
    if method == "auto":
        method = "normal" if len(values) >= NORMAL_MIN_SAMPLES else "bootstrap"
    if method == "normal":
        z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
        return mean, z * statistics.stdev(values) / math.sqrt(len(values))
    rng = random.Random(seed)
    resampled = sorted(
        statistics.fmean(rng.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    )
    alpha = (1.0 - confidence) / 2.0
    low = resampled[int(alpha * (len(resampled) - 1))]
    high = resampled[int((1.0 - alpha) * (len(resampled) - 1))]
    # Centre the interval on the sample mean; report the half-spread.
    return mean, max(high - mean, mean - low, 0.0)


@dataclass
class CellStats:
    """One sweep cell's running state and final statistics."""

    cell: dict
    index: int
    rows: list[dict] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    seeds_used: int = 0
    mean: float = math.nan
    median: float = math.nan
    half_width: float = math.inf
    converged: bool = False

    def refresh(self, *, confidence: float, ci_seed: int) -> None:
        if self.values:
            self.mean, self.half_width = confidence_interval(
                self.values, confidence=confidence, seed=ci_seed
            )
            self.median = statistics.median(self.values)


@dataclass
class AdaptiveReport:
    """The outcome of one adaptive sweep."""

    cells: list[CellStats]
    metric: str
    total_runs: int
    fixed_grid_runs: int
    budget: int

    @property
    def all_converged(self) -> bool:
        return all(cell.converged for cell in self.cells)

    @property
    def runs_saved(self) -> int:
        """How many runs the fixed grid would have spent on top of these."""
        return self.fixed_grid_runs - self.total_runs

    @property
    def rows(self) -> list[dict]:
        return [row for cell in self.cells for row in cell.rows]

    def summary(self) -> dict:
        return {
            "metric": self.metric,
            "cells": len(self.cells),
            "total_runs": self.total_runs,
            "fixed_grid_runs": self.fixed_grid_runs,
            "runs_saved": self.runs_saved,
            "all_converged": self.all_converged,
            "max_half_width": max(cell.half_width for cell in self.cells),
        }


def adaptive_sweep(
    make_spec: Callable[[dict], ScenarioSpec],
    cells: Iterable[Mapping[str, Any]],
    *,
    metric: str,
    engine: Engine | None = None,
    base_seed: int = 0,
    initial_wave: int = 3,
    wave: int = 2,
    max_seeds_per_cell: int = 32,
    budget: int | None = None,
    abs_tol: float | None = None,
    rel_tol: float | None = None,
    confidence: float = 0.95,
) -> AdaptiveReport:
    """Run ``make_spec``'s scenarios over the cells with CI-based early stopping.

    ``cells`` are seedless config dicts (the grid axes); ``make_spec`` turns
    each cell's config, with ``seed`` filled in, into a spec, exactly as for
    :meth:`Engine.run_sweep`, and ``metric`` names a key of the resulting
    rows (the config merged with the record's metrics).  A cell converges when its half-width is
    ``≤ abs_tol`` and/or ``≤ rel_tol·|mean|`` (whichever are given; at least
    one is required).  ``budget`` caps total runs across all cells (default:
    the fixed grid's ``cells × max_seeds_per_cell``, i.e. no extra cap).
    """
    if abs_tol is None and rel_tol is None:
        raise AdaptiveError("need abs_tol and/or rel_tol to define convergence")
    if initial_wave < 2:
        raise AdaptiveError(f"initial_wave must be at least 2, got {initial_wave}")
    if wave < 1:
        raise AdaptiveError(f"wave must be at least 1, got {wave}")
    cell_list = [dict(cell) for cell in cells]
    if not cell_list:
        raise AdaptiveError("no cells to sweep")
    if any("seed" in cell for cell in cell_list):
        raise AdaptiveError("cells must not carry 'seed'; seeds are allocated here")
    if max_seeds_per_cell < initial_wave:
        raise AdaptiveError("max_seeds_per_cell must cover the initial wave")
    fixed_grid_runs = len(cell_list) * max_seeds_per_cell
    if budget is None:
        budget = fixed_grid_runs
    engine = engine or Engine()

    stats = [CellStats(cell=cell, index=index) for index, cell in enumerate(cell_list)]
    total_runs = 0

    def is_converged(cell: CellStats) -> bool:
        if not math.isfinite(cell.half_width):
            return False
        ok = True
        if abs_tol is not None:
            ok = ok and cell.half_width <= abs_tol
        if rel_tol is not None:
            ok = ok and cell.half_width <= rel_tol * abs(cell.mean)
        return ok

    def run_wave(allocation: list[tuple[CellStats, int]]) -> None:
        """Execute ``count`` new seeds for each allocated cell, one dispatch."""
        nonlocal total_runs
        configs = []
        owners = []
        for cell, count in allocation:
            for _ in range(count):
                seed = base_seed + cell.index * max_seeds_per_cell + cell.seeds_used
                configs.append({**cell.cell, "seed": seed})
                owners.append(cell)
                cell.seeds_used += 1
        rows = engine.run_sweep(make_spec, configs)
        total_runs += len(configs)
        for cell, row in zip(owners, rows):
            value = row.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise AdaptiveError(
                    f"metric {metric!r} is missing or non-numeric in row for "
                    f"cell {cell.cell} (got {value!r})"
                )
            cell.rows.append(row)
            cell.values.append(float(value))
        for cell, _ in allocation:
            cell.refresh(confidence=confidence, ci_seed=base_seed + cell.index)
            cell.converged = is_converged(cell)

    # Wave 0: every cell gets the initial sample (bounded by the budget).
    first = []
    for cell in stats:
        count = min(initial_wave, budget - total_runs - sum(c for _, c in first))
        if count > 0:
            first.append((cell, count))
    run_wave(first)

    # Subsequent waves: noisiest cells first, until convergence or exhaustion.
    while total_runs < budget:
        active = [
            cell
            for cell in stats
            if not cell.converged and cell.seeds_used < max_seeds_per_cell
        ]
        if not active:
            break
        active.sort(key=lambda cell: (-cell.half_width, cell.index))
        allocation = []
        remaining = budget - total_runs
        for cell in active:
            count = min(wave, max_seeds_per_cell - cell.seeds_used, remaining)
            if count <= 0:
                break
            allocation.append((cell, count))
            remaining -= count
        if not allocation:
            break
        run_wave(allocation)

    return AdaptiveReport(
        cells=stats,
        metric=metric,
        total_runs=total_runs,
        fixed_grid_runs=fixed_grid_runs,
        budget=budget,
    )
