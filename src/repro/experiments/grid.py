"""An experiment is a declared spec grid plus a pure summary.

Every deterministic experiment is one :class:`Experiment`:

* ``grid(quick, seed)`` lists ``(make_spec, sweep)`` pairs — a
  ``make_spec(config) -> ScenarioSpec`` function and the
  :class:`~repro.analysis.runner.ParameterSweep` (or plain list of configs)
  it is applied to;
* calling the experiment runs every pair through
  :meth:`~repro.runtime.engine.Engine.run_sweep`, in order, and hands the
  rows (each sweep config merged with its record's metrics) to
  ``summarise(rows)``, which derives the table and the summary from them
  alone.

Because the grid is data, the fabric planner expands it into work items
without running anything, and every run — serial, pooled, sharded or
fabric — emits the same :class:`~repro.runtime.engine.RunRecord` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..analysis.runner import ExperimentResult, ParameterSweep
from ..runtime import Engine, ScenarioSpec

__all__ = ["Experiment", "Grid", "expand"]

#: ``[(make_spec, sweep), ...]`` — an experiment's whole work, in order.
Grid = Sequence[
    tuple[Callable[[dict], ScenarioSpec], ParameterSweep | Iterable[Mapping[str, Any]]]
]


def expand(grid: Grid) -> Iterator[ScenarioSpec]:
    """Every spec of ``grid``, in the order :class:`Experiment` runs them."""
    for make_spec, sweep in grid:
        for config in sweep:
            yield make_spec(dict(config))


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: ``run(quick=..., seed=..., engine=...)``."""

    grid: Callable[[bool, int], Grid]
    summarise: Callable[[list[dict]], ExperimentResult]

    def __call__(
        self, quick: bool = True, seed: int = 0, engine: Engine | None = None
    ) -> ExperimentResult:
        engine = engine or Engine()
        rows: list[dict] = []
        for make_spec, sweep in self.grid(quick, seed):
            rows.extend(engine.run_sweep(make_spec, sweep))
        return self.summarise(rows)
