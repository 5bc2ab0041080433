"""E2 — The Figure 7 HΣ implementation in HSS[∅] satisfies all four properties.

Reproduces Theorem 6 empirically: in a synchronous homonymous system with
unknown membership, the step-wise ``IDENT`` exchange yields an HΣ detector —
validity, monotonicity, liveness, and safety all hold — for every homonymy
pattern and any number of crashes (including a majority of faulty processes,
which is what makes HΣ necessary for the Figure 9 consensus algorithm).
"""

from __future__ import annotations

from ..analysis.runner import ExperimentResult, ParameterSweep, aggregate_rows
from ..runtime import ScenarioSpec, cascading, scenario, synchronous
from .grid import Experiment, Grid

__all__ = ["run"]

DESCRIPTION = "HΣ in synchronous homonymous systems (Figure 7, Theorem 6)"


def _spec(config: dict) -> ScenarioSpec:
    steps = config["steps"]
    return (
        scenario("E2")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .timing(synchronous(1.0))
        .crashes(
            cascading(
                config["crashes"],
                first_at=2.4,
                interval=2.0,
                partial_broadcast_fraction=0.5 if config["crash_mid_broadcast"] else None,
            )
        )
        .program("hsigma_sync", steps=steps)
        .check("hsigma")
        .horizon(steps + 2.0)
        .seed(config["seed"])
        .build()
    )


def grid(quick: bool, seed: int) -> Grid:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "crashes": [0, 2, 4],
            "crash_mid_broadcast": [False],
            "steps": [14],
        }
        repetitions = 1
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "crashes": [0, 1, 3, 5],
            "crash_mid_broadcast": [False, True],
            "steps": [20],
        }
        repetitions = 2
    return [(_spec, ParameterSweep(parameters, repetitions=repetitions, base_seed=seed))]


def summarise(rows: list[dict]) -> ExperimentResult:
    rows = [
        {**row, "properties_ok": row["hsigma_ok"], "violations": row["hsigma_violations"]}
        for row in rows
    ]
    aggregated = aggregate_rows(
        rows,
        group_by=["n", "distinct_ids", "crashes", "crash_mid_broadcast"],
        metrics=["properties_ok", "violations"],
    )
    summary = {
        "runs": len(rows),
        "all_properties_hold": all(row["properties_ok"] for row in rows),
    }
    return ExperimentResult(
        experiment="E2",
        description=DESCRIPTION,
        rows=tuple(aggregated),
        summary=summary,
        columns=(
            "n",
            "distinct_ids",
            "crashes",
            "crash_mid_broadcast",
            "runs",
            "properties_ok",
            "violations",
        ),
    )


#: Run the E2 sweep and return the aggregated result.
run = Experiment(grid, summarise)
