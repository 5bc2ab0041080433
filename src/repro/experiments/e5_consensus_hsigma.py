"""E5 — Figure 9 consensus in HAS[HΩ, HΣ]: any number of crashes, n unknown.

Reproduces Theorem 8 empirically: the HΩ + HΣ algorithm decides correctly even
when a majority of processes crash (which Figure 8 cannot tolerate), without
knowing ``n`` or ``t``.  The sweep varies the homonymy pattern and the number
of crashes up to ``n − 1`` and reports the same correctness and cost figures
as E4, so the two algorithms can be compared where both apply.
"""

from __future__ import annotations

from ..analysis.runner import ExperimentResult, ParameterSweep, aggregate_rows
from ..runtime import ScenarioSpec, cascading, scenario
from .grid import Experiment, Grid

__all__ = ["run"]

DESCRIPTION = "Consensus with HΩ and HΣ under any number of crashes (Figure 9, Theorem 8)"


def _faulty(config: dict) -> int:
    return min(config["crashes"], config["n"] - 1)


def _spec(config: dict) -> ScenarioSpec:
    return (
        scenario("E5")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .crashes(cascading(_faulty(config), first_at=6.0, interval=4.0))
        .detectors("HOmega", "HSigma", stabilization=config["stabilization"])
        .consensus("homega_hsigma")
        .horizon(700.0)
        .seed(config["seed"])
        .build()
    )


def grid(quick: bool, seed: int) -> Grid:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "crashes": [0, 2, 4],
            "stabilization": [20.0],
        }
        repetitions = 2
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "crashes": [0, 1, 3, 5, 7],
            "stabilization": [5.0, 20.0, 50.0],
        }
        repetitions = 4
    return [(_spec, ParameterSweep(parameters, repetitions=repetitions, base_seed=seed))]


def summarise(rows: list[dict]) -> ExperimentResult:
    rows = [
        {**row, "faulty": _faulty(row), "majority_crashed": _faulty(row) > row["n"] / 2}
        for row in rows
    ]
    aggregated = aggregate_rows(
        rows,
        group_by=["n", "distinct_ids", "crashes", "stabilization"],
        metrics=["decided", "safe", "decision_time", "rounds", "broadcasts"],
    )
    majority_crash_rows = [row for row in rows if row["majority_crashed"]]
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
        "runs_with_majority_crashed": len(majority_crash_rows),
        "majority_crashed_all_terminated": all(
            row["decided"] for row in majority_crash_rows
        )
        if majority_crash_rows
        else None,
    }
    return ExperimentResult(
        experiment="E5",
        description=DESCRIPTION,
        rows=tuple(aggregated),
        summary=summary,
        columns=(
            "n",
            "distinct_ids",
            "crashes",
            "stabilization",
            "runs",
            "decided",
            "safe",
            "decision_time",
            "rounds",
            "broadcasts",
        ),
    )


#: Run the E5 sweep and return the aggregated result.
run = Experiment(grid, summarise)
