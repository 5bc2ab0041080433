"""E6 — Consensus cost across the homonymy spectrum, against both baselines.

The paper positions homonymous systems as the general case whose two extremes
are classical unique-identifier systems and anonymous systems.  This
experiment runs the Figure 8 algorithm on memberships sweeping from anonymous
(1 distinct identifier) to unique (n distinct identifiers) and compares, at
the two extremes, against the corresponding specialised baselines:

* the classical Ω + majority algorithm at the unique-identifier extreme, and
* the Bonnet–Raynal-style AΩ + majority algorithm at the anonymous extreme.

The expected shape: the homonymous algorithm pays a modest, roughly constant
overhead (the extra COORD exchange) over the specialised baselines at the
extremes and degrades gracefully in between — decisions in a small constant
number of rounds everywhere.
"""

from __future__ import annotations

from ..analysis.runner import ExperimentResult, ParameterSweep, aggregate_rows
from ..runtime import ScenarioSpec, minority, scenario
from .grid import Experiment, Grid

__all__ = ["run"]

DESCRIPTION = "Consensus cost from anonymous to unique identifiers, vs specialised baselines"

_STABILIZATION = 15.0

#: algorithm label → (consensus registry name, detector it queries)
_ALGORITHMS = {
    "figure8-homega": ("homega_majority", "HOmega"),
    "classical-omega": ("classical_omega", "Omega"),
    "anonymous-aomega": ("anonymous_aomega", "AOmega"),
}


def _spec(config: dict) -> ScenarioSpec:
    consensus_name, detector_name = _ALGORITHMS[config["algorithm"]]
    return (
        scenario("E6")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .crashes(minority(at=8.0, count=1))
        .detectors(detector_name, stabilization=_STABILIZATION)
        .consensus(consensus_name)
        .horizon(600.0)
        .seed(config["seed"])
        .build()
    )


def grid(quick: bool, seed: int) -> Grid:
    n = 6
    repetitions = 2 if quick else 6
    spectrum_points = [1, 2, 3, 6] if quick else list(range(1, n + 1))

    def algorithm_sweep(algorithm: str, distinct_ids: list[int], base_seed: int) -> ParameterSweep:
        return ParameterSweep(
            {"algorithm": [algorithm], "n": [n], "distinct_ids": distinct_ids},
            repetitions=repetitions,
            base_seed=base_seed,
        )

    return [
        (_spec, algorithm_sweep("figure8-homega", spectrum_points, seed)),
        (_spec, algorithm_sweep("classical-omega", [n], seed + 500)),
        (_spec, algorithm_sweep("anonymous-aomega", [1], seed + 900)),
    ]


def summarise(rows: list[dict]) -> ExperimentResult:
    aggregated = aggregate_rows(
        rows,
        group_by=["algorithm", "distinct_ids"],
        metrics=["decided", "safe", "decision_time", "rounds", "broadcasts"],
    )
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
    }
    return ExperimentResult(
        experiment="E6",
        description=DESCRIPTION,
        rows=tuple(aggregated),
        summary=summary,
        columns=(
            "algorithm",
            "distinct_ids",
            "runs",
            "decided",
            "safe",
            "decision_time",
            "rounds",
            "broadcasts",
        ),
    )


#: Run the E6 spectrum sweep and return the aggregated result.
run = Experiment(grid, summarise)
