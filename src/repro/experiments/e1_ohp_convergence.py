"""E1 — Convergence of the Figure 6 ◇HP / HΩ implementation in HPS[∅].

Reproduces the paper's Theorem 5 and Corollary 2 empirically: the polling
algorithm converges to ``h_trusted = I(Correct)`` (and the derived HΩ output)
in partially synchronous homonymous systems with unknown membership, for every
homonymy pattern and crash schedule, and regardless of the (unknown) GST and
δ.  The sweep also records how the convergence time scales with GST and δ and
how far the adaptive timeout grows, and contrasts the fixed-timeout ablation
(which fails to converge when the timeout is below the real latency bound).
"""

from __future__ import annotations

from ..analysis.runner import ExperimentResult, ParameterSweep, aggregate_rows
from ..runtime import ScenarioSpec, minority, partial_sync, scenario
from .grid import Experiment, Grid

__all__ = ["run", "make_spec"]

DESCRIPTION = "◇HP / HΩ convergence under partial synchrony (Figure 6, Theorem 5, Corollary 2)"


def make_spec(config: dict) -> ScenarioSpec:
    """One Figure 6 run: polling ◇HP under pre-GST loss, a minority crashing."""
    gst = config["gst"]
    return (
        scenario("E1")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .timing(
            partial_sync(
                gst,
                config["delta"],
                min_latency=0.1,
                pre_gst_loss=0.4,
                pre_gst_max_latency=4 * gst + 10.0,
            )
        )
        .crashes(minority(at=gst / 2 + 1.0))
        .program("ohp_polling", fixed_timeout=config["fixed_timeout"])
        .check("diamond_hp", "homega", "ohp_timeout")
        .horizon(gst * 4 + 120.0)
        .seed(config["seed"])
        .build()
    )


def grid(quick: bool, seed: int) -> Grid:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "gst": [10.0, 30.0],
            "delta": [1.0, 3.0],
            "fixed_timeout": [False],
        }
        repetitions = 1
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "gst": [10.0, 30.0, 60.0],
            "delta": [0.5, 1.0, 3.0],
            "fixed_timeout": [False],
        }
        repetitions = 3
    # The fixed-timeout ablation: one configuration where the static timeout is
    # below the actual latency bound, expected NOT to converge.
    ablation = {
        "n": [4],
        "distinct_ids": [2],
        "gst": [0.0],
        "delta": [4.0],
        "fixed_timeout": [True],
    }
    return [
        (make_spec, ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)),
        (make_spec, ParameterSweep(ablation, repetitions=1, base_seed=seed + 1_000)),
    ]


def summarise(rows: list[dict]) -> ExperimentResult:
    rows = [
        {
            **row,
            "converged": row["diamond_hp_ok"],
            "convergence_time": row["diamond_hp_time"] if row["diamond_hp_ok"] else None,
            "final_timeout": row["ohp_timeout_final"],
        }
        for row in rows
    ]
    aggregated = aggregate_rows(
        rows,
        group_by=["n", "distinct_ids", "gst", "delta", "fixed_timeout"],
        metrics=["converged", "homega_ok", "convergence_time", "final_timeout"],
    )
    adaptive_rows = [row for row in rows if not row["fixed_timeout"]]
    summary = {
        "adaptive_runs": len(adaptive_rows),
        "adaptive_all_converged": all(row["converged"] for row in adaptive_rows),
        "adaptive_all_homega_ok": all(row["homega_ok"] for row in adaptive_rows),
        "fixed_timeout_converged": any(
            row["converged"] for row in rows if row["fixed_timeout"]
        ),
    }
    return ExperimentResult(
        experiment="E1",
        description=DESCRIPTION,
        rows=tuple(aggregated),
        summary=summary,
        columns=(
            "n",
            "distinct_ids",
            "gst",
            "delta",
            "fixed_timeout",
            "runs",
            "converged",
            "homega_ok",
            "convergence_time",
            "final_timeout",
        ),
    )


#: Run the E1 sweep and return the aggregated result.
run = Experiment(grid, summarise)
