"""E3 — Every reduction arrow of Figure 5 emulates its target class correctly.

For each reduction implemented from the paper (Figures 1, 2, 4; Theorem 3;
Lemmas 2–3; Observation 1), the experiment runs the reduction over an oracle
of the source class in the appropriate system model and validates the emulated
output trace with the target class's property checker.  It also confirms the
structural facts of the relation graph: Corollary 1 (Σ, HΣ, AΣ equivalent with
unique identifiers) and the AP → {◇HP, HΣ, HΩ} reachability in anonymous
systems that underpins the paper's comparison with prior work.
"""

from __future__ import annotations

from ..analysis.runner import ExperimentResult
from ..detectors.classes import DetectorClass
from ..reductions import equivalent_classes, is_stronger
from ..runtime import ScenarioSpec, asynchronous, crashes_at, scenario
from .grid import Experiment, Grid

__all__ = ["run"]

DESCRIPTION = "Reductions between detector classes (Figures 1-4, Theorems 1-4, Observation 1)"

_STABILIZATION = 15.0
_UNIQUE_IDENTITIES = [f"id{index}" for index in range(4)]

#: One row per reduction: the table's description columns, then how to run
#: it — membership shape, reduction program (+ params), the source-class
#: oracles, and the target class's property check.
_CASES = (
    ("Figure 1 (Theorem 1.1)", "Σ → HΣ (known membership)", "AS", "unique",
     "sigma_to_hsigma_known", {"identities": _UNIQUE_IDENTITIES}, ("Sigma",), "hsigma"),
    ("Figure 2 (Theorem 1.2)", "Σ → HΣ (unknown membership)", "AS", "unique",
     "sigma_to_hsigma", {}, ("Sigma",), "hsigma"),
    ("Figure 4 (Theorem 2)", "HΣ → Σ (uses ℰ)", "AS", "unique",
     "hsigma_to_sigma", {}, ("HSigma", "ScriptE"), "sigma"),
    ("Theorem 3", "AΣ → HΣ", "AAS", "anonymous",
     "asigma_to_hsigma", {}, ("ASigma",), "hsigma"),
    ("Lemma 2 (Theorem 4)", "AP → ◇HP", "AAS", "anonymous",
     "ap_to_diamond_hp", {}, ("AP",), "diamond_hp"),
    ("Lemma 3 (Theorem 4)", "AP → HΣ", "AAS", "anonymous",
     "ap_to_hsigma", {}, ("AP",), "hsigma"),
    ("Observation 1", "◇HP → HΩ", "HAS", "homonymous",
     "diamond_hp_to_homega", {}, ("DiamondHP",), "homega"),
)


def _spec(config: dict) -> ScenarioSpec:
    """One reduction over a source-class oracle; process 1 crashes at t=10."""
    _, _, _, shape, program, params, detectors, check = _CASES[config["case"]]
    build = scenario("E3")
    if shape == "unique":
        build = build.processes(4).unique_ids()
    elif shape == "anonymous":
        build = build.processes(4).anonymous()
    else:
        build = build.homonyms([2, 2, 1])
    return (
        build.timing(asynchronous(max_latency=1.5))
        .crashes(crashes_at({1: 10.0}))
        .detectors(*detectors, stabilization=_STABILIZATION)
        .program(program, period=1.0, **params)
        .check(check)
        .horizon(90.0)
        .seed(config["seed"])
        .build()
    )


def grid(quick: bool, seed: int) -> Grid:
    configs = [
        {"case": index, "paper_item": case[0], "reduction": case[1], "model": case[2],
         "check": case[7], "seed": seed + index}
        for index, case in enumerate(_CASES)
    ]
    return [(_spec, configs)]


def summarise(rows: list[dict]) -> ExperimentResult:
    rows = [
        {
            "paper_item": row["paper_item"],
            "reduction": row["reduction"],
            "model": row["model"],
            "emulation_ok": row[f"{row['check']}_ok"],
            "stabilization_time": row[f"{row['check']}_time"],
            "violations": row[f"{row['check']}_violations"],
        }
        for row in rows
    ]
    sigma_group = next(
        (group for group in equivalent_classes(model="AS") if DetectorClass.SIGMA in group),
        frozenset(),
    )
    summary = {
        "all_reductions_ok": all(row["emulation_ok"] for row in rows),
        "corollary_1_sigma_hsigma_asigma_equivalent": {
            DetectorClass.SIGMA,
            DetectorClass.H_SIGMA,
            DetectorClass.A_SIGMA,
        }
        <= sigma_group,
        "ap_reaches_homega_in_aas": is_stronger(
            DetectorClass.AP, DetectorClass.H_OMEGA, model="AAS"
        ),
        "asigma_does_not_reach_homega_in_aas": not is_stronger(
            DetectorClass.A_SIGMA, DetectorClass.H_OMEGA, model="AAS"
        ),
    }
    return ExperimentResult(
        experiment="E3",
        description=DESCRIPTION,
        rows=tuple(rows),
        summary=summary,
        columns=(
            "paper_item",
            "reduction",
            "model",
            "emulation_ok",
            "stabilization_time",
            "violations",
        ),
    )


#: Run every reduction case and the relation-graph checks.
run = Experiment(grid, summarise)
