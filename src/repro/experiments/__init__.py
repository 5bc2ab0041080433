"""The experiment harness behind EXPERIMENTS.md and the benchmarks.

Every module ``eN_*`` regenerates one experiment of the reproduction plan
(see DESIGN.md §3).  Each exposes ``run(quick=True, seed=0, engine=None)``
returning an :class:`~repro.analysis.runner.ExperimentResult`; ``quick``
trades sweep width for runtime and is what the benchmark suite uses.  The
deterministic experiments are :class:`~repro.experiments.grid.Experiment`
objects — a declared spec grid plus a pure ``summarise(rows)`` — so their
whole work is plannable without running it (see :mod:`repro.fabric.plan`).
"""

from . import (
    e1_ohp_convergence,
    e2_hsigma_sync,
    e3_reductions,
    e4_consensus_majority,
    e5_consensus_hsigma,
    e6_homonymy_spectrum,
    e7_coordination_ablation,
    e8_stacked_consensus,
    e9_fault_envelope,
    e10_kv_service,
    e12_membership_scaling,
)
from .e1_ohp_convergence import run as run_e1
from .e2_hsigma_sync import run as run_e2
from .e3_reductions import run as run_e3
from .e4_consensus_majority import run as run_e4
from .e5_consensus_hsigma import run as run_e5
from .e6_homonymy_spectrum import run as run_e6
from .e7_coordination_ablation import run as run_e7
from .e8_stacked_consensus import run as run_e8
from .e9_fault_envelope import run as run_e9
from .e10_kv_service import run as run_e10
from .e11_sim_vs_real import run as run_e11
from .e12_membership_scaling import run as run_e12

from ..runtime.registry import EXPERIMENTS, register_experiment

ALL_EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E12": run_e12,
}

#: Experiments that measure wall-clock behaviour (the real transport
#: backend).  They are registered and runnable by name, but excluded from
#: ``ALL_EXPERIMENTS`` — and therefore from the determinism-digest manifest
#: and the CLI's default selection — because their results are not
#: bit-reproducible.
WALLCLOCK_EXPERIMENTS = {
    "E11": run_e11,
}

for _name, _runner in {**ALL_EXPERIMENTS, **WALLCLOCK_EXPERIMENTS}.items():
    if _name not in EXPERIMENTS:
        register_experiment(_name, _runner)

__all__ = [
    "ALL_EXPERIMENTS",
    "WALLCLOCK_EXPERIMENTS",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
]
