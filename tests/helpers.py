"""Shared helpers for tests: running probe systems and building detector services."""

from __future__ import annotations

from typing import Mapping

from repro.membership import Membership
from repro.sim import (
    AsynchronousTiming,
    Clock,
    CrashSchedule,
    DetectorServices,
    RngStreams,
    Simulation,
    build_system,
)
from repro.sim.failures import FailurePattern
from repro.detectors.probe import DetectorProbeProgram


def make_services(
    membership: Membership,
    *,
    crash_schedule: CrashSchedule | None = None,
    clock: Clock | None = None,
    seed: int = 0,
) -> DetectorServices:
    """Build stand-alone detector services (for unit-testing oracles)."""
    schedule = crash_schedule or CrashSchedule.none()
    return DetectorServices(
        membership=membership,
        failure_pattern=FailurePattern(membership, schedule),
        clock=clock or Clock(),
        rng_streams=RngStreams(seed),
        schedule=lambda when, action: None,
        poke_all=lambda: None,
    )


def run_probe_system(
    membership: Membership,
    detectors: Mapping,
    probes: Mapping,
    *,
    crash_schedule: CrashSchedule | None = None,
    timing=None,
    until: float = 60.0,
    period: float = 1.0,
    seed: int = 3,
):
    """Run a system whose every process samples the attached detectors.

    Returns ``(simulation, trace)``.
    """
    system = build_system(
        membership=membership,
        timing=timing or AsynchronousTiming(min_latency=0.1, max_latency=1.0),
        program_factory=lambda pid, identity: DetectorProbeProgram(probes, period=period),
        crash_schedule=crash_schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until)
    return simulation, trace


def poison_spec(config: dict):
    """Fabric-test workload: a tiny E1 run, or — for a poison config — a spec
    that fails its worker every time.

    The poison spec names a program no worker has registered, so executing
    it raises, the worker reports the error and exits, and the coordinator
    handles it exactly like a worker that segfaulted or was OOM-killed: the
    failure follows the item through every retry, which is what the
    coordinator's bisection and quarantine exist for.
    """
    from repro.experiments.e1_ohp_convergence import make_spec
    from repro.runtime import MembershipSpec, ScenarioSpec

    if config.get("poison"):
        return ScenarioSpec(
            membership=MembershipSpec("unique", n=2),
            program="no-such-program",
            seed=config["seed"],
            name="poison",
        )
    return make_spec(
        {"n": 3, "distinct_ids": 1, "gst": 2.0, "delta": 0.5, "fixed_timeout": False,
         "seed": config["seed"]}
    )
