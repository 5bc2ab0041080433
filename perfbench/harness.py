"""One workload in one process: set up, measure whole rounds, check, report.

Run as ``python -m perfbench.harness --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root with ``src`` on ``PYTHONPATH`` (the
``perfbench/run.py`` entry point does this).  ``--setup-only`` stops after
set-up and reports its time alone.  The last line of standard output is one
JSON object.

Untraced (``--trace 0``) the workload runs whole rounds for about
``--seconds`` (see :class:`Budget`) and reports the end-to-end metrics.
Traced (``--trace 1``) it alternates an untraced and a traced round (for
``quick-suite-pool2`` also a serial traced pass over the same items) and
reports the per-layer metrics of the traced rounds, averaged per round,
with the tracing overhead.  Times are in seconds at the reference speed
(see :class:`SpeedClock`).
"""

from __future__ import annotations

from time import perf_counter, thread_time

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from perfbench import checks, workloads  # noqa: E402

OUT_DIR = Path(".perfbench-out")
POOL_JOBS = 2


def _warm_probe(delay: float) -> int:
    """Pool warm-up task: report which worker ran it."""
    time.sleep(delay)
    return os.getpid()


def percentile(values: list[float], percent: int) -> float:
    """Linearly interpolated percentile of a sample of two or more values."""
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


# ----------------------------------------------------------------------
# Time at the reference machine speed
# ----------------------------------------------------------------------
#: Seconds one reference pass takes at the reference speed (this constant
#: only fixes the unit; see SpeedClock).
REFERENCE_S = 0.02
RECALIBRATE_S = 0.5


def _reference_work() -> int:
    """A fixed pure-Python task: about 20 ms of interpreter work."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _reference_cpu(_: Any) -> float:
    """Thread CPU seconds of one reference pass (run inside pool workers)."""
    started = thread_time()
    _reference_work()
    return thread_time() - started


class SpeedClock:
    """Converts wall-clock intervals to seconds at the reference speed.

    The machines this runs on are shared, and their speed moves between
    modes 25-40 % apart for seconds to minutes at a time; the same run of the
    same seed can read 20 % faster or slower.  The clock times a fixed
    reference task at least every ``RECALIBRATE_S`` and scales each interval
    by ``REFERENCE_S / measured``, so a reported time is what the interval
    would have taken at the reference speed.  On the reference machine this
    brought three runs of one seed of ``consensus-spectrum`` within 0.6 % of
    each other, where raw wall time differed by 25 %.  The program's own
    code never runs inside the reference task, and the task's time is never
    counted.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._factor = self._measure()
        self._measured_at = perf_counter()

    def _measure(self) -> float:
        # Thread CPU time: a pool's result-handling thread taking the GIL
        # mid-measurement must not read as a slow machine.
        started = thread_time()
        _reference_work()
        factor = REFERENCE_S / (thread_time() - started)
        self.factors.append(factor)
        return factor

    def factor(self) -> float:
        """The current speed factor, re-measured when it has grown stale."""
        if perf_counter() - self._measured_at >= RECALIBRATE_S:
            self._factor = self._measure()
            self._measured_at = perf_counter()
        return self._factor

    def fresh(self) -> float:
        """Measure now, whatever the age of the last factor."""
        self._factor = self._measure()
        self._measured_at = perf_counter()
        return self._factor

    def median(self) -> float:
        return statistics.median(self.factors)


# ----------------------------------------------------------------------
# Trace capture: a thin wrapper on the public Simulation.run
# ----------------------------------------------------------------------
class Capture:
    """Hands each completed run's ``(simulation, trace)`` to ``on_run``.

    Without a hook it keeps only the last run, so a long pass holds no
    traces in memory.
    """

    def __init__(self) -> None:
        self.last: tuple[Any, Any] | None = None
        self.on_run: Callable[[Any, Any], None] | None = None

    def install(self) -> None:
        from repro.sim.scheduler import Simulation

        original = Simulation.run
        capture = self

        def run(sim, *args, **kwargs):
            trace = original(sim, *args, **kwargs)
            if capture.on_run is not None:
                capture.on_run(sim, trace)
            else:
                capture.last = (sim, trace)
            return trace

        Simulation.run = run


def trace_record_count(trace) -> int:
    return sum(len(trace.records_of(p)) for p in trace.processes_with_records())


def run_counters(sim, trace) -> dict:
    """The per-run counts every traced run reports."""
    return {
        "kind": "suite",
        "events": sim.events_processed,
        "copies": trace.message_copies_sent,
        "records": trace_record_count(trace),
    }


# ----------------------------------------------------------------------
# Per-run checks and measurements
# ----------------------------------------------------------------------
def measure_consensus(item, record, sim, trace) -> tuple[list[str], dict]:
    from repro.runtime import distinct_proposals

    membership = sim.system.membership
    crashed = set(sim.system.crash_schedule.faulty)
    decisions = {p: d.value for p, d in trace.decisions.items()}
    problems = checks.check_consensus(
        decisions,
        membership.processes,
        crashed,
        distinct_proposals(membership),
        require_termination=True,
    )
    correct_times = [d.time for p, d in trace.decisions.items() if p not in crashed]
    return problems, {
        # The time of the last correct decision.
        "latencies": [max(correct_times)] if correct_times else [],
        "rounds": record.metrics.get("rounds"),
        "copies": trace.message_copies_sent,
    }


def kv_observations(trace, replicas: int):
    commits: dict = {}
    invoked: dict = {}
    completed: dict = {}
    latencies = []
    for process in trace.processes_with_records():
        if process.index < replicas:
            commits[process] = [entry.value for entry in trace.records_of(process, "kv.commit")]
            continue
        for entry in trace.records_of(process, "kv.op"):
            invoked[entry.value[0]] = entry.time
        done = trace.records_of(process, "kv.done")
        completed[process] = len(done)
        for entry in done:
            latencies.append(entry.time - invoked[entry.value[0]])
    return commits, completed, latencies


def measure_kv(item, record, sim, trace) -> tuple[list[str], dict]:
    params = item.params
    commits, completed, latencies = kv_observations(trace, params["replicas"])
    problems = checks.check_kv(
        commits,
        completed,
        clients=params["clients"],
        ops_per_client=params["ops_per_client"],
        linearizable=bool(record.metrics.get("linearizable"))
        and record.metrics.get("lin_violations") == 0,
    )
    slots = {slot for log in commits.values() for slot, _ in log}
    return problems, {
        "latencies": latencies,
        "copies": trace.message_copies_sent,
        "slots": len(slots),
        "ops": sum(completed.values()),
        "lin_ops_checked": record.metrics.get("lin_ops_checked", 0),
    }


def monitor_declarations(sim, trace, sparse: bool) -> list[tuple[int, int, float]]:
    membership = sim.system.membership
    declared = []
    for process in trace.processes_with_records():
        for entry in trace.records_of(process, "declared_dead"):
            if sparse:
                target = int(entry.value)
            else:
                (target_pid,) = membership.processes_with_identity(entry.value)
                target = target_pid.index
            declared.append((process.index, target, entry.time))
    return declared


def measure_monitor(item, record, sim, trace) -> tuple[list[str], dict]:
    params = item.params
    declarations = monitor_declarations(sim, trace, params["mode"] != "full_mesh")
    envelope = checks.detection_envelope(
        params["crash_at"],
        mode=params["mode"],
        hb_timeout=params["hb_timeout"],
        hb_interval=workloads.HB_INTERVAL,
        max_latency=workloads.MONITOR_LATENCY[1],
    )
    problems = checks.check_monitor(declarations, victim=params["victim"], envelope=envelope)
    n = params["n"]
    rounds = max(trace.end_time / workloads.HB_INTERVAL, 1.0)
    return problems, {
        # From the crash to each monitor's declaration.
        "latencies": [time - params["crash_at"] for _, target, time in declarations
                      if target == params["victim"]],
        "copies": trace.message_copies_sent,
        "copies_per_proc_round": trace.message_copies_sent / n / rounds,
    }


MEASURE = {"consensus": measure_consensus, "kv": measure_kv, "monitor": measure_monitor}


class Budget:
    """Whole rounds within ``seconds``.

    The first round always runs; another starts only when a round of the
    mean length so far would still end in time, so a run measures for about
    ``seconds`` and never stops mid-round.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.rounds = 0
        self._started = perf_counter()

    def another(self) -> bool:
        elapsed = perf_counter() - self._started
        if self.rounds and elapsed + elapsed / self.rounds > self.seconds:
            return False
        self.rounds += 1
        return True


class Tally:
    """Attempted/failed operations and the problems behind the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], operations: int = 1) -> None:
        self.attempted += operations
        if problems:
            self.failed += min(operations, len(problems))
            self.problems.extend(problems[:5])


# ----------------------------------------------------------------------
# Serial workloads
# ----------------------------------------------------------------------
class SerialWorkload:
    """consensus-spectrum, kv-service and monitor-scale: serial Engine.run."""

    def __init__(self, name: str, seed: int, capture: Capture) -> None:
        from repro.runtime import Engine

        make = {
            "consensus-spectrum": workloads.consensus_round,
            "kv-service": workloads.kv_round,
            "monitor-scale": workloads.monitor_round,
        }[name]
        self.items = make(seed)
        self.engine = Engine()
        self.capture = capture

    def run_round(self, tally: Tally, sink: list, clock: SpeedClock) -> float:
        """Run every item once; return the reference seconds spent in Engine.run."""
        busy = 0.0
        for item in self.items:
            self.capture.last = None
            factor = clock.factor()
            started = perf_counter()
            record = self.engine.run(item.spec)
            elapsed = perf_counter() - started
            if elapsed > RECALIBRATE_S:
                # A long run may span a change of speed: average both ends.
                factor = (factor + clock.fresh()) / 2
            elapsed *= factor
            busy += elapsed
            (sim, trace) = self.capture.last
            problems, observed = MEASURE[item.kind](item, record, sim, trace)
            observed.update(
                wall=elapsed,
                events=sim.events_processed,
                records=trace_record_count(trace),
                kind=item.kind,
            )
            tally.add(problems)
            # Latencies and counts describe the operations that did not fail.
            if not problems:
                sink.append(observed)
        self.capture.last = None
        return busy

    def close(self) -> None:
        self.engine.close()


def latency_metrics(walls_ms: list[float], latencies: list[float]) -> dict:
    """The per-run wall and simulated-latency percentiles every workload reports."""
    return {
        "run_p50_ms": (statistics.median(walls_ms), "ms"),
        "run_p90_ms": (percentile(walls_ms, 90), "ms"),
        "sim_latency_p50": (statistics.median(latencies), "sim_time"),
        "sim_latency_p95": (percentile(latencies, 95), "sim_time"),
    }


def algorithm_layers(observed: list[dict], rounds: int) -> dict:
    """Per-round counts and per-service costs read from the traced runs."""
    consensus = [o for o in observed if o["kind"] == "consensus"]
    kv = [o for o in observed if o["kind"] == "kv"]
    monitor = [o for o in observed if o["kind"] == "monitor"]
    ops = sum(o["ops"] for o in kv)
    return {
        "kernel.events": (sum(o["events"] for o in observed) / rounds, "count"),
        "net.copies": (sum(o["copies"] for o in observed) / rounds, "count"),
        "trace.records": (max((o["records"] for o in observed), default=0), "count"),
        "consensus.rounds_p50": (
            statistics.median([o["rounds"] for o in consensus]) if consensus else 0, "rounds"),
        "consensus.copies_per_run": (
            statistics.fmean([o["copies"] for o in consensus]) if consensus else 0, "count"),
        "kv.copies_per_op": (sum(o["copies"] for o in kv) / ops if ops else 0, "count"),
        "kv.slots_per_op": (sum(o["slots"] for o in kv) / ops if ops else 0, "count"),
        "lin.ops_checked": (sum(o["lin_ops_checked"] for o in kv) / rounds, "count"),
        "hb.copies_per_proc_round": (
            statistics.fmean([o["copies_per_proc_round"] for o in monitor]) if monitor else 0,
            "count"),
    }


# ----------------------------------------------------------------------
# The quick suite through the warm pool
# ----------------------------------------------------------------------
class SuiteWorkload:
    """Quick E1–E10 through one warm Engine(jobs=2) with JSONL emission."""

    def __init__(self, seed: int, capture: Capture) -> None:
        from repro.runtime import Engine
        from repro.runtime.registry import EXPERIMENTS

        self.seeds = workloads.suite_seeds(seed)
        self.runners = [EXPERIMENTS.resolve(name) for name in workloads.SUITE_EXPERIMENTS]
        self.capture = capture
        self.engine = Engine(jobs=POOL_JOBS)
        # Warm both workers through map(), which emits nothing to JSONL, and
        # repeat until each worker has answered.
        started = perf_counter()
        seen: set[int] = set()
        while len(seen) < POOL_JOBS:
            seen.update(self.engine.map(_warm_probe, [0.05] * (4 * POOL_JOBS)))
        self.spawn_s = perf_counter() - started
        self.round_files: list[Path] = []
        self.round_bytes: list[int] = []

    def suite(self, engine) -> list[float]:
        """Run every experiment at every base seed; return each call's wall seconds."""
        walls = []
        for seed in self.seeds:
            for runner in self.runners:
                started = perf_counter()
                runner(quick=True, seed=seed, engine=engine).table()
                walls.append(perf_counter() - started)
        return walls

    def reference_time(self) -> float:
        """Mean thread CPU time of the reference task in each worker and here."""
        times = self.engine.map(_reference_cpu, [None] * (2 * POOL_JOBS))
        return statistics.fmean(times + [_reference_cpu(None)])

    def pooled_round(self) -> tuple[float, list[float]]:
        """One pooled pass; returns its wall seconds and each experiment's."""
        path = OUT_DIR / f"pooled-{os.getpid()}-{len(self.round_files)}.jsonl"
        path.unlink(missing_ok=True)
        self.engine.jsonl_path = str(path)
        self.round_files.append(path)
        started = perf_counter()
        walls = self.suite(self.engine)
        elapsed = perf_counter() - started
        self.engine.jsonl_path = None
        self.round_bytes.append(path.stat().st_size)
        return elapsed, walls

    def serial_pass(self, jsonl: Path | None,
                    summarise: Callable[[Any, Any], Any]) -> tuple[float, list]:
        """Run the same items serially here.

        Returns the pass's wall seconds, not counting ``summarise``, and
        ``summarise(sim, trace)`` of every simulation run in execution order.
        """
        from repro.runtime import Engine

        if jsonl is not None:
            jsonl.unlink(missing_ok=True)
        engine = Engine(jsonl_path=str(jsonl) if jsonl else None)
        summaries: list = []
        hook_s = 0.0

        def on_run(sim, trace) -> None:
            nonlocal hook_s
            started = perf_counter()
            summaries.append(summarise(sim, trace))
            hook_s += perf_counter() - started

        self.capture.on_run = on_run
        try:
            started = perf_counter()
            self.suite(engine)
            elapsed = perf_counter() - started - hook_s
        finally:
            self.capture.on_run = None
        return elapsed, summaries

    def close(self) -> None:
        self.engine.close()


def check_suite_trace(sim, trace) -> tuple[list[str], float | None]:
    """Safety of every paper consensus run and slot agreement of every KV run.

    Also returns the time of the run's last correct decision, or ``None``
    when it ran no paper consensus algorithm or nobody correct decided.
    """
    from repro.consensus.base import ConsensusProgram
    from repro.consensus.no_coordination import NoCoordinationConsensus

    proposals = {}
    for process, runtime in sim.runtimes.items():
        for program in getattr(runtime.program, "_programs", (runtime.program,)):
            # The E7 ablation drops coordination on purpose; it is not a
            # paper algorithm and carries no agreement guarantee.
            if isinstance(program, ConsensusProgram) and not isinstance(
                program, NoCoordinationConsensus
            ):
                proposals[process] = program.proposal
    problems = []
    latency = None
    if proposals:
        decisions = {p: d.value for p, d in trace.decisions.items() if p in proposals}
        problems += checks.check_consensus(
            decisions, proposals, (), proposals, require_termination=False)
        crashed = sim.system.crash_schedule.faulty
        times = [d.time for p, d in trace.decisions.items()
                 if p in proposals and p not in crashed]
        latency = max(times) if times else None
    commits = {
        p: [entry.value for entry in trace.records_of(p, "kv.commit")]
        for p in trace.processes_with_records()
    }
    return problems + checks.check_slot_agreement(commits), latency


def spec_digests(lines: list[str]) -> list[str]:
    digests = []
    for line in lines:
        payload = json.loads(line)
        if set(payload) == {"scenario", "seed", "config", "metrics", "digest"}:
            digests.append(payload["digest"])
    return digests


def check_suite(workload: SuiteWorkload, tally: Tally) -> tuple[float, int, list[float]]:
    """Fresh serial reference pass; check every pooled round against it.

    Returns the serial pass's wall seconds, its number of simulation runs,
    and the last-correct-decision time of each paper consensus run.
    """
    reference_path = OUT_DIR / f"serial-{os.getpid()}.jsonl"
    serial_s, verdicts = workload.serial_pass(
        reference_path, lambda sim, trace: (sim.digest, check_suite_trace(sim, trace)))
    reference = reference_path.read_text(encoding="utf-8").splitlines()
    reference_path.unlink()
    checked = [digest for digest, (problems, _) in verdicts if not problems]
    trace_problems = [problem for _, (problems, _) in verdicts for problem in problems]
    latencies = [latency for _, (problems, latency) in verdicts
                 if latency is not None and not problems]
    sims = len(verdicts)
    for path in workload.round_files:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.unlink()
        problems = checks.compare_jsonl(reference, lines)
        problems += checks.check_digests(spec_digests(lines), checked)
        tally.add(trace_problems + problems, operations=sims)
    return serial_s, sims, latencies


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(tracer, rounds: int, factor: float) -> dict:
    """Busy time and counts of the simulation layers, per round."""
    busy = {layer: seconds * factor / rounds for layer, seconds in tracer.layer_busy().items()}
    counts = {name: value / rounds for name, value in tracer.counts.items()}
    return {
        "build.system_s": (busy.get("build", 0.0), "s"),
        "kernel.busy_s": (busy.get("kernel", 0.0), "s"),
        "kernel.heap_peak": (tracer.heap_peak, "count"),
        "net.busy_s": (busy.get("net", 0.0), "s"),
        "stop.evals": (counts.get("stop.evals", 0), "count"),
        "stop.busy_s": (busy.get("stop", 0.0), "s"),
        "oracle.reads": (counts.get("oracle.reads", 0), "count"),
        "oracle.multiset_builds": (counts.get("oracle.multiset_builds", 0), "count"),
        "oracle.busy_s": (busy.get("oracle", 0.0), "s"),
        "handlers.busy_s": (busy.get("handlers", 0.0), "s"),
        "topo.target_calls": (counts.get("topo.target_calls", 0), "count"),
        "topo.busy_s": (busy.get("topo", 0.0), "s"),
        "check.busy_s": (busy.get("check", 0.0), "s"),
    }


def host_layers(setup_busy: dict, tracer, rounds: int, factor: float, import_s: float) -> dict:
    """Spec, serialisation, aggregation and set-up layers, per round."""
    busy = {layer: seconds * factor / rounds for layer, seconds in tracer.layer_busy().items()}
    return {
        "spec.build_s": (setup_busy.get("spec", 0.0) + busy.get("spec", 0.0), "s"),
        "serial.busy_s": (busy.get("serial", 0.0), "s"),
        "agg.busy_s": (busy.get("agg", 0.0), "s"),
        "setup.import_s": (import_s, "s"),
    }


def with_ratios(metrics: dict) -> dict:
    """Add the per-event ratios, measured where the work happens."""
    events = metrics["kernel.events"][0]
    metrics["kernel.ns_per_event"] = (
        metrics["kernel.busy_s"][0] / events * 1e9 if events else 0.0, "ns")
    metrics["stop.evals_per_event"] = (
        metrics["stop.evals"][0] / events if events else 0.0, "ratio")
    return metrics


def pool_layers(values: dict) -> dict:
    return {
        "pool.items": (values.get("items", 0), "count"),
        "pool.chunks": (values.get("chunks", 0), "count"),
        "pool.pickle_bytes": (values.get("pickle_bytes", 0), "bytes"),
        "pool.spawn_s": (values.get("spawn_s", 0.0), "s"),
        "pool.overhead_s": (values.get("overhead_s", 0.0), "s"),
    }


def run_serial(workload: SerialWorkload, args, tally: Tally, budget: Budget,
               clock: SpeedClock, setup: dict) -> dict:
    from perfbench.tracer import Tracer, install

    observed: list[dict] = []
    if not args.trace:
        rates = []
        while budget.another():
            rates.append(len(workload.items) / workload.run_round(tally, observed, clock))
        workload.close()
        metrics = latency_metrics(
            [o["wall"] * 1000.0 for o in observed],
            [value for o in observed for value in o["latencies"]],
        )
        metrics["runs_per_s"] = (statistics.median(rates), "runs/s")
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        return metrics

    tracer = Tracer()
    plain = traced = 0.0
    rounds = 0
    traced_factors = []
    while budget.another():
        plain += workload.run_round(tally, [], clock)
        undo = install(tracer)
        try:
            traced_factors.append(clock.fresh())
            traced += workload.run_round(tally, observed, clock)
        finally:
            undo()
        rounds += 1
    workload.close()
    tracer.dump(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json"))
    factor = statistics.median(traced_factors)
    metrics = layer_metrics(tracer, rounds, factor)
    metrics.update(algorithm_layers(observed, rounds))
    metrics.update(host_layers(setup["busy"], tracer, rounds, factor, setup["import_s"]))
    metrics["serial.bytes"] = (0, "bytes")
    metrics.update(pool_layers({}))
    metrics["tracing.overhead_x"] = (traced / plain, "x")
    metrics["calib.speed_x"] = (clock.median(), "x")
    return with_ratios(metrics)


def run_suite(workload: SuiteWorkload, args, tally: Tally, budget: Budget,
              clock: SpeedClock, setup: dict) -> dict:
    """Pooled rounds, converted at the speed of the workers and the parent.

    The pooled wall time is set by the two workers, the parent and the IPC
    between them, so the reference task runs in all three between rounds,
    and each round is converted at the mean of the measurements on either
    side of it.
    """
    from perfbench.tracer import Tracer, install

    pooled: list[float] = []
    traced: list[float] = []
    reference = [workload.reference_time()]
    parent = Tracer()
    serial_tracer = Tracer()
    serial_observed: list[dict] = []
    serial_factors = []
    experiment_walls: list[list[float]] = []
    while budget.another():
        wall, walls = workload.pooled_round()
        pooled.append(wall)
        experiment_walls.append(walls)
        reference.append(workload.reference_time())
        if args.trace:
            undo = install(parent)
            try:
                traced.append(workload.pooled_round()[0])
            finally:
                undo()
            # The layers that run inside the workers, from a serial traced
            # pass over the same items.
            undo = install(serial_tracer)
            try:
                serial_factors.append(clock.fresh())
                _, observed = workload.serial_pass(None, run_counters)
            finally:
                undo()
            serial_observed += observed
    factors = [2 * REFERENCE_S / (before + after)
               for before, after in zip(reference, reference[1:])]
    factor = statistics.median(factors)
    workload.close()
    rss = peak_rss_mb()
    serial_s, sims, latencies = check_suite(workload, tally)
    if not args.trace:
        # A "run" of run_p50_ms/run_p90_ms is one experiment invocation here.
        metrics = latency_metrics(
            [w * f * 1000.0 for walls, f in zip(experiment_walls, factors) for w in walls],
            latencies,
        )
        metrics.update({
            "runs_per_s": (statistics.median(
                sims / (wall * f) for wall, f in zip(pooled, factors)), "runs/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (rss, "MiB"),
        })
        return metrics

    rounds = len(traced)
    parent.dump(str(OUT_DIR / f"spans-{args.workload}-{args.seed}-parent.json"))
    serial_tracer.dump(str(OUT_DIR / f"spans-{args.workload}-{args.seed}-serial.json"))
    serial_factor = statistics.median(serial_factors)
    metrics = layer_metrics(serial_tracer, rounds, serial_factor)
    metrics.update(algorithm_layers(serial_observed, rounds))
    metrics.update(host_layers(setup["busy"], parent, rounds, factor, setup["import_s"]))
    metrics["serial.bytes"] = (statistics.fmean(workload.round_bytes), "bytes")
    counts = parent.counts
    metrics.update(pool_layers({
        "items": counts.get("pool.items", 0) / rounds,
        "chunks": counts.get("pool.chunks", 0) / rounds,
        "pickle_bytes": counts.get("pool.pickle_bytes", 0) / rounds,
        "spawn_s": workload.spawn_s * setup["factor"],
        # Workers × wall of a pooled round, minus the serial compute for the
        # same items: what the pool spends beyond the work itself.
        "overhead_s": (POOL_JOBS * statistics.fmean(pooled) - serial_s) * factor,
    }))
    metrics["tracing.overhead_x"] = (sum(traced) / sum(pooled[:rounds]), "x")
    metrics["calib.speed_x"] = (factor, "x")
    return with_ratios(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.harness")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)

    # -- set-up: imports, the spec grid, the warm pool ------------------
    import_started = perf_counter()
    import repro.experiments  # noqa: F401  (registers every experiment)
    import repro.runtime  # noqa: F401

    from perfbench.tracer import Tracer, install

    import_s = perf_counter() - import_started
    capture = Capture()
    capture.install()
    setup_tracer = Tracer()
    uninstall = install(setup_tracer) if args.trace else None
    try:
        if args.workload == "quick-suite-pool2":
            workload: Any = SuiteWorkload(args.seed, capture)
        else:
            workload = SerialWorkload(args.workload, args.seed, capture)
    finally:
        if uninstall:
            uninstall()
    setup_s = perf_counter() - _PROCESS_START
    # Set-up is timed in wall seconds, then converted at the speed measured
    # right after it.
    clock = SpeedClock()
    factor = clock.factors[0]
    setup = {
        "setup_s": setup_s * factor,
        "import_s": import_s * factor,
        "factor": factor,
        "busy": {layer: sec * factor for layer, sec in setup_tracer.layer_busy().items()},
    }
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup["setup_s"]}))
        return 0

    tally = Tally()
    budget = Budget(args.seconds)
    run = run_suite if args.workload == "quick-suite-pool2" else run_serial
    try:
        metrics = run(workload, args, tally, budget, clock, setup)
    finally:
        workload.close()
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    report = {
        # Failed operations are counted in ``failed``; every other operation
        # passed its checks.
        "correct": tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
