"""The execution engine: every run is a spec, every sweep a spec grid.

The :class:`Engine` is the single place where scenarios become runs.  It
dispatches work through a pluggable executor
(:class:`~repro.runtime.executors.SerialExecutor` by default; with
``jobs=N`` a persistent :class:`~repro.runtime.executors.WorkerPool` whose
worker processes are spawned once and reused across every call) and returns
structured :class:`RunRecord` objects, which it can also append to a JSONL
log.

There is one execution path.  :meth:`Engine.run` executes one
:class:`~repro.runtime.spec.ScenarioSpec`; :meth:`Engine.run_many` an
iterable of them; :meth:`Engine.run_sweep` turns every config of a
:class:`~repro.analysis.runner.ParameterSweep` into a spec with a
``make_spec`` function and returns the config merged with each record's
metrics — the rows the experiments aggregate.  :meth:`Engine.map` is raw
executor access for work that is not a simulation (it emits and caches
nothing).

Sweep-scale machinery, all opt-in:

* **streaming** — ``run_many`` / ``run_sweep`` accept ``stream=True`` and
  then return a lazy iterator that yields each result as its dispatch chunk
  completes, *in input order* (so a consumer can fold, plot, or persist
  incrementally while later chunks still run, and the final table is
  deterministic regardless).  JSONL emission always flushes incrementally;
* **run caching** — pass ``cache=`` a directory (or
  :class:`~repro.runtime.cache.RunCache`) and completed runs are memoized on
  ``(canonical-spec-hash, seed)``; repeated or resumed sweeps skip the
  recompute and rehydrate the stored records, digests included;
* **lifecycle** — the Engine owns its executor: ``Engine(jobs=4)`` keeps one
  warm worker pool alive across calls until :meth:`Engine.close` (or the end
  of a ``with Engine(...) as engine:`` block).

Transport is *packed*: workers receive chunks of specs and return
``(metrics, digest)`` tuples; the parent — which already holds every spec —
builds the full :class:`RunRecord` (and its ``config``, the spec's
``to_dict()``) in input order, and serialises a record only when a JSONL
file or a ``progress`` hook is there to receive it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..analysis.metrics import consensus_metrics
from ..analysis.runner import ParameterSweep, merge_row
from ..consensus import validate_consensus
from ..membership import Membership
from ..sim import CompositeProgram, Simulation, build_system
from ..sim.failures import FailurePattern
from .cache import RunCache
from .executors import Executor, executor_for
from .registry import CHECKS, CONSENSUS, DETECTORS, PROGRAMS
from .spec import ScenarioSpec

__all__ = [
    "RunRecord",
    "Engine",
    "execute_spec",
    "distinct_proposals",
    "default_consensus_detectors",
]


def distinct_proposals(membership: Membership) -> dict:
    """One distinct proposal per process (so agreement is non-trivial)."""
    return {process: f"value-{process.index}" for process in membership.processes}


def default_consensus_detectors(stabilization: float, *, noise_period: float | None = 5.0):
    """The HΩ + HΣ oracle pair the consensus experiments attach by default."""
    homega = DETECTORS.resolve("HOmega")
    hsigma = DETECTORS.resolve("HSigma")
    return {
        "HOmega": homega(
            {"stabilization_time": stabilization, "noise_period": noise_period}
        ),
        "HSigma": hsigma({"stabilization_time": stabilization}),
    }


@dataclass(frozen=True)
class RunRecord:
    """The structured outcome of one run.

    ``config`` echoes the input (the spec's ``to_dict()``) and ``metrics``
    holds the measured outcome; both are plain JSON-serializable data, so
    records from serial and parallel runs compare equal and a JSONL log line
    is just ``to_dict()``.

    ``digest`` is the run's determinism digest (see
    :attr:`repro.sim.Simulation.digest`): a 64-bit hex fingerprint of the
    exact event dispatch order.  Equal digests mean behaviourally identical
    runs, so serial and parallel sweeps — and pre/post-refactor builds — can
    be compared mechanically.  It is kept out of ``metrics`` so experiment
    tables and aggregations are unaffected.
    """

    scenario: str
    seed: int
    config: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "metrics", dict(self.metrics))

    def row(self) -> dict:
        """Flatten into one result row (metrics win on key collisions)."""
        return {**{k: v for k, v in self.config.items() if not isinstance(v, (dict, list))},
                **self.metrics}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config": dict(self.config),
            "metrics": dict(self.metrics),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            scenario=payload.get("scenario", ""),
            seed=payload.get("seed", 0),
            config=dict(payload.get("config", {})),
            metrics=dict(payload.get("metrics", {})),
            digest=payload.get("digest", ""),
        )


def _measure(spec: ScenarioSpec) -> tuple[dict, str]:
    """Execute one scenario and return ``(metrics, digest)``.

    The worker entry point: module-level so the pool executors pickle it by
    reference and the spec by value.  Only the measured outcome comes back
    over the pipe; the parent already holds the spec and builds the record.
    """
    if spec.backend == "real":
        # The asyncio/TCP backend: the same program objects as real OS
        # processes over real sockets; imported lazily for the same
        # acyclicity reason as the KV runner below.
        from ..transport.orchestrator import execute_real_spec

        record = execute_real_spec(spec)
        return dict(record.metrics), record.digest
    if spec.kv is not None:
        # The KV service workload has its own materialisation (replica group
        # + client processes); imported lazily to keep the import graph
        # acyclic (the KV runner resolves consensus entries in the registry).
        from ..workloads.kv.runner import measure_kv_spec

        return measure_kv_spec(spec)
    membership = spec.membership.build()
    proposals = distinct_proposals(membership) if spec.consensus else None

    consensus_entry = CONSENSUS.resolve(spec.consensus) if spec.consensus else None
    program_entry = PROGRAMS.resolve(spec.program) if spec.program else None

    # Topology-aware programs get the materialised topology and their own
    # index injected into the build parameters.  The default full mesh takes
    # the historical build call — parameter-for-parameter identical, so every
    # pre-topology digest is preserved.
    topology = None if spec.topology.is_full_mesh else spec.topology.build()

    def factory(pid, identity):
        programs = []
        if program_entry is not None:
            if topology is not None:
                programs.append(
                    program_entry.build(
                        {
                            **spec.program_params,
                            "topology": topology,
                            "index": pid.index,
                            "peers": tuple(range(membership.size)),
                        }
                    )
                )
            else:
                programs.append(program_entry.build(spec.program_params))
        if consensus_entry is not None:
            programs.append(
                consensus_entry.build(proposals[pid], membership, spec.consensus_params)
            )
        return programs[0] if len(programs) == 1 else CompositeProgram(*programs)

    schedule = spec.crashes.build(membership)
    system = build_system(
        membership=membership,
        timing=spec.timing.build(),
        program_factory=factory,
        crash_schedule=schedule,
        detectors={
            detector.name: DETECTORS.resolve(detector.name)(detector.params)
            for detector in spec.detectors
        },
        links=None if spec.network.is_reliable else spec.network.build(),
        seed=spec.seed,
        name=spec.name,
    )
    simulation = Simulation(system)
    if proposals is not None:
        # Stop as soon as every correct process has decided.
        trace = simulation.run(
            until=spec.horizon, stop_when=lambda sim: sim.all_correct_decided()
        )
    else:
        trace = simulation.run(until=spec.horizon)
    pattern = FailurePattern(membership, schedule)

    metrics: dict[str, Any] = {}
    if proposals is not None:
        verdict = validate_consensus(trace, pattern, proposals, require_termination=False)
        measured = consensus_metrics(trace, pattern, verdict)
        metrics.update(
            {
                "decided": measured.decided,
                "safe": measured.safe,
                "decision_time": measured.last_decision_time,
                "rounds": measured.max_decision_round,
                "broadcasts": measured.broadcasts,
                "message_copies": measured.message_copies,
            }
        )
    for check in spec.checks:
        result = CHECKS.resolve(check)(trace, pattern)
        metrics[f"{check}_ok"] = result.ok
        metrics[f"{check}_time"] = result.stabilization_time
        metrics[f"{check}_violations"] = len(result.violations)
        # Checks may publish extra measurements (detection latency, message
        # counts, false suspicions, …) under details["metrics"]; fold them in
        # namespaced by the check, mirroring the _ok/_time keys.
        extra = result.details.get("metrics") if result.details else None
        if isinstance(extra, Mapping):
            for key, value in extra.items():
                metrics[f"{check}_{key}"] = value
    return metrics, simulation.digest


def _record(spec: ScenarioSpec, metrics: Mapping[str, Any], digest: str) -> RunRecord:
    return RunRecord(
        scenario=spec.name, seed=spec.seed, config=spec.to_dict(), metrics=metrics, digest=digest
    )


def execute_spec(spec: ScenarioSpec) -> RunRecord:
    """Materialise and execute one declarative scenario, in this process."""
    return _record(spec, *_measure(spec))


class Engine:
    """Executes scenarios and spec sweeps through a pluggable executor.

    ``Engine(jobs=N)`` owns a persistent warm
    :class:`~repro.runtime.executors.WorkerPool` and is reusable across any
    number of ``run``/``run_many``/``run_sweep`` calls; close it explicitly
    or use it as a context manager.  ``chunk_multiplier`` tunes dispatch
    granularity (chunks per worker per call, ≥ 1).  ``cache`` (a directory
    path or :class:`~repro.runtime.cache.RunCache`) memoizes completed runs;
    see the module docstring.  ``progress`` is called with every record's
    ``to_dict()`` as it completes, in order — the hook behind the CLI's
    ``--stream``.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        *,
        jobs: int | None = None,
        chunk_multiplier: int | None = None,
        jsonl_path: str | None = None,
        cache: RunCache | str | None = None,
        progress: Callable[[Mapping[str, Any]], None] | None = None,
    ) -> None:
        if executor is not None and (jobs is not None or chunk_multiplier is not None):
            raise ValueError("pass either an executor or jobs/chunk_multiplier, not both")
        self.executor: Executor = executor or executor_for(
            jobs, chunk_multiplier=chunk_multiplier
        )
        self.jsonl_path = jsonl_path
        self.cache = RunCache.coerce(cache)
        self.progress = progress

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the executor's resources (idempotent).

        For a warm :class:`WorkerPool` this shuts the worker processes down;
        the serial executor holds nothing between calls.
        """
        closer = getattr(self.executor, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- declarative specs ---------------------------------------------
    def run(self, spec: ScenarioSpec) -> RunRecord:
        """Execute one scenario (or rehydrate it from the cache)."""
        (record,) = self._iter_records([spec])
        return record

    def run_many(
        self, specs: Iterable[ScenarioSpec], *, stream: bool = False
    ) -> "list[RunRecord] | Iterator[RunRecord]":
        """Execute many scenarios (in parallel when the executor allows).

        With ``stream=True`` the result is a lazy iterator that yields each
        record — in input order — as its dispatch chunk completes; otherwise
        the full list is returned once every run has finished.  JSONL
        emission happens incrementally in both modes.
        """
        iterator = self._iter_records(list(specs))
        return iterator if stream else list(iterator)

    def run_sweep(
        self,
        make_spec: Callable[[dict], ScenarioSpec],
        sweep: ParameterSweep | Iterable[Mapping[str, Any]],
        *,
        stream: bool = False,
    ) -> "list[dict] | Iterator[dict]":
        """Turn every sweep config into a spec, execute all, return rows.

        Each returned row is the sweep config (minus the bookkeeping
        ``repetition`` field) merged with the record's metrics — the shape
        :func:`repro.analysis.runner.aggregate_rows` consumes.  With
        ``stream=True`` rows are yielded in sweep order as chunks complete.
        """
        configs = [dict(config) for config in sweep]
        specs = [make_spec(dict(config)) for config in configs]
        iterator = (
            merge_row(config, record.metrics)
            for config, record in zip(configs, self._iter_records(specs))
        )
        return iterator if stream else list(iterator)

    def _iter_records(self, specs: list[ScenarioSpec]) -> Iterator[RunRecord]:
        """Yield one record per spec, in input order, as results arrive.

        Cache hits are resolved up front; only the misses are dispatched.
        Because the executors' ``imap`` yields in input order, a record is
        emitted and yielded the moment it is contiguous with everything
        already yielded: streaming without giving up a deterministic output
        order.
        """
        records: list[RunRecord | None] = [self._cache_get(spec) for spec in specs]
        pending = [index for index, record in enumerate(records) if record is None]
        cursor = 0

        def drain() -> Iterator[RunRecord]:
            nonlocal cursor
            while cursor < len(records) and records[cursor] is not None:
                record = records[cursor]
                cursor += 1
                if self.jsonl_path or self.progress is not None:
                    self._emit(record)
                yield record

        outcomes = self._dispatch(_measure, [specs[index] for index in pending])
        for index, (metrics, digest) in zip(pending, outcomes):
            record = records[index] = _record(specs[index], metrics, digest)
            self._cache_put(specs[index], record)
            yield from drain()
        yield from drain()

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Raw executor access: apply ``fn`` to every item, in order."""
        return self.executor.map(fn, list(items))

    # -- bookkeeping ---------------------------------------------------
    def _dispatch(self, fn: Callable[[Any], Any], items: list) -> Iterator[Any]:
        """Input-order result iterator, lazy when the executor supports it."""
        if not items:
            return iter(())
        imap = getattr(self.executor, "imap", None)
        if imap is not None:
            return imap(fn, items)
        return iter(self.executor.map(fn, items))

    def _cache_get(self, spec: ScenarioSpec) -> RunRecord | None:
        # Real-backend runs are wall-clock measurements: two runs of the same
        # spec are *supposed* to differ, so memoizing one would silently turn
        # a latency distribution into one frozen sample.  Sim runs only.
        if self.cache is None or spec.backend != "sim":
            return None
        payload = self.cache.get(RunCache.record_key(spec))
        return None if payload is None else RunRecord.from_dict(payload)

    def _cache_put(self, spec: ScenarioSpec, record: RunRecord) -> None:
        if self.cache is not None and spec.backend == "sim":
            self.cache.put(RunCache.record_key(spec), record.to_dict())

    def _emit(self, record: RunRecord) -> None:
        payload = record.to_dict()
        if self.jsonl_path:
            with open(self.jsonl_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        if self.progress is not None:
            self.progress(payload)

    def __repr__(self) -> str:
        return f"Engine(executor={self.executor!r})"
