"""In-memory span tracer and the wrappers it installs on the program's layers.

A span records a name, a start, an end and the span that caused it (its
parent).  Self time is a span's duration minus the part its child spans
cover; every wrapper keeps a running total of the time its children took, so
self time falls out when the span closes.

Two kinds of span keep memory bounded:

* *coarse* spans (a run, a system build, a check, a JSONL emission) are kept
  one record each;
* *hot* spans (event-queue pushes and pops, network sends, stop-predicate
  evaluations, oracle reads, topology queries) fire millions of times per
  round, so each ``(name, parent)`` pair folds into one aggregate record of
  ``count`` and ``self_s``.

The wrappers sit around the public entry points of each layer and live here,
in the benchmark; nothing under ``src/`` is edited.  :func:`install` patches
them in and returns an ``uninstall`` callable that restores every original,
so untraced and traced rounds can alternate in one process.
"""

from __future__ import annotations

import functools
import json
import pickle
import sys
import threading
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer", "install", "LAYERS"]

#: Span name -> layer.  Layer busy time is the sum of its spans' self times.
LAYERS = {
    "spec.build": "spec",
    "build.system": "build",
    "kernel": "kernel",
    "net": "net",
    "stop": "stop",
    "oracle.read": "oracle",
    "oracle.multiset": "oracle",
    "sim.run": "handlers",
    "topo": "topo",
    "check": "check",
    "serial": "serial",
    "agg": "agg",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "self_s")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.self_s = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "self_s": self.self_s,
        }


class Tracer:
    """Holds the spans of one traced pass, in memory, until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.open: list[int] = []
        #: Time covered by the children of the innermost open frame.
        self.child = 0.0
        #: ``(name, parent index) -> [count, self_s]`` for hot spans.
        self.hot: dict[tuple[str, int], list] = {}
        #: Plain counters recorded at the same boundaries.
        self.counts: dict[str, float] = {}
        self.heap_peak = 0
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_threadsafe(self, name: str, amount: float) -> None:
        with self._lock:
            self.count(name, amount)

    # -- wrappers ------------------------------------------------------
    def coarse(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.open[-1] if tracer.open else -1
            span = Span(name, perf_counter(), parent)
            tracer.spans.append(span)
            tracer.open.append(len(tracer.spans) - 1)
            saved = tracer.child
            tracer.child = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                elapsed = span.end - span.start
                span.self_s = elapsed - tracer.child
                tracer.open.pop()
                tracer.child = saved + elapsed

        return wrapper

    def hot_span(self, name: str, fn: Callable, counter: str | None = None) -> Callable:
        tracer = self
        hot = self.hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = tracer.child
            tracer.child = 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, tracer.open[-1] if tracer.open else -1)
                slot = hot.get(key)
                if slot is None:
                    slot = hot[key] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed - tracer.child
                tracer.child = saved + elapsed
                if counter is not None:
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + 1

        return wrapper

    # -- results -------------------------------------------------------
    def layer_busy(self) -> dict[str, float]:
        """Self seconds per layer (see :data:`LAYERS`)."""
        busy: dict[str, float] = {}
        for span in self.spans:
            layer = LAYERS.get(span.name)
            if layer is not None:
                busy[layer] = busy.get(layer, 0.0) + span.self_s
        for (name, _parent), (_count, self_s) in self.hot.items():
            layer = LAYERS.get(name)
            if layer is not None:
                busy[layer] = busy.get(layer, 0.0) + self_s
        return busy

    def dump(self, path: str) -> None:
        """Write every span and aggregate out (called when the pass ends)."""
        payload = {
            "spans": [span.to_dict() for span in self.spans],
            "hot": [
                {"name": name, "parent": parent, "count": count, "self_s": self_s}
                for (name, parent), (count, self_s) in self.hot.items()
            ],
            "counts": dict(self.counts),
            "heap_peak": self.heap_peak,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _replace_everywhere(original: Callable, replacement: Callable, undo: list) -> None:
    """Rebind ``original`` in every ``repro`` module that imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _patch_attr(owner: Any, attr: str, replacement: Any, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _wrap_property(tracer: Tracer, owner: type, attr: str, name: str, counter: str, undo) -> None:
    prop = owner.__dict__[attr]
    _patch_attr(owner, attr, property(tracer.hot_span(name, prop.fget, counter)), undo)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public entry points; return the undo callable."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.analysis.metrics as analysis_metrics
    import repro.analysis.runner as analysis_runner
    import repro.consensus.validator as validator
    import repro.detectors.views as views
    import repro.runtime.builder as builder
    import repro.runtime.engine as engine
    import repro.runtime.executors as executors
    import repro.runtime.registry as registry
    import repro.runtime.spec as spec
    import repro.sim.events as events
    import repro.sim.failures as failures
    import repro.sim.network as network
    import repro.sim.scheduler as scheduler
    import repro.sim.system as system
    import repro.topology as topology
    import repro.workloads.kv.linearizability as linearizability
    import repro.workloads.kv.metrics as kv_metrics

    undo: list = []

    # runtime.builder / runtime.spec: building, validating and materialising specs.
    _patch_attr(builder.ScenarioBuilder, "build",
                tracer.coarse("spec.build", builder.ScenarioBuilder.build), undo)
    for cls in (spec.MembershipSpec, spec.TimingSpec, spec.CrashSpec,
                spec.NetworkSpec, spec.TopologySpec):
        _patch_attr(cls, "build", tracer.coarse("spec.build", cls.__dict__["build"]), undo)
    _patch_attr(spec.ScenarioSpec, "to_dict",
                tracer.coarse("spec.build", spec.ScenarioSpec.to_dict), undo)

    # sim.system construction.
    _replace_everywhere(system.build_system,
                        tracer.coarse("build.system", system.build_system), undo)
    _patch_attr(scheduler.Simulation, "__init__",
                tracer.coarse("build.system", scheduler.Simulation.__init__), undo)

    # Simulation.run: its self time is the program handlers' time.
    _patch_attr(scheduler.Simulation, "run",
                tracer.coarse("sim.run", scheduler.Simulation.run), undo)

    # sim.events (kernel).  Pushes also sample the heap size.
    queue_cls = events.EventQueue

    def peak_sampling(fn):
        wrapped = tracer.hot_span("kernel", fn)

        @functools.wraps(fn)
        def push(self, *args, **kwargs):
            event = wrapped(self, *args, **kwargs)
            size = len(getattr(self, "_heap", ()) or ()) or len(self)
            if size > tracer.heap_peak:
                tracer.heap_peak = size
            return event

        return push

    _patch_attr(queue_cls, "schedule", peak_sampling(queue_cls.schedule), undo)
    _patch_attr(queue_cls, "schedule_batch", peak_sampling(queue_cls.schedule_batch), undo)
    _patch_attr(queue_cls, "pop_next", tracer.hot_span("kernel", queue_cls.pop_next), undo)
    _patch_attr(queue_cls, "cancel", tracer.hot_span("kernel", queue_cls.cancel), undo)

    # sim.network.
    for attr in ("broadcast", "multicast"):
        _patch_attr(network.Network, attr,
                    tracer.hot_span("net", network.Network.__dict__[attr]), undo)

    # The stop predicate.
    _patch_attr(scheduler.Simulation, "all_correct_decided",
                tracer.hot_span("stop", scheduler.Simulation.all_correct_decided,
                                "stop.evals"), undo)

    # detectors (oracle views) and sim.failures oracle reads.
    for cls_name in views.__all__:
        cls = getattr(views, cls_name)
        if not isinstance(cls, type):
            continue
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, property):
                _wrap_property(tracer, cls, attr, "oracle.read", "oracle.reads", undo)
            elif callable(value):
                _patch_attr(cls, attr,
                            tracer.hot_span("oracle.read", value, "oracle.reads"), undo)
    _patch_attr(failures.FailurePattern, "correct_identity_multiset",
                tracer.hot_span("oracle.multiset",
                                failures.FailurePattern.correct_identity_multiset,
                                "oracle.multiset_builds"), undo)

    # topology target selection.
    for cls in (topology.MonitoringTopology, topology.FullMesh, topology.Ring, topology.Gossip):
        for attr in ("monitor_targets", "gossip_targets"):
            if attr in cls.__dict__:
                _patch_attr(cls, attr,
                            tracer.hot_span("topo", cls.__dict__[attr], "topo.target_calls"),
                            undo)
    _replace_everywhere(topology.ring_successors,
                        tracer.hot_span("topo", topology.ring_successors), undo)

    # checks: the consensus validator, registered CHECKS, KV metrics and
    # the linearizability checker.
    for fn in (validator.validate_consensus, analysis_metrics.consensus_metrics,
               kv_metrics.kv_metrics, linearizability.check_history):
        _replace_everywhere(fn, tracer.coarse("check", fn), undo)
    for check_name in registry.CHECKS.names():
        original = registry.CHECKS.resolve(check_name)
        registry.CHECKS.register(check_name, tracer.coarse("check", original), overwrite=True)
        undo.append(("check", check_name, original))

    # serialisation: record dicts and JSONL emission.
    _patch_attr(engine.RunRecord, "to_dict",
                tracer.coarse("serial", engine.RunRecord.to_dict), undo)
    if "_emit" in engine.Engine.__dict__:
        _patch_attr(engine.Engine, "_emit",
                    tracer.coarse("serial", engine.Engine.__dict__["_emit"]), undo)

    # experiments / analysis aggregation.
    _replace_everywhere(analysis_runner.aggregate_rows,
                        tracer.coarse("agg", analysis_runner.aggregate_rows), undo)
    _patch_attr(analysis_runner.ExperimentResult, "table",
                tracer.coarse("agg", analysis_runner.ExperimentResult.table), undo)

    # runtime.executors: items handed to the pool, chunks submitted, and the
    # pickled size of every payload that crosses the process boundary.
    imap = executors.WorkerPool.imap

    @functools.wraps(imap)
    def counting_imap(self, fn, items):
        work = list(items)
        tracer.count("pool.items", len(work))
        return imap(self, fn, work)

    _patch_attr(executors.WorkerPool, "imap", counting_imap, undo)
    submit = ProcessPoolExecutor.submit

    @functools.wraps(submit)
    def counting_submit(self, fn, /, *args, **kwargs):
        tracer.count_threadsafe("pool.chunks", 1)
        tracer.count_threadsafe("pool.pickle_bytes", len(pickle.dumps((fn, args, kwargs))))
        future = submit(self, fn, *args, **kwargs)
        future.add_done_callback(_count_result_bytes(tracer))
        return future

    _patch_attr(ProcessPoolExecutor, "submit", counting_submit, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if owner == "check":
                registry.CHECKS.register(attr, original, overwrite=True)
            else:
                setattr(owner, attr, original)

    return uninstall


def _count_result_bytes(tracer: Tracer) -> Callable:
    def done(future) -> None:
        if not future.cancelled() and future.exception() is None:
            tracer.count_threadsafe("pool.pickle_bytes", len(pickle.dumps(future.result())))

    return done
