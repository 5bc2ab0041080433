"""The deterministic shard planner: experiments → ordered work items → chunks.

A *plan* is the full list of work items a sweep would execute, in exactly the
order a serial engine would execute them, each tagged with its global index
and its :class:`~repro.runtime.cache.RunCache` key.  Every deterministic
experiment declares its work as a spec grid
(:class:`~repro.experiments.grid.Experiment`), so planning is a plain
expansion of that grid — no simulation runs and nothing is recorded.

There is one item kind: the payload is a
:class:`~repro.runtime.spec.ScenarioSpec`'s ``to_dict()`` and the result is
the executed :class:`~repro.runtime.engine.RunRecord`'s ``to_dict()`` —
exactly the line the engine writes to ``--jsonl`` — keyed on
``(canonical-spec-hash, seed)``.

Because an item is plain JSON, a chunk manifest — a contiguous slice of the
item list, cut by the same :func:`~repro.analysis.runner.shard_bounds` math
as ``ParameterSweep.slice`` and ``--shard i/N`` — is a self-contained work
order: any process that can import the library can execute it, and
concatenating the chunks' results in chunk order reproduces serial output
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..analysis.runner import shard_bounds
from ..errors import ReproError
from ..runtime.cache import RunCache
from ..runtime.registry import EXPERIMENTS
from ..runtime.spec import ScenarioSpec

if TYPE_CHECKING:
    from ..experiments.grid import Grid

__all__ = [
    "PlanningError",
    "WorkItem",
    "FabricPlan",
    "plan_experiments",
    "plan_grid",
]

PLAN_SCHEMA = "fabric-plan/2"
CHUNK_SCHEMA = "fabric-chunk/2"


class PlanningError(ReproError):
    """An experiment's work could not be enumerated as a shardable plan."""


@dataclass(frozen=True)
class WorkItem:
    """One executable unit of a plan: a spec, its index, its cache key."""

    index: int
    spec: Mapping[str, Any]
    key: str
    experiment: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", dict(self.spec))

    @property
    def label(self) -> str:
        """A short human identification for logs and error messages."""
        return f"{self.spec.get('name') or self.experiment}[seed={self.spec.get('seed')}]"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "spec": dict(self.spec),
            "key": self.key,
            "experiment": self.experiment,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkItem":
        return cls(
            index=int(payload["index"]),
            spec=dict(payload["spec"]),
            key=str(payload["key"]),
            experiment=str(payload.get("experiment", "")),
        )


def _work_item(index: int, spec: ScenarioSpec, experiment: str) -> WorkItem:
    """A spec as a plan item, or raise if a manifest could not carry it."""
    if spec.backend != "sim":
        raise PlanningError(
            f"cannot plan non-sim spec {spec.name!r}: real-backend runs "
            "are wall-clock measurements with no deterministic digest"
        )
    try:
        rounded = json.loads(json.dumps(spec.to_dict()))
    except (TypeError, ValueError) as error:
        raise PlanningError(f"spec {spec.name!r} is not JSON-serializable: {error}") from error
    if ScenarioSpec.from_dict(rounded) != spec:
        raise PlanningError(
            f"spec {spec.name!r} does not survive a JSON round-trip; a chunk "
            "manifest would silently alter it"
        )
    return WorkItem(index=index, spec=rounded, key=RunCache.record_key(spec), experiment=experiment)


@dataclass
class FabricPlan:
    """An ordered, JSON-serializable list of work items plus its provenance."""

    items: list[WorkItem] = field(default_factory=list)
    experiments: tuple[str, ...] = ()
    quick: bool = True
    seed: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def experiment_spans(self) -> dict[str, tuple[int, int]]:
        """``{experiment: [start, end)}`` over the global item order.

        Experiments are planned one after another, so each one's items are a
        contiguous index range — which is what lets sharded digests be folded
        back into per-experiment manifest digests.
        """
        spans: dict[str, tuple[int, int]] = {}
        for item in self.items:
            start, end = spans.get(item.experiment, (item.index, item.index))
            spans[item.experiment] = (min(start, item.index), max(end, item.index) + 1)
        return spans

    # -- chunking ------------------------------------------------------
    def chunk(self, chunks: int) -> list[list[WorkItem]]:
        """Partition the items into ``chunks`` contiguous, balanced slices.

        Uses the same :func:`~repro.analysis.runner.shard_bounds` math as
        ``ParameterSweep.slice`` and ``--shard i/N``; empty slices (more
        chunks than items) are dropped.
        """
        out = []
        for chunk in range(chunks):
            start, end = shard_bounds(len(self.items), chunk, chunks)
            if end > start:
                out.append(self.items[start:end])
        return out

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "seed": self.seed,
            "items": [item.to_dict() for item in self.items],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FabricPlan":
        if payload.get("schema") != PLAN_SCHEMA:
            raise PlanningError(f"not a fabric plan (schema {payload.get('schema')!r})")
        return cls(
            items=[WorkItem.from_dict(item) for item in payload.get("items", [])],
            experiments=tuple(payload.get("experiments", ())),
            quick=bool(payload.get("quick", True)),
            seed=int(payload.get("seed", 0)),
        )

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "FabricPlan":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def write_chunks(self, directory: str | Path, chunks: int) -> list[Path]:
        """Write ``chunk-NNNN.json`` manifests and return their paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for number, chunk_items in enumerate(self.chunk(chunks)):
            path = directory / f"chunk-{number:04d}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "schema": CHUNK_SCHEMA,
                        "chunk": number,
                        "items": [item.to_dict() for item in chunk_items],
                    },
                    handle,
                    indent=1,
                    sort_keys=True,
                )
                handle.write("\n")
            paths.append(path)
        return paths


def plan_grid(grid: "Grid", *, name: str = "sweep", start: int = 0) -> FabricPlan:
    """Plan a spec grid — ``[(make_spec, sweep), ...]`` — as one experiment.

    Items are numbered from ``start`` in grid order, which is the order
    :class:`~repro.experiments.grid.Experiment` runs them.
    """
    from ..experiments.grid import expand

    items = [
        _work_item(start + offset, spec, name) for offset, spec in enumerate(expand(grid))
    ]
    if not items:
        raise PlanningError(f"{name}: the grid yielded no specs")
    return FabricPlan(items=items, experiments=(name,))


def plan_experiments(
    names: Iterable[str], *, quick: bool = True, seed: int = 0
) -> FabricPlan:
    """Expand the declared grids of the named experiments, in order.

    The returned plan's item order is exactly the order a serial engine would
    execute (and emit to JSONL): experiments in the given order, each one's
    grid in declaration order, sweeps in iteration order.
    """
    from ..experiments.grid import Experiment  # importing registers E1–E12

    names = [name.upper() for name in names]
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise PlanningError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS.names())}"
        )
    items: list[WorkItem] = []
    for name in names:
        experiment = EXPERIMENTS.resolve(name)
        if not isinstance(experiment, Experiment):
            raise PlanningError(
                f"experiment {name} declares no spec grid (wall-clock "
                "experiments cannot be planned)"
            )
        items += plan_grid(experiment.grid(quick, seed), name=name, start=len(items)).items
    return FabricPlan(items=items, experiments=tuple(names), quick=quick, seed=seed)
