"""Executing one planned work item against the shared cache.

This is the worker side of the fabric, but it is deliberately a plain
function (:func:`execute_item`) so the experiment CLI's ``--shard i/N`` mode
and the tests can run items in-process without a coordinator.

An item is a spec and its result is the spec's
:class:`~repro.runtime.engine.RunRecord` as a dict — the engine's JSONL line,
determinism digest included.  One :class:`~repro.runtime.cache.RunCache`
entry is one such record under the item's key, so fabric runs and ordinary
``Engine(cache=…)`` runs serve each other's hits, and a resumed or cached
fabric run still folds the exact digest manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..runtime.cache import RunCache
from ..runtime.engine import execute_spec
from ..runtime.spec import ScenarioSpec
from .plan import WorkItem

__all__ = ["ItemResult", "execute_item"]


@dataclass(frozen=True)
class ItemResult:
    """The outcome of one work item: its record dict and its provenance."""

    index: int
    key: str
    row: Mapping[str, Any] = field(default_factory=dict)
    source: str = "fresh"  # "fresh" | "run-cache"

    @property
    def digest(self) -> int:
        """The run's determinism digest (see :attr:`repro.sim.Simulation.digest`)."""
        return int(self.row["digest"], 16)

    def to_dict(self) -> dict:
        return {"index": self.index, "key": self.key, "row": dict(self.row), "source": self.source}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ItemResult":
        return cls(
            index=int(payload["index"]),
            key=str(payload["key"]),
            row=dict(payload.get("row", {})),
            source=str(payload.get("source", "fresh")),
        )


def _canonical_row(row: Mapping[str, Any]) -> dict:
    """The record as it will appear in JSONL: one canonicalisation, up front.

    The engine emits ``json.dumps(record, sort_keys=True, default=str)``;
    doing the same ``default=str`` round-trip here makes the row frame-safe
    for the worker protocol *and* guarantees the coordinator's merged line is
    byte-identical to the engine's.
    """
    return json.loads(json.dumps(row, sort_keys=True, default=str))


def execute_item(item: WorkItem, cache: RunCache | None = None) -> ItemResult:
    """Execute (or rehydrate from ``cache``) one work item."""
    if cache is not None:
        record = cache.get(item.key)
        if record is not None:
            return ItemResult(item.index, item.key, _canonical_row(record), source="run-cache")
    record = execute_spec(ScenarioSpec.from_dict(item.spec)).to_dict()
    if cache is not None:
        cache.put(item.key, record)
    return ItemResult(item.index, item.key, _canonical_row(record))
