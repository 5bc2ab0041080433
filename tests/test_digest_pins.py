"""The quick experiments' determinism digests, pinned in the tier-1 suite.

Every run record carries the digest of its simulation's event dispatch order
(:attr:`repro.sim.Simulation.digest`).  Folding an experiment's record
digests in run order gives one 64-bit fingerprint per experiment — the same
fold ``benchmarks/digest_manifest.py`` prints — so a change that moves any
event of any quick E1–E10 run fails here, not only in CI's manifest step.
A deliberate behaviour change re-pins these values and says why.
"""

from __future__ import annotations

from repro.experiments import ALL_EXPERIMENTS
from repro.fabric.digests import CORE_EXPERIMENTS, fold_digests, fold_named
from repro.runtime import Engine

PINNED = {
    "E1": "0b5377547f1dcf6b",
    "E2": "563958ef9bd451f5",
    "E3": "d64cf6fe8a581a3e",
    "E4": "a00f3c9b8af78eed",
    "E5": "9864a99a1646633e",
    "E6": "6e757d6078065c0c",
    "E7": "5d5cd89e8a81746a",
    "E8": "c5baf85f4c26731a",
    "E9": "6f1da1dd3a0ad4e5",
    "E10": "20048f140a6ff93e",
}
PINNED_ALL = "d5146530f4b16e76"


def test_quick_experiment_digests_are_pinned() -> None:
    digests: list[int] = []
    engine = Engine(progress=lambda record: digests.append(int(record["digest"], 16)))
    manifest = {}
    for name in PINNED:
        digests.clear()
        ALL_EXPERIMENTS[name](quick=True, seed=0, engine=engine)
        manifest[name] = f"{fold_digests(digests):016x}"
    assert manifest == PINNED
    assert fold_named(manifest, CORE_EXPERIMENTS) == PINNED_ALL
