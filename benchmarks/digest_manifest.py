"""Determinism-digest manifest over the quick deterministic experiments (E1–E12).

Runs every experiment in quick mode and folds the determinism digests of its
run records into one 64-bit digest per experiment, plus two manifest digests:
``ALL`` folds the historical E1–E9 core (frozen so manifests saved before the
KV workload landed keep matching), and ``FULL`` folds every registered
deterministic experiment (E10, E12, and whatever lands next fold in here
without moving ``ALL``).

Two builds of the simulator that print the same manifest dispatched exactly
the same events, in the same order, for every run of every quick experiment —
which is the equivalence gate hot-path refactors must pass.  The same gate
covers the execution stack: ``--jobs`` routes the sweeps through the warm
process pool and ``--fabric`` through the sweep fabric, and the manifest must
be bit-identical to the serial one::

    PYTHONPATH=src python benchmarks/digest_manifest.py            # serial
    PYTHONPATH=src python benchmarks/digest_manifest.py -o m.json  # save JSON
    PYTHONPATH=src python benchmarks/digest_manifest.py --jobs 2 --check m.json
    PYTHONPATH=src python benchmarks/digest_manifest.py --fabric 2 --check m.json

``--check`` exits non-zero on any mismatch against a previously saved
manifest, so a refactor branch can assert equivalence mechanically.

Every run is a spec and every :class:`~repro.runtime.engine.RunRecord`
carries its run's digest, so capture is the engine's ``progress`` hook (the
records arrive in input order, serially or from the pool) or, for the
fabric, the journaled records folded per experiment span.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fabric.digests import CORE_EXPERIMENTS, fold_digests as _fold, fold_named as _fold_named
from repro.runtime import Engine
from repro.runtime.registry import EXPERIMENTS
# Only ALL_EXPERIMENTS (the deterministic E1-E12) is folded: wall-clock
# experiments (E11's real backend) are registered too but have no stable
# digest, so the manifests iterate this dict, not EXPERIMENTS.names().
from repro.experiments import ALL_EXPERIMENTS


def _collect_engine(seed: int, jobs: int | None) -> dict[str, str]:
    """Fold each experiment's record digests, serially or through a warm pool."""
    manifest: dict[str, str] = {}
    digests: list[int] = []
    with Engine(jobs=jobs, progress=lambda record: digests.append(int(record["digest"], 16))) as engine:
        for name in ALL_EXPERIMENTS:
            digests.clear()
            EXPERIMENTS.resolve(name)(quick=True, seed=seed, engine=engine)
            manifest[name] = f"{_fold(digests):016x}"
    return manifest


def _collect_fabric(seed: int, workers: int) -> dict[str, str]:
    """Capture through the sweep fabric: plan, shard across workers, fold.

    ``repro.fabric`` plans every deterministic experiment, a coordinator fans
    the items out to worker subprocesses (in a throwaway state directory, no
    cache — every digest must come from a fresh execution), and the journaled
    records' digests are folded per experiment span.  The result must be
    bit-identical to :func:`_collect_engine`.
    """
    import tempfile

    from repro.fabric import plan_experiments
    from repro.fabric.coordinator import Coordinator

    plan = plan_experiments(list(ALL_EXPERIMENTS), quick=True, seed=seed)
    with tempfile.TemporaryDirectory(prefix="digest-fabric-") as state_dir:
        result = Coordinator(plan, state_dir=state_dir, workers=workers).run()
    return result.experiment_digests()


def collect_manifest(
    seed: int = 0, *, jobs: int | None = None, fabric: int | None = None
) -> dict[str, str]:
    """Run every experiment quick and return ``{experiment: folded digest}``."""
    if fabric is not None:
        manifest = _collect_fabric(seed, fabric)
    else:
        manifest = _collect_engine(seed, jobs)
    experiment_names = list(manifest)
    core = [name for name in experiment_names if name in CORE_EXPERIMENTS]
    manifest["ALL"] = _fold_named(manifest, core)
    manifest["FULL"] = _fold_named(manifest, experiment_names)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run the sweeps through a warm process pool of N workers "
        "(default: serial, in-process)",
    )
    parser.add_argument(
        "--fabric",
        type=int,
        default=None,
        metavar="N",
        help="run the sweeps through the distributed sweep fabric "
        "(repro.fabric coordinator + N worker subprocesses) instead of an "
        "in-process pool; the manifest must still be bit-identical",
    )
    parser.add_argument("-o", "--output", metavar="FILE", help="write the manifest as JSON")
    parser.add_argument(
        "--check", metavar="FILE", help="compare against a saved manifest; non-zero on mismatch"
    )
    args = parser.parse_args(argv)

    manifest = collect_manifest(seed=args.seed, jobs=args.jobs, fabric=args.fabric)
    for name, digest in manifest.items():
        print(f"{name:>4}  {digest}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"manifest written to {args.output}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            expected = json.load(handle)
        mismatches = {
            name: (expected.get(name), digest)
            for name, digest in manifest.items()
            if expected.get(name) != digest
        }
        if mismatches:
            for name, (want, got) in mismatches.items():
                print(f"MISMATCH {name}: expected {want}, got {got}", file=sys.stderr)
            return 1
        print(f"manifest matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
