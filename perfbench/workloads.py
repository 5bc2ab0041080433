"""Workload inputs, generated from the benchmark seed alone.

Every workload is a fixed *round*: a batch of operations whose make-up is
the same for every seed.  The seed only picks the values inside it (crash
victims and times, simulation seeds, the base seed of the experiment suite),
so every round attempts the same number of operations and the figures stay
comparable across seeds.  The program receives nothing but the scenario
specs built here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "WORKLOADS",
    "DEFAULT_SEED",
    "Item",
    "consensus_round",
    "kv_round",
    "monitor_round",
    "suite_seeds",
    "SUITE_EXPERIMENTS",
    "MONITOR_LATENCY",
    "HB_INTERVAL",
]

WORKLOADS = ("consensus-spectrum", "kv-service", "monitor-scale", "quick-suite-pool2")
DEFAULT_SEED = 1

#: Figure 8 (HΩ, a majority correct) and Figure 9 (HΩ + HΣ, any number of crashes).
_ALGORITHMS = {
    "homega_majority": ("HOmega",),
    "homega_hsigma": ("HOmega", "HSigma"),
}
_SIZES = (5, 9, 13, 17, 21, 25)
_SHAPES = ("anonymous", "homonymous", "unique")
#: Share of the algorithm's crash budget used, one cell per level.
_CRASH_LEVELS = (0.0, 0.5, 1.0)
_CONSENSUS_REPS = 5
_STABILIZATION = 15.0
#: Crashes are spread evenly over this window, before stabilization.
_CRASH_WINDOW = (2.0, 14.0)

#: KV service: 5 replicas over 3 identifiers, closed-loop zipf clients.
_KV_GROUPS = (2, 2, 1)
_KV_CLIENTS = (8, 16)
_KV_OPS = 4
_KV_REPS = 30

#: Heartbeat monitoring over asynchronous links with this latency bound.
MONITOR_LATENCY = (0.01, 0.2)
HB_INTERVAL = 1.0
#: (mode, n, degree, hb_timeout).  Gossip's timeout covers its diffusion depth.
_MONITOR_CELLS = (
    ("ring", 1000, 3, 6.0),
    ("gossip", 300, 3, 12.0),
    ("full_mesh", 20, 0, 6.0),
)
_MONITOR_REPS = 3
_CRASH_SPAN = (8.0, 12.0)

#: The registered quick experiments the suite workload runs.
SUITE_EXPERIMENTS = tuple(f"E{index}" for index in range(1, 11))
SUITE_SEEDS_PER_ROUND = 3


@dataclass
class Item:
    """One operation of a round: a spec plus what the checks need to know."""

    kind: str
    spec: Any
    params: dict = field(default_factory=dict)


def consensus_round(seed: int) -> list[Item]:
    """540 runs: 2 algorithms × 6 sizes × 3 identity shapes × 3 crash levels, 5 times.

    The seed picks the victims and each run's simulation seed; the number of
    crashes and their times are fixed per cell, so the amount of work in a
    round barely depends on the seed.
    """
    from repro.runtime import crashes_at, no_crashes, scenario

    rng = random.Random(f"consensus-spectrum:{seed}")
    items = []
    first, last = _CRASH_WINDOW
    cells = itertools.product(range(_CONSENSUS_REPS), _ALGORITHMS, _SIZES, _SHAPES, _CRASH_LEVELS)
    for _rep, algorithm, n, shape, level in cells:
        budget = (n - 1) // 2 if algorithm == "homega_majority" else n - 1
        distinct = {"anonymous": 1, "unique": n}.get(shape, max(2, n // 3))
        victims = rng.sample(range(n), round(level * budget))
        times = {v: first + (last - first) * i / len(victims) for i, v in enumerate(victims)}
        spec = (
            scenario(f"spectrum-{algorithm}-{shape}-n{n}")
            .processes(n)
            .distinct_ids(distinct)
            .crashes(crashes_at(times) if times else no_crashes())
            .detectors(*_ALGORITHMS[algorithm], stabilization=_STABILIZATION)
            .consensus(algorithm)
            .horizon(2000.0)
            .seed(rng.randrange(2**31))
            .build()
        )
        items.append(Item("consensus", spec))
    return items


def kv_round(seed: int) -> list[Item]:
    """60 runs: 8 and 16 zipf clients, 30 times; the seed picks each run's simulation seed.

    Runs with a replica crash are left out: on some seeds the service stops
    committing after the crash (see CHANGES.md), which would make the failed
    share depend on the seed.
    """
    from repro.runtime import scenario

    rng = random.Random(f"kv-service:{seed}")
    items = []
    for _rep, clients in itertools.product(range(_KV_REPS), _KV_CLIENTS):
        spec = (
            scenario(f"kv-c{clients}")
            .homonyms(list(_KV_GROUPS))
            .detectors("HOmega", stabilization=10.0)
            .kv(clients=clients, ops_per_client=_KV_OPS, skew="zipf", think_time=1.0, key_space=6)
            .horizon(2000.0)
            .seed(rng.randrange(2**31))
            .build()
        )
        items.append(
            Item("kv", spec, {"clients": clients, "ops_per_client": _KV_OPS,
                              "replicas": sum(_KV_GROUPS)})
        )
    return items


def monitor_round(seed: int) -> list[Item]:
    """9 runs: ring k=3 at n=1000, gossip fanout 3 at n=300, full mesh at n=20, 3 times.

    The seed picks the victim, its crash time and the simulation seed; the
    horizon is fixed per cell, so the simulated span (and the heartbeat
    work in it) does not depend on the seed.
    """
    from repro.runtime import asynchronous, crashes_at, scenario

    rng = random.Random(f"monitor-scale:{seed}")
    low, high = MONITOR_LATENCY
    items = []
    for mode, n, degree, hb_timeout in _MONITOR_CELLS * _MONITOR_REPS:
        victim = rng.randrange(n)
        crash_at = round(rng.uniform(*_CRASH_SPAN), 3)
        build = (
            scenario(f"monitor-{mode}-n{n}")
            .processes(n)
            .unique_ids()
            .timing(asynchronous(min_latency=low, max_latency=high))
            .crashes(crashes_at({victim: crash_at}))
            .program("heartbeat", hb_interval=HB_INTERVAL, hb_timeout=hb_timeout)
            .horizon(_CRASH_SPAN[1] + 2 * hb_timeout + 5.0)
            .seed(rng.randrange(2**31))
        )
        if mode == "full_mesh":
            build = build.check("hb_detection")
        else:
            key = "successors" if mode == "ring" else "fanout"
            build = build.topology(mode, **{key: degree}).check("topo_detection")
        items.append(
            Item(
                "monitor",
                build.build(),
                {"mode": mode, "n": n, "victim": victim, "crash_at": crash_at,
                 "hb_timeout": hb_timeout},
            )
        )
    return items


def suite_seeds(seed: int) -> list[int]:
    """The base seeds the quick experiment suite runs with, one pass each per round."""
    rng = random.Random(f"quick-suite-pool2:{seed}")
    return [rng.randrange(10_000) for _ in range(SUITE_SEEDS_PER_ROUND)]
