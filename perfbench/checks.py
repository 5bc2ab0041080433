"""Output checks written independently of the program's own validators.

Each check takes plain data read from a run's trace (or the JSONL the
engine wrote) and returns a list of problems; an empty list means the run
passed.  They are pure functions so the tests can feed them corrupted
fixtures and show that each one rejects its own.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "check_consensus",
    "check_slot_agreement",
    "check_kv",
    "check_monitor",
    "detection_envelope",
    "compare_jsonl",
    "check_digests",
]


def check_consensus(
    decisions: Mapping[Any, Any],
    processes: Iterable[Any],
    crashed: Iterable[Any],
    proposals: Mapping[Any, Any],
    *,
    require_termination: bool,
) -> list[str]:
    """Agreement, validity and (optionally) termination of one consensus run.

    ``decisions`` maps each deciding process to its decided value;
    ``proposals`` maps each process to the value it proposed; ``crashed``
    is the crash schedule's victim set.  Termination asks every process
    outside the crash schedule to have decided, which is what the paper
    guarantees when its conditions hold.
    """
    problems = []
    values = set(decisions.values())
    if len(values) > 1:
        problems.append(f"agreement: {len(values)} distinct decisions {sorted(map(repr, values))}")
    proposed = set(proposals.values())
    for process, value in decisions.items():
        if value not in proposed:
            problems.append(f"validity: {process!r} decided {value!r}, which nobody proposed")
    if require_termination:
        crashed = set(crashed)
        undecided = [p for p in processes if p not in crashed and p not in decisions]
        if undecided:
            problems.append(f"termination: {len(undecided)} correct process(es) never decided")
    return problems


def check_slot_agreement(commits: Mapping[Any, Sequence[tuple[int, str]]]) -> list[str]:
    """Every replica that committed a slot committed the same command to it.

    ``commits`` maps each replica to its ``(slot, command)`` commit log.
    """
    problems = []
    by_slot: dict[int, tuple[str, Any]] = {}
    for replica, log in commits.items():
        for slot, command in log:
            known = by_slot.get(slot)
            if known is None:
                by_slot[slot] = (command, replica)
            elif known[0] != command:
                problems.append(
                    f"slot {slot}: replica {known[1]!r} committed {known[0]!r} "
                    f"but {replica!r} committed {command!r}"
                )
    return problems


def check_kv(
    commits: Mapping[Any, Sequence[tuple[int, str]]],
    completed_per_client: Mapping[Any, int],
    *,
    clients: int,
    ops_per_client: int,
    linearizable: bool,
) -> list[str]:
    """Replica agreement per slot, op completion, and the linearizability verdict.

    ``commits`` maps each replica to its ``(slot, command)`` commit log;
    ``completed_per_client`` counts completed operations per client.  The
    expected totals come from the workload's own inputs (``clients`` ×
    ``ops_per_client``), not from the program.
    """
    problems = check_slot_agreement(commits)
    if len(completed_per_client) != clients:
        problems.append(f"{len(completed_per_client)} clients completed ops, expected {clients}")
    for client, done in completed_per_client.items():
        if done != ops_per_client:
            problems.append(f"client {client!r} completed {done} of {ops_per_client} ops")
    total = sum(completed_per_client.values())
    if total != clients * ops_per_client:
        problems.append(f"{total} ops completed, expected {clients * ops_per_client}")
    if not linearizable:
        problems.append("the history is not linearizable")
    return problems


def detection_envelope(
    crash_time: float,
    *,
    mode: str,
    hb_timeout: float,
    hb_interval: float,
    max_latency: float,
) -> tuple[float, float]:
    """Earliest and latest time a correct monitor may declare the victim.

    A monitor declares once ``hb_timeout`` has passed since the last sign of
    life it saw.  For ping modes that sign (an ACK) left the victim before
    the crash, at most one ping period plus a round trip earlier, and
    arrives at most one link latency after it; staleness is checked once per
    interval.  Gossip relays the victim's last counter over several hops;
    its timeout is sized to cover that diffusion, so the latest sign of life
    arrives at most ``hb_timeout`` after the crash.
    """
    earliest = crash_time + hb_timeout - 2 * (hb_interval + max_latency)
    relay = hb_timeout if mode == "gossip" else max_latency
    latest = crash_time + relay + hb_timeout + hb_interval + max_latency
    return earliest, latest


def check_monitor(
    declarations: Sequence[tuple[int, int, float]],
    *,
    victim: int,
    envelope: tuple[float, float],
) -> list[str]:
    """Only the victim is declared, once per monitor, inside the envelope.

    ``declarations`` holds ``(monitor, target, time)`` triples by process
    index.
    """
    problems = []
    seen: set[tuple[int, int]] = set()
    earliest, latest = envelope
    for monitor, target, time in declarations:
        if target != victim:
            problems.append(f"false suspicion: {monitor} declared {target} at {time:.3f}")
            continue
        if (monitor, target) in seen:
            problems.append(f"double declaration: {monitor} declared {target} again at {time:.3f}")
        seen.add((monitor, target))
        if not earliest <= time <= latest:
            problems.append(
                f"{monitor} declared {target} at {time:.3f}, outside [{earliest:.3f}, {latest:.3f}]"
            )
    if not any(target == victim for _, target, _ in declarations):
        problems.append(f"the crash of {victim} was never declared")
    return problems


def compare_jsonl(reference: Sequence[str], candidate: Sequence[str]) -> list[str]:
    """One problem per line where ``candidate`` differs from ``reference``."""
    problems = []
    for index in range(max(len(reference), len(candidate))):
        want = reference[index] if index < len(reference) else None
        got = candidate[index] if index < len(candidate) else None
        if want != got:
            problems.append(f"line {index + 1}: {'missing' if got is None else 'differs'}")
    return problems


def check_digests(spec_digests: Sequence[str], checked_digests: Sequence[str]) -> list[str]:
    """Every spec-path record's digest matches a checked serial trace, in order.

    ``checked_digests`` lists the digests of every serial run whose trace
    passed its checks, in execution order; the spec-path records must appear
    in it as an ordered subsequence.
    """
    problems = []
    cursor = 0
    for index, digest in enumerate(spec_digests):
        while cursor < len(checked_digests) and checked_digests[cursor] != digest:
            cursor += 1
        if cursor == len(checked_digests):
            problems.append(f"record {index}: digest {digest} has no checked serial trace")
            cursor = 0
            continue
        cursor += 1
    return problems
