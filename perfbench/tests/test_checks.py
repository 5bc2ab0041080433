"""The benchmark's checks reject corrupted outputs, and accept correct ones.

Each corrupted fixture breaks exactly one property; the matching check must
name it.  The extraction tests feed hand-built traces through the same code
the harness uses to read a run's trace.
"""

from __future__ import annotations

from types import SimpleNamespace

from perfbench import checks, harness
from perfbench.tracer import Tracer
from repro.identity import ProcessId
from repro.membership import unique_identities
from repro.sim.trace import RunTrace

P = [ProcessId(index) for index in range(4)]
PROPOSALS = {p: f"value-{p.index}" for p in P}


def consensus(decisions, crashed=(), termination=True):
    return checks.check_consensus(
        decisions, P, crashed, PROPOSALS, require_termination=termination)


def test_consensus_accepts_agreement_on_a_proposal():
    assert consensus({p: "value-2" for p in P}) == []


def test_consensus_rejects_two_decision_values():
    decisions = {P[0]: "value-0", P[1]: "value-1", P[2]: "value-0", P[3]: "value-0"}
    (problem,) = consensus(decisions)
    assert problem.startswith("agreement")


def test_consensus_rejects_a_value_nobody_proposed():
    decisions = {p: "value-9" for p in P}
    problems = consensus(decisions)
    assert problems and all(problem.startswith("validity") for problem in problems)


def test_consensus_rejects_a_correct_process_that_never_decided():
    decisions = {p: "value-1" for p in P[:3]}
    (problem,) = consensus(decisions)
    assert problem.startswith("termination")
    assert consensus(decisions, crashed=[P[3]]) == []
    assert consensus(decisions, termination=False) == []


def kv(commits, completed, linearizable=True):
    return checks.check_kv(
        commits, completed, clients=2, ops_per_client=3, linearizable=linearizable)


GOOD_COMMITS = {"r0": [(0, "SET a 1"), (1, "GET a")], "r1": [(0, "SET a 1"), (1, "GET a")]}


def test_kv_accepts_a_consistent_complete_run():
    assert kv(GOOD_COMMITS, {"c0": 3, "c1": 3}) == []


def test_kv_rejects_a_divergent_committed_slot():
    commits = {"r0": [(0, "SET a 1")], "r1": [(0, "SET a 2")]}
    (problem,) = kv(commits, {"c0": 3, "c1": 3})
    assert problem.startswith("slot 0")


def test_kv_rejects_a_missing_op():
    problems = kv(GOOD_COMMITS, {"c0": 3, "c1": 2})
    assert any("completed 2 of 3" in problem for problem in problems)
    assert any("5 ops completed, expected 6" in problem for problem in problems)


def test_kv_rejects_a_non_linearizable_verdict():
    assert kv(GOOD_COMMITS, {"c0": 3, "c1": 3}, linearizable=False) == [
        "the history is not linearizable"]


ENVELOPE = checks.detection_envelope(
    10.0, mode="ring", hb_timeout=6.0, hb_interval=1.0, max_latency=0.2)


def test_monitor_accepts_declarations_inside_the_envelope():
    assert ENVELOPE[0] < 16.0 < ENVELOPE[1]
    assert checks.check_monitor([(1, 3, 16.0), (2, 3, 16.5)], victim=3, envelope=ENVELOPE) == []


def test_monitor_rejects_a_false_suspicion():
    problems = checks.check_monitor([(1, 3, 16.0), (2, 1, 12.0)], victim=3, envelope=ENVELOPE)
    assert [p for p in problems if p.startswith("false suspicion")]


def test_monitor_rejects_a_double_declaration():
    (problem,) = checks.check_monitor([(1, 3, 16.0), (1, 3, 17.0)], victim=3, envelope=ENVELOPE)
    assert problem.startswith("double declaration")


def test_monitor_rejects_a_declaration_outside_the_envelope():
    (early,) = checks.check_monitor([(1, 3, 11.0)], victim=3, envelope=ENVELOPE)
    (late,) = checks.check_monitor([(1, 3, 30.0)], victim=3, envelope=ENVELOPE)
    assert "outside" in early and "outside" in late


def test_monitor_rejects_a_missed_crash():
    (problem,) = checks.check_monitor([], victim=3, envelope=ENVELOPE)
    assert "never declared" in problem


def test_gossip_envelope_allows_for_relays():
    ring = checks.detection_envelope(10.0, mode="ring", hb_timeout=6.0,
                                     hb_interval=1.0, max_latency=0.2)
    gossip = checks.detection_envelope(10.0, mode="gossip", hb_timeout=6.0,
                                       hb_interval=1.0, max_latency=0.2)
    assert gossip[0] == ring[0] and gossip[1] > ring[1]


def test_jsonl_rejects_a_line_that_differs():
    reference = ['{"a": 1}', '{"b": 2}']
    assert checks.compare_jsonl(reference, list(reference)) == []
    assert checks.compare_jsonl(reference, ['{"a": 1}', '{"b": 3}']) == ["line 2: differs"]
    assert checks.compare_jsonl(reference, ['{"a": 1}']) == ["line 2: missing"]
    assert checks.compare_jsonl(reference, reference + ["{}"]) == ["line 3: differs"]


def test_digests_must_match_checked_serial_traces_in_order():
    checked = ["d1", "d2", "d3", "d4"]
    assert checks.check_digests(["d1", "d3"], checked) == []
    assert len(checks.check_digests(["d3", "d1"], checked)) == 1
    assert len(checks.check_digests(["d9"], checked)) == 1


def test_kv_observations_read_commits_ops_and_latencies_from_a_trace():
    trace = RunTrace()
    for replica in P[:2]:
        trace.record(replica, "kv.commit", (0, "SET a 1"), 3.0)
    trace.record(P[2], "kv.op", ("c0-0", "SET", "a", ("1",)), 1.0)
    trace.record(P[2], "kv.done", ("c0-0", "ok", None, 1), 4.5)
    commits, completed, latencies = harness.kv_observations(trace, replicas=2)
    assert commits == {P[0]: [(0, "SET a 1")], P[1]: [(0, "SET a 1")]}
    assert completed == {P[2]: 1}
    assert latencies == [3.5]


def test_monitor_declarations_map_identities_and_indices_to_processes():
    membership = unique_identities(4)
    sim = SimpleNamespace(system=SimpleNamespace(membership=membership))
    mesh = RunTrace()
    mesh.record(P[0], "declared_dead", membership.identity_of(P[3]), 16.0)
    assert harness.monitor_declarations(sim, mesh, sparse=False) == [(0, 3, 16.0)]
    ring = RunTrace()
    ring.record(P[1], "declared_dead", 3, 16.5)
    assert harness.monitor_declarations(sim, ring, sparse=True) == [(1, 3, 16.5)]


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    clock = iter(range(100))

    def leaf():
        for _ in range(1000):
            next(clock, None)

    hot_leaf = tracer.hot_span("kernel", leaf)
    outer = tracer.coarse("sim.run", lambda: [hot_leaf() for _ in range(3)])
    outer()
    (span,) = tracer.spans
    (count, hot_self) = tracer.hot[("kernel", 0)]
    assert count == 3
    assert span.parent == -1
    assert 0 < span.self_s < span.end - span.start
    assert abs((span.end - span.start) - (span.self_s + hot_self)) < 1e-3
    busy = tracer.layer_busy()
    assert set(busy) == {"handlers", "kernel"}
