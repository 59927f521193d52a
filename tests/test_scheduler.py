"""The timer-heap scheduler against the O(nodes) scan it replaced.

``SimCluster`` keeps node deadlines in a heap, re-reads a node's
deadline only when a step touched that node, and lands a batch of
datagrams per scheduling decision.  ``ScanCluster`` below keeps the
old rules: one occurrence per step, picked by re-reading every node.
Over seeded random fault schedules both must run the same occurrences
in the same order and write byte-identical event logs and journals.
Comparing the occurrences matters: a stale deadline only costs an
empty ``Node.advance``, which leaves the event log as it was.

The same schedules also check that no leader claims a slot that has
already ended, and that under every one of 200 of them readings are
conserved and no cycle commits twice.
"""

import collections
import random
from dataclasses import replace

import pytest

from crowdmw.harness import (
    FaultSpec,
    ScenarioConfig,
    ScenarioDeadlock,
    SimCluster,
    _parse_event,
    run_scenario,
)
from crowdmw.store import JournalStore


class ScanCluster(SimCluster):
    """Runs one occurrence per step, picked by scanning all nodes."""

    def run(self, until_ms):
        while True:
            occurrence = self._next_occurrence()
            if occurrence is None or occurrence[0] >= until_ms:
                self.network.wait_until(until_ms)
                return
            at, kind, node_id = occurrence
            if at - self._last_progress_ms > (self.DEADLOCK_FACTOR
                                              * self.config.cycle_duration_ms):
                self._check_progress(at)
            if kind == 1:
                self.network.dispatch_next()
                continue
            self.network.wait_until(at)
            if kind == 0:
                self._fault_cursor += 1
                self._apply_fault(self._faults[self._fault_cursor - 1])
            else:
                self.nodes[node_id].advance(at)

    def _next_occurrence(self):
        best = None
        fault_at = self._next_fault()
        if fault_at is not None:
            best = (fault_at, 0, 0)
        net_at = self.network.next_due_ms()
        if net_at is not None:
            candidate = (net_at, 1, 0)
            if best is None or candidate < best:
                best = candidate
        for node_id in sorted(self.nodes):
            deadline = self.nodes[node_id].next_deadline()
            if deadline is not None:
                candidate = (deadline, 2, node_id)
                if best is None or candidate < best:
                    best = candidate
        return best


def _random_config(seed):
    rng = random.Random(seed)
    nodes = rng.randint(3, 12)
    cycles = rng.randint(4, 7)
    end = cycles * 2000
    faults = []
    for _ in range(rng.randint(2, 6)):
        at = float(rng.randrange(0, end, 50))
        kind = rng.choice(("kill_node", "kill_leader", "partition",
                           "set_loss"))
        if kind == "kill_node":
            faults.append(FaultSpec(kind, at, node_id=rng.randint(1, nodes)))
        elif kind == "kill_leader":
            faults.append(FaultSpec(kind, at))
        elif kind == "partition":
            group = tuple(sorted(rng.sample(range(1, nodes + 1),
                                            rng.randint(1, nodes // 2))))
            faults.append(FaultSpec(kind, at, nodes=group,
                                    duration_ms=float(rng.randint(1, 6) * 500)))
        else:
            faults.append(FaultSpec(kind, at, rate=rng.choice((0.0, 0.05,
                                                               0.2, 0.5))))
    return ScenarioConfig(nodes=nodes, cycles=cycles, seed=seed,
                          visitors=10 * nodes,
                          loss_rate=rng.choice((0.0, 0.02, 0.1)),
                          faults=tuple(faults))


def _recorded(cluster):
    """Every occurrence the cluster runs, in order, as (time, kind, id)."""
    steps = []
    network, dispatch = cluster.network, cluster.network.dispatch_next
    apply_fault = cluster._apply_fault

    def delivering():
        steps.append((network.next_due_ms(), 1, 0))
        return dispatch()

    def faulting(fault):
        steps.append((cluster.clock.now_ms(), 0, 0))
        apply_fault(fault)

    def advancing(node_id, advance):
        def recording(at):
            steps.append((at, 2, node_id))
            advance(at)
        return recording

    network.dispatch_next = delivering
    cluster._apply_fault = faulting
    for node_id, node in cluster.nodes.items():
        node.advance = advancing(node_id, node.advance)
    return steps


def _run(cls, config, journal, stops):
    """Occurrences, events, journal bytes and any deadlock message."""
    store = JournalStore(str(journal))
    outcome = None
    try:
        cluster = cls(config, store)
        steps = _recorded(cluster)
        cluster.start()
        for stop in stops:
            cluster.run(stop)
    except ScenarioDeadlock as exc:
        outcome = str(exc)
    finally:
        store.close()
    return steps, cluster.events, journal.read_bytes(), outcome


SEEDS = range(24)


def test_schedules_draw_every_fault_kind():
    kinds = {f.kind for seed in SEEDS for f in _random_config(seed).faults}
    assert kinds == {"kill_node", "kill_leader", "partition", "set_loss"}
    sizes = {_random_config(seed).nodes for seed in SEEDS}
    assert min(sizes) == 3 and max(sizes) == 12


def _assert_runs_match(config, seed, tmp_path):
    end = float(config.cycles * config.cycle_duration_ms)
    # Odd seeds stop half way: the heap must also pick up whatever
    # changed between two calls to run().
    stops = [end / 2 + 7, end] if seed % 2 else [end]
    heap = _run(SimCluster, config, tmp_path / "heap.journal", stops)
    scan = _run(ScanCluster, config, tmp_path / "scan.journal", stops)
    assert heap[0] == scan[0]
    assert heap[1] == scan[1]
    assert heap[2] == scan[2]
    assert heap[3] == scan[3]


@pytest.mark.parametrize("seed", SEEDS)
def test_heap_scheduler_matches_node_scan(seed, tmp_path):
    _assert_runs_match(_random_config(seed), seed, tmp_path)


# A fixed whole-millisecond latency lands the datagrams sent at a timer
# on whole milliseconds, where faults, timers and the stops of run()
# fall too: ties with a delivery are common, so the tie order runs.
@pytest.mark.parametrize("seed", range(8))
def test_heap_scheduler_matches_node_scan_on_ties(seed, tmp_path):
    _assert_runs_match(replace(_random_config(seed), latency_ms=(50.0, 50.0)),
                       seed, tmp_path)


# Schedules whose PING chains ran out exactly at a slot boundary when
# the ping timer fired before the slot timer due at the same instant.
@pytest.mark.parametrize("seed", [41, 63, 65, 95, 111, 150, 159])
def test_no_claim_at_or_after_its_slot_boundary(seed, tmp_path):
    config = _random_config(seed)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    claims = [fields for fields in map(_parse_event, report.events)
              if fields["event"] == "leader_claimed"]
    assert claims
    assert [c for c in claims if float(c["t"]) >= (
        int(c["cycle"]) + 1) * config.cycle_duration_ms] == []


# Refusals of a datagram an honest node sent.  Faults drop, delay and
# cut datagrams but never rewrite one, so no schedule may log these.
HONEST_REFUSALS = frozenset({"malformed_submit", "malformed_assignment",
                             "corrupt_partial", "checksum_mismatch",
                             "short_segment"})


def test_schedules_conserve_readings_and_commit_each_cycle_once(tmp_path):
    # Under loss, kills and partitions, every injected reading ends up
    # committed, pending on a live node, stranded on a killed one,
    # deduplicated or undelivered, exactly once (``conserves``).
    broken = []
    for seed in range(200):
        report = run_scenario(_random_config(seed),
                              str(tmp_path / f"{seed}.journal"))
        events = list(map(_parse_event, report.events))
        commits = collections.Counter(
            fields["cycle"] for fields in events
            if fields["event"] == "commit")
        refused = HONEST_REFUSALS.intersection(
            fields["event"] for fields in events)
        if not report.reconciliation.conserves() or refused or any(
                count > 1 for count in commits.values()):
            broken.append(seed)
    assert broken == []
