"""The timer-heap scheduler against the O(nodes) scan it replaced.

``SimCluster`` keeps node deadlines in a heap and re-reads a node's
deadline only when a step touched that node.  ``ScanCluster`` below
keeps the old rule, re-reading every node on every step.  Over seeded
random fault schedules both must pick the same occurrences in the same
order and write byte-identical event logs and journals.  Comparing the
occurrences matters: a stale deadline only costs an empty
``Node.advance``, which leaves the event log as it was.
"""

import random

import pytest

from crowdmw.harness import FaultSpec, ScenarioConfig, ScenarioDeadlock, SimCluster
from crowdmw.store import JournalStore


class ScanCluster(SimCluster):
    """Picks every step by scanning all nodes, as before the heap."""

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
    """Every occurrence the cluster's scheduler picks, in order."""
    steps = []
    pick = cluster._next_occurrence

    def recording():
        steps.append(pick())
        return steps[-1]

    cluster._next_occurrence = recording
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


@pytest.mark.parametrize("seed", SEEDS)
def test_heap_scheduler_matches_node_scan(seed, tmp_path):
    config = _random_config(seed)
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
