"""Journal store durability, atomicity and arbitration."""

import os
import sys
import threading

import pytest

from crowdmw.domain import TagCategory
from crowdmw.election import NodeRecord, Role, claim_leadership, register_node
from crowdmw.mapreduce import CycleResult
from crowdmw.store import (
    ConflictingCommit,
    JournalStore,
    ResultTableRow,
    rows_for_result,
)


def _row(node_id, address, role, last_seen):
    return NodeRecord(node_id=node_id, address=address, role=role,
                      last_seen=last_seen)


def _leaders(store):
    return [r.node_id for r in store.snapshot_nodes()
            if r.role is Role.LEADER]


def _result(cycle_id=0, man=10, woman=21, other=12):
    return CycleResult(
        cycle_id=cycle_id,
        visitor_aggregates={TagCategory.MAN: man, TagCategory.WOMAN: woman,
                            TagCategory.OTHER: other},
        room_aggregates={1: 2, 2: 5, 3: 5, 4: 4},
        total_readings=16,
    )


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.journal")


def test_node_rows_survive_reopen(path):
    store = JournalStore(path)
    store.upsert_node(_row(2, "node2:7000", Role.FOLLOWER, 30))
    store.close()
    reopened = JournalStore(path)
    record = reopened.node(2)
    assert record.address == "node2:7000"
    assert record.last_seen == 30
    reopened.close()


def test_results_survive_reopen(path):
    store = JournalStore(path)
    store.commit_results(_result(), committed_at=100, acks={1: 15})
    store.close()
    reopened = JournalStore(path)
    assert reopened.totals("visitor") == {"man": 10, "other": 12,
                                          "woman": 21}
    assert reopened.totals("room") == {"Room1": 2, "Room2": 5, "Room3": 5,
                                       "Room4": 4}
    assert reopened.ack_watermarks() == {1: 15}
    assert reopened.committed_cycles() == [0]
    reopened.close()


def test_uncommitted_rows_invisible_after_crash(path):
    store = JournalStore(path)
    store.commit_results(_result(0), committed_at=50)
    store.close()
    size_committed = os.path.getsize(path)

    # Append result rows for cycle 1 by hand, without a commit marker:
    # the writer "crashed" between staging and committing.
    rows = rows_for_result(_result(1), committed_at=60)
    with open(path, "ab") as handle:
        for row in rows[:3]:
            body = ("results|" + ",".join([
                str(row.cycle_id), row.mode, row.key, str(row.count),
                str(row.committed_at),
            ])).encode("utf-8")
            handle.write(b"%d|%s\n" % (len(body), body))

    reopened = JournalStore(path)
    assert reopened.committed_cycles() == [0]
    assert reopened.rows_for_cycle(1) == []
    reopened.close()
    assert os.path.getsize(path) >= size_committed


def test_torn_tail_truncated_on_recovery(path):
    store = JournalStore(path)
    store.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, 0))
    store.commit_results(_result(), committed_at=10)
    store.close()
    with open(path, "ab") as handle:
        handle.write(b"87|results|torn-half-rec")  # no trailing newline

    reopened = JournalStore(path)
    assert reopened.committed_cycles() == [0]
    assert reopened.node(1) is not None
    # Recovery rewrites nothing, but the next append lands after the
    # last intact record; reopening again must still work.
    reopened.upsert_node(_row(2, "node2:7000", Role.FOLLOWER, 5))
    reopened.close()
    final = JournalStore(path)
    assert final.node(2) is not None
    final.close()


def test_commit_idempotent_and_conflicting(path):
    store = JournalStore(path)
    first = store.commit_results(_result(), committed_at=100, acks={1: 3})
    again = store.commit_results(_result(), committed_at=200, acks={1: 3})
    assert [r.content() for r in first] == [r.content() for r in again]
    with pytest.raises(ConflictingCommit):
        store.commit_results(_result(man=11), committed_at=300,
                             acks={1: 3})
    store.close()


def test_result_row_validation():
    with pytest.raises(ValueError):
        ResultTableRow(cycle_id=0, mode="bogus", key="man", count=1,
                       committed_at=0)
    with pytest.raises(ValueError):
        ResultTableRow(cycle_id=0, mode="visitor", key="man", count=-1,
                       committed_at=0)


def test_rows_for_result_ordering_and_acks():
    rows = rows_for_result(_result(), committed_at=5, acks={3: 7, 1: 4})
    keys = [(r.mode, r.key) for r in rows]
    assert keys == [
        ("visitor", "man"), ("visitor", "other"), ("visitor", "woman"),
        ("room", "Room1"), ("room", "Room2"), ("room", "Room3"),
        ("room", "Room4"),
        ("ack", "node1"), ("ack", "node3"),
    ]
    ack_counts = {r.key: r.count for r in rows if r.mode == "ack"}
    assert ack_counts == {"node1": 4, "node3": 7}


def test_leader_claim_is_exclusive_in_memory_and_on_disk(path):
    store = JournalStore(path)
    for node_id in (1, 2, 3):
        store.upsert_node(_row(node_id, f"node{node_id}:7000", Role.FOLLOWER, 0))
    store.upsert_node(_row(3, "node3:7000", Role.LEADER, 1))
    store.upsert_node(_row(2, "node2:7000", Role.LEADER, 2))
    assert _leaders(store) == [2]
    store.close()
    reopened = JournalStore(path)
    assert _leaders(reopened) == [2]
    reopened.close()


def test_torn_claim_leaves_the_old_leader_demoted(path):
    store = JournalStore(path)
    for node_id in (1, 2):
        register_node(store, node_id, f"node{node_id}:7000", 0, 4000)
    claim_leadership(store, 1, "node1:7000", 10)
    claim_leadership(store, 2, "node2:7000", 20)
    store.close()
    with open(path, "rb") as handle:
        raw = handle.read()
    last = raw.rstrip(b"\n").rfind(b"\n") + 1
    assert raw[last:] == b"28|nodes|2,node2:7000;leader;20\n"
    with open(path, "wb") as handle:
        handle.write(raw[:last])  # the crash tore off node 2's claim
    reopened = JournalStore(path)
    assert _leaders(reopened) == []
    assert reopened.node(1).role is Role.FOLLOWER
    reopened.close()


def test_replay_keeps_one_leader_of_two_consecutive_claims(path):
    # A journal with no demotion row between two claims still replays
    # to the later claimant alone.
    with open(path, "wb") as handle:
        for body in (b"nodes|1,node1:7000;leader;10",
                     b"nodes|2,node2:7000;leader;20"):
            handle.write(b"%d|%s\n" % (len(body), body))
    store = JournalStore(path)
    assert _leaders(store) == [2]
    assert store.node(1) == _row(1, "node1:7000", Role.FOLLOWER, 10)
    store.close()


def test_concurrent_claims_leave_one_leader(path):
    store = JournalStore(path)
    node_ids = range(1, 9)
    for node_id in node_ids:
        register_node(store, node_id, f"node{node_id}:7000", 0, 4000)
    errors = []

    def claim(node_id):
        try:
            for i in range(50):
                claim_leadership(store, node_id, f"node{node_id}:7000", i)
        except Exception as exc:  # noqa: BLE001 - record and fail below
            errors.append(exc)

    threads = [threading.Thread(target=claim, args=(n,)) for n in node_ids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    (leader,) = _leaders(store)
    store.close()
    reopened = JournalStore(path)
    assert _leaders(reopened) == [leader]
    reopened.close()


def test_compaction_preserves_content(path):
    store = JournalStore(path)
    for cycle in range(4):
        store.commit_results(_result(cycle), committed_at=cycle * 10)
    for i in range(400):  # push past the auto-compaction threshold
        store.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, i))
    store.compact()
    assert store.committed_cycles() == [0, 1, 2, 3]
    assert store.node(1).last_seen == 399
    store.close()
    reopened = JournalStore(path)
    assert reopened.committed_cycles() == [0, 1, 2, 3]
    assert reopened.totals("room")["Room2"] == 20
    reopened.close()


def test_concurrent_upserts_from_many_threads(path):
    store = JournalStore(path)
    errors = []

    def hammer(node_id):
        try:
            for i in range(100):
                store.upsert_node(_row(node_id, f"node{node_id}:7000", Role.FOLLOWER, i))
        except Exception as exc:  # noqa: BLE001 - record and fail below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,))
               for n in range(1, 9)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    records = store.snapshot_nodes()
    assert len(records) == 8
    assert all(r.last_seen == 99 for r in records)
    store.close()
    reopened = JournalStore(path)
    assert len(reopened.snapshot_nodes()) == 8
    reopened.close()


def test_ack_watermarks_take_latest_maximum(path):
    store = JournalStore(path)
    store.commit_results(_result(0), committed_at=10, acks={1: 5, 2: 9})
    store.commit_results(_result(1), committed_at=20, acks={1: 8})
    assert store.ack_watermarks() == {1: 8, 2: 9}
    store.close()


def _rescanned_watermarks(store):
    """The watermarks as a full scan of every committed ack row."""
    marks = {}
    for row in store.snapshot_results():
        if row.mode == "ack":
            origin = int(row.key.removeprefix("node"))
            marks[origin] = max(row.count, marks.get(origin, -1))
    return marks


def test_ack_watermarks_equal_rescan_through_reopen_and_compaction(path):
    store = JournalStore(path)
    assert store.ack_watermarks() == {}
    acks = [{1: 3, 2: 7}, {1: 9}, {3: 0, 2: 5}, {}, {1: 4, 12: 40}]
    for cycle, cycle_acks in enumerate(acks):
        store.commit_results(_result(cycle), committed_at=cycle,
                             acks=cycle_acks)
        assert store.ack_watermarks() == _rescanned_watermarks(store)
    # A repeat of an identical commit changes nothing.
    store.commit_results(_result(1), committed_at=1, acks={1: 9})
    expected = {1: 9, 2: 7, 3: 0, 12: 40}
    assert store.ack_watermarks() == expected
    # Callers get a copy, not the store's own map.
    store.ack_watermarks()[1] = -5
    assert store.ack_watermarks() == expected
    store.close()

    reopened = JournalStore(path)
    assert reopened.ack_watermarks() == expected
    for i in range(JournalStore.COMPACT_EVERY + 1):  # auto-compacts
        reopened.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, i))
    reopened.commit_results(_result(5), committed_at=5, acks={2: 11})
    reopened.compact()
    expected[2] = 11
    assert reopened.ack_watermarks() == expected
    assert reopened.ack_watermarks() == _rescanned_watermarks(reopened)
    reopened.close()

    compacted = JournalStore(path)
    assert compacted.ack_watermarks() == expected
    assert compacted.ack_watermarks() == _rescanned_watermarks(compacted)
    compacted.close()


def test_uncommitted_acks_do_not_count(path):
    store = JournalStore(path)
    store.commit_results(_result(0), committed_at=0, acks={1: 2})
    store.close()
    # A torn cycle: ack rows journaled without their commit marker.
    with open(path, "ab") as fh:
        for body in ("results|1,ack,node1,50,1", "results|1,ack,node4,8,1"):
            fh.write(JournalStore._frame(body))
    reopened = JournalStore(path)
    assert reopened.ack_watermarks() == {1: 2}
    reopened.close()
