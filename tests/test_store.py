"""Journal store durability, atomicity and arbitration."""

import os
import sqlite3
import sys
import threading
from importlib import resources

import pytest

from crowdmw.cli import main
from crowdmw.domain import TagCategory
from crowdmw.election import NodeRecord, Role, claim_leadership, register_node
from crowdmw.harness import ScenarioConfig, SimCluster
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


def test_store_closes_on_leaving_a_with_block(path):
    with JournalStore(path) as store:
        pass
    assert store._fh.closed
    with pytest.raises(RuntimeError):
        with JournalStore(path) as store:
            raise RuntimeError("a failing assertion, say")
    assert store._fh.closed


def test_node_rows_survive_reopen(path):
    with JournalStore(path) as store:
        store.upsert_node(_row(2, "node2:7000", Role.FOLLOWER, 30))
    with JournalStore(path) as reopened:
        record = reopened.node(2)
        assert record.address == "node2:7000"
        assert record.last_seen == 30


def test_results_survive_reopen(path):
    with JournalStore(path) as store:
        store.commit_results(_result(), committed_at=100, acks={1: 15})
    with JournalStore(path) as reopened:
        assert reopened.totals("visitor") == {"man": 10, "other": 12,
                                              "woman": 21}
        assert reopened.totals("room") == {"Room1": 2, "Room2": 5,
                                           "Room3": 5, "Room4": 4}
        assert reopened.ack_watermarks() == {1: 15}
        assert reopened.committed_cycles() == [0]


def test_uncommitted_rows_invisible_after_crash(path):
    with JournalStore(path) as store:
        store.commit_results(_result(0), committed_at=50)
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

    with JournalStore(path) as reopened:
        assert reopened.committed_cycles() == [0]
        assert reopened.rows_for_cycle(1) == []
    assert os.path.getsize(path) >= size_committed


def _reopen_after_bad_tail(path, tail):
    """Append ``tail`` after a committed cycle, then recover twice."""
    with JournalStore(path) as store:
        store.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, 0))
        store.commit_results(_result(), committed_at=10)
    good = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(tail)

    with JournalStore(path) as reopened:
        assert reopened.committed_cycles() == [0]
        assert reopened.node(1) is not None
        assert os.path.getsize(path) == good
        # The next append lands after the last intact record; reopening
        # again must still work.
        reopened.upsert_node(_row(2, "node2:7000", Role.FOLLOWER, 5))
    with JournalStore(path) as final:
        assert final.node(2) is not None


def test_torn_tail_truncated_on_recovery(path):
    _reopen_after_bad_tail(path, b"87|results|torn-half-rec")


def _framed(body):
    return b"%d|%s\n" % (len(body), body)


BAD_FRAMES = {
    "no-bar": b"results\n",
    "length-not-decimal": b"1x|commit|0,1\n",
    "no-newline": b"10|commit|0,1X",
    "no-table": _framed(b"commit"),
    "unknown-table": _framed(b"widgets|1,2"),
    "short-results-row": _framed(b"results|1,visitor,man"),
    "commit-count-mismatch": _framed(b"commit|1,1"),
    "node-id-0": _framed(b"nodes|0,node0:7000;follower;5"),
    "unknown-mode": _framed(b"results|1,bogus,man,3,10"),
}


@pytest.mark.parametrize("tail", list(BAD_FRAMES.values()), ids=list(BAD_FRAMES))
def test_bad_frame_truncated_on_recovery(path, tail):
    _reopen_after_bad_tail(path, tail)


def test_a_cycle_commits_once(path):
    # A second commit of a cycle is refused, an identical one too, and
    # writes nothing: the journal keeps the first commit alone.
    with JournalStore(path) as store:
        first = store.commit_results(_result(), committed_at=100,
                                     acks={1: 3})
        for again, acks in ((_result(), {1: 3}), (_result(man=11), {1: 5})):
            with pytest.raises(ConflictingCommit):
                store.commit_results(again, committed_at=200, acks=acks)
        assert store.rows_for_cycle(0) == first
        assert store.ack_watermarks() == {1: 3}
    with open(path, "rb") as fh:
        assert fh.read().count(b"commit|0,") == 1
    with JournalStore(path) as reopened:
        assert reopened.rows_for_cycle(0) == first
        assert reopened.totals("visitor") == {"man": 10, "other": 12,
                                              "woman": 21}
        assert reopened.ack_watermarks() == {1: 3}


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
    with JournalStore(path) as store:
        for node_id in (1, 2, 3):
            store.upsert_node(_row(node_id, f"node{node_id}:7000",
                                   Role.FOLLOWER, 0))
        store.upsert_node(_row(3, "node3:7000", Role.LEADER, 1))
        store.upsert_node(_row(2, "node2:7000", Role.LEADER, 2))
        assert _leaders(store) == [2]
    with JournalStore(path) as reopened:
        assert _leaders(reopened) == [2]


def test_torn_claim_leaves_the_old_leader_demoted(path):
    with JournalStore(path) as store:
        for node_id in (1, 2):
            register_node(store, node_id, f"node{node_id}:7000", 0, 4000)
        claim_leadership(store, 1, "node1:7000", 10)
        claim_leadership(store, 2, "node2:7000", 20)
    with open(path, "rb") as handle:
        raw = handle.read()
    last = raw.rstrip(b"\n").rfind(b"\n") + 1
    assert raw[last:] == b"28|nodes|2,node2:7000;leader;20\n"
    with open(path, "wb") as handle:
        handle.write(raw[:last])  # the crash tore off node 2's claim
    with JournalStore(path) as reopened:
        assert _leaders(reopened) == []
        assert reopened.node(1).role is Role.FOLLOWER


def test_replay_keeps_one_leader_of_two_consecutive_claims(path):
    # A journal with no demotion row between two claims still replays
    # to the later claimant alone.
    with open(path, "wb") as handle:
        for body in (b"nodes|1,node1:7000;leader;10",
                     b"nodes|2,node2:7000;leader;20"):
            handle.write(b"%d|%s\n" % (len(body), body))
    with JournalStore(path) as store:
        assert _leaders(store) == [2]
        assert store.node(1) == _row(1, "node1:7000", Role.FOLLOWER, 10)


def test_replay_keeps_the_first_commit_of_a_cycle(path):
    # The store refuses a second commit of a cycle, so only a journal
    # written by hand holds two; replay applies the same rule: the first
    # marker's rows win whole and the later marker's are skipped.
    with open(path, "wb") as handle:
        for body in (b"results|0,room,Room1,4,10",
                     b"results|0,room,Room2,1,10", b"commit|0,2",
                     b"results|0,room,Room1,5,20", b"commit|0,1"):
            handle.write(_framed(body))
    with JournalStore(path) as store:
        assert store.committed_cycles() == [0]
        assert store.rows_for_cycle(0) == [
            ResultTableRow(0, "room", "Room1", 4, 10),
            ResultTableRow(0, "room", "Room2", 1, 10)]
        assert store.totals("room") == {"Room1": 4, "Room2": 1}


def test_replayed_watermarks_agree_with_compaction(path):
    # Two commit markers for cycle 0 with different acks: the watermark
    # read on open, after compaction and after reopening the compacted
    # journal is the first marker's.
    with open(path, "wb") as handle:
        for body in (b"results|0,ack,node1,5,10", b"commit|0,1",
                     b"results|0,ack,node1,3,20", b"commit|0,1"):
            handle.write(_framed(body))
    with JournalStore(path) as store:
        assert store.ack_watermarks() == {1: 5}
        store.compact()
        assert store.ack_watermarks() == {1: 5}
    with JournalStore(path) as compacted:
        assert compacted.ack_watermarks() == {1: 5}
        assert compacted.rows_for_cycle(0) == [
            ResultTableRow(0, "ack", "node1", 5, 10)]


def test_concurrent_claims_leave_one_leader(path):
    node_ids = range(1, 9)
    errors = []
    with JournalStore(path) as store:
        for node_id in node_ids:
            register_node(store, node_id, f"node{node_id}:7000", 0, 4000)

        def claim(node_id):
            try:
                for i in range(50):
                    claim_leadership(store, node_id, f"node{node_id}:7000",
                                     i)
            except Exception as exc:  # noqa: BLE001 - record and fail below
                errors.append(exc)

        threads = [threading.Thread(target=claim, args=(n,))
                   for n in node_ids]
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
    with JournalStore(path) as reopened:
        assert _leaders(reopened) == [leader]


def test_compaction_preserves_content(path):
    with JournalStore(path) as store:
        for cycle in range(4):
            store.commit_results(_result(cycle), committed_at=cycle * 10)
        for i in range(400):  # push past the auto-compaction threshold
            store.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, i))
        store.compact()
        assert store.committed_cycles() == [0, 1, 2, 3]
        assert store.node(1).last_seen == 399
    with JournalStore(path) as reopened:
        assert reopened.committed_cycles() == [0, 1, 2, 3]
        assert reopened.totals("room")["Room2"] == 20


def test_concurrent_upserts_from_many_threads(path):
    errors = []
    with JournalStore(path) as store:

        def hammer(node_id):
            try:
                for i in range(100):
                    store.upsert_node(_row(node_id, f"node{node_id}:7000",
                                           Role.FOLLOWER, i))
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
    with JournalStore(path) as reopened:
        assert len(reopened.snapshot_nodes()) == 8


def test_ack_watermarks_take_latest_maximum(path):
    with JournalStore(path) as store:
        store.commit_results(_result(0), committed_at=10, acks={1: 5, 2: 9})
        store.commit_results(_result(1), committed_at=20, acks={1: 8})
        assert store.ack_watermarks() == {1: 8, 2: 9}


def _committed_rows(store):
    """Every committed row, cycle by cycle."""
    return [row for cycle in store.committed_cycles()
            for row in store.rows_for_cycle(cycle)]


def _rescanned_watermarks(store):
    """The watermarks as a full scan of every committed ack row."""
    marks = {}
    for row in _committed_rows(store):
        if row.mode == "ack":
            origin = int(row.key.removeprefix("node"))
            marks[origin] = max(row.count, marks.get(origin, -1))
    return marks


def test_ack_watermarks_equal_rescan_through_reopen_and_compaction(path):
    expected = {1: 9, 2: 7, 3: 0, 12: 40}
    with JournalStore(path) as store:
        assert store.ack_watermarks() == {}
        acks = [{1: 3, 2: 7}, {1: 9}, {3: 0, 2: 5}, {}, {1: 4, 12: 40}]
        for cycle, cycle_acks in enumerate(acks):
            store.commit_results(_result(cycle), committed_at=cycle,
                                 acks=cycle_acks)
            assert store.ack_watermarks() == _rescanned_watermarks(store)
        # A repeat of an identical commit is refused and changes nothing.
        with pytest.raises(ConflictingCommit):
            store.commit_results(_result(1), committed_at=1, acks={1: 9})
        assert store.ack_watermarks() == expected
        # Callers get a copy, not the store's own map.
        store.ack_watermarks()[1] = -5
        assert store.ack_watermarks() == expected

    with JournalStore(path) as reopened:
        assert reopened.ack_watermarks() == expected
        for i in range(JournalStore.COMPACT_EVERY + 1):  # auto-compacts
            reopened.upsert_node(_row(1, "node1:7000", Role.FOLLOWER, i))
        reopened.commit_results(_result(5), committed_at=5, acks={2: 11})
        reopened.compact()
        expected[2] = 11
        assert reopened.ack_watermarks() == expected
        assert reopened.ack_watermarks() == _rescanned_watermarks(reopened)

    with JournalStore(path) as compacted:
        assert compacted.ack_watermarks() == expected
        assert compacted.ack_watermarks() == _rescanned_watermarks(compacted)


def test_uncommitted_acks_do_not_count(path):
    with JournalStore(path) as store:
        store.commit_results(_result(0), committed_at=0, acks={1: 2})
    # A torn cycle: ack rows journaled without their commit marker.
    with open(path, "ab") as fh:
        for body in ("results|1,ack,node1,50,1", "results|1,ack,node4,8,1"):
            fh.write(JournalStore._frame(body))
    with JournalStore(path) as reopened:
        assert reopened.ack_watermarks() == {1: 2}


# -- sync policy --------------------------------------------------------------


def _counted_run(path, monkeypatch):
    """A 3-node, 4-slot run with every fsync counted, construction included.

    The run goes one millisecond past its fourth slot, so the journal
    ends with the next boundary's heartbeats after the last commit.
    """
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr("crowdmw.store.os.fsync",
                        lambda fd: fsyncs.append(fd) or real_fsync(fd))
    config = ScenarioConfig(nodes=3, cycles=4, seed=1, visitors=60)
    with JournalStore(path) as store:
        cluster = SimCluster(config, store)
        cluster.start()
        cluster.run(config.cycles * config.cycle_duration_ms + 1.0)
        cluster.network.close()
    return cluster.events, len(fsyncs)


def test_one_fsync_per_claim_and_per_commit(path, monkeypatch):
    # Heartbeats ride on the next synced append (group commit); claims
    # and commits, with their ack rows, are synced before they return.
    events, fsyncs = _counted_run(path, monkeypatch)
    claims = sum(" leader_claimed " in line for line in events)
    commits = sum(" commit cycle=" in line for line in events)
    assert claims >= 4 and commits == 4
    assert fsyncs == claims + commits


def _state(store):
    return (store.committed_cycles(), _committed_rows(store),
            store.totals("visitor"), store.totals("room"),
            store.ack_watermarks())


def test_a_torn_heartbeat_tail_keeps_every_commit(path, monkeypatch):
    _counted_run(path, monkeypatch)
    with open(path, "rb") as handle:
        raw = handle.read()
    last_commit = raw.rindex(b"|commit|")
    tail_start = raw.index(b"\n", last_commit) + 1
    assert b"|nodes|" in raw[tail_start:]
    with JournalStore(path) as whole:
        expected = _state(whole)
    for cut in range(tail_start, len(raw) + 1):
        with open(path, "wb") as handle:
            handle.write(raw[:cut])
        with JournalStore(path) as reopened:
            assert _state(reopened) == expected, cut


# -- sql/schema.sql holds the journal's tables ----------------------------


def test_schema_sql_holds_a_run_journal(tmp_path, capsys):
    # The README calls sql/schema.sql equivalent DDL: a run's node rows
    # and committed rows load into it, and SQL over them gives the
    # store's totals and watermarks.
    assert main(["run", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    schema = resources.files("crowdmw") / "sql" / "schema.sql"
    db = sqlite3.connect(":memory:")
    try:
        db.executescript(schema.read_text(encoding="utf-8"))
        with JournalStore(str(tmp_path / "store.journal")) as store:
            # network_props packs 'host:port;role;last_seen_ms'.
            db.executemany("INSERT INTO nodes VALUES (?, ?)", [
                (r.node_id, f"{r.address};{r.role.value};{r.last_seen}")
                for r in store.snapshot_nodes()])
            db.executemany("INSERT INTO results VALUES (?, ?, ?, ?, ?)", [
                (r.cycle_id, r.mode, r.key, r.count, r.committed_at)
                for r in _committed_rows(store)])
            for mode in ("visitor", "room"):
                assert dict(db.execute(
                    "SELECT key, SUM(count) FROM results WHERE mode = ? "
                    "GROUP BY key", (mode,))) == store.totals(mode) != {}
            acks = db.execute("SELECT key, MAX(count) FROM results "
                              "WHERE mode = 'ack' GROUP BY key")
            assert {int(key.removeprefix("node")): seq
                    for key, seq in acks} == store.ack_watermarks() != {}
            assert db.execute("SELECT COUNT(*) FROM nodes").fetchone() == (
                len(store.snapshot_nodes()),)
    finally:
        db.close()
