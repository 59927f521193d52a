"""Durable single-writer store: node registry plus committed results.

The backing file is an append-only journal of length-prefixed records,
each a UTF-8 line ``table|field,field,...``.  Node rows apply as soon
as they are written; result rows only take effect once their cycle's
commit marker lands, so a crash mid-commit leaves either zero or all
rows of that cycle.  A cycle's first commit marker wins, on write and
on replay alike.  A periodic compaction rewrites the journal to the
current table contents.

Claims, commits and their ack rows are fsync'd before the call returns.
A heartbeat (``upsert_node``) is soft state: its row is written and
flushed at once, and the next fsync'd append or compaction makes it
durable with everything before it (group commit).  A crash can lose
only a tail of heartbeats, which recovery truncates like any torn tail.

The store owns the node table: callers read one row with ``node`` or
all rows with ``snapshot_nodes``.  It also owns the one-leader rule: a
LEADER row demotes any other leader, the demotion rows are journaled
ahead of the claim in the same append, and replay applies the same
rule to every node row, so the table never shows two leaders.

Two logical tables mirror the deployment database: ``nodes`` holds
(node_id, network_props) where network_props packs
``host:port;role;last_seen_ms``, and ``results`` holds
(cycle_id, mode, key, count, committed_at).  Result modes are
``visitor`` and ``room`` for aggregates plus ``ack``, which records the
per-origin read sequence watermark covered by the commit; watermarks
are what make retried submissions idempotent across leader changes.
Reference SQL DDL for the same schema ships in ``sql/schema.sql``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from crowdmw.domain import MiddlewareError, room_key
from crowdmw.election import NodeRecord, Role
from crowdmw.mapreduce import CycleResult

RESULT_MODES = ("visitor", "room", "ack")


class StorageFailure(MiddlewareError):
    """Underlying file operation failed."""


class ConflictingCommit(MiddlewareError):
    """A cycle that has committed was committed again."""


@dataclass(frozen=True)
class ResultTableRow:
    """One committed aggregate (or ack watermark) row."""

    cycle_id: int
    mode: str
    key: str
    count: int
    committed_at: int

    def __post_init__(self) -> None:
        if self.mode not in RESULT_MODES:
            raise ValueError(f"unknown result mode {self.mode!r}")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def rows_for_result(result: CycleResult, committed_at: int,
                    acks: Optional[Mapping[int, int]] = None
                    ) -> list[ResultTableRow]:
    """Expand a CycleResult (plus watermarks) into table rows."""
    rows = []
    for tag in sorted(result.visitor_aggregates, key=lambda t: t.value):
        rows.append(ResultTableRow(result.cycle_id, "visitor", tag.value,
                                   result.visitor_aggregates[tag],
                                   committed_at))
    for room in sorted(result.room_aggregates):
        rows.append(ResultTableRow(result.cycle_id, "room", room_key(room),
                                   result.room_aggregates[room],
                                   committed_at))
    for origin in sorted(acks or {}):
        rows.append(ResultTableRow(result.cycle_id, "ack", f"node{origin}",
                                   acks[origin], committed_at))
    return rows


class JournalStore:
    """Append-only journal store; safe for concurrent upserts.

    As a context manager it closes itself on leaving the block.
    """

    COMPACT_EVERY = 256

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._nodes: dict[int, NodeRecord] = {}
        # Each committed cycle's rows, in (mode, key) order.
        self._cycles: dict[int, list[ResultTableRow]] = {}
        # Highest committed ack per origin, kept as rows are applied.
        self._acks: dict[int, int] = {}
        self._writes_since_compact = 0
        self._recover()
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc

    # -- journal plumbing ---------------------------------------------------

    @staticmethod
    def _frame(body: str) -> bytes:
        payload = body.encode("utf-8")
        return b"%d|%s\n" % (len(payload), payload)

    def _append(self, bodies: Iterable[str], *, sync: bool = True) -> None:
        data = b"".join(self._frame(body) for body in bodies)
        try:
            self._fh.write(data)
            self._fh.flush()
            if sync:
                os.fsync(self._fh.fileno())
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc

    def _recover(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise StorageFailure(str(exc)) from exc
        offset = 0
        good = 0
        pending: dict[int, list[ResultTableRow]] = {}
        while offset < len(raw):
            bar = raw.find(b"|", offset)
            if bar < 0:
                break
            try:
                length = int(raw[offset:bar])
            except ValueError:
                break
            end = bar + 1 + length
            if end + 1 > len(raw):
                break
            body = raw[bar + 1:end]
            if raw[end:end + 1] != b"\n":
                break
            try:
                self._apply(body.decode("utf-8"), pending)
            except (ValueError, KeyError):
                break
            offset = end + 1
            good = offset
        if good != len(raw):
            # Torn tail from a crash: drop it so appends stay framed.
            with open(self.path, "r+b") as fh:
                fh.truncate(good)

    def _apply(self, body: str, pending: dict[int, list[ResultTableRow]]) -> None:
        table, sep, fields = body.partition("|")
        if not sep:
            raise ValueError(f"record without table: {body!r}")
        if table == "nodes":
            node_id, props = fields.split(",", 1)
            address, role, last_seen = props.rsplit(";", 2)
            self._apply_node(NodeRecord(int(node_id), address, Role(role),
                                        int(last_seen)))
        elif table == "results":
            cycle, mode, key, count, committed_at = fields.split(",")
            row = ResultTableRow(int(cycle), mode, key, int(count),
                                 int(committed_at))
            pending.setdefault(row.cycle_id, []).append(row)
        elif table == "commit":
            cycle_str, count_str = fields.split(",")
            cycle, count = int(cycle_str), int(count_str)
            rows = pending.pop(cycle, [])
            if len(rows) != count:
                raise ValueError(f"commit marker for cycle {cycle} mismatched")
            # commit_results' rule: the first marker of a cycle wins, and
            # a later one is skipped with its rows.
            if cycle not in self._cycles:
                self._apply_results(cycle, rows)
        else:
            raise ValueError(f"unknown table {table!r}")

    def _apply_results(self, cycle: int, rows: list[ResultTableRow]) -> None:
        """Make one committed cycle's rows visible, acks included."""
        acks = [(int(r.key.removeprefix("node")), r.count)
                for r in rows if r.mode == "ack"]
        self._cycles[cycle] = sorted(rows, key=lambda r: (r.mode, r.key))
        for origin, seq in acks:
            if seq > self._acks.get(origin, -1):
                self._acks[origin] = seq

    def _demotions(self, record: NodeRecord) -> list[NodeRecord]:
        """The rows a LEADER record demotes: every other leader row."""
        if record.role is not Role.LEADER:
            return []
        return [NodeRecord(other.node_id, other.address, Role.FOLLOWER,
                           other.last_seen)
                for other in self._nodes.values()
                if other.role is Role.LEADER
                and other.node_id != record.node_id]

    def _apply_node(self, record: NodeRecord) -> None:
        # The same rule on write and on replay, so the table holds one
        # leader even where the journal holds two consecutive claims.
        for row in self._demotions(record) + [record]:
            self._nodes[row.node_id] = row

    # -- node table ---------------------------------------------------------

    def node(self, node_id: int) -> Optional[NodeRecord]:
        """One registry row, or None if the id never registered."""
        with self._lock:
            return self._nodes.get(node_id)

    def upsert_node(self, record: NodeRecord) -> None:
        """Insert or update one registry row: a heartbeat.

        The row is journaled before return but not fsync'd: it becomes
        durable with the next synced append or compaction.
        """
        self._write_nodes([record], sync=False)

    def upsert_nodes(self, records: Iterable[NodeRecord]) -> None:
        """Atomic batch upsert; durable before return."""
        self._write_nodes(records, sync=True)

    def _write_nodes(self, records: Iterable[NodeRecord], *,
                     sync: bool) -> None:
        # Demotions are journaled before the claim in the same append,
        # so a torn claim still leaves no leader behind.
        with self._lock:
            rows = [row for record in records
                    for row in self._demotions(record) + [record]]
            self._append([self._node_body(row) for row in rows], sync=sync)
            for row in rows:
                self._apply_node(row)
            self._maybe_compact()

    @staticmethod
    def _node_body(record: NodeRecord) -> str:
        return (f"nodes|{record.node_id},{record.address};"
                f"{record.role.value};{record.last_seen}")

    @staticmethod
    def _result_body(row: ResultTableRow) -> str:
        return (f"results|{row.cycle_id},{row.mode},{row.key},{row.count},"
                f"{row.committed_at}")

    def snapshot_nodes(self) -> tuple[NodeRecord, ...]:
        """Every registry row, sorted by node id."""
        with self._lock:
            return tuple(self._nodes[i] for i in sorted(self._nodes))

    # -- results table ------------------------------------------------------

    def commit_results(self, result: CycleResult, *, committed_at: int,
                       acks: Optional[Mapping[int, int]] = None
                       ) -> list[ResultTableRow]:
        """Atomically commit one cycle's rows; durable before return.

        A cycle commits once: any second commit of it, identical or
        not, raises ConflictingCommit and writes nothing.
        """
        rows = rows_for_result(result, committed_at, acks)
        with self._lock:
            if result.cycle_id in self._cycles:
                raise ConflictingCommit(
                    f"cycle {result.cycle_id} is already committed")
            bodies = [self._result_body(row) for row in rows]
            bodies.append(f"commit|{result.cycle_id},{len(rows)}")
            self._append(bodies)
            self._apply_results(result.cycle_id, rows)
            self._maybe_compact()
            return self.rows_for_cycle(result.cycle_id)

    def rows_for_cycle(self, cycle_id: int) -> list[ResultTableRow]:
        with self._lock:
            return list(self._cycles.get(cycle_id, ()))

    def committed_cycles(self) -> list[int]:
        with self._lock:
            return sorted(self._cycles)

    def ack_watermarks(self) -> dict[int, int]:
        """Highest committed read sequence per origin node."""
        with self._lock:
            return dict(self._acks)

    def totals(self, mode: str) -> dict[str, int]:
        """Aggregate committed counts for one mode across all cycles."""
        out: dict[str, int] = {}
        with self._lock:
            for rows in self._cycles.values():
                for row in rows:
                    if row.mode == mode:
                        out[row.key] = out.get(row.key, 0) + row.count
        return out

    # -- maintenance ----------------------------------------------------

    def _maybe_compact(self) -> None:
        self._writes_since_compact += 1
        if self._writes_since_compact >= self.COMPACT_EVERY:
            self.compact()

    def compact(self) -> None:
        """Rewrite the journal as a snapshot of current state."""
        with self._lock:
            bodies = [self._node_body(r)
                      for _, r in sorted(self._nodes.items())]
            for cycle in sorted(self._cycles):
                bodies += map(self._result_body, self._cycles[cycle])
                bodies.append(f"commit|{cycle},{len(self._cycles[cycle])}")
            tmp_path = self.path + ".compact"
            try:
                with open(tmp_path, "wb") as tmp:
                    for body in bodies:
                        tmp.write(self._frame(body))
                    tmp.flush()
                    os.fsync(tmp.fileno())
                self._fh.close()
                os.replace(tmp_path, self.path)
                self._fh = open(self.path, "ab")
            except OSError as exc:
                raise StorageFailure(str(exc)) from exc
            self._writes_since_compact = 0

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass

    def __enter__(self) -> "JournalStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
