"""Per-node protocol state machine and the cycle pipeline.

Every node runs the same loop on an absolute slot grid: cycle k spans
[k*D, (k+1)*D) where D is the cycle duration.  Collection occupies the
slot up to D - W (W = the processing window); the remaining W covers
submission, dispatch, reduction, merge, commit and broadcast.  At each
slot boundary a node refreshes its registration, checks who should
lead (manual override if live, else the highest live id), verifies
that node with a PING round trip, and elects a replacement when the
check fails.  The leader is a logical client of itself: its own
readings enter consolidation like anyone else's.

Readings buffer locally with a per-node sequence number and leave the
buffer only when a CYCLE_SUCCESS acknowledges their sequence.  The
leader persists per-origin sequence watermarks inside each commit, so
resubmissions after lost acknowledgments or a leader change are
deduplicated against the store, never counted twice.
"""

from __future__ import annotations

import bisect
import collections
import enum
import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from crowdmw import election
from crowdmw.domain import (
    INTERN_LIMIT,
    TAG_KEYS,
    CountMode,
    KeyValuePair,
    MiddlewareError,
    SensorReading,
    TagCategory,
    room_key,
)
from crowdmw.mapreduce import (
    MAX_PAIR_COUNT,
    CycleResult,
    PartialResult,
    Segment,
    crc64,
    # Unused here; bound for the benchmark's tracer, which wraps it by
    # this module's name.
    derive_room_segment,
    merge_partials,
    # Unused here; bound for the benchmark's tracer, which wraps it by
    # this module's name.
    parse_pairs,
    parse_runs,
    partition,
    reduce_segment,
    room_counts,
    serialize_runs,
    # Unused here; bound for the benchmark's tracer, which wraps it by
    # this module's name.
    sort_pairs,
)
from crowdmw.simgen import dedupe_readings
from crowdmw.store import ConflictingCommit
from crowdmw.transport import (
    MAX_PAYLOAD,
    Message,
    MessageKind,
)

NodeId = int

# One run: a visitor pair and the sequences of its readings.
Run = tuple[KeyValuePair, list[int]]

_FIRST = operator.itemgetter(0)
_SECOND = operator.itemgetter(1)
_PAIR_ORDER = operator.attrgetter("key", "value")


class CycleAborted(MiddlewareError):
    """Cycle could not commit; buffers stay put for the next one."""


class IntegrityFailure(MiddlewareError):
    """The partials' pair counts do not cover the dispatched segments."""


@dataclass
class CycleConfig:
    """Timing and participation knobs for the cycle protocol."""

    cycle_duration_ms: int = 2000
    mapreduce_window_ms: int = 500
    min_responding_nodes: int = 2
    ping_timeout_ms: int = 250
    ping_retries: int = 2

    def __post_init__(self) -> None:
        if self.cycle_duration_ms < 1:
            raise ValueError("cycle_duration_ms must be >= 1")
        if not 0 < self.mapreduce_window_ms < self.cycle_duration_ms:
            raise ValueError(
                "mapreduce_window_ms must fall inside the cycle duration"
            )
        if self.min_responding_nodes < 2:
            raise ValueError("min_responding_nodes must be >= 2")
        if self.ping_timeout_ms < 1 or self.ping_retries < 1:
            raise ValueError("ping timeout and retries must be >= 1")

    # Derived schedule, all relative to the slot start.
    @property
    def collection_ms(self) -> int:
        return self.cycle_duration_ms - self.mapreduce_window_ms

    @property
    def submit_window_ms(self) -> int:
        return self.mapreduce_window_ms * 2 // 5

    @property
    def reduce_window_ms(self) -> int:
        return self.mapreduce_window_ms * 4 // 5

    @property
    def liveness_window_ms(self) -> int:
        # A record is live while seen within two check intervals.
        return 2 * self.cycle_duration_ms


class NodePhase(enum.Enum):
    REGISTERING = "registering"
    CHECKING_SERVER = "checking_server"
    ELECTING = "electing"
    COLLECTING = "collecting"
    SUBMITTING = "submitting"
    AWAITING_SEGMENT = "awaiting_segment"
    REDUCING = "reducing"
    AWAITING_RESULT = "awaiting_result"
    CONSOLIDATING = "consolidating"
    DISPATCHING = "dispatching"
    MERGING = "merging"
    COMMITTING = "committing"
    BROADCASTING = "broadcasting"


_P = NodePhase
PHASE_EDGES: dict[NodePhase, frozenset[NodePhase]] = {
    _P.REGISTERING: frozenset({_P.CHECKING_SERVER}),
    _P.CHECKING_SERVER: frozenset(
        {_P.CHECKING_SERVER, _P.ELECTING, _P.COLLECTING}
    ),
    _P.ELECTING: frozenset({_P.COLLECTING, _P.CHECKING_SERVER}),
    _P.COLLECTING: frozenset({_P.SUBMITTING, _P.CHECKING_SERVER}),
    _P.SUBMITTING: frozenset(
        {_P.AWAITING_SEGMENT, _P.CONSOLIDATING, _P.CHECKING_SERVER}
    ),
    _P.AWAITING_SEGMENT: frozenset({_P.REDUCING, _P.CHECKING_SERVER}),
    _P.REDUCING: frozenset({_P.AWAITING_RESULT, _P.CHECKING_SERVER}),
    _P.AWAITING_RESULT: frozenset({_P.CHECKING_SERVER}),
    _P.CONSOLIDATING: frozenset(
        {_P.DISPATCHING, _P.BROADCASTING, _P.CHECKING_SERVER}
    ),
    _P.DISPATCHING: frozenset({_P.MERGING, _P.CHECKING_SERVER}),
    _P.MERGING: frozenset(
        {_P.COMMITTING, _P.BROADCASTING, _P.CHECKING_SERVER}
    ),
    _P.COMMITTING: frozenset({_P.BROADCASTING, _P.CHECKING_SERVER}),
    _P.BROADCASTING: frozenset({_P.CHECKING_SERVER}),
}


# ---------------------------------------------------------------------------
# Client-side reading buffer.
# ---------------------------------------------------------------------------


# A reading's visitor pair as (key, value): tuples that sort in the
# canonical pair order.
_VISITOR_KEY = operator.attrgetter("tag._value_", "room")


class ClientBuffer:
    """Readings awaiting a committed cycle, as runs of sequences.

    Each pending visitor pair, as (key, value), keeps its ascending
    sequences, filled once at ingest; the readings themselves are not
    kept, since only their pairs are ever submitted.  ``runs()`` is
    what a node submits, in canonical pair order.  Double reads (same
    tag, room and timestamp) collapse within one ingest batch, never
    across batches.
    """

    def __init__(self) -> None:
        self._seqs: collections.defaultdict[tuple[str, int], list[int]] = (
            collections.defaultdict(list))
        self.next_seq = 0
        self.committed_through = -1

    def __len__(self) -> int:
        return sum(map(len, self._seqs.values()))

    def ingest(self, readings: Iterable[SensorReading]
               ) -> list[tuple[int, SensorReading]]:
        """Append deduplicated readings, assigning dense sequences.

        A double read shares its original's timestamp, so in a batch in
        time order, as ``ListReadingSource.take_due`` returns it, a
        reading is compared only with those kept at its timestamp.
        From a batch's first reading out of time order on, the rest
        goes through ``dedupe_readings`` after the readings kept so
        far: any order keeps what deduplicating the whole batch keeps.
        """
        seqs = self._seqs
        added: list[tuple[int, SensorReading]] = []
        seq = self.next_seq
        stamp = -1
        # Visitor keys kept at timestamp ``stamp``.
        at_stamp: list[tuple[str, int]] = []
        readings = iter(readings)
        for reading in readings:
            key = _VISITOR_KEY(reading)
            timestamp = reading.timestamp
            if timestamp == stamp:
                if key in at_stamp:
                    continue
                at_stamp.append(key)
            elif timestamp > stamp:
                stamp = timestamp
                at_stamp = [key]
            else:
                readings = itertools.chain((reading,), readings)
                break
            seqs[key].append(seq)
            added.append((seq, reading))
            seq += 1
        else:
            self.next_seq = seq
            return added
        kept = [reading for _, reading in added]
        for reading in dedupe_readings(
                itertools.chain(kept, readings))[len(kept):]:
            seqs[_VISITOR_KEY(reading)].append(seq)
            added.append((seq, reading))
            seq += 1
        self.next_seq = seq
        return added

    def runs(self) -> list[Run]:
        """Pending runs in canonical pair order.

        The sequence lists are the buffer's own: the next ingest
        appends to them, a prune replaces them.
        """
        return [(KeyValuePair(*key), self._seqs[key])
                for key in sorted(self._seqs)]

    def entries(self) -> list[tuple[KeyValuePair, int]]:
        """Pending readings as sorted visitor pairs with sequences."""
        return list(itertools.chain.from_iterable(
            zip(itertools.repeat(pair), seqs) for pair, seqs in self.runs()
        ))

    def prune_through(self, seq: int) -> int:
        """Drop readings covered by a committed watermark.

        A watermark past the highest sequence issued is clamped to it,
        so a forged ack cannot stop later ones from pruning.
        """
        seq = min(seq, self.next_seq - 1)
        if seq <= self.committed_through:
            return 0
        dropped = 0
        for key, seqs in list(self._seqs.items()):
            cut = bisect.bisect_right(seqs, seq)
            dropped += cut
            if cut == len(seqs):
                del self._seqs[key]
            elif cut:
                self._seqs[key] = seqs[cut:]
        self.committed_through = seq
        return dropped


class ListReadingSource:
    """Reading source backed by a pre-routed (time, reading) list."""

    def __init__(self, timed: Iterable[tuple[float, SensorReading]]) -> None:
        self._timed = sorted(timed, key=_FIRST)
        self._cursor = 0

    def take_due(self, now_ms: float) -> list[SensorReading]:
        """Readings due by ``now_ms``, in time order.

        Equal times keep their order in the routed list (the sort is
        stable).  The harness routes each reading at its timestamp, so
        a batch is in timestamp order: ``ClientBuffer.ingest`` relies
        on that to compare a reading only with those at its timestamp
        (any other order gives the same result, more slowly).
        """
        start = self._cursor
        self._cursor = bisect.bisect_right(self._timed, now_ms, start,
                                           key=_FIRST)
        return list(map(_SECOND, self._timed[start:self._cursor]))

    def remaining(self) -> list[tuple[float, SensorReading]]:
        return self._timed[self._cursor:]

    def injected_count(self) -> int:
        return len(self._timed)


# ---------------------------------------------------------------------------
# Wire payload grammar (text, field=value separated by ';').
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=INTERN_LIMIT)
def _entry_pair(body: str) -> KeyValuePair:
    """The shared pair for an entry's ``key=value`` text."""
    key, eq, value = body.partition("=")
    if not eq:
        raise ValueError(f"malformed entry: {body!r}")
    return KeyValuePair(key, int(value))


def _parse_entries(text: str) -> list[Run]:
    """``key=value@seq`` entries as runs of neighbours with one body.

    An entry without ``@`` splits into an empty body, which
    ``_entry_pair`` refuses like any other malformed body.
    """
    runs: list[Run] = []
    last = None
    for item in text.split(",") if text else ():
        body, _, seq = item.rpartition("@")
        if body == last:
            runs[-1][1].append(int(seq))
        else:
            runs.append((_entry_pair(body), [int(seq)]))
            last = body
    return runs


def _parse_fields(payload: bytes) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in payload.decode("utf-8").split(";"):
        name, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"malformed payload field: {chunk!r}")
        fields[name] = value
    return fields


def _chunk(text: str, budget: int, max_items: Optional[int]) -> list[str]:
    """Greedy split of comma-joined items into parts of whole items.

    A part takes items while its text fits ``budget`` characters and
    it holds at most ``max_items``; an item over the budget goes alone,
    and empty text makes one empty part.  With a comma appended, every
    item ends at a comma: a part ends at its ``max_items``-th, or at
    the last one the budget reaches if sooner (else the first).
    """
    cap = None if max_items is None else max(max_items, 1)
    text += ","
    last = len(text) - 1
    parts = []
    start = 0
    while start <= last:
        stop = last
        if cap is not None:
            stop = start - 1
            for _ in range(cap):
                stop = text.find(",", stop + 1)
                if stop == last:
                    break
        if stop - start > budget:
            stop = text.rfind(",", start, start + budget + 1)
            if stop < 0:
                stop = text.find(",", start)
        parts.append(text[start:stop])
        start = stop + 1
    return parts


def _parts(kind: MessageKind, sender: NodeId, cycle_id: int, head: str,
           field: str, text: str, max_items: Optional[int] = None
           ) -> list[Message]:
    """``text`` split at items into ``{head}part=i/n;{field}=...`` datagrams.

    The headroom reserves four digits each for i and n, so every part
    fits ``MAX_PAYLOAD`` once its header is written.
    """
    headroom = len(f"{head}part=9999/9999;{field}=")
    chunks = _chunk(text, MAX_PAYLOAD - headroom, max_items)
    return [Message(kind=kind, sender=sender, cycle_id=cycle_id,
                    payload=(f"{head}part={index}/{len(chunks)};"
                             f"{field}={chunk}").encode("utf-8"))
            for index, chunk in enumerate(chunks)]


def build_submission_parts(origin: NodeId, cycle_id: int,
                           runs: Iterable[Run],
                           max_entries_per_part: Optional[int] = None
                           ) -> list[Message]:
    """Encode a submission, split so every datagram stays legal.

    Each run is written with one join around its ``key=value@``
    prefix; a run without sequences writes nothing.
    """
    texts = []
    for pair, seqs in runs:
        if seqs:
            prefix = f"{pair.key}={pair.value}@"
            texts.append(prefix + f",{prefix}".join(map(str, seqs)))
    return _parts(MessageKind.DATA_SUBMIT, origin, cycle_id,
                  f"origin={origin};", "entries", ",".join(texts),
                  max_entries_per_part)


def build_assignment_parts(sender: NodeId, cycle_id: int,
                           segment: Segment) -> list[Message]:
    """Encode an assignment: the segment's run text, split at items."""
    return _parts(MessageKind.SEGMENT_ASSIGN, sender, cycle_id,
                  f"segment={segment.segment_index};"
                  f"count={segment.pair_count};"
                  f"checksum={segment.checksum:016x};", "pairs",
                  serialize_runs(segment.runs))


def _serialize_aggregates(aggregates: dict[str, int]) -> str:
    return ",".join(f"{k}:{aggregates[k]}" for k in sorted(aggregates))


def _parse_aggregates(text: str) -> dict[str, int]:
    if not text:
        return {}
    out: dict[str, int] = {}
    for item in text.split(","):
        key, sep, count = item.partition(":")
        if not sep:
            raise ValueError(f"malformed aggregate: {item!r}")
        out[key] = int(count)
    return out


def build_reduce_result(sender: NodeId, cycle_id: int, segment_index: int,
                        segment_checksum: int,
                        visitor: dict[str, int], room: dict[str, int],
                        input_pair_count: int) -> Message:
    body = (
        f"segment={segment_index};count={input_pair_count};"
        f"checksum={segment_checksum:016x};"
        f"visitor={_serialize_aggregates(visitor)};"
        f"room={_serialize_aggregates(room)}"
    )
    digest = crc64(body.encode("utf-8"))
    payload = f"{body};digest={digest:016x}"
    return Message(kind=MessageKind.REDUCE_RESULT, sender=sender,
                   cycle_id=cycle_id, payload=payload.encode("utf-8"))


def parse_reduce_result(message: Message) -> Optional[dict]:
    """Validate a REDUCE_RESULT payload; None if malformed or corrupt."""
    try:
        text = message.payload.decode("utf-8")
        body, sep, digest_field = text.rpartition(";digest=")
        if not sep or crc64(body.encode("utf-8")) != int(digest_field, 16):
            return None
        fields = _parse_fields(body.encode("utf-8"))
        return {
            "segment": int(fields["segment"]),
            "count": int(fields["count"]),
            "checksum": int(fields["checksum"], 16),
            "visitor": _parse_aggregates(fields["visitor"]),
            "room": _parse_aggregates(fields["room"]),
        }
    except (ValueError, KeyError, UnicodeDecodeError):
        return None


def build_success(sender: NodeId, cycle_id: int,
                  acks: dict[NodeId, int]) -> Message:
    text = ",".join(f"{origin}:{acks[origin]}" for origin in sorted(acks))
    return Message(kind=MessageKind.CYCLE_SUCCESS, sender=sender,
                   cycle_id=cycle_id,
                   payload=f"acks={text}".encode("utf-8"))


def parse_success_acks(message: Message) -> dict[NodeId, int]:
    fields = _parse_fields(message.payload)
    acks: dict[NodeId, int] = {}
    raw = fields.get("acks", "")
    if raw:
        for item in raw.split(","):
            origin, sep, seq = item.partition(":")
            if not sep:
                raise ValueError(f"malformed ack: {item!r}")
            acks[int(origin)] = int(seq)
    return acks


# ---------------------------------------------------------------------------
# Pure cycle pipeline, also used by the live leader path.
# ---------------------------------------------------------------------------


def integrity_check(segments: Sequence[Segment],
                    partials: Sequence[PartialResult]) -> bool:
    """Conservation check: partial input counts cover the dispatch."""
    by_assignee = {s.assignee: s for s in segments}
    if len(by_assignee) != len(segments):
        return False
    seen: set[NodeId] = set()
    for partial in partials:
        segment = by_assignee.get(partial.assignee)
        if segment is None or partial.assignee in seen:
            return False
        seen.add(partial.assignee)
        if partial.input_pair_count != segment.pair_count:
            return False
    if seen != set(by_assignee):
        return False
    total = sum(s.pair_count for s in segments)
    return sum(p.input_pair_count for p in partials) == total


def consolidate_runs(submissions: Iterable[tuple[NodeId, Iterable[Run]]],
                     watermarks: Mapping[NodeId, int]
                     ) -> tuple[list[KeyValuePair], dict[NodeId, int]]:
    """Sorted pairs of the entries above each origin's watermark, and acks.

    An origin's ack is its highest sequence above the watermark, else
    the watermark; it has none when both are missing.  A run is counted
    on a sorted copy of its sequences, so unsorted or repeated ones off
    the wire still count one pair per entry.  Counts are keyed by the
    pair's (key, value), whose order is the canonical pair order.
    """
    counts: dict[tuple[str, int], list] = {}
    acks: dict[NodeId, int] = {}
    for origin, runs in submissions:
        top = watermark = watermarks.get(origin, -1)
        for pair, seqs in runs:
            ordered = sorted(seqs)
            fresh = len(ordered) - bisect.bisect_right(ordered, watermark)
            if fresh:
                key = _PAIR_ORDER(pair)
                if key in counts:
                    counts[key][1] += fresh
                else:
                    counts[key] = [pair, fresh]
                if ordered[-1] > top:
                    top = ordered[-1]
        if top >= 0:
            acks[origin] = top
    consolidated: list[KeyValuePair] = []
    for key in sorted(counts):
        pair, count = counts[key]
        consolidated += [pair] * count
    return consolidated, acks


def _reduce_both(segment: Segment) -> tuple[PartialResult, PartialResult]:
    """Reduce one visitor-keyed segment in both modes.

    Every caller holds a segment whose pairs match its checksum: the
    leader built it, or the follower checked the wire text's checksum
    and parsed it in canonical form.  So it is not checksummed again,
    and room counts, which never leave the node, are derived from the
    same runs.
    """
    visitor = reduce_segment(segment, CountMode.VISITOR, verified=True)
    room = PartialResult(
        assignee=segment.assignee, mode=CountMode.ROOM,
        aggregates={room_key(room): count
                    for room, count in room_counts(segment.runs)},
        input_pair_count=visitor.input_pair_count,
    )
    return visitor, room


def reduce_check_merge(cycle_id: int, segments: Sequence[Segment],
                       remote: Mapping[int, tuple[PartialResult,
                                                  PartialResult]],
                       modes: Sequence[CountMode]) -> CycleResult:
    """Reduce, check and merge one cycle's segments.

    A segment takes the (visitor, room) partials stored for its index
    in ``remote``; any other segment is reduced here.  Raises
    IntegrityFailure when the partials' pair counts do not cover the
    segments.
    """
    partials = [remote[s.segment_index] if s.segment_index in remote
                else _reduce_both(s) for s in segments]
    visitor_partials = [visitor for visitor, _ in partials]
    if not integrity_check(segments, visitor_partials):
        raise IntegrityFailure("pair-count conservation failed")
    visitor_aggregates: dict[TagCategory, int] = {}
    room_aggregates: dict[int, int] = {}
    if CountMode.VISITOR in modes:
        merged, _ = merge_partials(visitor_partials, CountMode.VISITOR)
        visitor_aggregates = {
            tag: merged[tag.value]
            for tag in TagCategory if tag.value in merged
        }
    if CountMode.ROOM in modes:
        merged, _ = merge_partials([room for _, room in partials],
                                   CountMode.ROOM)
        room_aggregates = {
            int(key.removeprefix("Room")): value
            for key, value in merged.items()
        }
    return CycleResult(cycle_id=cycle_id,
                       visitor_aggregates=visitor_aggregates,
                       room_aggregates=room_aggregates,
                       total_readings=sum(s.pair_count for s in segments))


def leader_cycle(submissions: Sequence[tuple[NodeId, Sequence[KeyValuePair]]],
                 *, cycle_id: int = 0, min_responding: int = 2,
                 modes: Sequence[CountMode] = (CountMode.VISITOR,
                                               CountMode.ROOM)
                 ) -> CycleResult:
    """Run one full cycle pipeline over collected submissions.

    ``submissions`` holds one (origin, visitor pairs) entry per
    responding node; a node that sent no data still counts as
    responding with an empty list.  The pairs go through the live
    leader's own steps: each is a one-entry run for ``consolidate_runs``
    (with no watermarks), then ``partition`` and ``reduce_check_merge``
    with every segment reduced here.  Raises CycleAborted when fewer
    than ``min_responding`` distinct nodes responded.
    """
    origins = {origin for origin, _ in submissions}
    if len(origins) < min_responding:
        raise CycleAborted(
            f"{len(origins)} responding nodes, need {min_responding}"
        )
    consolidated, _ = consolidate_runs(
        ((origin, [(pair, [0]) for pair in pairs])
         for origin, pairs in submissions), {})
    return reduce_check_merge(cycle_id, partition(consolidated, origins),
                              {}, modes)


# ---------------------------------------------------------------------------
# The node actor.
# ---------------------------------------------------------------------------

_TIMER_PRIORITY = {"ping": 0, "slot": 1, "collect": 2, "consolidate": 3,
                   "reduce": 4}

# Event-line names, so logging a datagram skips the enum descriptors.
_KIND_NAMES = {kind: kind.name.lower() for kind in MessageKind}

# Kinds a node acts on only from its confirmed leader's address.
_FROM_LEADER = frozenset({MessageKind.SEGMENT_ASSIGN,
                          MessageKind.CYCLE_SUCCESS, MessageKind.CYCLE_ABORT})


@dataclass
class _SubmissionParts:
    total: int
    parts: dict[int, list[Run]] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.parts) == self.total

    def runs(self) -> list[Run]:
        return [run for index in sorted(self.parts)
                for run in self.parts[index]]


@dataclass
class _AssignmentParts:
    segment_index: int
    count: int
    checksum: int
    total: int
    parts: dict[int, str] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.parts) == self.total

    def text(self) -> str:
        return ",".join(
            self.parts[i] for i in sorted(self.parts) if self.parts[i]
        )


class Node:
    """One middleware node: event-driven, single logical actor.

    Drive it by calling ``on_message`` and ``advance``; ``next_deadline``
    exposes the earliest pending timer so a driver (simulated cluster
    or blocking loop) knows how long it may wait.
    """

    def __init__(self, node_id: NodeId, config: CycleConfig, endpoint,
                 store, reading_source=None, *,
                 rng: Optional[random.Random] = None,
                 override: Optional[NodeId] = None,
                 event_sink: Optional[Callable[[str], None]] = None,
                 max_entries_per_part: Optional[int] = None,
                 modes: Sequence[CountMode] = (CountMode.VISITOR,
                                               CountMode.ROOM)) -> None:
        if node_id < 1:
            raise ValueError("node id must be positive")
        if not modes:
            raise ValueError("need at least one counting mode")
        self.node_id = node_id
        self.config = config
        self.endpoint = endpoint
        self.store = store
        self.source = reading_source
        self.rng = rng if rng is not None else random.Random()
        self.override = override
        self.event_sink = event_sink
        self.max_entries_per_part = max_entries_per_part
        self.modes = tuple(modes)

        self.phase = NodePhase.REGISTERING
        self.buffer = ClientBuffer()
        self.killed = False
        self.cycle_id = -1
        self.slot_start = 0.0
        self.slots_entered = 0
        self.commits = 0
        self.aborts = 0
        self.dedupe_dropped = 0
        self.ingest_listener: Optional[Callable[
            [NodeId, list[tuple[int, SensorReading]]], None]] = None

        self._timers: dict[str, float] = {}
        self._leader_id: Optional[NodeId] = None
        self._leader_address: Optional[str] = None
        self._is_leader = False
        self._check_target: Optional[tuple[NodeId, str]] = None
        self._check_attempts = 0
        self._pending_nonce: Optional[bytes] = None
        self._excluded: set[NodeId] = set()

        # Leader-side per-slot state.
        self._submissions: dict[NodeId, _SubmissionParts] = {}
        # Registry address per node id, as of the claim and the
        # collection end: a submission counts only from its origin's.
        self._origin_addresses: dict[NodeId, str] = {}
        self._expected_origins: set[NodeId] = set()
        self._segments: list[Segment] = []
        # Address each remote segment was dispatched to, by index: a
        # partial counts only from its assignee's.
        self._assignee_addresses: dict[int, str] = {}
        self._remote_partials: dict[
            int, tuple[PartialResult, PartialResult]] = {}
        self._new_acks: dict[NodeId, int] = {}
        self._watermarks: dict[NodeId, int] = {}

        # Follower-side per-slot state.
        self._assignments: dict[int, _AssignmentParts] = {}

    # -- plumbing -------------------------------------------------------

    def _log(self, now: float, text: str) -> None:
        if self.event_sink is not None:
            self.event_sink(f"t={now:.3f} node={self.node_id} {text}")

    def _transition(self, now: float, new_phase: NodePhase) -> None:
        if new_phase not in PHASE_EDGES[self.phase]:
            raise MiddlewareError(
                f"illegal phase transition {self.phase.value} -> "
                f"{new_phase.value}"
            )
        self._log(now, f"phase from={self.phase.value} to={new_phase.value} "
                       f"cycle={self.cycle_id}")
        self.phase = new_phase

    def _send(self, now: float, dest: str, message: Message) -> None:
        self.endpoint.send(dest, message)
        self._log(now, f"send kind={_KIND_NAMES[message.kind]} to={dest} "
                       f"cycle={message.cycle_id} "
                       f"bytes={len(message.payload)}")

    def _arm(self, tag: str, due: float) -> None:
        self._timers[tag] = due

    def _disarm(self, tag: str) -> None:
        self._timers.pop(tag, None)

    def next_deadline(self) -> Optional[float]:
        if self.killed or not self._timers:
            return None
        return min(self._timers.values())

    def kill(self) -> None:
        self.killed = True
        self._timers.clear()
        if hasattr(self.endpoint, "close"):
            self.endpoint.close()

    # -- membership --------------------------------------------------------

    def _live(self, now: float) -> dict[NodeId, str]:
        """Live registrations as {node id: address}, in node-id order."""
        records = election.live_records(self.store.snapshot_nodes(),
                                        self.config.liveness_window_ms,
                                        int(now))
        return {record.node_id: record.address for record in records}

    def _broadcast(self, now: float, message: Message,
                   live: Mapping[NodeId, str]) -> None:
        """Send ``message`` to every other node in ``live``, in its order."""
        for node_id, address in live.items():
            if node_id != self.node_id:
                self._send(now, address, message)

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float) -> None:
        """Register and join the current slot."""
        election.register_node(self.store, self.node_id,
                               self.endpoint.address, int(now),
                               self.config.liveness_window_ms)
        self._log(now, "start")
        self._enter_slot(now)

    def advance(self, now: float) -> None:
        """Fire every timer due at or before now, one at a time."""
        if self.killed:
            return
        while True:
            due = [
                (when, _TIMER_PRIORITY[tag], tag)
                for tag, when in self._timers.items() if when <= now
            ]
            if not due:
                return
            due.sort()
            _, _, tag = due[0]
            del self._timers[tag]
            self._on_timer(tag, now)
            if self.killed:
                return

    def _on_timer(self, tag: str, now: float) -> None:
        if tag == "slot":
            self._enter_slot(now)
        elif tag == "collect":
            self._collection_end(now)
        elif tag == "ping":
            self._ping_timeout(now)
        elif tag == "consolidate":
            self._consolidate(now)
        elif tag == "reduce":
            self._finish_cycle(now)

    # -- slot boundary -------------------------------------------------

    def _enter_slot(self, now: float) -> None:
        duration = self.config.cycle_duration_ms
        self.cycle_id = int(now // duration)
        self.slot_start = self.cycle_id * float(duration)
        self.slots_entered += 1
        self._arm("slot", self.slot_start + duration)
        self._disarm("ping")
        self._disarm("consolidate")
        self._disarm("reduce")
        collect_at = self.slot_start + self.config.collection_ms
        if collect_at > now:
            self._arm("collect", collect_at)

        # Per-slot state resets.
        self._excluded = set()
        self._submissions = {}
        self._expected_origins = set()
        self._segments = []
        self._assignee_addresses = {}
        self._remote_partials = {}
        self._new_acks = {}
        self._assignments = {}
        self._is_leader = False
        self._check_target = None
        self._pending_nonce = None

        self._transition(now, NodePhase.CHECKING_SERVER)
        election.register_node(self.store, self.node_id,
                               self.endpoint.address, int(now),
                               self.config.liveness_window_ms)
        self._resolve_leadership(now)

    def _resolve_leadership(self, now: float) -> None:
        """Elect among the live ids not excluded; verify or claim.

        This node registered at the slot start and is never excluded,
        so there is always a candidate.
        """
        live = self._live(now)
        expected = election.elect_leader(live.keys() - self._excluded,
                                         self.override)
        if expected == self.node_id:
            self._claim(now, live)
            return
        self._check_target = (expected, live[expected])
        self._check_attempts = 0
        self._send_ping(now)

    def _send_ping(self, now: float) -> None:
        assert self._check_target is not None
        target_id, address = self._check_target
        self._pending_nonce = election.make_nonce(self.rng)
        self._check_attempts += 1
        self._send(now, address, Message(
            kind=MessageKind.PING, sender=self.node_id,
            cycle_id=max(self.cycle_id, 0), payload=self._pending_nonce,
        ))
        self._arm("ping", now + self.config.ping_timeout_ms)

    def _ping_timeout(self, now: float) -> None:
        if self._check_target is None:
            return
        if self._check_attempts < self.config.ping_retries:
            self._send_ping(now)
            return
        # Target looked live in the registry but does not answer:
        # exclude it and re-elect among the rest.
        target_id, _ = self._check_target
        self._excluded.add(target_id)
        self._log(now, f"unreachable node={target_id} cycle={self.cycle_id}")
        if self.phase is not NodePhase.ELECTING:
            self._transition(now, NodePhase.ELECTING)
        self._resolve_leadership(now)

    def _claim(self, now: float, live: dict[NodeId, str]) -> None:
        """Become leader for this slot and announce it to ``live``."""
        if self.phase is NodePhase.CHECKING_SERVER:
            self._transition(now, NodePhase.ELECTING)
        election.claim_leadership(self.store, self.node_id,
                                  self.endpoint.address, int(now))
        self._is_leader = True
        self._leader_id = self.node_id
        self._leader_address = self.endpoint.address
        self._watermarks.update({
            origin: max(seq, self._watermarks.get(origin, -1))
            for origin, seq in self.store.ack_watermarks().items()
        })
        self._log(now, f"leader_claimed cycle={self.cycle_id}")
        self._origin_addresses = live
        announcement = (
            f"leader={self.node_id};addr={self.endpoint.address}"
        ).encode("utf-8")
        self._broadcast(now, Message(
            kind=MessageKind.REGISTER_ACK, sender=self.node_id,
            cycle_id=max(self.cycle_id, 0), payload=announcement,
        ), live)
        self._transition(now, NodePhase.COLLECTING)

    def _confirm_leader(self, now: float, leader_id: NodeId,
                        address: str) -> None:
        self._leader_id = leader_id
        self._leader_address = address
        self._is_leader = leader_id == self.node_id
        self._disarm("ping")
        self._check_target = None
        self._pending_nonce = None
        if self.phase in (NodePhase.CHECKING_SERVER, NodePhase.ELECTING):
            self._transition(now, NodePhase.COLLECTING)

    # -- collection end --------------------------------------------------

    def _collection_end(self, now: float) -> None:
        if self.source is not None:
            batch = self.source.take_due(now)
            added = self.buffer.ingest(batch)
            self.dedupe_dropped += len(batch) - len(added)
            if batch:
                self._log(
                    now,
                    f"ingest cycle={self.cycle_id} taken={len(batch)} "
                    f"kept={len(added)}",
                )
            if self.ingest_listener is not None:
                self.ingest_listener(self.node_id, added)
        if self.phase is not NodePhase.COLLECTING:
            # Never confirmed a leader this slot; keep buffering.
            return
        if self._is_leader:
            self._transition(now, NodePhase.SUBMITTING)
            submission = _SubmissionParts(total=1,
                                          parts={0: self.buffer.runs()})
            self._submissions[self.node_id] = submission
            self._origin_addresses = self._live(now)
            self._expected_origins = set(self._origin_addresses)
            self._transition(now, NodePhase.CONSOLIDATING)
            self._arm("consolidate", now + self.config.submit_window_ms)
            self._maybe_consolidate_early(now)
        elif self._leader_address is not None:
            self._transition(now, NodePhase.SUBMITTING)
            self._submit(now)
            self._transition(now, NodePhase.AWAITING_SEGMENT)

    def _submit(self, now: float) -> None:
        parts = build_submission_parts(
            self.node_id, self.cycle_id, self.buffer.runs(),
            self.max_entries_per_part,
        )
        for message in parts:
            self._send(now, self._leader_address, message)

    # -- leader path -------------------------------------------------------

    def _on_data_submit(self, message: Message, source: str,
                        now: float) -> None:
        if not self._is_leader or message.cycle_id != self.cycle_id:
            return
        if self.phase not in (NodePhase.COLLECTING, NodePhase.SUBMITTING,
                              NodePhase.CONSOLIDATING):
            return
        try:
            fields = _parse_fields(message.payload)
            origin = int(fields["origin"])
            index_str, total_str = fields["part"].split("/")
            index, total = int(index_str), int(total_str)
            runs = _parse_entries(fields["entries"])
            # A node submits its own readings only, from the address it
            # registered (the header's sender is whatever it claims),
            # and submissions carry visitor pairs: a tag and a room >= 1.
            if not (self._origin_addresses.get(origin) == source
                    and 0 <= index < total and all(
                        pair.key in TAG_KEYS and pair.value > 0
                        for pair, _ in runs)):
                raise ValueError("not a visitor submission part")
        except (ValueError, KeyError):
            self._log(now, f"malformed_submit from={message.sender}")
            return
        submission = self._submissions.get(origin)
        if submission is None or submission.total != total:
            submission = _SubmissionParts(total=total)
            self._submissions[origin] = submission
        fresh = index not in submission.parts
        submission.parts[index] = runs
        # Only a part that completes its submission can complete the
        # expected set; a repeat of a stored part changes nothing.
        if fresh and submission.complete():
            self._maybe_consolidate_early(now)

    def _responding(self) -> list[NodeId]:
        return sorted(
            origin for origin, sub in self._submissions.items()
            if sub.complete()
        )

    def _maybe_consolidate_early(self, now: float) -> None:
        if self.phase is not NodePhase.CONSOLIDATING:
            return
        if self._expected_origins and (
            self._expected_origins <= set(self._responding())
        ):
            self._disarm("consolidate")
            self._consolidate(now)

    def _consolidate(self, now: float) -> None:
        if self.phase is not NodePhase.CONSOLIDATING:
            return
        responding = self._responding()
        if len(responding) < self.config.min_responding_nodes:
            self._abort_cycle(now, "min_responding")
            return
        # Watermark dedupe: drop entries already covered by a commit.
        consolidated, self._new_acks = consolidate_runs(
            ((origin, self._submissions[origin].runs())
             for origin in responding),
            self._watermarks)
        self._segments = partition(consolidated, responding)
        self._assignee_addresses = {}
        self._remote_partials = {}
        self._transition(now, NodePhase.DISPATCHING)
        live = self._live(now)
        for segment in self._segments:
            if segment.assignee == self.node_id:
                continue
            address = live.get(segment.assignee)
            if address is None:
                continue
            self._assignee_addresses[segment.segment_index] = address
            for message in build_assignment_parts(self.node_id,
                                                  self.cycle_id, segment):
                self._send(now, address, message)
        self._transition(now, NodePhase.MERGING)
        self._arm("reduce", now + self.config.reduce_window_ms)
        self._maybe_finish_early(now)

    def _on_reduce_result(self, message: Message, source: str,
                          now: float) -> None:
        if not self._is_leader or message.cycle_id != self.cycle_id:
            return
        if self.phase is not NodePhase.MERGING:
            return
        parsed = parse_reduce_result(message)
        if parsed is None:
            self._log(now, f"corrupt_partial from={message.sender}")
            return
        index = parsed["segment"]
        matching = [s for s in self._segments if s.segment_index == index]
        if not matching or matching[0].checksum != parsed["checksum"]:
            self._log(now, f"stale_partial from={message.sender} "
                           f"segment={index}")
            return
        try:
            # Only the segment's assignee answers, from the address it
            # was dispatched to, and an honest partial counts every pair
            # of its segment; room mode counts one per pair, so its room
            # counts add up to the same count.
            if not (self._assignee_addresses.get(index) == source
                    and parsed["count"] == matching[0].pair_count
                    == sum(parsed["room"].values())):
                raise ValueError("not the segment's partial")
            partials = tuple(
                PartialResult(assignee=matching[0].assignee, mode=mode,
                              aggregates=parsed[mode.value],
                              input_pair_count=parsed["count"])
                for mode in (CountMode.VISITOR, CountMode.ROOM)
            )
        except ValueError:
            self._log(now, f"corrupt_partial from={message.sender}")
            return
        self._remote_partials[index] = partials
        self._maybe_finish_early(now)

    def _missing_partials(self) -> list[int]:
        """Indices of the remote segments with no partial stored yet."""
        return [s.segment_index for s in self._segments
                if s.assignee != self.node_id
                and s.segment_index not in self._remote_partials]

    def _maybe_finish_early(self, now: float) -> None:
        if not self._missing_partials():
            self._disarm("reduce")
            self._finish_cycle(now)

    def _finish_cycle(self, now: float) -> None:
        if self.phase is not NodePhase.MERGING:
            return
        missing = self._missing_partials()
        for index in missing:
            self._log(now, f"fallback_reduce segment={index}")
        try:
            result = reduce_check_merge(self.cycle_id, self._segments,
                                        self._remote_partials, self.modes)
        except IntegrityFailure:
            self._abort_cycle(now, "integrity")
            return
        self._transition(now, NodePhase.COMMITTING)
        try:
            rows = self.store.commit_results(result,
                                             committed_at=int(now),
                                             acks=self._new_acks)
        except ConflictingCommit:
            # Another leader won this cycle; our data stays buffered.
            self._log(now, f"commit_conflict cycle={self.cycle_id}")
            self._transition(now, NodePhase.BROADCASTING)
            return
        self.commits += 1
        self._watermarks.update(self._new_acks)
        self._log(
            now,
            f"commit cycle={self.cycle_id} rows={len(rows)} "
            f"total={result.total_readings} fallbacks={len(missing)}",
        )
        own_ack = self._new_acks.get(self.node_id)
        if own_ack is not None:
            self.buffer.prune_through(own_ack)
        self._transition(now, NodePhase.BROADCASTING)
        self._broadcast(now, build_success(self.node_id, self.cycle_id,
                                           self._new_acks), self._live(now))

    def _abort_cycle(self, now: float, reason: str) -> None:
        self.aborts += 1
        self._log(now, f"abort cycle={self.cycle_id} reason={reason}")
        self._transition(now, NodePhase.BROADCASTING)
        self._broadcast(now, Message(
            kind=MessageKind.CYCLE_ABORT, sender=self.node_id,
            cycle_id=max(self.cycle_id, 0),
            payload=f"reason={reason}".encode("utf-8")), self._live(now))
        self._disarm("consolidate")
        self._disarm("reduce")

    # -- follower path ---------------------------------------------------

    def _on_segment_assign(self, message: Message, now: float) -> None:
        if message.cycle_id != self.cycle_id:
            return
        if self.phase is not NodePhase.AWAITING_SEGMENT:
            return
        try:
            fields = _parse_fields(message.payload)
            index = int(fields["segment"])
            count = int(fields["count"])
            if count > MAX_PAIR_COUNT:
                raise ValueError(f"pair count too large: {count}")
            checksum = int(fields["checksum"], 16)
            part_index_str, part_total_str = fields["part"].split("/")
            part_index, part_total = int(part_index_str), int(part_total_str)
            pairs_text = fields["pairs"]
        except (ValueError, KeyError):
            self._log(now, f"malformed_assignment from={message.sender}")
            return
        assignment = self._assignments.get(index)
        if assignment is None or assignment.total != part_total:
            assignment = _AssignmentParts(segment_index=index, count=count,
                                          checksum=checksum,
                                          total=part_total)
            self._assignments[index] = assignment
        assignment.parts[part_index] = pairs_text
        if not assignment.complete():
            return
        text = assignment.text()
        if crc64(text.encode("utf-8")) != assignment.checksum:
            self._log(now, f"checksum_mismatch segment={index}")
            return
        try:
            runs = tuple(parse_runs(text, canonical=True))
        except ValueError:
            self._log(now, f"malformed_assignment from={message.sender}")
            return
        if sum(count for _, count in runs) != assignment.count:
            self._log(now, f"short_segment segment={index}")
            return
        segment = Segment(assignee=self.node_id, runs=runs,
                          segment_index=index, checksum=assignment.checksum,
                          pair_count=assignment.count)
        self._transition(now, NodePhase.REDUCING)
        try:
            visitor, room = _reduce_both(segment)
            reply = build_reduce_result(
                self.node_id, self.cycle_id, index, assignment.checksum,
                dict(visitor.aggregates), dict(room.aggregates),
                visitor.input_pair_count,
            )
            if len(reply.payload) > MAX_PAYLOAD:
                raise ValueError("partial does not fit one datagram")
        except ValueError:
            # Valid pairs a reducer cannot answer for: not visitor pairs
            # (a room key, room 0), or totals too long to print or send.
            self._log(now, f"malformed_assignment from={message.sender}")
            self._transition(now, NodePhase.AWAITING_RESULT)
            return
        if self._leader_address is not None:
            self._send(now, self._leader_address, reply)
        self._transition(now, NodePhase.AWAITING_RESULT)

    def _on_cycle_success(self, message: Message, now: float) -> None:
        try:
            acks = parse_success_acks(message)
        except ValueError:
            return
        pruned = 0
        own = acks.get(self.node_id)
        if own is not None:
            pruned = self.buffer.prune_through(own)
        self._log(now, f"outcome cycle={message.cycle_id} kind=success "
                       f"pruned={pruned}")

    def _on_cycle_abort(self, message: Message, now: float) -> None:
        self._log(now, f"outcome cycle={message.cycle_id} kind=abort")

    # -- message entry point ----------------------------------------------

    def on_message(self, message: Message, source: str, now: float) -> None:
        if self.killed:
            return
        self._log(now, f"recv kind={_KIND_NAMES[message.kind]} "
                       f"from={message.sender} cycle={message.cycle_id}")
        kind = message.kind
        if kind is MessageKind.PING:
            # Always answer: availability is phase-independent.
            self.endpoint.send(source, election.pong_for(message,
                                                         self.node_id))
            return
        if kind is MessageKind.PONG:
            if (self._pending_nonce is not None
                    and message.payload == self._pending_nonce
                    and self._check_target is not None
                    and message.sender == self._check_target[0]):
                target_id, address = self._check_target
                self._confirm_leader(now, target_id, address)
            return
        if kind is MessageKind.REGISTER_ACK:
            try:
                fields = _parse_fields(message.payload)
                leader_id = int(fields["leader"])
                address = fields["addr"]
            except (ValueError, KeyError):
                return
            if leader_id == self.node_id:
                return
            # Only the announced leader may announce itself, from the
            # address the registry holds for it; its role is not checked,
            # since a claimant demoted later in the slot is still honest.
            record = self.store.node(leader_id)
            if (address != source or record is None
                    or record.address != address):
                self._log(now, f"not_leader kind={_KIND_NAMES[kind]} "
                               f"from={message.sender}")
                return
            self._confirm_leader(now, leader_id, address)
            return
        if kind in _FROM_LEADER and source != self._leader_address:
            self._log(now, f"not_leader kind={_KIND_NAMES[kind]} "
                           f"from={message.sender}")
            return
        if kind is MessageKind.DATA_SUBMIT:
            self._on_data_submit(message, source, now)
        elif kind is MessageKind.SEGMENT_ASSIGN:
            self._on_segment_assign(message, now)
        elif kind is MessageKind.REDUCE_RESULT:
            self._on_reduce_result(message, source, now)
        elif kind is MessageKind.CYCLE_SUCCESS:
            self._on_cycle_success(message, now)
        elif kind is MessageKind.CYCLE_ABORT:
            self._on_cycle_abort(message, now)


def drive_node(node: Node, *, clock, stop=None,
               max_slots: Optional[int] = None) -> Node:
    """Blocking receive-and-fire loop around an already-built node.

    Runs until ``stop`` (a threading.Event) is set, the endpoint
    closes, or ``max_slots`` slot boundaries have been entered; with
    none of those it never returns.
    """
    node.start(clock.now_ms())
    while not (stop is not None and stop.is_set()):
        if max_slots is not None and node.slots_entered >= max_slots:
            break
        deadline = node.next_deadline()
        now = clock.now_ms()
        timeout = 50.0 if deadline is None else max(deadline - now, 0.0)
        try:
            received = node.endpoint.recv_from(min(timeout, 100.0))
        except MiddlewareError:
            break
        if received is not None:
            node.on_message(received[0], received[1], clock.now_ms())
        node.advance(clock.now_ms())
        if node.killed:
            break
    return node


def run_node(config: CycleConfig, node_id: NodeId, endpoint, store,
             reading_source=None, *, clock, rng=None, override=None,
             event_sink=None, stop=None, max_slots=None,
             modes: Sequence[CountMode] = (CountMode.VISITOR,
                                           CountMode.ROOM)) -> Node:
    """Build a node and run its blocking event loop (UDP deployments)."""
    node = Node(node_id, config, endpoint, store, reading_source,
                rng=rng, override=override, event_sink=event_sink,
                modes=modes)
    return drive_node(node, clock=clock, stop=stop, max_slots=max_slots)
