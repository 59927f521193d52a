"""Per-node protocol state machine and the cycle pipeline.

Every node runs the same loop on an absolute slot grid: cycle k spans
[k*D, (k+1)*D) where D is the cycle duration.  Collection occupies the
slot up to D - W (W = the processing window); the remaining W covers
submission (2W/5), then dispatch, reduction and merge until the slot
boundary, where the leader reduces any missing segment itself and
commits or aborts: no cycle outlives its slot.  At each slot boundary
a node refreshes its registration, checks who should lead (manual
override if live, else the highest live id), verifies that node with
a PING round trip, and elects a replacement when the check fails.
The leader is a logical client of itself: its own readings enter
consolidation like anyone else's.

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
import itertools
import math
import operator
import random
import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from crowdmw import election
from crowdmw.domain import (
    KEY_SHIFT,
    MAX_ROOM,
    ROOM_KEY_RE,
    SYMBOL_MASK,
    TAG_KEYS,
    CountMode,
    KeyValuePair,
    MiddlewareError,
    TagCategory,
    pair_symbol,
    room_key,
    symbol_pair,
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
# Unused here; bound for the benchmark's tracer, which wraps it by this
# module's name.
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

_PAIR_ORDER = operator.attrgetter("key", "value")

# Byte 2 of a little-endian key holds the top five bits of its symbol
# under the lowest timestamp bits; this table keeps the symbol's bits.
_SYMBOL_BYTE_2 = bytes(byte & (SYMBOL_MASK >> 16) for byte in range(256))


@dataclass
class CycleConfig:
    """Timing and participation knobs for the cycle protocol.

    The budget of one slot of D = ``cycle_duration_ms``, with W =
    ``mapreduce_window_ms``: collection until D - W; submissions for
    ``submit_window_ms`` (2W/5) after that; partials until the slot
    boundary, where the leader reduces missing segments locally and
    the cycle commits or aborts.
    """

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


class ClientBuffer:
    """Readings awaiting a committed cycle, one symbol per reading.

    A node's pending sequences are always one range, from
    ``committed_through + 1`` (``base``) on: an ingest appends to it and
    a prune cuts a prefix.  So the buffer keeps only ``trace``, whose
    symbol j is the visitor pair of the reading with sequence base + j
    (see ``domain.pair_symbol``); the readings themselves are not kept,
    since only their pairs are ever submitted.  Double reads (same tag,
    room and timestamp) collapse within one ingest batch, never across
    batches.
    """

    def __init__(self) -> None:
        self.trace = ""
        self.committed_through = -1

    def __len__(self) -> int:
        return len(self.trace)

    @property
    def base(self) -> int:
        """Sequence of the first pending reading."""
        return self.committed_through + 1

    @property
    def next_seq(self) -> int:
        return self.committed_through + 1 + len(self.trace)

    def ingest(self, keys: Iterable[int]) -> list[int]:
        """Append a batch of reading keys; return the keys it kept.

        A key (``domain.reading_key``, checked where its reading entered
        the run) is a symbol code point under a timestamp, so a double
        read has its original's key: the first of equal keys is kept, in
        any batch order, and kept keys take the next sequences.

        Every key is below 2 ** 64 (``domain.MAX_TIMESTAMP``), so the
        batch packs into little-endian words whose low three bytes, the
        symbol's code point, are copied into UTF-32 code units and
        decoded once: no Python-level step per key.
        """
        kept = list(dict.fromkeys(keys))
        words = struct.pack(f"<{len(kept)}Q", *kept)
        units = bytearray(len(words) // 2)
        units[0::4] = words[0::8]
        units[1::4] = words[1::8]
        units[2::4] = words[2::8].translate(_SYMBOL_BYTE_2)
        self.trace += units.decode("utf-32-le")
        return kept

    def runs(self) -> list[Run]:
        """Pending runs, a pair with its ascending sequences, in pair order."""
        seqs: dict[str, list[int]] = collections.defaultdict(list)
        for seq, symbol in enumerate(self.trace, self.base):
            seqs[symbol].append(seq)
        return sorted(((symbol_pair(symbol), run)
                       for symbol, run in seqs.items()),
                      key=lambda run: _PAIR_ORDER(run[0]))

    # No caller on the run path; kept for tests and for the benchmark's
    # tracer, which wraps it by name until the benchmark is re-based.
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
        dropped = seq - self.committed_through
        if dropped <= 0:
            return 0
        self.trace = self.trace[dropped:]
        self.committed_through = seq
        return dropped


class ListReadingSource:
    """Reading keys routed to one node, in timestamp order, kept as given.

    A key's high bits are its timestamp, so the keys due by a time are a
    prefix that one bisection on the whole key finds.
    """

    def __init__(self, keys: list[int]) -> None:
        self._keys = keys
        self._cursor = 0

    def take_due(self, now_ms: float) -> list[int]:
        """Keys due by ``now_ms``: the next ones with timestamp <= it."""
        start = self._cursor
        self._cursor = bisect.bisect_left(
            self._keys, (math.floor(now_ms) + 1) << KEY_SHIFT, start)
        return self._keys[start:self._cursor]

    def remaining(self) -> list[int]:
        return self._keys[self._cursor:]

    def injected_count(self) -> int:
        return len(self._keys)


# ---------------------------------------------------------------------------
# Wire payload grammar (text, field=value separated by ';').
# ---------------------------------------------------------------------------


# Each kind a node parses has one anchored pattern, its fields in the
# order its builder writes them: numbers are canonical decimals (ASCII
# digits, no sign, space, ``_`` or leading zero) of at most 19 digits,
# the width of MAX_PAIR_COUNT, checksums and digests 16 lowercase hex
# digits, and a ``k:v`` list names each key once.
_DECIMAL = "0|[1-9][0-9]{0,18}"
_NUMBER = f"({_DECIMAL})"
_HEX = "([0-9a-f]{16})"


def _listed(key: str) -> str:
    """One group: a comma-joined list of ``key:number`` items."""
    item = f"(?:{key}):(?:{_DECIMAL})"
    return f"((?:{item}(?:,{item})*)?)"


# A submission part: origin, part i/n, base, and a trace of pair symbols
# (see ``domain.pair_symbol``) that runs to the end of the payload.
_SUBMISSION = re.compile(
    f"origin={_NUMBER};part={_NUMBER}/{_NUMBER};base={_NUMBER};"
    "trace=([^\x00-;\ud800-\udfff]*)")
# An assignment part: its slice of the segment's run text comes last.
_ASSIGNMENT = re.compile(
    f"segment={_NUMBER};count={_NUMBER};checksum={_HEX};"
    f"part={_NUMBER}/{_NUMBER};pairs=([^;]*)")
# A partial: its body, then the body's CRC-64.
_PARTIAL = re.compile(
    f"(segment={_NUMBER};count={_NUMBER};checksum={_HEX};"
    f"visitor={_listed('|'.join(sorted(TAG_KEYS)))};"
    f"room={_listed(ROOM_KEY_RE.pattern)});digest={_HEX}")
_SUCCESS = re.compile(f"acks={_listed(_DECIMAL)}")
_ANNOUNCEMENT = re.compile(f"leader={_NUMBER};addr=([^;]*)")


def _match(pattern: re.Pattern, payload: bytes) -> tuple[str, ...]:
    """The groups of ``payload`` read whole by ``pattern``; else ValueError."""
    match = pattern.fullmatch(payload.decode("utf-8"))
    if match is None:
        raise ValueError("payload does not match its kind's grammar")
    return match.groups()


def _items(text: str) -> dict[str, int]:
    """A matched ``k:v`` list as a dict; ValueError if a key repeats."""
    items = [item.partition(":") for item in text.split(",")] if text else []
    listed = {key: int(count) for key, _, count in items}
    if len(listed) != len(items):
        raise ValueError("a key listed twice")
    return listed


def _parse_submission(payload: bytes) -> tuple[int, int, int, int, str]:
    """A submission part as (origin, i, n, base, trace).

    Reading base + j has symbol j of the trace.  The base and the
    part's last sequence are at most MAX_PAIR_COUNT.
    """
    origin, index, total, base_text, trace = _match(_SUBMISSION, payload)
    base = int(base_text)
    if max(base, base + len(trace) - 1) > MAX_PAIR_COUNT:
        raise ValueError(f"sequences past {MAX_PAIR_COUNT}")
    return int(origin), int(index), int(total), base, trace


def _chunk(text: str, budget: int) -> list[str]:
    """Greedy split of comma-joined items into parts of whole items.

    A part takes items while its text fits ``budget`` characters; an
    item over the budget goes alone, and empty text makes one empty
    part.  With a comma appended, every item ends at a comma: a part
    ends at the last one the budget reaches (else the first).
    """
    text += ","
    last = len(text) - 1
    parts = []
    start = 0
    while start <= last:
        stop = last
        if stop - start > budget:
            stop = text.rfind(",", start, start + budget + 1)
            if stop < 0:
                stop = text.find(",", start)
        parts.append(text[start:stop])
        start = stop + 1
    return parts


def build_submission_parts(origin: NodeId, cycle_id: int, base: int,
                           trace: str,
                           max_entries_per_part: Optional[int] = None
                           ) -> list[Message]:
    """Encode the pending range (base, trace) as DATA_SUBMIT parts.

    Each part is a slice of the trace with its first symbol's sequence
    as its base.  It holds at most ``max_entries_per_part`` symbols and
    as many as fit ``MAX_PAYLOAD`` once encoded, whatever their UTF-8
    width; the headroom reserves four digits each for i and n.  An
    empty trace makes one empty part.
    """
    budget = MAX_PAYLOAD - len(
        f"origin={origin};part=9999/9999;base={base + len(trace)};trace=")
    step = budget
    if max_entries_per_part is not None:
        step = max(1, min(max_entries_per_part, budget))
    slices = []
    start = 0
    while True:
        chunk = trace[start:start + step]
        if not chunk.isascii():
            data = chunk.encode("utf-8")
            if len(data) > budget:
                # Cut before the symbol whose bytes straddle the budget.
                cut = budget
                while data[cut] & 0xC0 == 0x80:
                    cut -= 1
                chunk = data[:cut].decode("utf-8")
        slices.append((base + start, chunk))
        start += len(chunk)
        if start >= len(trace):
            break
    return [Message(kind=MessageKind.DATA_SUBMIT, sender=origin,
                    cycle_id=cycle_id,
                    payload=(f"origin={origin};part={index}/{len(slices)};"
                             f"base={first};trace={chunk}").encode("utf-8"))
            for index, (first, chunk) in enumerate(slices)]


def build_assignment_parts(sender: NodeId, cycle_id: int,
                           segment: Segment) -> list[Message]:
    """Encode an assignment: the segment's run text, split at items.

    The headroom reserves four digits each for i and n, so every part
    fits ``MAX_PAYLOAD`` once its header is written.
    """
    head = (f"segment={segment.segment_index};count={segment.pair_count};"
            f"checksum={segment.checksum:016x};")
    chunks = _chunk(serialize_runs(segment.runs),
                    MAX_PAYLOAD - len(f"{head}part=9999/9999;pairs="))
    return [Message(kind=MessageKind.SEGMENT_ASSIGN, sender=sender,
                    cycle_id=cycle_id,
                    payload=(f"{head}part={index}/{len(chunks)};"
                             f"pairs={chunk}").encode("utf-8"))
            for index, chunk in enumerate(chunks)]


# A ``k:v`` list, in ascending key order and joined by commas: the
# aggregates of a REDUCE_RESULT and the acks of a CYCLE_SUCCESS.
def _serialize_aggregates(aggregates: Mapping) -> str:
    return ",".join(f"{k}:{aggregates[k]}" for k in sorted(aggregates))


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
        body, segment, count, checksum, visitor, room, digest = _match(
            _PARTIAL, message.payload)
        rooms = _items(room)
        # An intact body, whose Room<n> keys are on the symbol table.
        if (crc64(body.encode("utf-8")) != int(digest, 16)
                or any(int(key[4:]) > MAX_ROOM for key in rooms)):
            return None
        return {"segment": int(segment), "count": int(count),
                "checksum": int(checksum, 16),
                "visitor": _items(visitor), "room": rooms}
    except ValueError:
        return None


def build_success(sender: NodeId, cycle_id: int,
                  acks: dict[NodeId, int]) -> Message:
    payload = f"acks={_serialize_aggregates(acks)}"
    return Message(kind=MessageKind.CYCLE_SUCCESS, sender=sender,
                   cycle_id=cycle_id, payload=payload.encode("utf-8"))


def parse_success_acks(message: Message) -> dict[NodeId, int]:
    (acks,) = _match(_SUCCESS, message.payload)
    return {int(origin): seq for origin, seq in _items(acks).items()}


# ---------------------------------------------------------------------------
# The leader's cycle pipeline: consolidate, partition, reduce, merge.
# ---------------------------------------------------------------------------


def consolidate_runs(submissions: Iterable[tuple[NodeId,
                                              Iterable[tuple[int, str]]]],
                     watermarks: Mapping[NodeId, int]
                     ) -> tuple[list[KeyValuePair], dict[NodeId, int]]:
    """Sorted pairs of the readings above each origin's watermark, and acks.

    Each origin submits (base, trace) parts.  A part counts the symbols
    after the origin's watermark, once per part, so overlapping or
    repeated parts count as their readings would one by one.  An
    origin's ack is its highest sequence above the watermark, else the
    watermark; it has none when both are missing.
    """
    fresh: list[str] = []
    acks: dict[NodeId, int] = {}
    for origin, parts in submissions:
        top = watermark = watermarks.get(origin, -1)
        for base, trace in parts:
            last = base + len(trace) - 1
            if trace and last > watermark:
                fresh.append(trace[max(0, watermark - base + 1):])
                top = max(top, last)
        if top >= 0:
            acks[origin] = top
    counts = collections.Counter("".join(fresh))
    runs = sorted(((symbol_pair(symbol), count)
                   for symbol, count in counts.items()),
                  key=lambda run: _PAIR_ORDER(run[0]))
    consolidated: list[KeyValuePair] = []
    for pair, count in runs:
        consolidated += [pair] * count
    return consolidated, acks


def _reduce_both(segment: Segment) -> tuple[PartialResult, PartialResult]:
    """Reduce one visitor-keyed segment in both modes.

    Every caller holds a segment whose pairs match its checksum and
    are visitor pairs on the symbol table: the leader built it, or the
    follower checked the wire text's checksum, parsed it in canonical
    form and checked each pair with ``pair_symbol``.  So it is not
    checksummed again.  The room counts, which a follower's
    REDUCE_RESULT carries beside the visitor totals, come from the
    same runs.
    """
    visitor = reduce_segment(segment, CountMode.VISITOR, verified=True)
    room = PartialResult(
        mode=CountMode.ROOM,
        aggregates={room_key(room): count
                    for room, count in room_counts(segment.runs)},
        input_pair_count=visitor.input_pair_count,
    )
    return visitor, room


def reduce_and_merge(cycle_id: int, segments: Sequence[Segment],
                     remote: Mapping[int, tuple[PartialResult,
                                                PartialResult]]
                     ) -> CycleResult:
    """Reduce and merge one cycle's segments in both modes.

    A segment takes the (visitor, room) partials stored for its index
    in ``remote``; any other segment is reduced here.  A stored partial
    passed ``Node._on_reduce_result``, so it counts every pair of its
    segment, as a local one does by construction.
    """
    partials = [remote[s.segment_index] if s.segment_index in remote
                else _reduce_both(s) for s in segments]
    visitors, _ = merge_partials([visitor for visitor, _ in partials],
                                 CountMode.VISITOR)
    rooms, _ = merge_partials([room for _, room in partials], CountMode.ROOM)
    visitor_aggregates = {tag: visitors[tag.value]
                          for tag in TagCategory if tag.value in visitors}
    room_aggregates = {int(key.removeprefix("Room")): value
                       for key, value in rooms.items()}
    return CycleResult(cycle_id=cycle_id,
                       visitor_aggregates=visitor_aggregates,
                       room_aggregates=room_aggregates,
                       total_readings=sum(s.pair_count for s in segments))


# ---------------------------------------------------------------------------
# The node actor.
# ---------------------------------------------------------------------------

# Timers due at the same instant fire in this order.  The slot boundary
# goes first: it replaces the timer table, so a PING chain that runs
# out at the boundary never claims the slot that is ending.
_TIMER_PRIORITY = {"slot": 0, "ping": 1, "collect": 2, "consolidate": 3}

# Event-line names, so logging a datagram skips the enum descriptors.
_KIND_NAMES = {kind: kind.name.lower() for kind in MessageKind}

# Phases in which a leader files submission parts.
_SUBMIT_PHASES = frozenset({NodePhase.COLLECTING, NodePhase.SUBMITTING,
                            NodePhase.CONSOLIDATING})

# Kinds a node acts on only from its confirmed leader's address.
_FROM_LEADER = frozenset({MessageKind.SEGMENT_ASSIGN,
                          MessageKind.CYCLE_SUCCESS, MessageKind.CYCLE_ABORT})


@dataclass
class _Parts:
    """A multi-part message as its parts arrive: ``total`` bodies by index.

    ``header`` is what the set's first part carried besides its body:
    an assignment's (pair count, checksum).
    """

    total: int
    header: tuple[int, ...] = ()
    parts: dict = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.parts) == self.total

    def ordered(self) -> list:
        return [self.parts[index] for index in sorted(self.parts)]


def _file_part(sets: dict[int, _Parts], key: int, total: int, index: int,
               body, header: tuple[int, ...] = ()) -> tuple[_Parts, bool]:
    """File part ``index`` of ``total`` under ``key``; its set, and if new.

    A part with a new total starts the set over, header included.
    """
    parts = sets.get(key)
    if parts is None or parts.total != total:
        parts = sets[key] = _Parts(total, header)
    fresh = index not in parts.parts
    parts.parts[index] = body
    return parts, fresh


@dataclass
class _Slot:
    """What a node knows about one slot; each slot boundary replaces it."""

    is_leader: bool = False
    # Ids found unreachable this slot, left out of the election.
    excluded: set[NodeId] = field(default_factory=set)
    # The expected leader under PING check as (id, address), the PINGs
    # sent to it and the nonce its PONG must echo.
    check_target: Optional[tuple[NodeId, str]] = None
    check_attempts: int = 0
    nonce: Optional[bytes] = None

    # Leader side.  Registry address per node id, as of the claim and
    # the collection end: a submission counts only from its origin's.
    origin_addresses: dict[NodeId, str] = field(default_factory=dict)
    submissions: dict[NodeId, _Parts] = field(default_factory=dict)
    segments: list[Segment] = field(default_factory=list)
    # Address each remote segment was dispatched to, by index: a
    # partial counts only from its assignee's.
    assignee_addresses: dict[int, str] = field(default_factory=dict)
    remote_partials: dict[int, tuple[PartialResult, PartialResult]] = field(
        default_factory=dict)
    new_acks: dict[NodeId, int] = field(default_factory=dict)

    # Follower side: assignment parts by segment index.
    assignments: dict[int, _Parts] = field(default_factory=dict)


class Node:
    """One middleware node: event-driven, single logical actor.

    Drive it by calling ``on_message`` and ``advance``; ``next_deadline``
    exposes the earliest pending timer so whatever runs the node
    (``SimCluster``, on either backend) knows how long it may wait.
    """

    def __init__(self, node_id: NodeId, config: CycleConfig, endpoint,
                 store, reading_source=None, *,
                 rng: Optional[random.Random] = None,
                 override: Optional[NodeId] = None,
                 event_sink: Optional[Callable[[str], None]] = None,
                 max_entries_per_part: Optional[int] = None) -> None:
        if node_id < 1:
            raise ValueError("node id must be positive")
        self.node_id = node_id
        self.config = config
        self.endpoint = endpoint
        self.store = store
        self.source = reading_source
        self.rng = rng if rng is not None else random.Random(node_id)
        self.override = override
        self.event_sink = event_sink
        self.max_entries_per_part = max_entries_per_part

        self.phase = NodePhase.REGISTERING
        self.buffer = ClientBuffer()
        self.killed = False
        self.cycle_id = -1
        self.commits = 0
        self.aborts = 0
        self.dedupe_dropped = 0
        # Time of this node's last claim, commit or abort.
        self.progress_ms = 0.0
        # Called with the keys each ingest kept.
        self.ingest_listener: Optional[Callable[[list[int]], None]] = None

        self._timers: dict[str, float] = {}
        # The leader this node last confirmed or became; it outlives
        # the slot, so a late outcome from it is still handled.
        self._leader_address: Optional[str] = None
        # Highest committed sequence per origin, as of this node's last
        # claim or commit.
        self._watermarks: dict[NodeId, int] = {}
        self._slot = _Slot()

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

    def next_deadline(self) -> Optional[float]:
        if self.killed or not self._timers:
            return None
        return min(self._timers.values())

    def kill(self) -> None:
        self.killed = True
        self._timers.clear()
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
        """Fire every timer due at or before now, each at its due time."""
        while not self.killed:
            due = [(when, _TIMER_PRIORITY[tag], tag)
                   for tag, when in self._timers.items() if when <= now]
            if not due:
                return
            when, _, tag = min(due)
            del self._timers[tag]
            self._on_timer(tag, when)

    def _on_timer(self, tag: str, now: float) -> None:
        if tag == "slot":
            # The boundary is the cycle's deadline: a leader still
            # merging reduces what is missing and ends the cycle here.
            self._finish_cycle(now)
            self._enter_slot(now)
        elif tag == "collect":
            self._collection_end(now)
        elif tag == "ping":
            self._ping_timeout(now)
        elif tag == "consolidate":
            self._consolidate(now)

    # -- slot boundary -------------------------------------------------

    def _enter_slot(self, now: float) -> None:
        """Start the slot holding ``now`` with fresh slot state and timers."""
        duration = self.config.cycle_duration_ms
        self.cycle_id = int(now // duration)
        start = self.cycle_id * float(duration)
        self._slot = _Slot()
        self._timers = {"slot": start + duration}
        collect_at = start + self.config.collection_ms
        if collect_at > now:
            self._timers["collect"] = collect_at
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
        slot = self._slot
        expected = election.elect_leader(live.keys() - slot.excluded,
                                         self.override)
        if expected == self.node_id:
            self._claim(now, live)
            return
        slot.check_target = (expected, live[expected])
        slot.check_attempts = 0
        self._send_ping(now)

    def _send_ping(self, now: float) -> None:
        slot = self._slot
        assert slot.check_target is not None
        _, address = slot.check_target
        slot.nonce = election.make_nonce(self.rng)
        slot.check_attempts += 1
        self._send(now, address, Message(
            kind=MessageKind.PING, sender=self.node_id,
            cycle_id=max(self.cycle_id, 0), payload=slot.nonce,
        ))
        self._timers["ping"] = now + self.config.ping_timeout_ms

    def _ping_timeout(self, now: float) -> None:
        slot = self._slot
        if slot.check_target is None:
            return
        if slot.check_attempts < self.config.ping_retries:
            self._send_ping(now)
            return
        # Target looked live in the registry but does not answer:
        # exclude it and re-elect among the rest.
        target_id, _ = slot.check_target
        slot.excluded.add(target_id)
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
        self._slot.is_leader = True
        self._leader_address = self.endpoint.address
        self._watermarks.update({
            origin: max(seq, self._watermarks.get(origin, -1))
            for origin, seq in self.store.ack_watermarks().items()
        })
        self._log(now, f"leader_claimed cycle={self.cycle_id}")
        self.progress_ms = now
        self._slot.origin_addresses = live
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
        self._leader_address = address
        self._timers.pop("ping", None)
        slot = self._slot
        slot.is_leader = leader_id == self.node_id
        slot.check_target = None
        slot.nonce = None
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
                self.ingest_listener(added)
        if self.phase is not NodePhase.COLLECTING:
            # Never confirmed a leader this slot; keep buffering.
            return
        slot = self._slot
        if slot.is_leader:
            self._transition(now, NodePhase.SUBMITTING)
            _file_part(slot.submissions, self.node_id, 1, 0,
                       (self.buffer.base, self.buffer.trace))
            slot.origin_addresses = self._live(now)
            self._transition(now, NodePhase.CONSOLIDATING)
            self._timers["consolidate"] = (
                now + self.config.submit_window_ms)
            self._maybe_consolidate_early(now)
        elif self._leader_address is not None:
            self._transition(now, NodePhase.SUBMITTING)
            self._submit(now)
            self._transition(now, NodePhase.AWAITING_SEGMENT)

    def _submit(self, now: float) -> None:
        parts = build_submission_parts(
            self.node_id, self.cycle_id, self.buffer.base,
            self.buffer.trace, self.max_entries_per_part,
        )
        for message in parts:
            self._send(now, self._leader_address, message)

    # -- leader path -------------------------------------------------------

    def _on_data_submit(self, message: Message, source: str,
                        now: float) -> None:
        slot = self._slot
        if not slot.is_leader or message.cycle_id != self.cycle_id:
            return
        if self.phase not in _SUBMIT_PHASES:
            return
        try:
            origin, index, total, base, trace = _parse_submission(
                message.payload)
            # A node submits its own readings only, from the address it
            # registered (the header's sender is whatever it claims).
            if not (slot.origin_addresses.get(origin) == source
                    and index < total):
                raise ValueError("not the origin's submission part")
        except ValueError:
            self._log(now, f"malformed_submit from={message.sender}")
            return
        submission, fresh = _file_part(slot.submissions, origin, total,
                                       index, (base, trace))
        # Only a part that completes its submission can complete the
        # expected set; a repeat of a stored part changes nothing.
        if fresh and submission.complete():
            self._maybe_consolidate_early(now)

    def _responding(self) -> list[NodeId]:
        return sorted(
            origin for origin, sub in self._slot.submissions.items()
            if sub.complete()
        )

    def _maybe_consolidate_early(self, now: float) -> None:
        if self.phase is not NodePhase.CONSOLIDATING:
            return
        if self._slot.origin_addresses.keys() <= set(self._responding()):
            self._timers.pop("consolidate", None)
            self._consolidate(now)

    def _consolidate(self, now: float) -> None:
        if self.phase is not NodePhase.CONSOLIDATING:
            return
        responding = self._responding()
        if len(responding) < self.config.min_responding_nodes:
            self._abort_cycle(now, "min_responding")
            return
        slot = self._slot
        # Watermark dedupe: drop entries already covered by a commit.
        consolidated, slot.new_acks = consolidate_runs(
            ((origin, slot.submissions[origin].ordered())
             for origin in responding),
            self._watermarks)
        slot.segments = partition(consolidated, responding)
        self._transition(now, NodePhase.DISPATCHING)
        live = self._live(now)
        for segment in slot.segments:
            if segment.assignee == self.node_id:
                continue
            address = live.get(segment.assignee)
            if address is None:
                continue
            slot.assignee_addresses[segment.segment_index] = address
            for message in build_assignment_parts(self.node_id,
                                                  self.cycle_id, segment):
                self._send(now, address, message)
        self._transition(now, NodePhase.MERGING)
        self._maybe_finish_early(now)

    def _on_reduce_result(self, message: Message, source: str,
                          now: float) -> None:
        slot = self._slot
        if not slot.is_leader or message.cycle_id != self.cycle_id:
            return
        if self.phase is not NodePhase.MERGING:
            return
        parsed = parse_reduce_result(message)
        if parsed is None:
            self._log(now, f"corrupt_partial from={message.sender}")
            return
        index = parsed["segment"]
        matching = [s for s in slot.segments if s.segment_index == index]
        if not matching or matching[0].checksum != parsed["checksum"]:
            self._log(now, f"stale_partial from={message.sender} "
                           f"segment={index}")
            return
        # Only the segment's assignee answers, from the address it was
        # dispatched to, and an honest partial counts every pair of its
        # segment; room mode counts one per pair, so its room counts
        # add up to the same count.
        if not (slot.assignee_addresses.get(index) == source
                and parsed["count"] == matching[0].pair_count
                == sum(parsed["room"].values())):
            self._log(now, f"corrupt_partial from={message.sender}")
            return
        slot.remote_partials[index] = tuple(
            PartialResult(mode=mode, aggregates=parsed[mode.value],
                          input_pair_count=parsed["count"])
            for mode in (CountMode.VISITOR, CountMode.ROOM)
        )
        self._maybe_finish_early(now)

    def _missing_partials(self) -> list[int]:
        """Indices of the remote segments with no partial stored yet."""
        slot = self._slot
        return [s.segment_index for s in slot.segments
                if s.assignee != self.node_id
                and s.segment_index not in slot.remote_partials]

    def _maybe_finish_early(self, now: float) -> None:
        if not self._missing_partials():
            self._finish_cycle(now)

    def _finish_cycle(self, now: float) -> None:
        if self.phase is not NodePhase.MERGING:
            return
        missing = self._missing_partials()
        for index in missing:
            self._log(now, f"fallback_reduce segment={index}")
        slot = self._slot
        result = reduce_and_merge(self.cycle_id, slot.segments,
                                  slot.remote_partials)
        self._transition(now, NodePhase.COMMITTING)
        try:
            rows = self.store.commit_results(result,
                                             committed_at=int(now),
                                             acks=slot.new_acks)
        except ConflictingCommit:
            # Another leader won this cycle; our data stays buffered.
            self._log(now, f"commit_conflict cycle={self.cycle_id}")
            self._transition(now, NodePhase.BROADCASTING)
            return
        self.commits += 1
        self.progress_ms = now
        self._watermarks.update(slot.new_acks)
        self._log(
            now,
            f"commit cycle={self.cycle_id} rows={len(rows)} "
            f"total={result.total_readings} fallbacks={len(missing)}",
        )
        own_ack = slot.new_acks.get(self.node_id)
        if own_ack is not None:
            self.buffer.prune_through(own_ack)
        self._transition(now, NodePhase.BROADCASTING)
        self._broadcast(now, build_success(self.node_id, self.cycle_id,
                                           slot.new_acks), self._live(now))

    def _abort_cycle(self, now: float, reason: str) -> None:
        self.aborts += 1
        self.progress_ms = now
        self._log(now, f"abort cycle={self.cycle_id} reason={reason}")
        self._transition(now, NodePhase.BROADCASTING)
        self._broadcast(now, Message(
            kind=MessageKind.CYCLE_ABORT, sender=self.node_id,
            cycle_id=max(self.cycle_id, 0),
            payload=f"reason={reason}".encode("utf-8")), self._live(now))

    # -- follower path ---------------------------------------------------

    def _on_segment_assign(self, message: Message, now: float) -> None:
        if message.cycle_id != self.cycle_id:
            return
        if self.phase is not NodePhase.AWAITING_SEGMENT:
            return
        try:
            index, count, checksum, part_index, part_total, pairs_text = (
                _match(_ASSIGNMENT, message.payload))
            index, count, part_index, part_total = map(
                int, (index, count, part_index, part_total))
            if count > MAX_PAIR_COUNT or part_index >= part_total:
                raise ValueError("pair count too large or part past total")
        except ValueError:
            self._log(now, f"malformed_assignment from={message.sender}")
            return
        assignment, _ = _file_part(self._slot.assignments, index,
                                   part_total, part_index, pairs_text,
                                   (count, int(checksum, 16)))
        if not assignment.complete():
            return
        # A whole set is taken out, so a refused one leaves nothing.
        del self._slot.assignments[index]
        # The first part of the set fixes the count and checksum.
        count, checksum = assignment.header
        text = ",".join(filter(None, assignment.ordered()))
        if crc64(text.encode("utf-8")) != checksum:
            self._log(now, f"checksum_mismatch segment={index}")
            return
        try:
            runs = tuple(parse_runs(text, canonical=True))
            # A reducer answers for visitor pairs on the symbol table.
            for pair, _ in runs:
                pair_symbol(pair.key, pair.value)
        except ValueError:
            self._log(now, f"malformed_assignment from={message.sender}")
            return
        if sum(run_count for _, run_count in runs) != count:
            self._log(now, f"short_segment segment={index}")
            return
        segment = Segment(assignee=self.node_id, runs=runs,
                          segment_index=index, checksum=checksum,
                          pair_count=count)
        self._transition(now, NodePhase.REDUCING)
        visitor, room = _reduce_both(segment)
        reply = build_reduce_result(
            self.node_id, self.cycle_id, index, checksum,
            dict(visitor.aggregates), dict(room.aggregates),
            visitor.input_pair_count,
        )
        if len(reply.payload) > MAX_PAYLOAD:
            # More rooms than one reply can list.
            self._log(now, f"malformed_assignment from={message.sender}")
        elif self._leader_address is not None:
            self._send(now, self._leader_address, reply)
        self._transition(now, NodePhase.AWAITING_RESULT)

    def _on_cycle_success(self, message: Message, now: float) -> None:
        try:
            acks = parse_success_acks(message)
        except ValueError:
            return
        own = acks.get(self.node_id)
        pruned = 0 if own is None else self.buffer.prune_through(own)
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
        # The busiest kind first: one datagram per submission part.
        if kind is MessageKind.DATA_SUBMIT:
            self._on_data_submit(message, source, now)
            return
        if kind is MessageKind.PING:
            # Always answer: availability is phase-independent.
            self.endpoint.send(source, election.pong_for(message,
                                                         self.node_id))
            return
        if kind is MessageKind.PONG:
            slot = self._slot
            if (slot.nonce is not None and message.payload == slot.nonce
                    and slot.check_target is not None
                    and message.sender == slot.check_target[0]):
                self._confirm_leader(now, *slot.check_target)
            return
        if kind is MessageKind.REGISTER_ACK:
            try:
                leader_text, address = _match(_ANNOUNCEMENT, message.payload)
                leader_id = int(leader_text)
            except ValueError:
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
        if kind is MessageKind.SEGMENT_ASSIGN:
            self._on_segment_assign(message, now)
        elif kind is MessageKind.REDUCE_RESULT:
            self._on_reduce_result(message, source, now)
        elif kind is MessageKind.CYCLE_SUCCESS:
            self._on_cycle_success(message, now)
        elif kind is MessageKind.CYCLE_ABORT:
            self._on_cycle_abort(message, now)

