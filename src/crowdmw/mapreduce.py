"""Two-mode counting pipeline: map, sort, partition, reduce, merge.

VISITOR mode keys pairs by badge category and sums the room numbers
recorded for that category.  ROOM mode keys pairs by room and counts
occurrences.  Segments carry a CRC-64 checksum over their canonical
text serialization so a reducer can prove it worked on exactly the
pairs the leader dispatched.

The key space is tiny, so a sorted pair list is a handful of runs of
equal pairs.  Segments hold runs, and their canonical text is run
text, ``key=value`` for a run of one and ``key=value*k`` for a run of
k (the combiner of Dean & Ghemawat, MapReduce, OSDI 2004, sec. 4.3):
serialization, checksums, parsing and reduction cost O(runs), and a
count read off the wire is never expanded into pairs.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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

NodeId = int


class NoClients(MiddlewareError):
    """Partitioning requires at least one client node."""


class ChecksumMismatch(MiddlewareError):
    """Segment content does not match its checksum."""


class ModeMismatch(MiddlewareError):
    """Partial results from different counting modes cannot merge."""


# ---------------------------------------------------------------------------
# CRC-64, ECMA-182 polynomial, most-significant-bit first, zero init.
# ---------------------------------------------------------------------------

_CRC64_POLY = 0x42F0E1EBA9EA3693
_MASK64 = (1 << 64) - 1


def _build_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ _CRC64_POLY) & _MASK64
            else:
                crc = (crc << 1) & _MASK64
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def crc64(data: bytes) -> int:
    """CRC-64 over raw bytes (ECMA polynomial, no reflection).

    A byte-at-a-time table loop.  Segment text is run text, one item
    per run of equal pairs, so what it checksums stays short.
    """
    crc, table, mask = 0, _CRC_TABLE, _MASK64
    for b in data:
        crc = table[(crc >> 56) ^ b] ^ ((crc << 8) & mask)
    return crc


# ---------------------------------------------------------------------------
# Run text: the canonical form of a sorted pair list.
# ---------------------------------------------------------------------------

# A pair and how many times it repeats (>= 1).
PairRun = tuple[KeyValuePair, int]

# The most pairs a run or a segment may count: a signed 64-bit count,
# far beyond any cycle, so a count read off the wire stays short.
MAX_PAIR_COUNT = 2 ** 63 - 1


def pair_runs(pairs: Iterable[KeyValuePair]) -> list[PairRun]:
    """(pair, count) for each run of equal neighbouring pairs."""
    return [(pair, len(list(run))) for pair, run in itertools.groupby(pairs)]


def serialize_runs(runs: Iterable[PairRun]) -> str:
    """Run text: ``key=value`` for a run of one, ``key=value*k`` else.

    Items are joined by commas.  Runs taken from a sorted pair list
    with ``pair_runs`` never repeat a pair in neighbouring items, so
    a pair list has exactly one run text.
    """
    return ",".join(f"{pair.key}={pair.value}" if count == 1
                    else f"{pair.key}={pair.value}*{count}"
                    for pair, count in runs)


def serialize_pairs(pairs: Iterable[KeyValuePair]) -> str:
    """Run text of a pair list (see ``serialize_runs``)."""
    return serialize_runs(pair_runs(pairs))


@functools.lru_cache(maxsize=INTERN_LIMIT)
def _parse_pair(item: str) -> KeyValuePair:
    key, sep, value = item.partition("=")
    if not sep:
        raise ValueError(f"malformed pair entry: {item!r}")
    return KeyValuePair(key.strip(), int(value.strip()))


def parse_runs(text: str, *, canonical: bool = False) -> list[PairRun]:
    """Inverse of serialize_runs; tolerates surrounding whitespace.

    A count ``*k`` is plain ASCII decimal from 2 to MAX_PAIR_COUNT,
    without a leading zero.  With ``canonical`` it tolerates nothing
    else: items must be strictly ascending in the canonical pair order,
    with no spaces, signs or leading zeros, so ``text`` is exactly
    ``serialize_runs`` of the result.  Then the checksum of ``text``
    is the checksum of the runs, and a reducer need not compute it
    again.  Counts are never expanded: ``man=1*10**18`` costs one run.
    """
    stripped = text.strip()
    if canonical and stripped != text:
        raise ValueError("pair text has surrounding whitespace")
    if not stripped:
        return []
    runs: list[PairRun] = []
    last: tuple[str, int] | None = None
    for item in stripped.split(","):
        body, star, reps = item.partition("*")
        count = 1
        if star:
            if not (reps.isascii() and reps.isdigit()
                    and reps[0] != "0" and reps != "1"):
                raise ValueError(f"bad run count: {item!r}")
            count = int(reps)
            if count > MAX_PAIR_COUNT:
                raise ValueError(f"run count too large: {item!r}")
        pair = _parse_pair(body)
        if canonical:
            if body != f"{pair.key}={pair.value}":
                raise ValueError(f"non-canonical pair entry: {item!r}")
            if last is not None and (pair.key, pair.value) <= last:
                raise ValueError(f"pair text out of order at {item!r}")
            last = (pair.key, pair.value)
        runs.append((pair, count))
    return runs


def parse_pairs(text: str, *, canonical: bool = False) -> list[KeyValuePair]:
    """``parse_runs`` of ``text``, each run expanded to its pairs.

    For fixtures and tests; wire input is reduced on its runs.
    """
    pairs: list[KeyValuePair] = []
    for pair, count in parse_runs(text, canonical=canonical):
        pairs += [pair] * count
    return pairs


def checksum_runs(runs: Iterable[PairRun]) -> int:
    return crc64(serialize_runs(runs).encode("utf-8"))


# ---------------------------------------------------------------------------
# Pipeline value types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Contiguous slice of the consolidated pair list for one reducer.

    The slice is held as runs in canonical pair order, no two
    neighbours the same pair, so its run text is unique: ``checksum``
    is the CRC-64 of that text, and ``pair_count`` is the sum of the
    run counts.  Checksum, reduce and room counts cost O(runs).
    """

    assignee: NodeId
    runs: tuple[PairRun, ...]
    segment_index: int
    checksum: int
    pair_count: int

    @classmethod
    def build(cls, assignee: NodeId, runs: Iterable[PairRun],
              segment_index: int) -> "Segment":
        runs = tuple(runs)
        return cls(assignee, runs, segment_index, checksum_runs(runs),
                   sum(count for _, count in runs))


# A canonical room key: two spellings of one room would merge into one
# room number and break the room sum.
_ROOM_KEY = re.compile(r"Room[1-9][0-9]*")


def _valid_key_for_mode(key: str, mode: CountMode) -> bool:
    if mode is CountMode.VISITOR:
        return key in TAG_KEYS
    return _ROOM_KEY.fullmatch(key) is not None


@dataclass(frozen=True)
class PartialResult:
    """One reducer's aggregate map for one segment."""

    assignee: NodeId
    mode: CountMode
    aggregates: Mapping[str, int]
    input_pair_count: int

    def __post_init__(self) -> None:
        for key, count in self.aggregates.items():
            if not _valid_key_for_mode(key, self.mode):
                raise ValueError(f"key {key!r} invalid for mode {self.mode.value}")
            if count < 0:
                raise ValueError(f"negative aggregate for {key!r}")
        if self.input_pair_count < 0:
            raise ValueError("input_pair_count must be >= 0")


@dataclass(frozen=True)
class CycleResult:
    """Merged output of one completed cycle, ready to commit."""

    cycle_id: int
    visitor_aggregates: Mapping[TagCategory, int] = field(default_factory=dict)
    room_aggregates: Mapping[int, int] = field(default_factory=dict)
    total_readings: int = 0

    def __post_init__(self) -> None:
        if self.cycle_id < 0:
            raise ValueError("cycle_id must be >= 0")
        if self.total_readings < 0:
            raise ValueError("total_readings must be >= 0")
        for count in self.visitor_aggregates.values():
            if count < 0:
                raise ValueError("negative visitor aggregate")
        for count in self.room_aggregates.values():
            if count < 0:
                raise ValueError("negative room aggregate")
        # Room mode counts occurrences, so when it ran its counts must
        # add up to the number of readings in the cycle.
        if self.room_aggregates:
            if sum(self.room_aggregates.values()) != self.total_readings:
                raise ValueError("room aggregates do not sum to total_readings")


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------


# typed: 2 and 2.0 (or True and 1) must not share a pair.  Tags are
# keyed by their text, whose hash is cached, unlike the enum's.
@functools.lru_cache(maxsize=INTERN_LIMIT, typed=True)
def _visitor_pair(tag: str, room: int) -> KeyValuePair:
    return KeyValuePair(tag, room)


@functools.lru_cache(maxsize=INTERN_LIMIT, typed=True)
def _room_pair(room: int) -> KeyValuePair:
    return KeyValuePair(room_key(room), 1)


def map_reading(reading: SensorReading, mode: CountMode) -> KeyValuePair:
    """Map one reading to its counting pair for the given mode."""
    if mode is CountMode.VISITOR:
        # ``_value_`` is the member's plain attribute; ``value`` is a
        # property, and costs more than the cache lookup.
        return _visitor_pair(reading.tag._value_, reading.room)
    return _room_pair(reading.room)


def sort_pairs(pairs: Iterable[KeyValuePair]) -> list[KeyValuePair]:
    """Ascending, stable sort under the canonical pair order."""
    return sorted(pairs, key=operator.attrgetter("key", "value"))


def partition(pairs: Sequence[KeyValuePair],
              clients: Iterable[NodeId]) -> list[Segment]:
    """Split a sorted pair list into contiguous per-client segments.

    Clients are ordered by ascending node id.  Sizes differ by at most
    one, with the remainder going to the lowest ids, so 16 pairs over
    three clients split 6/5/5.  The list is cut as runs: a run that
    crosses a boundary is split in two.
    """
    client_ids = sorted(set(clients))
    if not client_ids:
        raise NoClients("cannot partition without clients")
    runs = pair_runs(pairs)
    heads = [(pair.key, pair.value) for pair, _ in runs]
    if heads != sorted(heads):
        raise ValueError("partition input must be sorted")
    base, remainder = divmod(len(pairs), len(client_ids))
    segments = []
    position = used = 0
    for index, client in enumerate(client_ids):
        size = base + (1 if index < remainder else 0)
        taken: list[PairRun] = []
        while size:
            pair, count = runs[position]
            take = min(count - used, size)
            taken.append((pair, take))
            size -= take
            used += take
            if used == count:
                position, used = position + 1, 0
        segments.append(Segment.build(client, taken, index))
    return segments


def reduce_segment(segment: Segment, mode: CountMode, *,
                   verified: bool = False) -> PartialResult:
    """Sum values per key after proving the segment arrived intact.

    ``verified`` skips the proof for a segment whose pairs are known to
    match its checksum: built here by ``partition``, or parsed with
    ``canonical`` from text whose checksum was checked.
    """
    if not verified and checksum_runs(segment.runs) != segment.checksum:
        raise ChecksumMismatch(
            f"segment {segment.segment_index} failed checksum verification"
        )
    aggregates: dict[str, int] = {}
    for pair, count in segment.runs:
        aggregates[pair.key] = aggregates.get(pair.key, 0) + pair.value * count
    return PartialResult(
        assignee=segment.assignee,
        mode=mode,
        aggregates=aggregates,
        input_pair_count=segment.pair_count,
    )


def merge_partials(partials: Sequence[PartialResult],
                   mode: CountMode) -> tuple[dict[str, int], int]:
    """Pointwise-sum partials; returns (aggregates, input pair total)."""
    merged: dict[str, int] = {}
    total_pairs = 0
    for partial in partials:
        if partial.mode is not mode:
            raise ModeMismatch(
                f"cannot merge {partial.mode.value} partial in {mode.value} merge"
            )
        for key, count in partial.aggregates.items():
            merged[key] = merged.get(key, 0) + count
        total_pairs += partial.input_pair_count
    return merged, total_pairs


def room_counts(runs: Iterable[PairRun]) -> list[tuple[int, int]]:
    """(room, readings) for visitor runs, in ``room_key`` order.

    A visitor pair (tag, room) carries the full reading, so room counts
    are derivable locally.
    """
    rooms: dict[int, int] = {}
    for pair, count in runs:
        rooms[pair.value] = rooms.get(pair.value, 0) + count
    return [(room, rooms[room]) for room in sorted(rooms, key=room_key)]


def derive_room_segment(segment: Segment) -> Segment:
    """Re-key a visitor segment by room, one run per room."""
    runs = [(_room_pair(room), count)
            for room, count in room_counts(segment.runs)]
    return Segment.build(segment.assignee, runs, segment.segment_index)


def sequential_oracle(readings: Iterable[SensorReading],
                      mode: CountMode) -> dict[str, int]:
    """Single-pass reference count, bypassing the distributed pipeline."""
    totals: dict[str, int] = {}
    for reading in readings:
        pair = map_reading(reading, mode)
        totals[pair.key] = totals.get(pair.key, 0) + pair.value
    return totals
