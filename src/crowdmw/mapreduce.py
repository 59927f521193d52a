"""Two-mode counting pipeline: map, sort, partition, reduce, merge.

VISITOR mode keys pairs by badge category and sums the room numbers
recorded for that category.  ROOM mode keys pairs by room and counts
occurrences.  Segments carry a CRC-64 checksum over their canonical
text serialization so a reducer can prove it worked on exactly the
pairs the leader dispatched.

The key space is tiny, so a sorted pair list is a handful of runs of
equal pairs.  Checksums, serialization, parsing and reduction work per
run rather than per pair (``crc64`` states the folding identity and
when it falls back to the byte loop); the bytes and checksums they
produce are exactly the pair-by-pair ones.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

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
T = TypeVar("T")


class NoClients(MiddlewareError):
    """Partitioning requires at least one client node."""


class ChecksumMismatch(MiddlewareError):
    """Segment content does not match its checksum."""


class ModeMismatch(MiddlewareError):
    """Partial results from different counting modes cannot merge."""


def _runs(items: Iterable[T]) -> Iterator[tuple[T, int]]:
    """(item, count) for each run of equal neighbours, in order."""
    for item, run in itertools.groupby(items):
        yield item, len(list(run))


# ---------------------------------------------------------------------------
# CRC-64, ECMA-182 polynomial, most-significant-bit first, zero init.
# ---------------------------------------------------------------------------

_CRC64_POLY = 0x42F0E1EBA9EA3693
_MASK64 = (1 << 64) - 1
_FOLD_MIN_BYTES = 512
# Below about this many bytes the table loop beats a fold (measured
# with 6- and 9-byte items on CPython 3.11).
_FOLD_MIN_RUN_BYTES = 256


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


def _crc_bytes(crc: int, data: bytes) -> int:
    """Continue the table loop from state ``crc`` over ``data``."""
    table, mask = _CRC_TABLE, _MASK64
    for b in data:
        crc = table[(crc >> 56) ^ b] ^ ((crc << 8) & mask)
    return crc


@functools.lru_cache(maxsize=256)
def _shift_table(nbytes: int) -> tuple[int, ...]:
    """i * x^(8*nbytes) mod P for every 4-bit polynomial i."""
    if nbytes <= 64:
        power = _crc_bytes(1, bytes(nbytes))
    else:
        half = nbytes // 2
        power = _shift(_shift_table(nbytes - half)[1], half)
    table = [0, power]
    for _ in range(3):
        power = ((power << 1) ^ (_CRC64_POLY if power >> 63 else 0)) & _MASK64
        table += [power ^ low for low in table]
    return tuple(table)


def _shift(crc: int, nbytes: int) -> int:
    """crc * x^(8*nbytes) mod P: the state after nbytes zero bytes."""
    # _CRC_TABLE[t] is t * x^64 mod P: it folds back the four bits t
    # that each 4-bit step shifts out.
    table, carry, mask = _shift_table(nbytes), _CRC_TABLE, _MASK64
    out = 0
    for bits in range(60, -4, -4):
        out = (((out << 4) & mask) ^ carry[out >> 60]
               ^ table[(crc >> bits) & 15])
    return out


def _fold_run(crc: int, block: bytes, count: int) -> int:
    """Continue from state ``crc`` over ``count`` copies of ``block``."""
    block_crc, size = _crc_bytes(0, block), len(block)
    while True:
        if count & 1:
            crc = _shift(crc, size) ^ block_crc
        count >>= 1
        if not count:
            return crc
        block_crc ^= _shift(block_crc, size)
        size *= 2


def crc64(data: bytes) -> int:
    """CRC-64 over raw bytes (ECMA polynomial, no reflection).

    With zero init and no final xor the CRC is linear: for any bytes A
    and B, crc(A + B) = crc(A) * x^(8|B|) mod P xor crc(B).  Segment
    text is sorted ``key=value`` items, so it is a handful of runs of
    one repeated item, and a run of k copies of ``item,`` folds in
    O(log k) by doubling: crc(u^2m) = crc(u^m) * x^(8m|u|) mod P xor
    crc(u^m), with x^(8n) mod P from a bounded cache.

    Fallback: inputs under _FOLD_MIN_BYTES, inputs where fewer than a
    quarter of the items repeat their neighbour, runs under
    _FOLD_MIN_RUN_BYTES and the last item go through the byte table
    loop, so text without runs costs what it always did.  Either way
    the value is the byte loop's, bit for bit.
    """
    if len(data) < _FOLD_MIN_BYTES:
        return _crc_bytes(0, data)
    blocks = data.split(b",")
    repeats = sum(map(operator.eq, blocks, itertools.islice(blocks, 1, None)))
    if repeats * 4 < len(blocks):
        return _crc_bytes(0, data)
    # Every block but the last is followed by a comma; the last one and
    # whatever was not folded go through the table loop.
    crc = pending = pos = 0
    for block, count in _runs(itertools.islice(blocks, len(blocks) - 1)):
        width = len(block) + 1
        if count > 1 and count * width >= _FOLD_MIN_RUN_BYTES:
            crc = _crc_bytes(crc, data[pending:pos])
            crc = _fold_run(crc, data[pos:pos + width], count)
            pending = pos + count * width
        pos += count * width
    return _crc_bytes(crc, data[pending:])


# ---------------------------------------------------------------------------
# Canonical pair serialization: "key=value" joined by commas.
# ---------------------------------------------------------------------------


def serialize_pairs(pairs: Iterable[KeyValuePair]) -> str:
    """Canonical text form of a pair list, whitespace-free.

    ``key=value`` is formatted once per run of equal pairs.
    """
    texts: list[str] = []
    for pair, count in _runs(pairs):
        texts += [f"{pair.key}={pair.value}"] * count
    return ",".join(texts)


@functools.lru_cache(maxsize=INTERN_LIMIT)
def _parse_pair(item: str) -> KeyValuePair:
    key, sep, value = item.partition("=")
    if not sep:
        raise ValueError(f"malformed pair entry: {item!r}")
    return KeyValuePair(key.strip(), int(value.strip()))


def parse_pairs(text: str, *, canonical: bool = False) -> list[KeyValuePair]:
    """Inverse of serialize_pairs; tolerates surrounding whitespace.

    With ``canonical`` it tolerates nothing: ``text`` must be exactly
    ``serialize_pairs`` of the result (no spaces, signs or leading
    zeros), else ValueError.  Then the checksum of ``text`` is the
    checksum of the pairs, and a reducer need not compute it again.
    Equal items share one pair object, parsed once per run.
    """
    stripped = text.strip()
    if canonical and stripped != text:
        raise ValueError("pair text has surrounding whitespace")
    if not stripped:
        return []
    pairs: list[KeyValuePair] = []
    for item, count in _runs(stripped.split(",")):
        pair = _parse_pair(item)
        if canonical and item != f"{pair.key}={pair.value}":
            raise ValueError(f"non-canonical pair entry: {item!r}")
        pairs += [pair] * count
    return pairs


def checksum_pairs(pairs: Iterable[KeyValuePair]) -> int:
    return crc64(serialize_pairs(pairs).encode("utf-8"))


# ---------------------------------------------------------------------------
# Pipeline value types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Contiguous slice of the consolidated pair list for one reducer."""

    assignee: NodeId
    pairs: tuple[KeyValuePair, ...]
    segment_index: int
    checksum: int

    @classmethod
    def build(cls, assignee: NodeId, pairs: Sequence[KeyValuePair],
              segment_index: int) -> "Segment":
        pairs = tuple(pairs)
        return cls(assignee, pairs, segment_index, checksum_pairs(pairs))


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


def _is_sorted(pairs: Sequence[KeyValuePair]) -> bool:
    heads = [(p.key, p.value) for p, _ in itertools.groupby(pairs)]
    return heads == sorted(heads)


def partition(pairs: Sequence[KeyValuePair],
              clients: Iterable[NodeId]) -> list[Segment]:
    """Split a sorted pair list into contiguous per-client segments.

    Clients are ordered by ascending node id.  Sizes differ by at most
    one, with the remainder going to the lowest ids, so 16 pairs over
    three clients split 6/5/5.
    """
    client_ids = sorted(set(clients))
    if not client_ids:
        raise NoClients("cannot partition without clients")
    if not _is_sorted(pairs):
        raise ValueError("partition input must be sorted")
    total = len(pairs)
    base, remainder = divmod(total, len(client_ids))
    segments = []
    start = 0
    for index, client in enumerate(client_ids):
        size = base + (1 if index < remainder else 0)
        segments.append(Segment.build(client, pairs[start:start + size], index))
        start += size
    return segments


def reduce_segment(segment: Segment, mode: CountMode, *,
                   verified: bool = False) -> PartialResult:
    """Sum values per key after proving the segment arrived intact.

    ``verified`` skips the proof for a segment whose pairs are known to
    match its checksum: built here by ``partition``, or parsed with
    ``canonical`` from text whose checksum was checked.
    """
    if not verified and checksum_pairs(segment.pairs) != segment.checksum:
        raise ChecksumMismatch(
            f"segment {segment.segment_index} failed checksum verification"
        )
    aggregates: dict[str, int] = {}
    for pair, count in _runs(segment.pairs):
        aggregates[pair.key] = aggregates.get(pair.key, 0) + pair.value * count
    return PartialResult(
        assignee=segment.assignee,
        mode=mode,
        aggregates=aggregates,
        input_pair_count=len(segment.pairs),
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


def room_counts(pairs: Iterable[KeyValuePair]) -> list[tuple[int, int]]:
    """(room, readings) for visitor pairs, in ``room_key`` order.

    A visitor pair (tag, room) carries the full reading, so room counts
    are derivable locally.  Rooms are counted per run of equal pairs.
    """
    rooms: dict[int, int] = {}
    for pair, count in _runs(pairs):
        rooms[pair.value] = rooms.get(pair.value, 0) + count
    return [(room, rooms[room]) for room in sorted(rooms, key=room_key)]


def derive_room_segment(segment: Segment) -> Segment:
    """Re-key a visitor segment by room, one shared pair per reading."""
    room_pairs: list[KeyValuePair] = []
    for room, count in room_counts(segment.pairs):
        room_pairs += [_room_pair(room)] * count
    return Segment.build(segment.assignee, room_pairs, segment.segment_index)


def sequential_oracle(readings: Iterable[SensorReading],
                      mode: CountMode) -> dict[str, int]:
    """Single-pass reference count, bypassing the distributed pipeline."""
    totals: dict[str, int] = {}
    for reading in readings:
        pair = map_reading(reading, mode)
        totals[pair.key] = totals.get(pair.key, 0) + pair.value
    return totals
