"""Seeded visitor stream generator and replayable fixtures.

Models badge-wearing visitors walking a small set of rooms: each
visitor gets a category from the tag mix, enters at a random time,
then random-walks rooms (never re-entering the room just left) with a
uniform dwell per room.  Readers fire on entry only.  At a small rate
the paired doorway antenna double-reads a pass; those extra readings
are flagged in the ledger so downstream dedupe can be verified
exactly.  Everything is a pure function of the model, so one seed
always yields one stream.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import random
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

from crowdmw.domain import (
    KEY_SHIFT,
    TAG_KEYS,
    CountMode,
    MiddlewareError,
    SensorReading,
    TagCategory,
    key_reading,
    pair_symbol,
)
from crowdmw.mapreduce import parse_pairs, sequential_oracle


class UnknownFixture(MiddlewareError):
    """No fixture ships under that name."""


@dataclass
class VisitorModel:
    """Knobs for stream generation; defaults match the deployment."""

    seed: int
    visitor_count: int
    tag_mix: tuple[float, float, float] = (0.4, 0.5, 0.1)
    rooms: int = 4
    dwell_ms: tuple[int, int] = (100, 400)
    double_read_rate: float = 0.02

    def __post_init__(self) -> None:
        if self.visitor_count < 0:
            raise ValueError("visitor_count must be >= 0")
        if self.rooms < 1:
            raise ValueError("rooms must be >= 1")
        if abs(sum(self.tag_mix) - 1.0) > 1e-9:
            raise ValueError(f"tag_mix must sum to 1, got {self.tag_mix}")
        if any(p < 0 for p in self.tag_mix):
            raise ValueError("tag_mix probabilities must be >= 0")
        low, high = self.dwell_ms
        if low < 1 or high < low:
            raise ValueError(f"bad dwell range {self.dwell_ms}")
        if not 0.0 <= self.double_read_rate <= 1.0:
            raise ValueError("double_read_rate outside [0, 1]")


# Tag categories in mix order: man, woman, other.
_MIX_ORDER = (TagCategory.MAN, TagCategory.WOMAN, TagCategory.OTHER)


@dataclass(frozen=True)
class LedgerEntry:
    """Ground truth for one generated reading."""

    sequence: int
    tag: TagCategory
    room: int
    timestamp: int
    reader_id: int
    is_duplicate: bool

    def to_reading(self) -> SensorReading:
        return SensorReading(tag=self.tag, room=self.room,
                             timestamp=self.timestamp,
                             reader_id=self.reader_id)


@dataclass
class GenerationLedger:
    """Every generated reading as its key, in stream order.

    A run mostly needs only ``len()``, so the ``LedgerEntry`` values are
    built the first time ``entries`` (or anything reading it) asks, then
    cached; the sequence of an entry is its index.  Distinct visits
    never share a key, so a key seen earlier in the stream is a double
    read, read by its room's odd reader.
    """

    keys: Sequence[int] = ()

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries)

    @functools.cached_property
    def entries(self) -> list[LedgerEntry]:
        seen: set[int] = set()
        entries = []
        for sequence, key in enumerate(self.keys):
            read = key_reading(key)
            duplicate = key in seen
            seen.add(key)
            entries.append(LedgerEntry(sequence, read.tag, read.room,
                                       read.timestamp,
                                       2 * read.room + duplicate, duplicate))
        return entries

    def non_duplicates(self) -> list[LedgerEntry]:
        return [e for e in self.entries if not e.is_duplicate]

    def expected_counts(self, mode: CountMode) -> dict[str, int]:
        """Oracle totals over the deduplicated stream."""
        return sequential_oracle(
            (e.to_reading() for e in self.non_duplicates()), mode
        )

    def tag_proportions(self) -> dict[TagCategory, float]:
        readings = self.non_duplicates()
        if not readings:
            return {tag: 0.0 for tag in _MIX_ORDER}
        return {
            tag: sum(1 for e in readings if e.tag is tag) / len(readings)
            for tag in _MIX_ORDER
        }


def generate_stream(model: VisitorModel,
                    duration_ms: int) -> tuple[list[int], GenerationLedger]:
    """Generate the reading stream, as keys, and its ground-truth ledger.

    A key packs a reading's tag, room and timestamp
    (``domain.reading_key``); the ledger holds the returned list itself.
    Distinct visits never collide on (tag, room, timestamp); only an
    injected double read shares its original's key, which is exactly
    the collision collection-side dedupe collapses.

    A visit takes the first free millisecond of its (tag, room) lane at
    or after its arrival.  Lanes are numbered ``tag * (rooms + 1) +
    room`` and a slot is ``timestamp * lanes + lane``, so a lane's next
    millisecond is ``slot + lanes``.  ``after`` maps each taken slot to
    a later slot of its lane with every slot between them taken; a
    probe follows it and points the slots it passed at the slot after
    the one it takes, so a run of taken slots is crossed once, not once
    per visit that lands on it.  A room has no other room to walk to
    when the museum has one room, so such a walk ends there.

    The stream is ordered by (timestamp, visitor, ordinal).  A reading
    is filed in its millisecond's bucket as its lane when it is drawn,
    in that order within the millisecond, so the buckets in time order
    are the stream with no sort.  Nothing is built per room or lane in
    advance.  Rooms and walk lengths are the ``getrandbits`` draws of
    ``Random.choice`` and ``randint`` (``_randbelow``), inlined.
    """
    if duration_ms < 1:
        raise ValueError("duration_ms must be >= 1")
    rng = random.Random(model.seed)
    getrandbits = rng.getrandbits
    rooms = model.rooms
    lanes = len(_MIX_ORDER) * (rooms + 1)
    # Running sums of the mix: a roll picks the first category whose sum
    # exceeds it, the last one if rounding leaves the roll past them all.
    cumulative = list(itertools.accumulate(model.tag_mix[:len(_MIX_ORDER)]))
    walks = 2 * rooms
    walk_bits = walks.bit_length()
    low, high = model.dwell_ms
    after: dict[int, int] = {}
    # by_ms[timestamp] files each reading of that millisecond as its
    # lane, in draw order; a double read files its lane twice.
    by_ms: dict[int, list[int]] = collections.defaultdict(list)

    for _ in range(model.visitor_count):
        tag = min(bisect.bisect_right(cumulative, rng.random()),
                  len(_MIX_ORDER) - 1)
        # rng.uniform(a, b) is a + (b - a) * random(): the same draws.
        at = duration_ms * rng.random()
        steps = getrandbits(walk_bits)
        while steps >= walks:
            steps = getrandbits(walk_bits)
        room = 0
        for _ in range(1 + steps):
            # The walk goes to any room but the one it is in (0: outside).
            count = rooms - 1 if room else rooms
            if at >= duration_ms or not count:
                break
            draw = getrandbits(count.bit_length())
            while draw >= count:
                draw = getrandbits(count.bit_length())
            # Draw d picks the (d + 1)th of those rooms in order.
            draw += 1
            room = draw + (0 < room <= draw)
            lane = tag * (rooms + 1) + room
            slot = int(at) * lanes + lane
            passed = []
            while (later := after.get(slot)) is not None:
                passed.append(slot)
                slot = later
            for taken in passed:
                after[taken] = slot + lanes
            after[slot] = slot + lanes
            timestamp = slot // lanes
            bucket = by_ms[timestamp]
            bucket.append(lane)
            if rng.random() < model.double_read_rate:
                bucket.append(lane)
            at += low + (high - low) * rng.random()

    @functools.cache
    def code(lane: int) -> int:
        tag, room = divmod(lane, rooms + 1)
        return ord(pair_symbol(_MIX_ORDER[tag].value, room))

    keys: list[int] = []
    for timestamp in sorted(by_ms):
        keys += map((timestamp << KEY_SHIFT).__or__,
                    map(code, by_ms[timestamp]))
    return keys, GenerationLedger(keys)


def dedupe_readings(readings: Iterable[SensorReading]) -> list[SensorReading]:
    """Collapse paired-reader double reads: same tag, room, timestamp."""
    kept: dict[tuple[TagCategory, int, int], SensorReading] = {}
    for reading in readings:
        kept.setdefault((reading.tag, reading.room, reading.timestamp),
                        reading)
    return list(kept.values())


# ---------------------------------------------------------------------------
# Fixtures: canonical pair text shipped with the package.
# ---------------------------------------------------------------------------

_FIXTURE_SPACING_MS = 10


def list_fixtures() -> list[str]:
    names = []
    for item in resources.files("crowdmw.fixtures").iterdir():
        if item.name.endswith(".txt"):
            names.append(item.name[:-4])
    return sorted(names)


def replay_fixture(name: str) -> list[SensorReading]:
    """Load a named fixture as a reading stream.

    Fixture files hold one canonical pair line, e.g. ``man=1,woman=3``;
    timestamps are synthesized at a fixed spacing in file order.
    """
    try:
        text = (resources.files("crowdmw.fixtures") / f"{name}.txt").read_text(
            encoding="utf-8"
        )
    except (FileNotFoundError, OSError):
        raise UnknownFixture(f"no fixture named {name!r}") from None
    readings = []
    for index, pair in enumerate(parse_pairs(text)):
        if pair.key not in TAG_KEYS:
            raise ValueError(
                f"fixture {name!r} holds non-visitor key {pair.key!r}"
            )
        readings.append(SensorReading(tag=TagCategory(pair.key),
                                      room=pair.value,
                                      timestamp=index * _FIXTURE_SPACING_MS))
    return readings
