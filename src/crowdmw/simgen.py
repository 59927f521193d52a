"""Seeded visitor stream generator and replayable fixtures.

Models badge-wearing visitors walking a small set of rooms: each
visitor gets a category from the tag mix, enters at a random time,
then random-walks rooms (never re-entering the room just left) with a
uniform dwell per room.  Readers fire on entry only.  At a small rate
the paired doorway antenna double-reads a pass.  The stream is a list
of reading keys; distinct visits never share a key, so a repeated key
is the double read, and downstream dedupe can be verified exactly.
Everything is a pure function of the model, so one seed always yields
one stream.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from crowdmw.domain import (
    KEY_SHIFT,
    TAG_KEYS,
    MiddlewareError,
    SensorReading,
    TagCategory,
    pair_symbol,
)
from crowdmw.mapreduce import parse_pairs


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
        if len(self.tag_mix) != len(_MIX_ORDER):
            raise ValueError(f"tag_mix needs {len(_MIX_ORDER)} weights "
                             f"(man, woman, other), got {self.tag_mix}")
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


def generate_stream(model: VisitorModel, duration_ms: int) -> list[int]:
    """Generate the reading stream as keys, in stream order.

    A key packs a reading's tag, room and timestamp
    (``domain.reading_key``).  Distinct visits never collide on (tag,
    room, timestamp); only an injected double read shares its
    original's key, which is exactly the collision collection-side
    dedupe collapses.

    A visit takes the first free millisecond of its (tag, room) lane at
    or after its arrival.  Lanes are numbered ``tag * (rooms + 1) +
    room`` and a millisecond's bucket holds the lanes taken in it, so
    one lookup places a visit whose lane is free.  A slot is
    ``timestamp * lanes + lane``, so a lane's next millisecond is
    ``slot + lanes``.  ``after`` maps a slot that a probe crossed to a
    later slot of its lane with every slot between them taken.  A probe
    from a taken slot follows it (one millisecond on where it has no
    entry) to a bucket that lacks the lane, then points the slots it
    passed at the slot after the one it takes, so a run of taken slots
    is crossed once, not once per visit that lands on it.  A room has
    no other room to walk to when the museum has one room, so such a
    walk ends there.

    The stream is ordered by (timestamp, visitor, ordinal).  A reading
    is filed in its millisecond's bucket as its lane when it is drawn,
    in that order within the millisecond, so the buckets in time order
    are the stream with no sort; each is dropped as its keys are
    emitted.  Nothing is built per room or lane in advance.  Rooms and
    walk lengths are the ``getrandbits`` draws of ``Random.choice`` and
    ``randint`` (``_randbelow``), inlined.
    """
    if duration_ms < 1:
        raise ValueError("duration_ms must be >= 1")
    rng = random.Random(model.seed)
    getrandbits = rng.getrandbits
    rooms = model.rooms
    lanes = len(_MIX_ORDER) * (rooms + 1)
    # Running sums of the mix: a roll picks the first category whose sum
    # exceeds it.  The last sum is open-ended, so a roll that rounding
    # leaves past them all picks the last category.
    cumulative = [*itertools.accumulate(model.tag_mix[:-1]), math.inf]
    walks = 2 * rooms
    walk_bits = walks.bit_length()
    room_bits = rooms.bit_length()
    others = rooms - 1
    other_bits = others.bit_length()
    low, high = model.dwell_ms
    span = high - low
    double_read_rate = model.double_read_rate
    rand = rng.random
    after: dict[int, int] = {}
    # by_ms[timestamp] files each reading of that millisecond as its
    # lane, in draw order; a double read files its lane twice.
    by_ms: dict[int, list[int]] = collections.defaultdict(list)

    for _ in range(model.visitor_count):
        base = (rooms + 1) * bisect.bisect_right(cumulative, rand())
        # rng.uniform(a, b) is a + (b - a) * random(): the same draws.
        at = duration_ms * rand()
        steps = getrandbits(walk_bits)
        while steps >= walks:
            steps = getrandbits(walk_bits)
        # The first step enters from outside, so any room will do.  It
        # starts before duration_ms: a float below 1 times an integer
        # below 2**53 rounds to below that integer.
        room = getrandbits(room_bits)
        while room >= rooms:
            room = getrandbits(room_bits)
        room += 1
        while True:
            lane = base + room
            bucket = by_ms[int(at)]
            if lane in bucket:
                slot = int(at) * lanes + lane
                passed = []
                while lane in bucket:
                    passed.append(slot)
                    slot = after.get(slot, slot + lanes)
                    bucket = by_ms[slot // lanes]
                beyond = slot + lanes
                for taken in passed:
                    after[taken] = beyond
            bucket.append(lane)
            if rand() < double_read_rate:
                bucket.append(lane)
            at += low + span * rand()
            if not steps or at >= duration_ms or not others:
                break
            steps -= 1
            # Any room but this one: draw d picks the (d + 1)th of them.
            draw = getrandbits(other_bits)
            while draw >= others:
                draw = getrandbits(other_bits)
            draw += 1
            room = draw + (room <= draw)
    after.clear()

    @functools.cache
    def code(lane: int) -> int:
        tag, room = divmod(lane, rooms + 1)
        return ord(pair_symbol(_MIX_ORDER[tag].value, room))

    keys: list[int] = []
    for timestamp in sorted(by_ms):
        keys += map((timestamp << KEY_SHIFT).__or__,
                    map(code, by_ms.pop(timestamp)))
    return keys


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
