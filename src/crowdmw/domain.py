"""Core value types: badge categories, readings, key/value pairs.

Visitors wear anonymized RFID badges carrying only a category (man,
woman, other).  Door readers emit a ``SensorReading`` per room entry.
The counting pipeline works on ``KeyValuePair`` values whose ordering
is fixed here so every stage sorts the same way.

The key space is tiny (three tags and R rooms), so the pipeline shares
one frozen pair object per distinct pair instead of building one per
reading.  Compare pairs with ``==``, never ``is``: sharing is a cache,
not part of a pair's meaning.  Never mutate a pair.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass

DEFAULT_ROOM_COUNT = 4


class MiddlewareError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownTag(MiddlewareError):
    """Token does not name one of the badge categories."""


class TagCategory(enum.Enum):
    """Badge category on a visitor's wristband."""

    MAN = "man"
    WOMAN = "woman"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


# Visitor-mode pair keys: one per badge category.
TAG_KEYS: frozenset[str] = frozenset(tag.value for tag in TagCategory)

# Keys sort lexicographically, so the canonical tag order is
# man < other < woman.
CANONICAL_TAG_ORDER: tuple[TagCategory, ...] = tuple(
    sorted(TagCategory, key=lambda t: t.value)
)


def parse_tag(token: str) -> TagCategory:
    """Parse a category token, case-insensitively.

    Raises UnknownTag for anything that is not man/woman/other.
    """
    normalized = token.strip().lower()
    for tag in TagCategory:
        if tag.value == normalized:
            return tag
    raise UnknownTag(f"unknown tag category: {token!r}")


def validate_room(room: int, room_count: int = DEFAULT_ROOM_COUNT) -> int:
    """Check a room number against the configured room count."""
    if not isinstance(room, int) or isinstance(room, bool):
        raise ValueError(f"room number must be an int, got {room!r}")
    if not 1 <= room <= room_count:
        raise ValueError(f"room number {room} outside 1..{room_count}")
    return room


def room_key(room: int) -> str:
    """Serialize a room number as a counting key, e.g. 3 -> 'Room3'."""
    if room < 1:
        raise ValueError(f"room number must be positive, got {room}")
    return f"Room{room}"


# Valid counting keys: a canonical tag or RoomN (no zero padding).
_KEY_RE = re.compile(r"man|woman|other|Room[1-9][0-9]*")

# Bound of every pair and key cache.  A full cache drops its least
# recently used entry; whatever is not cached is checked and built
# exactly as without a cache.
INTERN_LIMIT = 4096


@functools.lru_cache(maxsize=INTERN_LIMIT)
def _check_key(key: str) -> None:
    """Raise ValueError unless ``key`` is a valid counting key.

    Only keys that pass are remembered: a raise is never cached.
    """
    if not _KEY_RE.fullmatch(key):
        raise ValueError(f"invalid pair key: {key!r}")


@dataclass(frozen=True, order=True)
class KeyValuePair:
    """One (key, value) pair in the counting pipeline.

    Ordering is lexicographic on key, then numeric on value; the
    dataclass field order gives exactly that, so sorted() does the
    right thing.
    """

    key: str
    value: int

    def __post_init__(self) -> None:
        _check_key(self.key)
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise ValueError(f"pair value must be an int, got {self.value!r}")
        if self.value < 0:
            raise ValueError(f"pair value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class SensorReading:
    """One badge read at a room entrance.

    ``timestamp`` is milliseconds on the run's clock.  ``reader_id``
    identifies which of the paired door antennas fired; the pipeline
    only uses it to collapse double reads of the same pass.
    """

    tag: TagCategory
    room: int
    timestamp: int
    reader_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tag, TagCategory):
            raise ValueError(f"tag must be a TagCategory, got {self.tag!r}")
        if self.room < 1:
            raise ValueError(f"room number must be positive, got {self.room}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")
        if self.reader_id < 0:
            raise ValueError(f"reader_id must be >= 0, got {self.reader_id}")


class CountMode(enum.Enum):
    """What a cycle counts: visits per category or entries per room."""

    VISITOR = "visitor"
    ROOM = "room"
