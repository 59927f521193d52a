"""Core value types: badge categories, readings, key/value pairs.

Visitors wear anonymized RFID badges carrying only a category (man,
woman, other).  Door readers emit a ``SensorReading`` per room entry;
inside a run a reading travels as one int, its key (``reading_key``).
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
import sys
from dataclasses import dataclass

DEFAULT_ROOM_COUNT = 4


class MiddlewareError(Exception):
    """Base class for every error this package raises on purpose."""


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


def room_key(room: int) -> str:
    """Serialize a room number as a counting key, e.g. 3 -> 'Room3'."""
    if room < 1:
        raise ValueError(f"room number must be positive, got {room}")
    return f"Room{room}"


# Room-mode pair keys: RoomN with no zero padding, so two spellings of
# one room never merge into one room number and break the room sum.
ROOM_KEY_RE = re.compile(r"Room[1-9][0-9]*")

# Valid counting keys: a tag key or a room key.
_KEY_RE = re.compile("|".join([*sorted(TAG_KEYS), ROOM_KEY_RE.pattern]))

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


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One badge read at a room entrance, as fixtures and tests give it.

    ``timestamp`` is milliseconds on the run's clock.  ``reader_id``
    identifies which of the paired door antennas fired.  A run carries
    a reading as its key, which ``reading_key`` checks and packs.
    """

    tag: TagCategory
    room: int
    timestamp: int
    reader_id: int = 0


# Visitor pair (tag, room) is symbol number 3 * (room - 1) + the tag's
# index in canonical order, written as code point _FIRST_SYMBOL + number
# with the UTF-16 surrogates skipped, since UTF-8 cannot carry them.
# The table fills every code point from '<' up; ';' and ',' lie below
# it, so a submission trace never holds a separator.
_FIRST_SYMBOL = 0x3C
_SURROGATES = 0xE000 - 0xD800
_TAG_INDEX = {tag.value: index
              for index, tag in enumerate(CANONICAL_TAG_ORDER)}
# The highest room a symbol can carry.
MAX_ROOM = (sys.maxunicode + 1 - _FIRST_SYMBOL - _SURROGATES) // 3


@functools.lru_cache(maxsize=INTERN_LIMIT)
def pair_symbol(tag: str, room: int) -> str:
    """The symbol of visitor pair (tag, room); ValueError if it has none."""
    if tag not in _TAG_INDEX or not 1 <= room <= MAX_ROOM:
        raise ValueError(f"no symbol for ({tag!r}, {room!r}): a room "
                         f"must be 1..{MAX_ROOM}")
    point = _FIRST_SYMBOL + 3 * (room - 1) + _TAG_INDEX[tag]
    return chr(point if point < 0xD800 else point + _SURROGATES)


@functools.lru_cache(maxsize=INTERN_LIMIT)
def symbol_pair(symbol: str) -> KeyValuePair:
    """The visitor pair ``symbol`` encodes: ``pair_symbol`` inverted."""
    point = ord(symbol)
    if point < _FIRST_SYMBOL or 0xD800 <= point < 0xE000:
        raise ValueError(f"not a pair symbol: {symbol!r}")
    if point >= 0xE000:
        point -= _SURROGATES
    room, tag = divmod(point - _FIRST_SYMBOL, 3)
    return KeyValuePair(CANONICAL_TAG_ORDER[tag].value, room + 1)


# A reading's key is its pair symbol's code point (below 2 ** KEY_SHIFT)
# under its timestamp: readings share a key exactly when they share tag,
# room and timestamp, as a double read and its original do.  Every key
# fits in 64 bits, so a batch of keys packs into one array of words.
KEY_SHIFT = 21
SYMBOL_MASK = (1 << KEY_SHIFT) - 1
MAX_TIMESTAMP = 2 ** (64 - KEY_SHIFT) - 1


def reading_key(reading: SensorReading) -> int:
    """Check ``reading`` where it enters a run and pack it into its key.

    ValueError unless the tag is a ``TagCategory``, the room an int in
    1..MAX_ROOM and the timestamp an int in 0..MAX_TIMESTAMP, so the key
    is below 2 ** 64; the reader id is dropped.
    """
    tag, room, timestamp = reading.tag, reading.room, reading.timestamp
    if not (isinstance(tag, TagCategory) and isinstance(room, int)):
        raise ValueError(f"not a tag and a room number: {tag!r}, {room!r}")
    if not isinstance(timestamp, int) or not 0 <= timestamp <= MAX_TIMESTAMP:
        raise ValueError(f"timestamp must be an int in 0..{MAX_TIMESTAMP}, "
                         f"got {timestamp!r}")
    # pair_symbol refuses a room outside 1..MAX_ROOM.
    return timestamp << KEY_SHIFT | ord(pair_symbol(tag.value, room))


def key_reading(key: int) -> SensorReading:
    """The reading that ``key`` packs, with reader id 0."""
    pair = symbol_pair(chr(key & SYMBOL_MASK))
    return SensorReading(TagCategory(pair.key), pair.value, key >> KEY_SHIFT)


class CountMode(enum.Enum):
    """What a cycle counts: visits per category or entries per room."""

    VISITOR = "visitor"
    ROOM = "room"
