"""Pipeline stage tests, anchored to independently computed expectations.

The fixed 16-entry stream used throughout is the one whose visitor
totals are {man: 10, woman: 21, other: 12} and whose per-room counts
are {Room1: 2, Room2: 5, Room3: 5, Room4: 4}; both were computed by
hand from the raw pairs before any pipeline code existed.
"""

import dataclasses
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from crowdmw import domain, mapreduce
from crowdmw.domain import CountMode, KeyValuePair, SensorReading, TagCategory
from crowdmw.mapreduce import (
    ChecksumMismatch,
    NoClients,
    PartialResult,
    Segment,
    crc64,
    pair_runs,
    derive_room_segment,
    map_reading,
    merge_partials,
    parse_pairs,
    parse_runs,
    partition,
    reduce_segment,
    sequential_oracle,
    serialize_pairs,
    serialize_runs,
    sort_pairs,
)

RAW_STREAM = (
    "man=1,man=3,man=4,man=2,woman=3,other=3,other=4,other=3,other=2,"
    "woman=1,woman=4,woman=2,woman=2,woman=3,woman=2,woman=4"
)

# The sorted stream as run text: a run of k equal pairs is one item.
SORTED_STREAM = (
    "man=1,man=2,man=3,man=4,other=2,other=3*2,other=4,"
    "woman=1,woman=2*3,woman=3*2,woman=4*2"
)

VISITOR_TOTALS = {"man": 10, "other": 12, "woman": 21}
ROOM_COUNTS = {"Room1": 2, "Room2": 5, "Room3": 5, "Room4": 4}


def stream_pairs():
    return parse_pairs(RAW_STREAM)


def stream_readings():
    readings = []
    for index, pair in enumerate(stream_pairs()):
        readings.append(SensorReading(
            tag=TagCategory(pair.key), room=pair.value,
            timestamp=index, reader_id=2 * pair.value,
        ))
    return readings


# -- crc64 -------------------------------------------------------------

def test_crc64_known_answer():
    # Published check value for this polynomial/parameter set.
    assert crc64(b"123456789") == 0x6C40DF5F0B497347
    assert crc64(b"") == 0


def test_crc64_detects_single_byte_flip():
    rng = random.Random(5)
    data = bytes(rng.randrange(256) for _ in range(200))
    reference = crc64(data)
    for position in range(0, len(data), 17):
        flipped = bytearray(data)
        flipped[position] ^= 0x01
        assert crc64(bytes(flipped)) != reference


# -- serialization ----------------------------------------------------

def test_serialize_parse_roundtrip():
    pairs = stream_pairs()
    assert parse_pairs(serialize_pairs(pairs)) == pairs
    assert serialize_pairs([]) == ""
    assert parse_pairs("") == []


@pytest.mark.parametrize("text", ["man =1", " man=1", "man=1 ", "man=01",
                                  "man=+1", "man=1,man= 1"])
def test_canonical_parse_refuses_what_plain_parse_tolerates(text):
    assert parse_pairs(text)
    with pytest.raises(ValueError):
        parse_pairs(text, canonical=True)


def test_canonical_parse_round_trips():
    pairs = sort_pairs(stream_pairs())
    assert parse_pairs(serialize_pairs(pairs), canonical=True) == pairs
    assert parse_pairs("", canonical=True) == []
    runs = pair_runs(pairs)
    assert parse_runs(SORTED_STREAM, canonical=True) == runs
    assert serialize_runs(runs) == SORTED_STREAM


@pytest.mark.parametrize("text", [
    # Counts: plain ASCII decimal >= 2, no sign, space or leading zero.
    "man=1*1", "man=1*01", "man=1*+2", "man=1* 2", "man=1*\u0663",
    "man=1*-1", "man=1*2*3", "man=1*", "man=1*0",
    # Counts stay below 2**63, however many digits they are sent with.
    f"man=1*{2 ** 63}",
    pytest.param("man=1*" + "9" * 3000, id="man=1*<3000 digits>"),
    pytest.param("man=1*" + "9" * 5000, id="man=1*<5000 digits>"),
    # Neighbours are distinct pairs in ascending order.
    "man=1,man=1", "man=1*2,man=1", "man=2,man=1", "woman=1,man=1",
    "man=10,man=9", "Room2=1,Room10=1",
])
def test_canonical_parse_refuses_non_canonical_runs(text):
    with pytest.raises(ValueError):
        parse_runs(text, canonical=True)


def test_run_counts_are_never_expanded():
    text = "man=1*1000000000000000000,woman=4*3"
    runs = parse_runs(text, canonical=True)
    assert runs == [(KeyValuePair("man", 1), 10 ** 18),
                    (KeyValuePair("woman", 4), 3)]
    assert serialize_runs(runs) == text


# -- crc64 against the byte loop ----------------------------------------
#
# The plain one-byte-at-a-time table loop below is the oracle.

_POLY = 0x42F0E1EBA9EA3693
_MASK = (1 << 64) - 1


def _oracle_table():
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ (_POLY if crc >> 63 else 0)) & _MASK
        table.append(crc)
    return table


_ORACLE_TABLE = _oracle_table()


def crc64_bytewise(data: bytes) -> int:
    crc = 0
    for b in data:
        crc = (_ORACLE_TABLE[((crc >> 56) ^ b) & 0xFF] ^ (crc << 8)) & _MASK
    return crc


def test_oracle_known_answer():
    assert crc64_bytewise(b"123456789") == 0x6C40DF5F0B497347


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=2048),
    st.text(max_size=600).map(lambda t: t.encode("utf-8")),
))
def test_crc64_matches_bytewise_on_arbitrary_bytes(data):
    assert crc64(data) == crc64_bytewise(data)


PAIR_ITEMS = [f"{key}={value}".encode() for key in ("man", "other", "woman")
              for value in (1, 2, 3, 12)] + [b"Room1=1", b"Room10=1"]


# Shrinking a megabyte of text through the byte loop takes minutes and
# says nothing the failing example does not.
@settings(max_examples=5, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.lists(st.tuples(st.sampled_from(PAIR_ITEMS), st.integers(1, 40)),
             max_size=6),
    st.sampled_from(PAIR_ITEMS),
    st.integers(100_001, 120_000),
)
def test_crc64_matches_bytewise_on_long_sorted_runs(runs, item, count):
    runs = sorted(runs + [(item, count)])
    text = b",".join(b",".join([block] * k) for block, k in runs)
    assert crc64(text) == crc64_bytewise(text)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([b"", b"man=1", b"\xc3\xa9", b"x"]),
                       st.integers(1, 300)), max_size=8),
    st.booleans(), st.booleans(),
)
def test_crc64_matches_bytewise_with_empty_items(runs, lead, trail):
    text = b",".join(b",".join([block] * k) for block, k in runs)
    text = b"," * lead + text + b"," * trail
    assert crc64(text) == crc64_bytewise(text)


def test_crc64_empty_items_and_edges():
    for text in (b",,", b",", b",man=1", b"man=1,", b",," * 600,
                 b"," + b"man=1," * 400, b"man=1," * 400 + b"woman=2"):
        assert crc64(text) == crc64_bytewise(text)


@given(st.binary(min_size=1, max_size=64), st.integers(0, 63))
def test_crc64_bit_flip_property(data, bit):
    bit = bit % (len(data) * 8)
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert crc64(bytes(flipped)) != crc64(data)


# -- validation survives the pair caches ---------------------------------
#
# Pairs and keys are cached once they pass validation.  A cache must
# never turn a failure into a success: the same bad input raises the
# first time, the second time, and after a valid pair with the same key
# was cached.

BAD_KEYS = ["Room0", "x", "man "]


@pytest.mark.parametrize("key", BAD_KEYS)
def test_bad_key_raises_before_and_after_caching(key):
    for _ in range(2):
        with pytest.raises(ValueError):
            KeyValuePair(key, 1)
    KeyValuePair("man", 1)
    KeyValuePair("Room1", 1)
    with pytest.raises(ValueError):
        KeyValuePair(key, 1)


@pytest.mark.parametrize("value", [True, False, -1])
def test_bad_value_raises_after_key_was_cached(value):
    KeyValuePair("man", 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            KeyValuePair("man", value)


# parse_pairs strips whitespace around keys by contract, so "man " is
# only a bad key through KeyValuePair and the submission grammar.
@pytest.mark.parametrize("text", ["Room0=1", "x=1", "man=-1", "man=True",
                                  "man", "man=1,Room0=1"])
def test_parse_pairs_rejects_before_and_after_caching(text):
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_pairs(text)
    assert parse_pairs("man=1,Room1=1") == [KeyValuePair("man", 1),
                                            KeyValuePair("Room1", 1)]
    with pytest.raises(ValueError):
        parse_pairs(text)


def test_map_reading_cache_keeps_type_checks():
    good = SensorReading(tag=TagCategory.MAN, room=1, timestamp=0)
    assert map_reading(good, CountMode.VISITOR) == KeyValuePair("man", 1)
    # room=True passes SensorReading's checks; the pair still rejects it.
    odd = SensorReading(tag=TagCategory.MAN, room=True, timestamp=0)
    for _ in range(2):
        with pytest.raises(ValueError):
            map_reading(odd, CountMode.VISITOR)


def _cache_sizes():
    sizes = []
    for cached in (domain._check_key, mapreduce._parse_pair,
                   mapreduce._visitor_pair, mapreduce._room_pair):
        info = cached.cache_info()
        sizes.append((info.currsize, info.maxsize))
    return sizes


def test_many_distinct_keys_parse_and_stay_bounded():
    count = 20_000
    assert count > domain.INTERN_LIMIT
    text = ",".join(f"Room{i}=1" for i in range(1, count + 1))
    pairs = parse_pairs(text)
    assert [p.key for p in pairs] == [f"Room{i}" for i in range(1, count + 1)]
    assert all(p.value == 1 for p in pairs)
    readings = [SensorReading(tag=TagCategory.OTHER, room=i, timestamp=i)
                for i in range(1, count + 1)]
    for mode in CountMode:
        assert sum(sequential_oracle(readings, mode).values()) == (
            count if mode is CountMode.ROOM else count * (count + 1) // 2)
    for size, bound in _cache_sizes():
        assert size <= bound
    # Past the bounds, new keys are still checked, good and bad alike.
    assert parse_pairs(f"Room{count + 1}=2") == [
        KeyValuePair(f"Room{count + 1}", 2)]
    with pytest.raises(ValueError):
        parse_pairs("Room0=1")


# -- map and sort -------------------------------------------------------

def test_map_reading_visitor_and_room():
    reading = SensorReading(tag=TagCategory.WOMAN, room=3, timestamp=0)
    assert map_reading(reading, CountMode.VISITOR) == KeyValuePair("woman", 3)
    assert map_reading(reading, CountMode.ROOM) == KeyValuePair("Room3", 1)


def test_sort_pairs_produces_canonical_stream():
    assert serialize_pairs(sort_pairs(stream_pairs())) == SORTED_STREAM


def test_sort_pairs_orders_key_then_value():
    pairs = [KeyValuePair("woman", 1), KeyValuePair("man", 9),
             KeyValuePair("man", 2), KeyValuePair("other", 5)]
    ordered = sort_pairs(pairs)
    assert [(p.key, p.value) for p in ordered] == [
        ("man", 2), ("man", 9), ("other", 5), ("woman", 1),
    ]


# -- partition ----------------------------------------------------------

def test_partition_sixteen_pairs_three_clients():
    segments = partition(sort_pairs(stream_pairs()), [9, 2, 5])
    assert [s.pair_count for s in segments] == [6, 5, 5]
    assert [s.assignee for s in segments] == [2, 5, 9]
    rebuilt = [p for s in segments for p, k in s.runs for _ in range(k)]
    assert serialize_pairs(rebuilt) == SORTED_STREAM
    # The other=3 run crosses the 6/5 boundary and is cut in two.
    assert segments[0].runs[-1] == (KeyValuePair("other", 3), 1)
    assert segments[1].runs[0] == (KeyValuePair("other", 3), 1)
    for segment in segments:
        assert segment.checksum == crc64(
            serialize_runs(segment.runs).encode())


def test_partition_fewer_pairs_than_clients():
    pairs = sort_pairs(stream_pairs()[:2])
    segments = partition(pairs, [3, 1, 2])
    assert [s.pair_count for s in segments] == [1, 1, 0]
    assert [s.assignee for s in segments] == [1, 2, 3]


def test_partition_rejects_unsorted_and_empty_clients():
    with pytest.raises(ValueError):
        partition(stream_pairs(), [1, 2])
    with pytest.raises(NoClients):
        partition(sort_pairs(stream_pairs()), [])


@given(
    st.lists(
        st.tuples(st.sampled_from(["man", "woman", "other"]),
                  st.integers(1, 4)),
        max_size=60,
    ),
    st.integers(1, 8),
)
def test_partition_sizes_differ_by_at_most_one(raw, clients):
    pairs = sort_pairs(KeyValuePair(k, v) for k, v in raw)
    segments = partition(pairs, list(range(1, clients + 1)))
    sizes = [s.pair_count for s in segments]
    assert sum(sizes) == len(pairs)
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


# -- reduce and merge ---------------------------------------------------

def test_reduce_segment_sums_by_key():
    segment = Segment.build(assignee=1,
                            runs=pair_runs(sort_pairs(stream_pairs())),
                            segment_index=0)
    partial = reduce_segment(segment, CountMode.VISITOR)
    assert dict(partial.aggregates) == VISITOR_TOTALS
    assert partial.input_pair_count == 16


def test_reduce_segment_rejects_tampered_checksum():
    good = Segment.build(assignee=1,
                         runs=pair_runs(sort_pairs(stream_pairs())),
                         segment_index=0)
    bad = dataclasses.replace(good, checksum=good.checksum ^ 1)
    with pytest.raises(ChecksumMismatch):
        reduce_segment(bad, CountMode.VISITOR)
    # A caller that proved the pairs itself skips the checksum pass.
    assert reduce_segment(bad, CountMode.VISITOR, verified=True) == \
        reduce_segment(good, CountMode.VISITOR)


def test_derive_room_segment_matches_per_pair_derivation():
    pairs = sort_pairs(KeyValuePair(tag, room) for tag in ("man", "woman")
                       for room in (1, 2, 10, 11, 3) for _ in range(room))
    segment = Segment.build(assignee=4, runs=pair_runs(pairs),
                            segment_index=2)
    expected = Segment.build(4, pair_runs(sort_pairs(
        KeyValuePair(f"Room{p.value}", 1) for p in pairs)), 2)
    assert derive_room_segment(segment) == expected
    assert serialize_runs(expected.runs) == (
        "Room1=1*2,Room10=1*20,Room11=1*22,Room2=1*4,Room3=1*6")


def test_derive_room_segment_counts_rooms():
    segment = Segment.build(assignee=1,
                            runs=pair_runs(sort_pairs(stream_pairs())),
                            segment_index=0)
    room_partial = reduce_segment(derive_room_segment(segment),
                                  CountMode.ROOM)
    assert dict(room_partial.aggregates) == ROOM_COUNTS


def test_merge_partials_table_totals():
    segments = partition(sort_pairs(stream_pairs()), [1, 2, 3])
    partials = [reduce_segment(s, CountMode.VISITOR) for s in segments]
    merged, count = merge_partials(partials, CountMode.VISITOR)
    assert merged == VISITOR_TOTALS
    assert count == 16


def test_sequential_oracle_both_modes():
    readings = stream_readings()
    assert sequential_oracle(readings, CountMode.VISITOR) == VISITOR_TOTALS
    assert sequential_oracle(readings, CountMode.ROOM) == ROOM_COUNTS


def _distributed(readings, clients, mode):
    """Full library pipeline: map, sort, partition, reduce, merge."""
    pairs = sort_pairs(
        map_reading(r, CountMode.VISITOR) for r in readings
    )
    segments = partition(pairs, clients)
    if mode is CountMode.ROOM:
        segments = [derive_room_segment(s) for s in segments]
    partials = [reduce_segment(s, mode) for s in segments]
    merged, count = merge_partials(partials, mode)
    assert count == len(readings)
    return merged


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_distribution_invariance(seed, clients):
    # However the pairs are split, totals match the sequential pass.
    rng = random.Random(seed)
    readings = [
        SensorReading(
            tag=rng.choice(list(TagCategory)),
            room=rng.randint(1, 4),
            timestamp=i,
        )
        for i in range(rng.randint(1, 300))
    ]
    client_ids = list(range(1, clients + 1))
    for mode in (CountMode.VISITOR, CountMode.ROOM):
        expected = sequential_oracle(readings, mode)
        assert _distributed(readings, client_ids, mode) == expected
