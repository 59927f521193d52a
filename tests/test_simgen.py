"""Stream generator and fixture replay checks.

The generator must be a pure function of its model: same seed, same
stream.  The stream's keys are ground truth for fault tests: a repeated
key is a double read, so the duplicates and the deduplicated totals are
views of the key list, checked here exactly.  ``probe_generate_stream``
below keeps the generator as it was before the next-free-slot map,
probing a set one millisecond at a time; the generator must reproduce
its key list, double reads included, key for key.
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmw.domain import (
    MAX_ROOM,
    CountMode,
    SensorReading,
    TagCategory,
    key_reading,
    reading_key,
)
from crowdmw.mapreduce import sequential_oracle
from crowdmw.simgen import (
    UnknownFixture,
    VisitorModel,
    dedupe_readings,
    generate_stream,
    list_fixtures,
    replay_fixture,
)


_MIX_ORDER = (TagCategory.MAN, TagCategory.WOMAN, TagCategory.OTHER)


def probe_generate_stream(model, duration_ms):
    """The generator before the next-free-slot map: its reading keys."""
    rng = random.Random(model.seed)
    used_slots = set()
    raw = []
    for visitor in range(model.visitor_count):
        roll = rng.random()
        cumulative = 0.0
        tag = _MIX_ORDER[-1]
        for candidate, probability in zip(_MIX_ORDER, model.tag_mix):
            cumulative += probability
            if roll < cumulative:
                tag = candidate
                break
        at = rng.uniform(0, duration_ms)
        walk_length = rng.randint(1, 2 * model.rooms)
        room = 0
        ordinal = 0
        for _ in range(walk_length):
            if at >= duration_ms:
                break
            choices = [r for r in range(1, model.rooms + 1) if r != room]
            room = rng.choice(choices)
            timestamp = int(at)
            while (tag, room, timestamp) in used_slots:
                timestamp += 1
            used_slots.add((tag, room, timestamp))
            key = reading_key(SensorReading(tag, room, timestamp))
            raw.append((timestamp, visitor, ordinal, key))
            ordinal += 1
            if rng.random() < model.double_read_rate:
                # The paired reader's double read: the same key again.
                raw.append((timestamp, visitor, ordinal, key))
                ordinal += 1
            at += rng.uniform(*model.dwell_ms)
    raw.sort(key=lambda item: item[:3])
    return [key for *_, key in raw]


def _keys(readings):
    return [reading_key(reading) for reading in readings]


def _model(**overrides):
    base = dict(seed=7, visitor_count=40)
    base.update(overrides)
    return VisitorModel(**base)


def _rooms(keys):
    return {key_reading(key).room for key in keys}


def test_same_seed_same_stream():
    assert generate_stream(_model(), 5_000) == generate_stream(_model(), 5_000)


def test_different_seeds_differ():
    first = generate_stream(_model(seed=1), 5_000)
    second = generate_stream(_model(seed=2), 5_000)
    assert first != second


def test_duplicates_follow_their_original():
    # A double read repeats its original's key right after it: the
    # same visitor's next reading in the stream order.
    keys = generate_stream(
        _model(visitor_count=300, double_read_rate=0.2), 20_000)
    assert len(set(keys)) < len(keys), \
        "rate 0.2 over 300 visitors should produce duplicates"
    seen = set()
    for index, key in enumerate(keys):
        if key in seen:
            assert keys[index - 1] == key
        seen.add(key)


def test_non_duplicates_unique_on_dedupe_key():
    # Distinct visits never share a key, so without double reads no key
    # repeats.
    keys = generate_stream(_model(visitor_count=200, double_read_rate=0.0),
                           10_000)
    assert len(set(keys)) == len(keys)


def test_dedupe_recovers_exactly_the_non_duplicates():
    keys = generate_stream(
        _model(visitor_count=150, double_read_rate=0.15), 10_000)
    # A buffer keeps the first of equal keys, in stream order.
    kept = list(dict.fromkeys(keys))
    assert _keys(dedupe_readings(map(key_reading, keys))) == kept


def test_expected_counts_match_oracle():
    keys = generate_stream(_model(visitor_count=80), 8_000)
    deduped = dedupe_readings(map(key_reading, keys))
    for mode in CountMode:
        assert sequential_oracle(map(key_reading, dict.fromkeys(keys)),
                                 mode) == sequential_oracle(deduped, mode)


def test_tag_proportions_track_mix():
    keys = generate_stream(_model(visitor_count=3_000), 60_000)
    readings = [key_reading(key) for key in dict.fromkeys(keys)]
    for tag, share in zip(TagCategory, (0.4, 0.5, 0.1)):
        count = sum(1 for reading in readings if reading.tag is tag)
        assert abs(count / len(readings) - share) < 0.05


def test_rooms_bound_respected():
    assert _rooms(generate_stream(_model(visitor_count=60), 20_000)) <= {
        1, 2, 3, 4}
    narrow = generate_stream(_model(visitor_count=50, rooms=2), 10_000)
    assert _rooms(narrow) <= {1, 2}


def test_zero_visitors_empty_stream():
    keys = generate_stream(_model(visitor_count=0), 1_000)
    assert keys == []
    assert sequential_oracle(map(key_reading, dict.fromkeys(keys)),
                             CountMode.VISITOR) == {}


@given(seed=st.integers(0, 2**32 - 1),
       count=st.integers(0, 60))
@settings(max_examples=30, deadline=None)
def test_generation_is_deterministic(seed, count):
    model_a = VisitorModel(seed=seed, visitor_count=count)
    model_b = VisitorModel(seed=seed, visitor_count=count)
    assert generate_stream(model_a, 4_000) == generate_stream(model_b, 4_000)


def test_model_validation():
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=-1)
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, rooms=0)
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, tag_mix=(0.5, 0.5, 0.5))
    # Weights map to man, woman, other: with two, other is never
    # drawn; a fourth weight's share would fall to other.
    for tag_mix in ((0.5, 0.5), (0.25, 0.25, 0.25, 0.25)):
        with pytest.raises(ValueError, match="3 weights"):
            VisitorModel(seed=0, visitor_count=1, tag_mix=tag_mix)
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, dwell_ms=(0, 10))
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, double_read_rate=1.5)
    with pytest.raises(ValueError):
        generate_stream(_model(), 0)


# -- against the probing generator -------------------------------------------


_MIXES = st.tuples(st.integers(0, 4), st.integers(0, 4),
                   st.integers(0, 4)).filter(any).map(
    lambda weights: tuple(w / sum(weights) for w in weights))


@st.composite
def _models(draw):
    # Up to 40 rooms: the room draw (up to 39 options) and the walk
    # length draw (up to 80) reject values past a power of two, so the
    # probe's rng.choice and rng.randint check those loops too.
    low = draw(st.integers(1, 20))
    return VisitorModel(
        seed=draw(st.integers(0, 2**32 - 1)),
        visitor_count=draw(st.integers(0, 400)),
        tag_mix=draw(_MIXES),
        rooms=draw(st.integers(1, 40)),
        dwell_ms=(low, low + draw(st.integers(0, 5))),
        double_read_rate=draw(st.floats(0.0, 1.0)),
    )


@given(model=_models(), duration=st.integers(1, 3000))
@settings(max_examples=100, deadline=None)
def test_generator_matches_probing_generator(model, duration):
    try:
        expected = probe_generate_stream(model, duration)
    except IndexError:
        # In a one-room museum the old walk drew its second room from
        # an empty list; the walk now ends in its only room instead.
        assert model.rooms == 1
        assert _rooms(generate_stream(model, duration)) == {1}
        return
    assert generate_stream(model, duration) == expected


def _saturated(visitors):
    """Every visitor arrives in millisecond 0 of a 1 ms stream and reads
    one room, so every visit piles onto one of the two man lanes."""
    return VisitorModel(seed=11, visitor_count=visitors, tag_mix=(1, 0, 0),
                        rooms=2, double_read_rate=0.0)


def _assert_lanes_dense(keys):
    readings = [key_reading(key) for key in keys]
    for room in (1, 2):
        stamps = sorted(r.timestamp for r in readings if r.room == room)
        assert stamps == list(range(len(stamps)))


def test_saturated_lanes_match_probing_generator():
    keys = generate_stream(_saturated(1_500), 1)
    assert keys == probe_generate_stream(_saturated(1_500), 1)
    _assert_lanes_dense(keys)


def test_saturated_lanes_cost_linear_time():
    # The probing generator walks a lane from its start on every visit,
    # about 10**8 steps here; the slot map jumps to the lane's end.
    keys = generate_stream(_saturated(20_000), 1)
    assert len(keys) == 20_000
    _assert_lanes_dense(keys)


def test_crowded_milliseconds_match_probing_generator():
    # Six lanes share a 200 ms window, so probes run far past it across
    # milliseconds that other lanes hold, and half the readings double,
    # filing their lane twice in one bucket.
    model = VisitorModel(seed=5, visitor_count=3_000, rooms=2,
                         double_read_rate=0.5)
    keys = generate_stream(model, 200)
    assert keys == probe_generate_stream(model, 200)
    late = [r for r in map(key_reading, dict.fromkeys(keys))
            if r.timestamp >= 200]
    assert len(late) > len(keys) // 3
    lanes_late = {}
    for r in late:
        lanes_late.setdefault(r.timestamp, set()).add((r.tag, r.room))
    assert max(map(len, lanes_late.values())) >= 4
    assert len(keys) - len(set(keys)) > len(keys) // 4


def test_one_room_walk_ends_in_its_room():
    keys = generate_stream(
        _model(visitor_count=50, rooms=1, double_read_rate=0.0), 5_000)
    assert _rooms(keys) == {1}
    # Arrivals fall inside the stream, so every visitor reads once.
    assert len(keys) == 50


# -- set-up does not grow with the square of the room count -------------------


def test_walk_matches_table_choice_at_300_rooms():
    # The probe draws each room with rng.choice from the list of the
    # other rooms, a row of the table the generator no longer builds.
    model = _model(visitor_count=200, rooms=300, double_read_rate=0.1)
    keys = generate_stream(model, 8_000)
    assert keys == probe_generate_stream(model, 8_000)
    assert max(_rooms(keys)) > 250


def test_max_room_stream_needs_no_room_table():
    # A table per room (or per lane) would hold ~10**11 entries here.
    model = VisitorModel(seed=1, visitor_count=50, rooms=MAX_ROOM)
    tracemalloc.start()
    try:
        keys = generate_stream(model, 4_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) > 50
    assert max(_rooms(keys)) > MAX_ROOM // 2
    assert peak < 5 * 2 ** 20


def test_stream_memory_stays_near_its_keys():
    # crowd-peak's density (15 000 visitors over 14 000 ms) at a third
    # of its size.  A map with an entry per reading, next to the
    # millisecond buckets, would put the peak past 4x the keys.
    model = VisitorModel(seed=1, visitor_count=5_000, rooms=4)
    tracemalloc.start()
    try:
        keys = generate_stream(model, 14_000 // 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(keys) + sum(map(sys.getsizeof, keys))
    assert len(keys) > 4 * model.visitor_count
    assert peak < 2 * size


# -- fixtures ---------------------------------------------------------------


def test_list_fixtures_contains_shipped_names():
    names = list_fixtures()
    assert "table1" in names
    assert "empty" in names


def test_table1_fixture_shape():
    readings = replay_fixture("table1")
    assert len(readings) == 16
    assert sequential_oracle(readings, CountMode.VISITOR) == {
        "man": 10, "other": 12, "woman": 21}
    assert sequential_oracle(readings, CountMode.ROOM) == {
        "Room1": 2, "Room2": 5, "Room3": 5, "Room4": 4}
    # Synthesized timestamps are strictly increasing, so replay is
    # injectable into a timed source without collapsing as duplicates.
    stamps = [r.timestamp for r in readings]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_empty_fixture():
    assert replay_fixture("empty") == []


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        replay_fixture("no-such-fixture")
