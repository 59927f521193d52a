"""Stream generator and fixture replay checks.

The generator must be a pure function of its model: same seed, same
stream.  The ledger is ground truth for fault tests, so its alignment
with the emitted reading keys and its duplicate flags get checked
exactly.  ``probe_generate_stream`` below keeps the generator as it was
before the next-free-slot map, probing a set one millisecond at a time;
the generator must reproduce it reading for reading, key for key.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmw.domain import (
    MAX_ROOM,
    CountMode,
    TagCategory,
    key_reading,
    reading_key,
)
from crowdmw.mapreduce import sequential_oracle
from crowdmw.simgen import (
    GenerationLedger,
    LedgerEntry,
    UnknownFixture,
    VisitorModel,
    dedupe_readings,
    generate_stream,
    list_fixtures,
    replay_fixture,
)


_MIX_ORDER = (TagCategory.MAN, TagCategory.WOMAN, TagCategory.OTHER)


def probe_generate_stream(model, duration_ms):
    """The generator before the next-free-slot map: (readings, entries)."""
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
            reader = 2 * room
            raw.append((timestamp, visitor, ordinal, tag, room, reader, False))
            ordinal += 1
            if rng.random() < model.double_read_rate:
                raw.append((timestamp, visitor, ordinal, tag, room,
                            reader + 1, True))
                ordinal += 1
            at += rng.uniform(*model.dwell_ms)
    raw.sort(key=lambda item: item[:3])
    entries = [
        LedgerEntry(sequence=sequence, tag=tag, room=room,
                    timestamp=timestamp, reader_id=reader, is_duplicate=dup)
        for sequence, (timestamp, _, _, tag, room, reader, dup)
        in enumerate(raw)
    ]
    return [e.to_reading() for e in entries], entries


def _keys(readings):
    return [reading_key(reading) for reading in readings]


def _model(**overrides):
    base = dict(seed=7, visitor_count=40)
    base.update(overrides)
    return VisitorModel(**base)


def test_same_seed_same_stream():
    first, first_ledger = generate_stream(_model(), 5_000)
    second, second_ledger = generate_stream(_model(), 5_000)
    assert first == second
    assert first_ledger.entries == second_ledger.entries


def test_different_seeds_differ():
    first, _ = generate_stream(_model(seed=1), 5_000)
    second, _ = generate_stream(_model(seed=2), 5_000)
    assert first != second


def test_ledger_aligned_with_readings():
    keys, ledger = generate_stream(_model(), 5_000)
    assert len(keys) == len(ledger)
    for index, (key, entry) in enumerate(zip(keys, ledger)):
        assert entry.sequence == index
        assert reading_key(entry.to_reading()) == key


def test_duplicates_share_slot_with_original():
    # A flagged duplicate must collide with some non-duplicate on the
    # dedupe key and sit on the paired (odd) reader.
    readings, ledger = generate_stream(
        _model(visitor_count=300, double_read_rate=0.2), 20_000)
    originals = {(e.tag, e.room, e.timestamp)
                 for e in ledger.non_duplicates()}
    flagged = [e for e in ledger if e.is_duplicate]
    assert flagged, "rate 0.2 over 300 visitors should produce duplicates"
    for entry in flagged:
        assert (entry.tag, entry.room, entry.timestamp) in originals
        assert entry.reader_id % 2 == 1


def test_non_duplicates_unique_on_dedupe_key():
    readings, ledger = generate_stream(_model(visitor_count=200), 10_000)
    slots = [(e.tag, e.room, e.timestamp) for e in ledger.non_duplicates()]
    assert len(slots) == len(set(slots))


def test_dedupe_recovers_exactly_the_non_duplicates():
    keys, ledger = generate_stream(
        _model(visitor_count=150, double_read_rate=0.15), 10_000)
    # A buffer keeps the first of equal keys, in stream order.
    kept = list(dict.fromkeys(keys))
    assert kept == _keys(e.to_reading() for e in ledger.non_duplicates())
    assert _keys(dedupe_readings(map(key_reading, keys))) == kept


def test_expected_counts_match_oracle():
    keys, ledger = generate_stream(_model(visitor_count=80), 8_000)
    deduped = dedupe_readings(map(key_reading, keys))
    for mode in CountMode:
        assert ledger.expected_counts(mode) == sequential_oracle(deduped, mode)


def test_tag_proportions_track_mix():
    _, ledger = generate_stream(_model(visitor_count=3_000), 60_000)
    proportions = ledger.tag_proportions()
    assert abs(proportions[TagCategory.MAN] - 0.4) < 0.05
    assert abs(proportions[TagCategory.WOMAN] - 0.5) < 0.05
    assert abs(proportions[TagCategory.OTHER] - 0.1) < 0.05


def test_rooms_bound_respected():
    _, ledger = generate_stream(_model(visitor_count=60), 20_000)
    assert all(1 <= e.room <= 4 for e in ledger)
    _, narrow = generate_stream(_model(visitor_count=50, rooms=2), 10_000)
    assert {e.room for e in narrow} <= {1, 2}


def test_zero_visitors_empty_stream():
    readings, ledger = generate_stream(_model(visitor_count=0), 1_000)
    assert readings == []
    assert len(ledger) == 0
    assert ledger.expected_counts(CountMode.VISITOR) == {}
    assert ledger.tag_proportions() == {tag: 0.0 for tag in TagCategory}


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
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, dwell_ms=(0, 10))
    with pytest.raises(ValueError):
        VisitorModel(seed=0, visitor_count=1, double_read_rate=1.5)
    with pytest.raises(ValueError):
        generate_stream(_model(), 0)


def test_ledger_entry_round_trip():
    entry = LedgerEntry(sequence=0, tag=TagCategory.WOMAN, room=3,
                        timestamp=120, reader_id=6, is_duplicate=False)
    reading = entry.to_reading()
    assert reading.tag is TagCategory.WOMAN
    assert reading.room == 3
    assert reading.timestamp == 120
    assert reading.reader_id == 6


def test_empty_ledger_helpers():
    ledger = GenerationLedger()
    assert ledger.non_duplicates() == []
    assert ledger.expected_counts(CountMode.ROOM) == {}


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
        expected, entries = probe_generate_stream(model, duration)
    except IndexError:
        # In a one-room museum the old walk drew its second room from
        # an empty list; the walk now ends in its only room instead.
        assert model.rooms == 1
        _, ledger = generate_stream(model, duration)
        assert {e.room for e in ledger} == {1}
        return
    keys, ledger = generate_stream(model, duration)
    assert keys == _keys(expected)
    assert ledger.entries == entries


def _saturated(visitors):
    """Every visitor arrives in millisecond 0 of a 1 ms stream and reads
    one room, so every visit piles onto one of the two man lanes."""
    return VisitorModel(seed=11, visitor_count=visitors, tag_mix=(1, 0, 0),
                        rooms=2, double_read_rate=0.0)


def _assert_lanes_dense(ledger):
    for room in (1, 2):
        stamps = sorted(e.timestamp for e in ledger if e.room == room)
        assert stamps == list(range(len(stamps)))


def test_saturated_lanes_match_probing_generator():
    keys, ledger = generate_stream(_saturated(1_500), 1)
    expected, entries = probe_generate_stream(_saturated(1_500), 1)
    assert (keys, ledger.entries) == (_keys(expected), entries)
    _assert_lanes_dense(ledger)


def test_saturated_lanes_cost_linear_time():
    # The probing generator walks a lane from its start on every visit,
    # about 10**8 steps here; the slot map jumps to the lane's end.
    keys, ledger = generate_stream(_saturated(20_000), 1)
    assert len(keys) == 20_000
    _assert_lanes_dense(ledger)


def test_one_room_walk_ends_in_its_room():
    keys, ledger = generate_stream(
        _model(visitor_count=50, rooms=1, double_read_rate=0.0), 5_000)
    assert {e.room for e in ledger} == {1}
    # Arrivals fall inside the stream, so every visitor reads once.
    assert len(keys) == 50


# -- set-up does not grow with the square of the room count -------------------


def test_walk_matches_table_choice_at_300_rooms():
    # The probe draws each room with rng.choice from the list of the
    # other rooms, a row of the table the generator no longer builds.
    model = _model(visitor_count=200, rooms=300, double_read_rate=0.1)
    keys, ledger = generate_stream(model, 8_000)
    expected, entries = probe_generate_stream(model, 8_000)
    assert (keys, ledger.entries) == (_keys(expected), entries)
    assert max(e.room for e in ledger) > 250


def test_max_room_stream_needs_no_room_table():
    # A table per room (or per lane) would hold ~10**11 entries here.
    model = VisitorModel(seed=1, visitor_count=50, rooms=MAX_ROOM)
    tracemalloc.start()
    try:
        _, ledger = generate_stream(model, 4_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ledger) > 50
    assert max(e.room for e in ledger) > MAX_ROOM // 2
    assert peak < 5 * 2 ** 20


# -- the ledger builds entries on demand --------------------------------------


def test_ledger_len_builds_no_entries():
    readings, ledger = generate_stream(_model(visitor_count=100), 5_000)
    assert len(ledger) == len(readings)
    assert "entries" not in vars(ledger)


def test_lazy_ledger_equals_eager_values():
    model = _model(visitor_count=300, double_read_rate=0.2)
    readings, ledger = generate_stream(model, 20_000)
    _, entries = probe_generate_stream(model, 20_000)
    originals = [e for e in entries if not e.is_duplicate]
    assert ledger.entries == entries
    assert ledger.entries is ledger.entries
    assert list(ledger) == entries
    assert ledger.non_duplicates() == originals
    for mode in CountMode:
        assert ledger.expected_counts(mode) == sequential_oracle(
            (e.to_reading() for e in originals), mode)
    assert ledger.tag_proportions() == {
        tag: sum(1 for e in originals if e.tag is tag) / len(originals)
        for tag in TagCategory
    }


def test_empty_ledger_still_works():
    ledger = GenerationLedger()
    assert len(ledger) == 0
    assert ledger.entries == []
    assert list(ledger) == []
    assert ledger.tag_proportions() == {tag: 0.0 for tag in TagCategory}
    assert ledger == GenerationLedger()


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
