import pytest

from crowdmw.domain import (
    CANONICAL_TAG_ORDER,
    KEY_SHIFT,
    MAX_ROOM,
    MAX_TIMESTAMP,
    CountMode,
    KeyValuePair,
    SensorReading,
    TagCategory,
    _check_key,
    key_reading,
    pair_symbol,
    reading_key,
    room_key,
)


def test_canonical_tag_order_is_lexicographic():
    # man < other < woman, which drives the sorted pair stream.
    assert [t.value for t in CANONICAL_TAG_ORDER] == [
        "man", "other", "woman",
    ]


def test_room_key_and_validation():
    assert room_key(1) == "Room1"
    assert room_key(4) == "Room4"
    with pytest.raises(ValueError):
        room_key(0)


def test_pair_rejects_bad_keys_and_values():
    KeyValuePair("man", 3)
    KeyValuePair("Room2", 1)
    with pytest.raises(ValueError):
        KeyValuePair("Man", 3)
    with pytest.raises(ValueError):
        KeyValuePair("Room0", 1)
    with pytest.raises(ValueError):
        KeyValuePair("man", -1)
    with pytest.raises(ValueError):
        KeyValuePair("man", True)


@pytest.mark.parametrize("key", ["man\n", "Room1\n"])
def test_pair_rejects_key_with_trailing_newline(key):
    before = _check_key.cache_info().currsize
    # Asked twice: a raise is never cached as a pass.
    for _ in range(2):
        with pytest.raises(ValueError):
            KeyValuePair(key, 1)
    assert _check_key.cache_info().currsize == before


def test_reading_validation():
    # A reading is checked when it is packed into its key.
    reading = SensorReading(tag=TagCategory.MAN, room=2, timestamp=10,
                            reader_id=4)
    assert reading_key(reading) == 10 << KEY_SHIFT | ord(pair_symbol("man", 2))
    assert key_reading(reading_key(reading)) == SensorReading(
        TagCategory.MAN, 2, 10)
    for bad in (dict(tag=TagCategory.MAN, room=0, timestamp=10),
                dict(tag=TagCategory.MAN, room=MAX_ROOM + 1, timestamp=10),
                dict(tag=TagCategory.MAN, room=2.0, timestamp=10),
                dict(tag=TagCategory.MAN, room=1, timestamp=-1),
                dict(tag=TagCategory.MAN, room=1, timestamp=1.5),
                dict(tag="man", room=1, timestamp=0)):
        with pytest.raises(ValueError):
            reading_key(SensorReading(**bad))


def test_reading_key_bounds_the_timestamp_to_64_bit_keys():
    last = SensorReading(TagCategory.WOMAN, MAX_ROOM, MAX_TIMESTAMP)
    assert reading_key(last) < 2 ** 64
    assert key_reading(reading_key(last)) == last
    with pytest.raises(ValueError, match="timestamp"):
        reading_key(SensorReading(TagCategory.MAN, 1, MAX_TIMESTAMP + 1))


def test_count_mode_values():
    assert CountMode.VISITOR.value == "visitor"
    assert CountMode.ROOM.value == "room"
