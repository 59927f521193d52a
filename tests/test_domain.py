import pytest

from crowdmw.domain import (
    CANONICAL_TAG_ORDER,
    CountMode,
    KeyValuePair,
    SensorReading,
    TagCategory,
    UnknownTag,
    _check_key,
    parse_tag,
    room_key,
)


def test_parse_tag_accepts_known_categories():
    assert parse_tag("man") is TagCategory.MAN
    assert parse_tag("WOMAN") is TagCategory.WOMAN
    assert parse_tag("Other") is TagCategory.OTHER


def test_parse_tag_rejects_unknown():
    with pytest.raises(UnknownTag):
        parse_tag("child")
    with pytest.raises(UnknownTag):
        parse_tag("")


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
    SensorReading(tag=TagCategory.MAN, room=2, timestamp=10, reader_id=4)
    with pytest.raises(ValueError):
        SensorReading(tag=TagCategory.MAN, room=0, timestamp=10)
    with pytest.raises(ValueError):
        SensorReading(tag=TagCategory.MAN, room=1, timestamp=-1)
    with pytest.raises(ValueError):
        SensorReading(tag="man", room=1, timestamp=0)


def test_count_mode_values():
    assert CountMode.VISITOR.value == "visitor"
    assert CountMode.ROOM.value == "room"
