"""Cycle protocol units: config, buffers, payload grammar, pipeline.

The expected aggregates for the 16-reading reference stream are frozen
from a hand count (visitor man=10, woman=21, other=12; room counts
2/5/5/4) so the pipeline cannot drift without a test noticing.
"""

import operator

import pytest

from crowdmw.domain import (
    MAX_ROOM,
    CountMode,
    SensorReading,
    TagCategory,
    key_reading,
    pair_symbol,
    reading_key,
)
from crowdmw.mapreduce import (
    KeyValuePair,
    Segment,
    crc64,
    pair_runs,
    parse_runs,
    partition,
    sequential_oracle,
    sort_pairs,
)
from crowdmw.runtime import (
    ClientBuffer,
    CycleConfig,
    ListReadingSource,
    NodePhase,
    PHASE_EDGES,
    _ASSIGNMENT,
    _file_part,
    _match,
    _parse_submission,
    _reduce_both,
    build_assignment_parts,
    build_reduce_result,
    build_submission_parts,
    build_success,
    consolidate_runs,
    parse_reduce_result,
    parse_success_acks,
    reduce_and_merge,
    symbol_pair,
)
from crowdmw.simgen import VisitorModel, dedupe_readings, generate_stream, replay_fixture
from crowdmw.transport import (MAX_PAYLOAD, Message, MessageKind,
                               decode_message, encode_message)

TABLE_VISITOR = {TagCategory.MAN: 10, TagCategory.WOMAN: 21,
                 TagCategory.OTHER: 12}
TABLE_ROOM = {1: 2, 2: 5, 3: 5, 4: 4}


def _leader_steps(cycle_id, readings_by_origin):
    """One cycle through the steps a live leader runs.

    Each origin's readings enter a ``ClientBuffer`` and are submitted as
    one (base, trace) part; ``consolidate_runs`` (no watermarks),
    ``partition`` over the origins and ``reduce_and_merge``, with
    every segment reduced here, follow as in ``Node._consolidate`` and
    at the slot boundary.
    """
    submissions = []
    for origin, readings in readings_by_origin.items():
        buffer = ClientBuffer()
        buffer.ingest(map(reading_key, readings))
        submissions.append((origin, [(buffer.base, buffer.trace)]))
    consolidated, _ = consolidate_runs(submissions, {})
    return reduce_and_merge(
        cycle_id, partition(consolidated, readings_by_origin), {})


# -- config -----------------------------------------------------------------


def test_config_derived_windows():
    config = CycleConfig()
    assert config.cycle_duration_ms == 2000
    assert config.mapreduce_window_ms == 500
    assert config.collection_ms == 1500
    assert config.submit_window_ms == 200
    assert config.liveness_window_ms == 4000


@pytest.mark.parametrize("kwargs", [
    dict(cycle_duration_ms=0),
    dict(mapreduce_window_ms=0),
    dict(mapreduce_window_ms=2000),
    dict(cycle_duration_ms=400, mapreduce_window_ms=500),
    dict(min_responding_nodes=1),
    dict(ping_timeout_ms=0),
    dict(ping_retries=0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CycleConfig(**kwargs)


# -- client buffer ----------------------------------------------------------


def _key(tag, room, timestamp):
    """The key of a reading: what a node's buffer ingests."""
    return reading_key(SensorReading(tag=tag, room=room, timestamp=timestamp))


def test_buffer_assigns_dense_sequences():
    buffer = ClientBuffer()
    first = buffer.ingest([_key(TagCategory.MAN, 1, 0),
                           _key(TagCategory.WOMAN, 2, 5)])
    second = buffer.ingest([_key(TagCategory.OTHER, 3, 9)])
    assert first + second == [_key(TagCategory.MAN, 1, 0),
                              _key(TagCategory.WOMAN, 2, 5),
                              _key(TagCategory.OTHER, 3, 9)]
    assert (buffer.base, buffer.next_seq, len(buffer)) == (0, 3, 3)


def test_buffer_collapses_double_reads_within_batch():
    double = _key(TagCategory.MAN, 1, 40)
    buffer = ClientBuffer()
    added = buffer.ingest([double, double, _key(TagCategory.MAN, 1, 41)])
    assert len(added) == 2
    # A later batch is a fresh collection window: no cross-batch state.
    assert len(buffer.ingest([double])) == 1


def test_buffer_entries_sorted_canonically():
    buffer = ClientBuffer()
    buffer.ingest([_key(TagCategory.WOMAN, 4, 0),
                   _key(TagCategory.MAN, 2, 1),
                   _key(TagCategory.MAN, 1, 2),
                   _key(TagCategory.OTHER, 3, 3)])
    pairs = [(pair.key, pair.value) for pair, _ in buffer.entries()]
    assert pairs == [("man", 1), ("man", 2), ("other", 3), ("woman", 4)]


def test_reading_key_refuses_a_room_past_the_symbol_table():
    # A reading is checked where it enters the run: a room past the
    # table has no key, so no buffer ever sees it.
    with pytest.raises(ValueError):
        _key(TagCategory.MAN, MAX_ROOM + 1, 2)
    buffer = ClientBuffer()
    buffer.ingest([_key(TagCategory.MAN, 1, 0)])
    buffer.ingest([_key(TagCategory.WOMAN, MAX_ROOM, 3)])
    assert buffer.trace == "<\U0010ffff"
    assert buffer.entries()[-1] == (KeyValuePair("woman", MAX_ROOM), 1)
    assert key_reading(_key(TagCategory.WOMAN, MAX_ROOM, 3)) == \
        SensorReading(TagCategory.WOMAN, MAX_ROOM, 3)


def test_buffer_prune_watermark():
    buffer = ClientBuffer()
    buffer.ingest([_key(TagCategory.MAN, 1, t) for t in range(5)])
    assert buffer.prune_through(2) == 3
    assert buffer.committed_through == 2
    assert [seq for _, seq in buffer.entries()] == [3, 4]
    # Stale or repeated watermarks drop nothing and never regress.
    assert buffer.prune_through(2) == 0
    assert buffer.prune_through(1) == 0
    assert buffer.committed_through == 2


def test_partial_prune_keeps_the_unacked_rest():
    # An ack strictly inside the pending range: the run's sweep never
    # makes one, since every ack there covers all that was pending.
    man1, woman2, other3 = (pair_symbol("man", 1), pair_symbol("woman", 2),
                            pair_symbol("other", 3))
    buffer = ClientBuffer()
    buffer.ingest([_key(TagCategory.MAN, 1, 0), _key(TagCategory.WOMAN, 2, 0),
                   _key(TagCategory.OTHER, 3, 1), _key(TagCategory.MAN, 1, 2)])
    assert buffer.prune_through(1) == 2
    assert (buffer.base, buffer.next_seq) == (2, 4)
    assert buffer.trace == other3 + man1
    # The next batch, a double read in it, follows the unacked rest.
    double = _key(TagCategory.WOMAN, 2, 5)
    assert buffer.ingest([double, _key(TagCategory.MAN, 1, 5), double]) == [
        double, _key(TagCategory.MAN, 1, 5)]
    assert (buffer.base, buffer.next_seq) == (2, 6)
    assert buffer.trace == other3 + man1 + woman2 + man1
    assert buffer.runs() == [(KeyValuePair("man", 1), [3, 5]),
                             (KeyValuePair("other", 3), [2]),
                             (KeyValuePair("woman", 2), [4])]
    # A second ack inside the range, then one past the top.
    assert buffer.prune_through(3) == 2
    assert (buffer.base, buffer.next_seq, buffer.trace) == (
        4, 6, woman2 + man1)
    assert buffer.runs() == [(KeyValuePair("man", 1), [5]),
                             (KeyValuePair("woman", 2), [4])]
    assert buffer.prune_through(99) == 2
    assert (buffer.base, buffer.next_seq, buffer.trace) == (6, 6, "")


def test_reading_source_releases_by_time():
    stream = [_key(TagCategory.MAN, 1, 10),
              _key(TagCategory.WOMAN, 2, 20),
              _key(TagCategory.OTHER, 3, 20)]
    source = ListReadingSource(stream)
    assert source.injected_count() == 3
    assert source.take_due(9.9) == []
    assert len(source.take_due(20.0)) == 3
    assert source.take_due(100.0) == []
    assert source.remaining() == []


# -- submission wire grammar -------------------------------------------------


def _entries(count):
    out = []
    for seq in range(count):
        tag = [TagCategory.MAN, TagCategory.OTHER, TagCategory.WOMAN][seq % 3]
        out.append((KeyValuePair(tag.value, seq % 4 + 1), seq))
    return out


def _expand(parts):
    """(base, trace) parts as the flat (pair, sequence) entries."""
    return [(symbol_pair(symbol), base + offset)
            for base, trace in parts for offset, symbol in enumerate(trace)]


def _trace(entries):
    """The symbols of (pair, sequence) entries, in their order."""
    return "".join(pair_symbol(pair.key, pair.value) for pair, _ in entries)


def _reassemble_submission(messages):
    """A submission's entries, as a leader files its parts."""
    sets = {}
    for message in messages:
        origin, index, total, base, trace = _parse_submission(
            message.payload)
        _, fresh = _file_part(sets, origin, total, index, (base, trace))
        assert fresh
    (holder,) = sets.values()
    assert holder.complete() and holder.total == len(messages)
    return _expand(holder.ordered())


def test_submission_roundtrip_single_part():
    entries = _entries(5)
    messages = build_submission_parts(7, 3, 0, _trace(entries))
    assert len(messages) == 1
    assert messages[0].kind is MessageKind.DATA_SUBMIT
    assert messages[0].sender == 7
    assert messages[0].cycle_id == 3
    assert _parse_submission(messages[0].payload)[0] == 7
    assert _reassemble_submission(messages) == entries


def test_submission_split_by_entry_cap():
    entries = _entries(6)
    messages = build_submission_parts(2, 0, 0, _trace(entries),
                                      max_entries_per_part=1)
    assert len(messages) == 6
    assert _reassemble_submission(messages) == entries


def test_submission_split_by_byte_budget():
    # One byte per reading: 20 000 readings need three parts.
    entries = _entries(20_000)
    messages = build_submission_parts(4, 1, 0, _trace(entries))
    assert len(messages) == 3
    for message in messages:
        assert len(message.payload) <= MAX_PAYLOAD
        # And the full frame survives the codec.
        assert decode_message(encode_message(message)) == message
    assert _reassemble_submission(messages) == entries


def test_submission_split_by_bytes_of_wide_symbols():
    # Symbols of two, three and four UTF-8 bytes: a part is cut between
    # symbols, never inside one, and still fits the budget.
    pairs = [KeyValuePair("woman", 600), KeyValuePair("man", 18000),
             KeyValuePair("other", 30000)]
    entries = [(pairs[seq % 3], seq + 10) for seq in range(7_000)]
    messages = build_submission_parts(4, 1, 10, _trace(entries))
    assert len(messages) == 3
    for message in messages:
        assert len(message.payload) <= MAX_PAYLOAD
        assert decode_message(encode_message(message)) == message
    assert _reassemble_submission(messages) == entries


def test_submission_empty_buffer_still_sends_one_part():
    messages = build_submission_parts(1, 0, 12, "")
    assert [m.payload for m in messages] == [
        b"origin=1;part=0/1;base=12;trace="]
    assert _reassemble_submission(messages) == []


def test_submission_writes_base_and_one_symbol_per_reading():
    # Room 1 man, other, woman, then room 2 man: code points 0x3C on.
    trace = "".join(pair_symbol(key, room) for key, room in (
        ("man", 1), ("other", 1), ("woman", 1), ("man", 2), ("man", 1)))
    assert trace == "<=>?<"
    assert [m.payload for m in build_submission_parts(1, 0, 4, trace)] == [
        b"origin=1;part=0/1;base=4;trace=<=>?<"]


# -- assignment wire grammar -------------------------------------------------


def _reassemble_assignment(messages):
    """An assignment's (count, checksum, pair text), as a node joins it.

    Every message lands in the one set it completes, so none started
    it over.
    """
    sets = {}
    for message in messages:
        _, count, checksum, index, total, pairs = _match(_ASSIGNMENT,
                                                         message.payload)
        _, fresh = _file_part(sets, 0, int(total), int(index), pairs,
                              (int(count), int(checksum, 16)))
        assert fresh
    (holder,) = sets.values()
    assert holder.complete() and holder.total == len(messages)
    return (*holder.header, ",".join(filter(None, holder.ordered())))


def _checked_runs(assignment):
    """A reducer's steps on an assignment: CRC-64, then a canonical parse."""
    count, checksum, text = assignment
    assert crc64(text.encode("utf-8")) == checksum
    runs = parse_runs(text, canonical=True)
    assert sum(run_count for _, run_count in runs) == count
    return runs


def test_assignment_roundtrip_and_checksum():
    pairs = sort_pairs(pair for pair, _ in _entries(40))
    segment = Segment.build(assignee=2, runs=pair_runs(pairs),
                            segment_index=0)
    messages = build_assignment_parts(9, 5, segment)
    assert all(m.kind is MessageKind.SEGMENT_ASSIGN for m in messages)
    assignment = _reassemble_assignment(messages)
    assert assignment[0] == len(pairs)
    assert tuple(_checked_runs(assignment)) == segment.runs


def test_assignment_carries_runs():
    man, woman = KeyValuePair("man", 3), KeyValuePair("woman", 1)
    segment = Segment.build(assignee=2, runs=[(man, 57), (woman, 1)],
                            segment_index=1)
    (message,) = build_assignment_parts(9, 5, segment)
    assert message.payload == (
        f"segment=1;count=58;checksum={segment.checksum:016x};"
        f"part=0/1;pairs=man=3*57,woman=1").encode()
    assert segment.checksum == crc64(b"man=3*57,woman=1")


def test_assignment_splits_large_segment():
    # Distinct pairs, so the run text is long enough to cross datagrams.
    pairs = sort_pairs(KeyValuePair(f"Room{i}", 1) for i in range(1, 2_001))
    segment = Segment.build(assignee=1, runs=pair_runs(pairs),
                            segment_index=2)
    messages = build_assignment_parts(3, 0, segment)
    assert len(messages) > 1
    for message in messages:
        assert len(message.payload) <= MAX_PAYLOAD
    assert tuple(_checked_runs(_reassemble_assignment(messages))) == (
        segment.runs)


def test_assignment_empty_segment():
    segment = Segment.build(assignee=4, runs=(), segment_index=1)
    messages = build_assignment_parts(3, 0, segment)
    assert len(messages) == 1
    assignment = _reassemble_assignment(messages)
    assert assignment[2] == ""
    assert _checked_runs(assignment) == []


# -- reduce result and success grammar ---------------------------------------


def test_reduce_result_roundtrip():
    message = build_reduce_result(
        3, 7, segment_index=1, segment_checksum=0xABCDEF,
        visitor={"man": 4, "woman": 2}, room={"Room1": 3, "Room2": 3},
        input_pair_count=6)
    parsed = parse_reduce_result(message)
    assert parsed == {
        "segment": 1, "count": 6, "checksum": 0xABCDEF,
        "visitor": {"man": 4, "woman": 2},
        "room": {"Room1": 3, "Room2": 3},
    }


def test_reduce_result_empty_aggregates():
    message = build_reduce_result(1, 0, segment_index=0, segment_checksum=0,
                                  visitor={}, room={}, input_pair_count=0)
    parsed = parse_reduce_result(message)
    assert parsed["visitor"] == {}
    assert parsed["room"] == {}


def test_reduce_result_rejects_corruption():
    good = build_reduce_result(3, 7, segment_index=1, segment_checksum=5,
                               visitor={"man": 4}, room={"Room1": 4},
                               input_pair_count=4)
    for position in range(len(good.payload)):
        corrupted = bytearray(good.payload)
        corrupted[position] ^= 0x01
        tampered = Message(kind=good.kind, sender=good.sender,
                           cycle_id=good.cycle_id, payload=bytes(corrupted))
        assert parse_reduce_result(tampered) is None


@pytest.mark.parametrize("payload", [
    b"", b"digest=0", b"not a payload",
    b"segment=1;count=4;visitor=;room=",
    b"\xff\xfe;digest=0000000000000000",
])
def test_reduce_result_rejects_malformed(payload):
    message = Message(kind=MessageKind.REDUCE_RESULT, sender=1, cycle_id=0,
                      payload=payload)
    assert parse_reduce_result(message) is None


def test_success_acks_roundtrip():
    message = build_success(5, 9, {3: 17, 1: 4})
    assert message.payload == b"acks=1:4,3:17"
    assert parse_success_acks(message) == {1: 4, 3: 17}
    assert parse_success_acks(build_success(5, 9, {})) == {}


# -- full cycle pipeline -------------------------------------------------------


def test_leader_steps_reference_totals():
    readings = replay_fixture("table1")
    result = _leader_steps(4, {origin: readings[origin - 1::3]
                               for origin in (1, 2, 3)})
    assert result.cycle_id == 4
    assert result.visitor_aggregates == TABLE_VISITOR
    assert result.room_aggregates == TABLE_ROOM
    assert result.total_readings == 16


def test_leader_steps_match_oracle_on_generated_stream():
    keys = generate_stream(VisitorModel(seed=11, visitor_count=120),
                              30_000)
    deduped = dedupe_readings(map(key_reading, keys))
    result = _leader_steps(0, {origin: deduped[origin - 1::4]
                               for origin in (1, 2, 3, 4)})
    assert {t.value: c for t, c in result.visitor_aggregates.items()} == \
        sequential_oracle(deduped, CountMode.VISITOR)
    assert {f"Room{n}": c for n, c in result.room_aggregates.items()} == \
        sequential_oracle(deduped, CountMode.ROOM)
    assert result.total_readings == len(deduped)


# -- live phase machine --------------------------------------------------------


def test_phase_edges_cover_every_phase():
    assert set(PHASE_EDGES) == set(NodePhase)
    for targets in PHASE_EDGES.values():
        assert targets <= set(NodePhase)


def _phase_transitions(events):
    transitions = []
    for line in events:
        if " phase from=" not in line:
            continue
        fields = dict(part.split("=", 1) for part in line.split()[3:])
        transitions.append((NodePhase(fields["from"]), NodePhase(fields["to"])))
    return transitions


def test_driven_nodes_respect_phase_edges(tmp_path):
    from crowdmw.harness import ScenarioConfig, parse_fault, run_scenario

    steady = run_scenario(ScenarioConfig(fixture="table1", cycles=2, seed=3),
                          str(tmp_path / "steady.journal"))
    churn = run_scenario(
        ScenarioConfig(nodes=4, cycles=3, seed=5, visitors=20,
                       faults=(parse_fault("kill_leader@2500"),)),
        str(tmp_path / "churn.journal"))
    for report in (steady, churn):
        transitions = _phase_transitions(report.events)
        assert transitions, "scenario produced no phase events"
        for source, target in transitions:
            assert target in PHASE_EDGES[source], (source, target)
    observed = {target for _, target in _phase_transitions(steady.events)}
    assert NodePhase.COMMITTING in observed
    assert NodePhase.BROADCASTING in observed
    assert NodePhase.AWAITING_SEGMENT in observed


def test_reduce_and_merge_takes_a_stored_partial_for_its_segment():
    # The live leader's last step: a stored partial replaces the local
    # reduction of its segment, and merges to the same totals.
    pairs = sort_pairs(pair for pair, _ in _entries(16))
    segments = partition(pairs, {1, 2, 3})
    local = reduce_and_merge(7, segments, {})
    assert local.cycle_id == 7 and local.total_readings == 16
    assert reduce_and_merge(7, segments, {0: _reduce_both(segments[0])}) \
        == local


# -- validation survives the pair caches ----------------------------------


def _parse_part(base, trace):
    """(base, trace) of a part of node 2 with these fields."""
    return _parse_submission(
        f"origin=2;part=0/1;base={base};trace={trace}".encode())[3:]


@pytest.mark.parametrize("item", ["Room0=1@1", "x=1@1", "man =1@1",
                                  "man=-1@1", "man=True@1", "man1@1"])
def test_parse_entries_rejects_before_and_after_caching(item):
    # Wire v2 entry text is no trace: each holds a digit, below the
    # symbol table, whether or not its other symbols were decoded.
    with pytest.raises(ValueError):
        _parse_part("0", item)
    for symbol in item:
        if symbol > ";":
            symbol_pair(symbol)
    with pytest.raises(ValueError):
        _parse_part("0", item)
    valid = pair_symbol("man", 1) + pair_symbol("other", 1)
    assert _expand([_parse_part("7", valid)]) == [
        (KeyValuePair("man", 1), 7), (KeyValuePair("other", 1), 8)]
    with pytest.raises(ValueError):
        _parse_part("7", valid + item)


def test_parse_entries_many_distinct_keys_stay_bounded():
    from crowdmw import domain

    count = 20_000
    trace = "".join(pair_symbol("man", room) for room in range(1, count + 1))
    entries = _expand([_parse_part("1", trace)])
    assert entries == [(KeyValuePair("man", room), room)
                       for room in range(1, count + 1)]
    for cached in (domain.pair_symbol, domain.symbol_pair):
        info = cached.cache_info()
        assert info.maxsize == domain.INTERN_LIMIT and info.currsize <= info.maxsize


class _Outbox:
    """An endpoint that keeps what a node sends."""

    address = "node1:7000"

    def __init__(self):
        self.sent = []

    def send(self, dest, message):
        self.sent.append((dest, message))


# The leader node 1 follows in the idle-node tests.
LEADER = "node3:7000"


def _idle_node(events, phase, *, leader):
    """Node 1 in slot 0: the leader, or a follower of node 3."""
    from crowdmw.runtime import Node

    node = Node(1, CycleConfig(), endpoint=_Outbox(), store=None,
                event_sink=events.append)
    node.cycle_id = 0
    node.phase = phase
    node._slot.is_leader = leader
    node._leader_address = "node1:7000" if leader else LEADER
    node._slot.origin_addresses = {n: f"node{n}:7000" for n in (1, 2, 3)}
    return node


# Wire v2 entry text where a trace goes: each holds a non-symbol.
@pytest.mark.parametrize("trace", ["Room0=1@1", "x=1@1", "man =1@1",
                                   "man=-1@1", "man=1"])
def test_malformed_submit_is_logged_after_valid_one(trace):
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    valid = build_submission_parts(2, 0, 0, pair_symbol("man", 1))
    node._on_data_submit(valid[0], "node2:7000", 0.0)
    assert node._slot.submissions[2].ordered() == [(0, "<")]
    for _ in range(2):
        bad = Message(kind=MessageKind.DATA_SUBMIT, sender=3, cycle_id=0,
                      payload=f"origin=3;part=0/1;base=0;"
                              f"trace={trace}".encode())
        node._on_data_submit(bad, "node3:7000", 1.0)
        assert events[-1] == "t=1.000 node=1 malformed_submit from=3"
    assert 3 not in node._slot.submissions


@pytest.mark.parametrize("base, trace", [
    ("+5", "<"), (" 5", "<"), ("0_5", "<"), ("05", "<"), ("\u0665", "<"),
    ("", "<"), ("-0", ""), (str(2 ** 63), ""), (str(2 ** 63 - 1), "<<"),
    (str(10 ** 3000), "<"), ("0", "<0"), ("0", "<;<"), ("0", "<,<"),
    ("0", "< "), ("0", "\x00"),
])
def test_submit_with_a_bad_base_or_trace_is_refused(base, trace):
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    node._on_data_submit(Message(
        kind=MessageKind.DATA_SUBMIT, sender=2, cycle_id=0,
        payload=f"origin=2;part=0/1;base={base};trace={trace}".encode()),
        "node2:7000", 1.0)
    assert events[-1] == "t=1.000 node=1 malformed_submit from=2"
    assert node._slot.submissions == {}


@pytest.mark.parametrize("payload", [
    b"part=0/1;origin=2;base=0;trace=<",
    b"origin=2;part=0/1;trace=<;base=0",
    b"origin=2;part=0/1;base=0",
    b"origin=2;part=0/1;entries=man=1@0",
    b"origin=2;part=0/1;base=0;trace=\xff",
])
def test_submit_out_of_its_field_grammar_is_refused(payload):
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    node._on_data_submit(Message(kind=MessageKind.DATA_SUBMIT, sender=2,
                                 cycle_id=0, payload=payload),
                         "node2:7000", 1.0)
    assert events[-1] == "t=1.000 node=1 malformed_submit from=2"
    assert node._slot.submissions == {}


@pytest.mark.parametrize("base, trace", [
    ("0", ""), ("12", ""), (str(2 ** 63 - 1), "<"), (str(2 ** 63 - 2), "<<"),
    ("3", pair_symbol("woman", 600) + pair_symbol("man", 18000)
     + pair_symbol("woman", MAX_ROOM)),
])
def test_submit_at_the_edges_of_its_grammar_is_filed(base, trace):
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    node._on_data_submit(Message(
        kind=MessageKind.DATA_SUBMIT, sender=2, cycle_id=0,
        payload=f"origin=2;part=0/1;base={base};trace={trace}".encode()),
        "node2:7000", 1.0)
    assert node._slot.submissions[2].ordered() == [(int(base), trace)]


def test_submit_for_another_origin_is_dropped():
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    forged = Message(kind=MessageKind.DATA_SUBMIT, sender=1, cycle_id=0,
                     # Two readings of (man, 3), symbol "B".
                     payload=b"origin=9;part=0/1;base=0;trace=BB")
    node._on_data_submit(forged, "node1:7000", 1.0)
    assert events[-1] == "t=1.000 node=1 malformed_submit from=1"
    assert node._slot.submissions == {}


def _forged_submission_events(tmp_path, sender, origin):
    """Events of a 3-node cycle where node 1 sends a forged submission.

    At t=1000 the leader, node 3, gets a DATA_SUBMIT from node 1's
    address whose header says ``sender`` and whose body says
    ``origin``.  The honest cycle commits total=88 at t=1720.775.
    """
    from crowdmw.harness import ScenarioConfig, SimCluster
    from crowdmw.store import JournalStore

    store = JournalStore(str(tmp_path / "forged.journal"))
    try:
        cluster = SimCluster(
            ScenarioConfig(nodes=3, cycles=1, seed=5, visitors=30), store)
        cluster.start()
        cluster.run(1000.0)
        leader = cluster.nodes[3]
        assert leader._slot.is_leader and leader.phase is NodePhase.COLLECTING
        leader.on_message(
            Message(kind=MessageKind.DATA_SUBMIT, sender=sender, cycle_id=0,
                    payload=f"origin={origin};part=0/1;"
                            f"base=0;trace=BB".encode()),
            "node1:7000", cluster.clock.now_ms())
        cluster.run(2000.0)
    finally:
        store.close()
    assert not any(" fallback_reduce " in line for line in cluster.events)
    assert ("t=1720.775 node=3 commit cycle=0 rows=10 total=88 fallbacks=0"
            in cluster.events)
    return cluster.events


def test_forged_origin_leaves_the_cycle_as_it_was(tmp_path):
    # Node 1 submits two readings as node 9, which is not in the
    # cluster.  Taken at its word, node 9 joined the responders, its
    # readings were counted (total=90) and its segment, addressed to no
    # one, was reduced locally after the reduce window ran out.
    events = _forged_submission_events(tmp_path, sender=1, origin=9)
    assert "t=1000.000 node=3 malformed_submit from=1" in events


@pytest.mark.parametrize("sender", [9, 2])
def test_forged_sender_is_refused(tmp_path, sender):
    # Node 1 also forges the header's sender: node 9, not in the
    # cluster, or node 2.  Believing the header, the leader counted
    # node 9's readings (total=90, with a fallback reduce at t=1963),
    # or let the forged part replace node 2's (total=69 at t=1699).
    # Only the source address, not node 9's or node 2's, shows it.
    events = _forged_submission_events(tmp_path, sender=sender,
                                       origin=sender)
    assert f"t=1000.000 node=3 malformed_submit from={sender}" in events


def _forged_partial_run(tmp_path, index, source, sender, count, visitor,
                        room):
    """Totals and events of a 3-node cycle with one forged partial.

    At t=1700.5 the leader, node 3, waits for the partials of segment
    0 (node 1's, 30 pairs) and segment 1 (node 2's); segment 2 is its
    own.  It gets a REDUCE_RESULT from ``source`` for segment ``index``
    with that segment's checksum and a valid digest; ``count`` and
    ``room`` may name the segment's pair count, written ``{count}``.
    """
    from crowdmw.harness import ScenarioConfig, SimCluster
    from crowdmw.mapreduce import crc64
    from crowdmw.store import JournalStore

    store = JournalStore(str(tmp_path / "partial.journal"))
    try:
        cluster = SimCluster(
            ScenarioConfig(nodes=3, cycles=1, seed=5, visitors=30), store)
        cluster.start()
        cluster.run(1700.5)
        leader = cluster.nodes[3]
        assert leader.phase is NodePhase.MERGING
        segment = leader._slot.segments[index]
        assert segment.assignee == index + 1
        pairs = segment.pair_count
        body = (f"segment={index};count={count.format(count=pairs)};"
                f"checksum={segment.checksum:016x};visitor={visitor};"
                f"room={room.format(count=pairs)}")
        payload = f"{body};digest={crc64(body.encode()):016x}"
        leader.on_message(
            Message(kind=MessageKind.REDUCE_RESULT, sender=sender,
                    cycle_id=0, payload=payload.encode()),
            source, cluster.clock.now_ms())
        cluster.run(2000.0)
        totals = (store.totals("visitor"), store.totals("room"))
    finally:
        store.close()
    return totals, cluster.events


HONEST_CYCLE = ({"man": 68, "other": 9, "woman": 141},
                {"Room1": 23, "Room2": 21, "Room3": 23, "Room4": 21})


@pytest.mark.parametrize("index, source, sender, count, visitor, room", [
    # From an address the segment was not dispatched to, with the
    # segment's count: kept, it would commit man=1000 and Room1=43.
    (0, "node9:7000", 9, "{count}", "man:1000", "Room1:{count}"),
    # From the assignee, one pair more than the segment holds: kept,
    # its room counts would add up to 89 of the cycle's 88 readings.
    (0, "node1:7000", 1, "31", "man:31", "Room1:31"),
    # From the assignee, with the segment's count and room counts that
    # add up to it, but a negative count: kept, it would skew the totals.
    (0, "node1:7000", 1, "{count}", "man:-3", "Room1:{count}"),
    (0, "node1:7000", 1, "{count}", "man:30", "Room1:-5,Room2:35"),
    # From the assignee, a room key that is no room number: kept, it
    # would raise out of the merge.
    (0, "node1:7000", 1, "{count}", "man:30", "Roomx:{count}"),
    # For the leader's own segment, which it never dispatched.
    (2, "node3:7000", 3, "{count}", "man:1000", "Room1:{count}"),
])
def test_forged_partial_is_refused_at_ingress(tmp_path, index, source,
                                              sender, count, visitor, room):
    totals, events = _forged_partial_run(tmp_path, index, source, sender,
                                         count, visitor, room)
    assert f"t=1700.500 node=3 corrupt_partial from={sender}" in events
    assert not any(" fallback_reduce " in line for line in events)
    assert ("t=1720.775 node=3 commit cycle=0 rows=10 total=88 fallbacks=0"
            in events)
    assert totals == HONEST_CYCLE


# (pair text, the pair count it would carry if it were valid)
MALFORMED_ASSIGNMENTS = [
    ("Room0=1", 1), ("x=1", 1), ("man=-1", 1), ("man=1,man", 2),
    ("man =1", 1), (" man=1", 1), ("man=01", 1), ("man=+1", 1),
    ("man=1*1", 1), ("man=1*01", 1), ("man=1,man=1*2", 3),
    ("woman=1,man=1", 2)]


@pytest.mark.parametrize("pairs, count", MALFORMED_ASSIGNMENTS,
                         ids=[pairs for pairs, _ in MALFORMED_ASSIGNMENTS])
def test_malformed_assignment_is_logged(pairs, count):
    from crowdmw.mapreduce import crc64

    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    # The checksum matches, and so does the count where the text
    # parses, so only run validation can catch these: the reducer
    # trusts a checksum-valid text only in canonical form.
    payload = (f"segment=0;count={count};"
               f"checksum={crc64(pairs.encode()):016x};"
               f"part=0/1;pairs={pairs}")
    for _ in range(2):
        node._slot.assignments.clear()
        node.on_message(
            Message(kind=MessageKind.SEGMENT_ASSIGN, sender=3, cycle_id=0,
                    payload=payload.encode()), LEADER, 1.0)
        assert events[-1] == "t=1.000 node=1 malformed_assignment from=3"
        assert node.phase is NodePhase.AWAITING_SEGMENT
    bad_field = Message(kind=MessageKind.SEGMENT_ASSIGN, sender=3, cycle_id=0,
                        payload=b"segment=0;count=x;checksum=0;part=0/1;"
                                b"pairs=man=1")
    node.on_message(bad_field, LEADER, 2.0)
    assert events[-1] == "t=2.000 node=1 malformed_assignment from=3"
    segment = Segment.build(1, [(KeyValuePair("man", 1), 1)], 0)
    node._slot.assignments.clear()
    for message in build_assignment_parts(3, 0, segment):
        node.on_message(message, LEADER, 3.0)
    assert node.phase is NodePhase.AWAITING_RESULT


# -- early consolidation ------------------------------------------------------


@pytest.fixture
def make_leader(tmp_path):
    """Builds node 3 of three, started at t=0 and leading slot 0.

    Each call opens its own journal, and teardown closes every one, so
    a failing test leaves no open file behind for a later test to trip
    on.
    """
    from crowdmw import election
    from crowdmw.clock import VirtualClock
    from crowdmw.runtime import Node
    from crowdmw.store import JournalStore
    from crowdmw.transport import NetConfig, SimulatedNetwork

    stores = []

    def make(events, config=None):
        config = config or CycleConfig()
        store = JournalStore(str(tmp_path / f"leader{len(stores)}.journal"))
        stores.append(store)
        for node_id in (1, 2, 3):
            election.register_node(store, node_id, f"node{node_id}:7000", 0,
                                   config.liveness_window_ms)
        endpoint = SimulatedNetwork(NetConfig(), VirtualClock()).open(
            "node3:7000")
        node = Node(3, config, endpoint, store, event_sink=events.append)
        node.start(0.0)
        return node

    yield make
    for store in stores:
        store.close()


@pytest.fixture
def consolidating_leader(make_leader):
    """Node 3 leading slot 0 of three, past collection, own part in."""
    events = []
    node = make_leader(events)
    node.advance(float(node.config.collection_ms))
    assert node.phase is NodePhase.CONSOLIDATING
    return node, events


def test_late_advance_fires_each_timer_at_its_due_time(make_leader):
    stepwise_events, late_events = [], []
    stepwise = make_leader(stepwise_events)
    for now in (1500.0, 1700.0, 2000.0, 3500.0):
        stepwise.advance(now)
    # One call past the collection end, the consolidation deadline and
    # the slot boundary fires each timer as if it were called on time:
    # the slot-1 collection end is armed from the boundary and fires.
    late = make_leader(late_events)
    late.advance(3500.0)
    for node in (stepwise, late):
        assert (node.cycle_id, node.phase, sorted(node._timers)) == (
            1, NodePhase.CONSOLIDATING, ["consolidate", "slot"])
    assert late_events == stepwise_events


def _submission(origin, count, parts, cycle=0):
    entries = [(KeyValuePair("man", origin), seq) for seq in range(count)]
    messages = build_submission_parts(origin, cycle, 0, _trace(entries),
                                      max_entries_per_part=count // parts)
    assert len(messages) == parts
    return messages


def _deliver_until_consolidated(node, messages):
    """Deliver in order; the index of the message that consolidated."""
    consolidated_at = None
    for step, message in enumerate(messages):
        node.on_message(message, f"node{message.sender}:7000",
                        1500.0 + step)
        if consolidated_at is None and node.phase is not NodePhase.CONSOLIDATING:
            consolidated_at = step
    return consolidated_at


def _finish_by_fallback(node, events):
    """The one commit line, logged at the slot boundary.

    No follower answers, so the leader reduces their segments itself
    when the slot ends.
    """
    node.advance(2000.0)
    commits = [line for line in events if " commit cycle=0 " in line]
    assert len(commits) == 1
    return commits[0]


def test_consolidates_when_last_part_arrives_out_of_order(
        consolidating_leader):
    node, events = consolidating_leader
    one, two = _submission(1, 6, 3), _submission(2, 4, 2)
    order = [one[2], two[1], one[0], two[0], one[1]]
    assert _deliver_until_consolidated(node, order) == len(order) - 1
    assert node.phase is NodePhase.MERGING
    assert "consolidate" not in node._timers
    assert _finish_by_fallback(node, events) == (
        "t=2000.000 node=3 commit cycle=0 rows=5 total=10 fallbacks=2")


def test_duplicated_part_neither_triggers_nor_double_counts(
        consolidating_leader):
    node, events = consolidating_leader
    one, two = _submission(1, 4, 2), _submission(2, 3, 1)
    order = [one[0], one[0], two[0], two[0], one[0], one[1], one[1]]
    assert _deliver_until_consolidated(node, order) == 5
    assert _finish_by_fallback(node, events) == (
        "t=2000.000 node=3 commit cycle=0 rows=5 total=7 fallbacks=2")


def test_restarted_submission_waits_for_its_new_total(consolidating_leader):
    node, events = consolidating_leader
    first = _submission(1, 6, 3)
    restart = _submission(1, 4, 2)
    two = _submission(2, 2, 1)
    # Two of three parts, then a restart with total 2: the old parts
    # are dropped, so the first new part does not complete node 1 even
    # though two parts have now arrived for a total of two.
    order = [first[0], first[1], two[0], restart[0], restart[1]]
    assert _deliver_until_consolidated(node, order) == len(order) - 1
    # 4 + 2 readings.
    assert _finish_by_fallback(node, events) == (
        "t=2000.000 node=3 commit cycle=0 rows=5 total=6 fallbacks=2")


def test_submission_parts_do_not_carry_across_a_slot(consolidating_leader):
    node, events = consolidating_leader
    node.on_message(_submission(1, 4, 2)[0], "node1:7000", 1500.0)
    for now in (1700.0, 2000.0, 3500.0):
        node.advance(now)
    assert (node.cycle_id, node.phase) == (1, NodePhase.CONSOLIDATING)
    one, two = _submission(1, 4, 2, cycle=1), _submission(2, 3, 1, cycle=1)
    # Part 1/2 of slot 1 would complete the set begun in slot 0, and
    # every origin would have responded.
    for message in (two[0], one[1]):
        node.on_message(message, f"node{message.sender}:7000", 3501.0)
    assert node.phase is NodePhase.CONSOLIDATING
    node.on_message(one[0], "node1:7000", 3502.0)
    assert node.phase is NodePhase.MERGING
    node.advance(4000.0)
    assert "t=4000.000 node=3 commit cycle=1 rows=5 total=7 fallbacks=2" in (
        events)


def test_consolidation_timer_still_fires_without_every_origin(
        consolidating_leader):
    node, _ = consolidating_leader
    assert _deliver_until_consolidated(node, _submission(1, 2, 2)) is None
    node.advance(1500.0 + CycleConfig().submit_window_ms)
    assert node.phase is NodePhase.MERGING


@pytest.mark.parametrize("empty_part, outcome", [
    (True, "t=2000.000 node=3 commit cycle=0 rows=3 total=3 fallbacks=2"),
    (False, "t=1700.000 node=3 abort cycle=0 reason=min_responding"),
], ids=["empty_part", "no_part"])
def test_an_empty_part_counts_its_origin_as_responding(make_leader,
                                                       empty_part, outcome):
    # Three nodes must respond: the leader, node 1 with three readings
    # and node 2, whose one part holds none.  Without that part only two
    # have responded when the submission window closes.
    events = []
    node = make_leader(events, CycleConfig(min_responding_nodes=3))
    node.advance(float(node.config.collection_ms))
    messages = _submission(1, 3, 1)
    if empty_part:
        messages += build_submission_parts(2, 0, 0, "")
    _deliver_until_consolidated(node, messages)
    node.advance(1500.0 + node.config.submit_window_ms)
    node.advance(2000.0)
    assert [line for line in events if " cycle=0 " in line
            and (" commit " in line or " abort " in line)] == [outcome]


# -- run counts off the wire -------------------------------------------------


def _assign(pairs, count, part="0/1", whole=None, cycle=0):
    """A SEGMENT_ASSIGN part; its checksum covers ``whole`` or ``pairs``."""
    checked = pairs if whole is None else whole
    payload = (f"segment=0;count={count};"
               f"checksum={crc64(checked.encode()):016x};part={part};"
               f"pairs={pairs}")
    return Message(kind=MessageKind.SEGMENT_ASSIGN, sender=3,
                   cycle_id=cycle, payload=payload.encode())


def test_huge_run_count_is_reduced_without_expanding():
    import time
    import tracemalloc

    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    count = 10 ** 18
    message = _assign(f"man=1*{count}", count)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        node.on_message(message, LEADER, 1.0)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000
    assert node.phase is NodePhase.AWAITING_RESULT
    (dest, reply), = node.endpoint.sent
    parsed = parse_reduce_result(reply)
    assert dest == LEADER
    assert (parsed["count"], parsed["visitor"], parsed["room"]) == (
        count, {"man": count}, {"Room1": count})


def _distinct_rooms(first, last):
    return ",".join(f"man={room}" for room in range(first, last))


@pytest.mark.parametrize("texts,count", [
    # Counts of 2**63 and more are refused where they are parsed.
    ([f"man=1*{2 ** 63}"], 2 ** 63),
    (["man=1*" + "9" * 3000], int("9" * 3000)),
    (["man=1*2"], 2 ** 63),
    (["man=1"], int("9" * 3000)),
    # A room number times its count is too long to print.
    ([f"man={'9' * 4290}*{10 ** 18}"], 10 ** 18),
    # Totals that fit no datagram: a long room number, and more
    # distinct rooms than one reply can list.
    ([f"man={'9' * 4100}"], 1),
    ([_distinct_rooms(1, 700), _distinct_rooms(700, 1400)], 1399),
], ids=["run-count-2**63", "run-count-3000-digits", "count-2**63",
        "count-3000-digits", "total-over-4300-digits", "room-4100-digits",
        "1399-rooms-in-2-parts"])
def test_hostile_assignment_is_refused_without_raising(texts, count):
    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    for index, text in enumerate(texts):
        node.on_message(_assign(text, count, f"{index}/{len(texts)}",
                                ",".join(texts)), LEADER, 1.0)
    assert "t=1.000 node=1 malformed_assignment from=3" in events
    assert node.endpoint.sent == []


def test_assignment_parts_do_not_carry_across_a_slot(tmp_path):
    from crowdmw import election
    from crowdmw.runtime import Node
    from crowdmw.store import JournalStore

    config = CycleConfig()
    store = JournalStore(str(tmp_path / "follower.journal"))
    election.register_node(store, 3, LEADER, 0, config.liveness_window_ms)
    node = Node(1, config, _Outbox(), store)

    def await_segment(slot_start):
        # Answer this slot's PING as node 3, then end the collection.
        _, ping = node.endpoint.sent[-1]
        assert ping.kind is MessageKind.PING
        node.on_message(Message(kind=MessageKind.PONG, sender=3,
                                cycle_id=ping.cycle_id, payload=ping.payload),
                        LEADER, slot_start + 10.0)
        node.advance(slot_start + config.collection_ms)
        assert node.phase is NodePhase.AWAITING_SEGMENT

    whole = "man=1,woman=2"
    node.start(0.0)
    await_segment(0.0)
    node.on_message(_assign("man=1", 2, "0/2", whole), LEADER, 1510.0)
    node.advance(2000.0)
    await_segment(2000.0)
    # Part 1/2 of slot 1 would complete the set begun in slot 0.
    node.on_message(_assign("woman=2", 2, "1/2", whole, cycle=1), LEADER,
                    3510.0)
    assert node.phase is NodePhase.AWAITING_SEGMENT
    node.on_message(_assign("man=1", 2, "0/2", whole, cycle=1), LEADER,
                    3520.0)
    assert node.phase is NodePhase.AWAITING_RESULT
    dest, reply = node.endpoint.sent[-1]
    assert (dest, reply.kind, reply.cycle_id) == (
        LEADER, MessageKind.REDUCE_RESULT, 1)
    assert parse_reduce_result(reply)["visitor"] == {"man": 1, "woman": 2}
    store.close()


def test_assignment_count_must_match_the_runs():
    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    pairs = "man=1*3,woman=2"
    payload = (f"segment=0;count=3;checksum={crc64(pairs.encode()):016x};"
               f"part=0/1;pairs={pairs}")
    node.on_message(
        Message(kind=MessageKind.SEGMENT_ASSIGN, sender=3, cycle_id=0,
                payload=payload.encode()), LEADER, 1.0)
    assert events[-1] == "t=1.000 node=1 short_segment segment=0"
    assert node.phase is NodePhase.AWAITING_SEGMENT


def test_assignment_checksum_must_match_the_text():
    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    node.on_message(_assign("man=1", 1, whole="man=2"), LEADER, 1.0)
    assert events[-1] == "t=1.000 node=1 checksum_mismatch segment=0"
    assert node.endpoint.sent == []
    assert node.phase is NodePhase.AWAITING_SEGMENT


# -- acks never run past the sequences a node issued -------------------------


def test_buffer_prune_clamps_to_issued_sequences():
    buffer = ClientBuffer()
    buffer.ingest([_key(TagCategory.MAN, 1, t) for t in range(3)])
    assert buffer.prune_through(10 ** 6) == 3
    assert buffer.committed_through == 2
    buffer.ingest([_key(TagCategory.WOMAN, 2, t) for t in range(3, 6)])
    # A later honest ack still prunes what it covers.
    assert buffer.prune_through(4) == 2
    assert buffer.committed_through == 4
    assert [seq for _, seq in buffer.entries()] == [5]


def test_forged_ack_does_not_stop_later_pruning(tmp_path):
    from crowdmw.harness import ScenarioConfig, SimCluster
    from crowdmw.store import JournalStore

    store = JournalStore(str(tmp_path / "ack.journal"))
    try:
        cluster = SimCluster(
            ScenarioConfig(nodes=3, cycles=3, seed=5, visitors=30), store)
        cluster.start()
        cluster.run(3000.0)
        node = cluster.nodes[1]
        node.on_message(
            Message(kind=MessageKind.CYCLE_SUCCESS, sender=9,
                    cycle_id=node.cycle_id, payload=b"acks=1:1000000"),
            "node9:7000", cluster.clock.now_ms())
        cluster.run(6000.0)
        watermark = store.ack_watermarks()[1]
    finally:
        store.close()
    held = [seq for _, seqs in node.buffer.runs() for seq in seqs
            if seq <= watermark]
    assert ("t=3000.000 node=1 not_leader kind=cycle_success from=9"
            in cluster.events)
    assert watermark > 0
    assert held == []
    assert node.buffer.committed_through == watermark


@pytest.mark.parametrize("sender, payload", [
    (9, b"leader=9;addr=node9:7000"),  # an id the registry does not hold
    (3, b"leader=3;addr=node3:7000"),  # the leader's address, sent elsewhere
    (3, b"leader=3;addr=node9:7000"),  # not the leader's registry address
])
def test_forged_announcement_does_not_redirect_a_follower(tmp_path, sender,
                                                          payload):
    # Taken at its word, the announcement made node9:7000 node 1's
    # leader, and a forged outcome from there was then handled.
    from crowdmw.harness import ScenarioConfig, SimCluster
    from crowdmw.store import JournalStore

    store = JournalStore(str(tmp_path / "announce.journal"))
    try:
        cluster = SimCluster(
            ScenarioConfig(nodes=3, cycles=3, seed=5, visitors=30), store)
        cluster.start()
        cluster.run(3000.0)
        node = cluster.nodes[1]
        assert node._leader_address == LEADER
        for message in (
                Message(kind=MessageKind.REGISTER_ACK, sender=sender,
                        cycle_id=node.cycle_id, payload=payload),
                build_success(sender, node.cycle_id, {1: 1000000})):
            node.on_message(message, "node9:7000", cluster.clock.now_ms())
    finally:
        store.close()
    forged = [line for line in cluster.events
              if line.startswith("t=3000.000 node=1 ")
              and " recv " not in line]
    assert forged[-2:] == [
        f"t=3000.000 node=1 not_leader kind=register_ack from={sender}",
        f"t=3000.000 node=1 not_leader kind=cycle_success from={sender}",
    ]
    assert node._leader_address == LEADER


# -- leader-only messages count only from the confirmed leader ---------------


def test_forged_outcome_from_a_non_leader_is_dropped():
    events = []
    node = _idle_node(events, NodePhase.AWAITING_RESULT, leader=False)
    node.buffer.ingest([_key(TagCategory.MAN, 1, t) for t in range(3)])
    success = build_success(3, 0, {1: 2})
    abort = Message(kind=MessageKind.CYCLE_ABORT, sender=3, cycle_id=0,
                    payload=b"reason=min_responding")
    # The header names the leader; the source address does not.
    node.on_message(success, "node9:7000", 1.0)
    assert events[-1] == "t=1.000 node=1 not_leader kind=cycle_success from=3"
    assert (len(node.buffer), node.buffer.committed_through) == (3, -1)
    node.on_message(abort, "node9:7000", 2.0)
    assert events[-1] == "t=2.000 node=1 not_leader kind=cycle_abort from=3"
    node.on_message(abort, LEADER, 3.0)
    assert events[-1] == "t=3.000 node=1 outcome cycle=0 kind=abort"
    node.on_message(success, LEADER, 4.0)
    assert events[-1] == "t=4.000 node=1 outcome cycle=0 kind=success pruned=3"


def test_assignment_from_a_non_leader_is_not_reduced():
    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    segment = Segment.build(1, [(KeyValuePair("man", 1), 1)], 0)
    (message,) = build_assignment_parts(3, 0, segment)
    node.on_message(message, "node2:7000", 1.0)
    assert events[-1] == ("t=1.000 node=1 not_leader kind=segment_assign "
                          "from=3")
    assert node.phase is NodePhase.AWAITING_SEGMENT
    assert node._slot.assignments == {} and node.endpoint.sent == []
    node.on_message(message, LEADER, 2.0)
    assert node.phase is NodePhase.AWAITING_RESULT
    assert [dest for dest, _ in node.endpoint.sent] == [LEADER]


# -- the leader check: PING retries, nonce, other traffic --------------------


def _checking_follower(tmp_path, events):
    """Node 1 at slot 0, checking node 2 (the highest live id) by PING."""
    from crowdmw import election
    from crowdmw.runtime import Node
    from crowdmw.store import JournalStore

    config = CycleConfig()
    store = JournalStore(str(tmp_path / "check.journal"))
    election.register_node(store, 2, "node2:7000", 0,
                           config.liveness_window_ms)
    node = Node(1, config, _Outbox(), store, event_sink=events.append)
    node.start(0.0)
    assert node.phase is NodePhase.CHECKING_SERVER
    return node, store


def _pings(node):
    return [message for dest, message in node.endpoint.sent
            if message.kind is MessageKind.PING and dest == "node2:7000"]


def test_leader_check_retries_then_gives_up(tmp_path):
    events = []
    node, store = _checking_follower(tmp_path, events)
    timeout = node.config.ping_timeout_ms
    for attempt in range(1, node.config.ping_retries):
        node.advance(attempt * timeout)
        assert len(_pings(node)) == attempt + 1
        assert node.phase is NodePhase.CHECKING_SERVER
    nonces = {ping.payload for ping in _pings(node)}
    assert len(nonces) == node.config.ping_retries
    node.advance(node.config.ping_retries * timeout)
    assert len(_pings(node)) == node.config.ping_retries
    assert f"t={node.config.ping_retries * timeout:.3f} node=1 " \
           f"unreachable node=2 cycle=0" in events
    assert node._slot.is_leader
    store.close()


def test_leader_check_ignores_a_wrong_nonce(tmp_path):
    events = []
    node, store = _checking_follower(tmp_path, events)
    (ping,) = _pings(node)
    wrong = bytes(reversed(ping.payload))
    assert wrong != ping.payload
    for sender, payload in ((2, wrong), (3, ping.payload)):
        node.on_message(Message(kind=MessageKind.PONG, sender=sender,
                                cycle_id=0, payload=payload),
                        "node2:7000", 10.0)
        assert node.phase is NodePhase.CHECKING_SERVER
    node.on_message(Message(kind=MessageKind.PONG, sender=2, cycle_id=0,
                            payload=ping.payload), "node2:7000", 20.0)
    assert node.phase is NodePhase.COLLECTING
    assert node._leader_address == "node2:7000"
    store.close()


def test_leader_check_keeps_other_traffic(tmp_path):
    events = []
    node, store = _checking_follower(tmp_path, events)
    # Node 2 answers in slot 0, so node 1 follows it into slot 1.
    (ping,) = _pings(node)
    node.on_message(Message(kind=MessageKind.PONG, sender=2, cycle_id=0,
                            payload=ping.payload), "node2:7000", 20.0)
    node.advance(2000.0)
    assert node.phase is NodePhase.CHECKING_SERVER
    ping = _pings(node)[-1]
    node.on_message(Message(kind=MessageKind.CYCLE_ABORT, sender=2,
                            cycle_id=0, payload=b"reason=noise"),
                    "node2:7000", 2010.0)
    # Handled, not dropped, and the check still waits for its PONG.
    assert events[-1] == "t=2010.000 node=1 outcome cycle=0 kind=abort"
    assert node.phase is NodePhase.CHECKING_SERVER
    node.on_message(Message(kind=MessageKind.PONG, sender=2, cycle_id=1,
                            payload=ping.payload), "node2:7000", 2020.0)
    assert node.phase is NodePhase.COLLECTING
    assert node._leader_address == "node2:7000"
    store.close()


def test_live_override_is_checked_whatever_later_registrations_say(tmp_path):
    # Node 9 registered later than node 1's clock reads (nodes whose
    # clocks disagree over one store, as on separate devices).  At t=4000 node 1 counts node 2 as live
    # (0 + 4000 >= 4000); re-checking liveness at node 9's 4100 instead
    # dropped node 2 and raised because the override was not live.
    from crowdmw import election
    from crowdmw.runtime import Node
    from crowdmw.store import JournalStore

    config = CycleConfig()
    assert config.liveness_window_ms == 4000
    store = JournalStore(str(tmp_path / "override.journal"))
    election.register_node(store, 2, "node2:7000", 0,
                           config.liveness_window_ms)
    election.register_node(store, 9, "node9:7000", 4100,
                           config.liveness_window_ms)
    node = Node(1, config, _Outbox(), store, override=2)
    node.start(4000.0)
    assert node.phase is NodePhase.CHECKING_SERVER
    assert [(dest, message.kind) for dest, message in node.endpoint.sent] == [
        ("node2:7000", MessageKind.PING)]
    store.close()
