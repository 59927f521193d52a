"""Cycle protocol units: config, buffers, payload grammar, pipeline.

The expected aggregates for the 16-reading reference stream are frozen
from a hand count (visitor man=10, woman=21, other=12; room counts
2/5/5/4) so the pipeline cannot drift without a test noticing.
"""

import pytest

from crowdmw.domain import CountMode, MiddlewareError, SensorReading, TagCategory
from crowdmw.mapreduce import (
    KeyValuePair,
    PartialResult,
    Segment,
    map_reading,
    partition,
    reduce_segment,
    sequential_oracle,
    sort_pairs,
    verify_pairs_text,
)
from crowdmw.runtime import (
    ClientBuffer,
    CycleAborted,
    CycleConfig,
    IntegrityFailure,
    ListReadingSource,
    NodePhase,
    PHASE_EDGES,
    _AssignmentParts,
    _SubmissionParts,
    _parse_entries,
    _parse_fields,
    build_assignment_parts,
    build_reduce_result,
    build_submission_parts,
    build_success,
    integrity_check,
    leader_cycle,
    parse_reduce_result,
    parse_success_acks,
)
from crowdmw.simgen import VisitorModel, dedupe_readings, generate_stream, replay_fixture
from crowdmw.transport import (MAX_PAYLOAD, Message, MessageKind,
                               decode_message, encode_message)

TABLE_VISITOR = {TagCategory.MAN: 10, TagCategory.WOMAN: 21,
                 TagCategory.OTHER: 12}
TABLE_ROOM = {1: 2, 2: 5, 3: 5, 4: 4}


def _table_submissions(origins=(1, 2, 3)):
    """Reference readings mapped to pairs, dealt round-robin."""
    readings = replay_fixture("table1")
    buckets = {origin: [] for origin in origins}
    for index, reading in enumerate(readings):
        origin = list(origins)[index % len(origins)]
        buckets[origin].append(map_reading(reading, CountMode.VISITOR))
    return list(buckets.items())


# -- config -----------------------------------------------------------------


def test_config_derived_windows():
    config = CycleConfig()
    assert config.cycle_duration_ms == 2000
    assert config.mapreduce_window_ms == 500
    assert config.collection_ms == 1500
    assert config.submit_window_ms == 200
    assert config.reduce_window_ms == 400
    assert config.liveness_window_ms == 4000


@pytest.mark.parametrize("kwargs", [
    dict(cycle_duration_ms=0),
    dict(mapreduce_window_ms=0),
    dict(mapreduce_window_ms=2000),
    dict(cycle_duration_ms=400, mapreduce_window_ms=500),
    dict(min_responding_nodes=1),
    dict(retry_limit=-1),
    dict(ping_timeout_ms=0),
    dict(ping_retries=0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CycleConfig(**kwargs)


# -- client buffer ----------------------------------------------------------


def _reading(tag, room, timestamp):
    return SensorReading(tag=tag, room=room, timestamp=timestamp)


def test_buffer_assigns_dense_sequences():
    buffer = ClientBuffer()
    first = buffer.ingest([_reading(TagCategory.MAN, 1, 0),
                           _reading(TagCategory.WOMAN, 2, 5)])
    second = buffer.ingest([_reading(TagCategory.OTHER, 3, 9)])
    assert [seq for seq, _ in first + second] == [0, 1, 2]
    assert len(buffer) == 3


def test_buffer_collapses_double_reads_within_batch():
    double = _reading(TagCategory.MAN, 1, 40)
    buffer = ClientBuffer()
    added = buffer.ingest([double, double, _reading(TagCategory.MAN, 1, 41)])
    assert len(added) == 2
    # A later batch is a fresh collection window: no cross-batch state.
    assert len(buffer.ingest([double])) == 1


def test_buffer_entries_sorted_canonically():
    buffer = ClientBuffer()
    buffer.ingest([_reading(TagCategory.WOMAN, 4, 0),
                   _reading(TagCategory.MAN, 2, 1),
                   _reading(TagCategory.MAN, 1, 2),
                   _reading(TagCategory.OTHER, 3, 3)])
    pairs = [(pair.key, pair.value) for pair, _ in buffer.entries()]
    assert pairs == [("man", 1), ("man", 2), ("other", 3), ("woman", 4)]


def test_buffer_prune_watermark():
    buffer = ClientBuffer()
    buffer.ingest([_reading(TagCategory.MAN, 1, t) for t in range(5)])
    assert buffer.prune_through(2) == 3
    assert buffer.committed_through == 2
    assert [seq for _, seq in buffer.entries()] == [3, 4]
    # Stale or repeated watermarks drop nothing and never regress.
    assert buffer.prune_through(2) == 0
    assert buffer.prune_through(1) == 0
    assert buffer.committed_through == 2


def test_reading_source_releases_by_time():
    stream = [(10.0, _reading(TagCategory.MAN, 1, 0)),
              (20.0, _reading(TagCategory.WOMAN, 2, 1)),
              (20.0, _reading(TagCategory.OTHER, 3, 2))]
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


def _expand(runs):
    """Runs of (pair, sequences) as the flat (pair, sequence) entries."""
    return [(pair, seq) for pair, seqs in runs for seq in seqs]


def _reassemble_submission(messages):
    holder = None
    for message in messages:
        fields = _parse_fields(message.payload)
        index, _, total = fields["part"].partition("/")
        if holder is None:
            holder = _SubmissionParts(total=int(total))
        assert int(total) == holder.total
        holder.parts[int(index)] = _parse_entries(fields["entries"])
    assert holder.complete()
    return _expand(holder.runs())


def test_submission_roundtrip_single_part():
    entries = _entries(5)
    messages = build_submission_parts(7, 3, entries)
    assert len(messages) == 1
    assert messages[0].kind is MessageKind.DATA_SUBMIT
    assert messages[0].sender == 7
    assert messages[0].cycle_id == 3
    assert _parse_fields(messages[0].payload)["origin"] == "7"
    assert _reassemble_submission(messages) == entries


def test_submission_split_by_entry_cap():
    entries = _entries(6)
    messages = build_submission_parts(2, 0, entries, max_entries_per_part=1)
    assert len(messages) == 6
    assert _reassemble_submission(messages) == entries


def test_submission_split_by_byte_budget():
    entries = _entries(3_000)
    messages = build_submission_parts(4, 1, entries)
    assert len(messages) > 1
    for message in messages:
        assert len(message.payload) <= MAX_PAYLOAD
        # And the full frame survives the codec.
        assert decode_message(encode_message(message)) == message
    assert _reassemble_submission(messages) == entries


def test_submission_empty_buffer_still_sends_one_part():
    messages = build_submission_parts(1, 0, [])
    assert len(messages) == 1
    assert _reassemble_submission(messages) == []


# -- assignment wire grammar -------------------------------------------------


def _reassemble_assignment(messages):
    holder = None
    for message in messages:
        fields = _parse_fields(message.payload)
        index, _, total = fields["part"].partition("/")
        if holder is None:
            holder = _AssignmentParts(
                segment_index=int(fields["segment"]),
                count=int(fields["count"]),
                checksum=int(fields["checksum"], 16),
                total=int(total),
            )
        holder.parts[int(index)] = fields["pairs"]
    assert holder.complete()
    return holder


def test_assignment_roundtrip_and_checksum():
    pairs = sort_pairs(pair for pair, _ in _entries(40))
    segment = Segment.build(assignee=2, pairs=pairs, segment_index=0)
    messages = build_assignment_parts(9, 5, segment)
    assert all(m.kind is MessageKind.SEGMENT_ASSIGN for m in messages)
    holder = _reassemble_assignment(messages)
    assert holder.count == len(pairs)
    recovered = verify_pairs_text(holder.text(), holder.checksum)
    assert tuple(recovered) == segment.pairs


def test_assignment_splits_large_segment():
    pairs = sort_pairs(pair for pair, _ in _entries(2_500))
    segment = Segment.build(assignee=1, pairs=pairs, segment_index=2)
    messages = build_assignment_parts(3, 0, segment)
    assert len(messages) > 1
    for message in messages:
        assert len(message.payload) <= MAX_PAYLOAD
    holder = _reassemble_assignment(messages)
    assert tuple(verify_pairs_text(holder.text(), holder.checksum)) == \
        segment.pairs


def test_assignment_empty_segment():
    segment = Segment.build(assignee=4, pairs=(), segment_index=1)
    messages = build_assignment_parts(3, 0, segment)
    assert len(messages) == 1
    holder = _reassemble_assignment(messages)
    assert holder.text() == ""
    assert verify_pairs_text(holder.text(), holder.checksum) == []


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


# -- integrity check ----------------------------------------------------------


def _segments_and_partials():
    pairs = sort_pairs(pair for pair, _ in _entries(16))
    segments = partition(pairs, {1, 2, 3})
    partials = [reduce_segment(s, CountMode.VISITOR) for s in segments]
    return segments, partials


def test_integrity_accepts_faithful_partials():
    segments, partials = _segments_and_partials()
    assert integrity_check(segments, partials)


def test_integrity_rejects_missing_partial():
    segments, partials = _segments_and_partials()
    assert not integrity_check(segments, partials[:-1])


def test_integrity_rejects_duplicate_partial():
    segments, partials = _segments_and_partials()
    assert not integrity_check(segments, partials + [partials[0]])


def test_integrity_rejects_count_drift():
    segments, partials = _segments_and_partials()
    bad = PartialResult(assignee=partials[0].assignee,
                        mode=partials[0].mode,
                        aggregates=partials[0].aggregates,
                        input_pair_count=partials[0].input_pair_count + 1)
    assert not integrity_check(segments, [bad] + partials[1:])


def test_integrity_rejects_unknown_assignee():
    segments, partials = _segments_and_partials()
    stray = PartialResult(assignee=99, mode=CountMode.VISITOR,
                          aggregates={}, input_pair_count=0)
    assert not integrity_check(segments, partials[:-1] + [stray])


def test_integrity_rejects_colliding_segments():
    pairs = sort_pairs(pair for pair, _ in _entries(4))
    colliding = [Segment.build(1, pairs[:2], 0), Segment.build(1, pairs[2:], 1)]
    partials = [reduce_segment(s, CountMode.VISITOR) for s in colliding]
    assert not integrity_check(colliding, partials)


# -- full cycle pipeline -------------------------------------------------------


def test_leader_cycle_reference_totals():
    result = leader_cycle(_table_submissions(), cycle_id=4)
    assert result.cycle_id == 4
    assert result.visitor_aggregates == TABLE_VISITOR
    assert result.room_aggregates == TABLE_ROOM
    assert result.total_readings == 16


def test_leader_cycle_mode_filter():
    visitor_only = leader_cycle(_table_submissions(),
                                modes=(CountMode.VISITOR,))
    assert visitor_only.visitor_aggregates == TABLE_VISITOR
    assert visitor_only.room_aggregates == {}
    room_only = leader_cycle(_table_submissions(), modes=(CountMode.ROOM,))
    assert room_only.visitor_aggregates == {}
    assert room_only.room_aggregates == TABLE_ROOM


def test_leader_cycle_empty_submission_counts_as_responding():
    submissions = _table_submissions(origins=(1, 2)) + [(3, [])]
    result = leader_cycle(submissions)
    assert result.visitor_aggregates == TABLE_VISITOR
    assert result.total_readings == 16


def test_leader_cycle_aborts_below_minimum():
    with pytest.raises(CycleAborted):
        leader_cycle(_table_submissions(origins=(1,)))
    with pytest.raises(CycleAborted):
        leader_cycle([], min_responding=2)
    # Duplicate origins collapse before the participation check.
    with pytest.raises(CycleAborted):
        leader_cycle([(1, []), (1, [])], min_responding=2)


def test_leader_cycle_matches_oracle_on_generated_stream():
    readings, _ = generate_stream(VisitorModel(seed=11, visitor_count=120),
                                  30_000)
    deduped = dedupe_readings(readings)
    submissions = []
    for origin in (1, 2, 3, 4):
        chunk = deduped[origin - 1::4]
        submissions.append(
            (origin, [map_reading(r, CountMode.VISITOR) for r in chunk]))
    result = leader_cycle(submissions, min_responding=4)
    assert {t.value: c for t, c in result.visitor_aggregates.items()} == \
        sequential_oracle(deduped, CountMode.VISITOR)
    assert {f"Room{n}": c for n, c in result.room_aggregates.items()} == \
        sequential_oracle(deduped, CountMode.ROOM)


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


def test_leader_cycle_integrity_failure_message():
    # The retry loop recomputes from the same segments, so honest local
    # reduction can never fail it; the guard exists for the networked
    # path where remote partials may disagree.  Exercise the error type
    # directly to pin its contract.
    with pytest.raises(MiddlewareError):
        raise IntegrityFailure("pair-count conservation failed")


# -- validation survives the pair caches ----------------------------------


@pytest.mark.parametrize("item", ["Room0=1@1", "x=1@1", "man =1@1",
                                  "man=-1@1", "man=True@1", "man1@1"])
def test_parse_entries_rejects_before_and_after_caching(item):
    for _ in range(2):
        with pytest.raises(ValueError):
            _parse_entries(item)
    assert _expand(_parse_entries("man=1@0,Room1=1@1")) == [
        (KeyValuePair("man", 1), 0), (KeyValuePair("Room1", 1), 1)]
    with pytest.raises(ValueError):
        _parse_entries(f"man=1@0,{item}")


def test_parse_entries_many_distinct_keys_stay_bounded():
    from crowdmw import runtime
    from crowdmw.domain import INTERN_LIMIT

    count = 20_000
    text = ",".join(f"Room{i}=1@{i}" for i in range(1, count + 1))
    entries = _expand(_parse_entries(text))
    assert entries == [(KeyValuePair(f"Room{i}", 1), i)
                       for i in range(1, count + 1)]
    info = runtime._entry_pair.cache_info()
    assert info.maxsize == INTERN_LIMIT and info.currsize <= info.maxsize


def _idle_node(events, phase, *, leader):
    from crowdmw.runtime import Node

    node = Node(1, CycleConfig(), endpoint=None, store=None,
                event_sink=events.append)
    node.cycle_id = 0
    node.phase = phase
    node._is_leader = leader
    node._origin_addresses = {n: f"node{n}:7000" for n in (1, 2, 3)}
    return node


@pytest.mark.parametrize("entries", ["Room0=1@1", "x=1@1", "man =1@1",
                                     "man=-1@1", "man=1"])
def test_malformed_submit_is_logged_after_valid_one(entries):
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    valid = build_submission_parts(2, 0, [(KeyValuePair("man", 1), 0)])
    node._on_data_submit(valid[0], "node2:7000", 0.0)
    assert _expand(node._submissions[2].runs()) == [
        (KeyValuePair("man", 1), 0)]
    for _ in range(2):
        bad = Message(kind=MessageKind.DATA_SUBMIT, sender=3, cycle_id=0,
                      payload=f"origin=3;part=0/1;entries={entries}".encode())
        node._on_data_submit(bad, "node3:7000", 1.0)
        assert events[-1] == "t=1.000 node=1 malformed_submit from=3"
    assert 3 not in node._submissions


def test_submit_for_another_origin_is_dropped():
    events = []
    node = _idle_node(events, NodePhase.COLLECTING, leader=True)
    forged = Message(kind=MessageKind.DATA_SUBMIT, sender=1, cycle_id=0,
                     payload=b"origin=9;part=0/1;entries=man=3@0,man=3@1")
    node._on_data_submit(forged, "node1:7000", 1.0)
    assert events[-1] == "t=1.000 node=1 malformed_submit from=1"
    assert node._submissions == {}


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
        assert leader._is_leader and leader.phase is NodePhase.COLLECTING
        leader.on_message(
            Message(kind=MessageKind.DATA_SUBMIT, sender=sender, cycle_id=0,
                    payload=f"origin={origin};part=0/1;"
                            f"entries=man=3@0,man=3@1".encode()),
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


@pytest.mark.parametrize("pairs", ["Room0=1", "x=1", "man=-1", "man=1,man",
                                   "man =1", " man=1", "man=01", "man=+1"])
def test_malformed_assignment_is_logged(pairs):
    from crowdmw.mapreduce import crc64

    events = []
    node = _idle_node(events, NodePhase.AWAITING_SEGMENT, leader=False)
    # The checksum matches, so only pair validation can catch these:
    # the reducer trusts a checksum-valid text only in canonical form.
    payload = (f"segment=0;count=1;checksum={crc64(pairs.encode()):016x};"
               f"part=0/1;pairs={pairs}")
    for _ in range(2):
        node._assignments.clear()
        node._on_segment_assign(
            Message(kind=MessageKind.SEGMENT_ASSIGN, sender=2, cycle_id=0,
                    payload=payload.encode()), 1.0)
        assert events[-1] == "t=1.000 node=1 malformed_assignment from=2"
        assert node.phase is NodePhase.AWAITING_SEGMENT
    bad_field = Message(kind=MessageKind.SEGMENT_ASSIGN, sender=2, cycle_id=0,
                        payload=b"segment=0;count=x;checksum=0;part=0/1;"
                                b"pairs=man=1")
    node._on_segment_assign(bad_field, 2.0)
    assert events[-1] == "t=2.000 node=1 malformed_assignment from=2"
    segment = Segment.build(1, [KeyValuePair("man", 1)], 0)
    node._assignments.clear()
    for message in build_assignment_parts(2, 0, segment):
        node._on_segment_assign(message, 3.0)
    assert node.phase is NodePhase.AWAITING_RESULT


# -- early consolidation ------------------------------------------------------


def _consolidating_leader(tmp_path, events):
    """Node 3 leading slot 0 of three, past collection, own part in."""
    from crowdmw import election
    from crowdmw.runtime import Node
    from crowdmw.store import JournalStore
    from crowdmw.transport import NetConfig, SimulatedNetwork

    config = CycleConfig()
    store = JournalStore(str(tmp_path / "leader.journal"))
    for node_id in (1, 2, 3):
        election.register_node(store, node_id, f"node{node_id}:7000", 0,
                               config.liveness_window_ms)
    endpoint = SimulatedNetwork(NetConfig()).open("node3:7000")
    node = Node(3, config, endpoint, store, event_sink=events.append)
    node.start(0.0)
    node.advance(float(config.collection_ms))
    assert node.phase is NodePhase.CONSOLIDATING
    return node, store


def _submission(origin, count, parts):
    entries = [(KeyValuePair("man", origin), seq) for seq in range(count)]
    messages = build_submission_parts(origin, 0, entries,
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


def _consolidated_total(events):
    commits = [line for line in events if " commit cycle=0 " in line]
    assert len(commits) == 1
    return int(commits[0].split(" total=")[1].split()[0])


def _finish_by_fallback(node):
    node.advance(2000.0 - 1.0)
    assert node.phase is NodePhase.BROADCASTING


def test_consolidates_when_last_part_arrives_out_of_order(tmp_path):
    events = []
    node, store = _consolidating_leader(tmp_path, events)
    one, two = _submission(1, 6, 3), _submission(2, 4, 2)
    order = [one[2], two[1], one[0], two[0], one[1]]
    assert _deliver_until_consolidated(node, order) == len(order) - 1
    assert node.phase is NodePhase.MERGING
    assert "consolidate" not in node._timers
    _finish_by_fallback(node)
    assert _consolidated_total(events) == 10
    store.close()


def test_duplicated_part_neither_triggers_nor_double_counts(tmp_path):
    events = []
    node, store = _consolidating_leader(tmp_path, events)
    one, two = _submission(1, 4, 2), _submission(2, 3, 1)
    order = [one[0], one[0], two[0], two[0], one[0], one[1], one[1]]
    assert _deliver_until_consolidated(node, order) == 5
    _finish_by_fallback(node)
    assert _consolidated_total(events) == 7
    store.close()


def test_restarted_submission_waits_for_its_new_total(tmp_path):
    events = []
    node, store = _consolidating_leader(tmp_path, events)
    first = _submission(1, 6, 3)
    restart = _submission(1, 4, 2)
    two = _submission(2, 2, 1)
    # Two of three parts, then a restart with total 2: the old parts
    # are dropped, so the first new part does not complete node 1 even
    # though two parts have now arrived for a total of two.
    order = [first[0], first[1], two[0], restart[0], restart[1]]
    assert _deliver_until_consolidated(node, order) == len(order) - 1
    _finish_by_fallback(node)
    assert _consolidated_total(events) == 4 + 2
    store.close()


def test_consolidation_timer_still_fires_without_every_origin(tmp_path):
    events = []
    node, store = _consolidating_leader(tmp_path, events)
    assert _deliver_until_consolidated(node, _submission(1, 2, 2)) is None
    node.advance(1500.0 + CycleConfig().submit_window_ms)
    assert node.phase is NodePhase.MERGING
    store.close()
