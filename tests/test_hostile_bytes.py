"""Decoders and message handlers never crash on hostile bytes.

``decode_message`` may only raise ``Malformed``.  ``Node.on_message``
may raise nothing, whatever the payload of whatever kind, and the
cluster must keep running afterwards: a payload that parses but lies
must be turned away where it enters, not blow up a later timer.

Random bytes rarely get past the field grammar, so payloads are also
drawn from each kind's grammar with hostile values, and checksummed
kinds carry valid checksums over hostile text.
"""

import functools
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crowdmw.harness import ScenarioConfig, SimCluster, parse_fault
from crowdmw.mapreduce import crc64
from crowdmw.store import JournalStore
from crowdmw.transport import (
    HEADER_LEN,
    WIRE_VERSION,
    Malformed,
    Message,
    MessageKind,
    decode_message,
    encode_message,
)

# -- decode_message -----------------------------------------------------------


@given(st.binary(max_size=64) | st.builds(
    lambda head, size: head + bytes(size),
    st.binary(max_size=12), st.integers(8170, 8200)))
def test_decode_raises_only_malformed(data):
    try:
        message = decode_message(data)
    except Malformed:
        return
    assert encode_message(message) == data


@given(version=st.integers(0, 255), kind=st.integers(0, 255),
       sender=st.integers(0, 2 ** 32 - 1), cycle=st.integers(0, 2 ** 32 - 1),
       payload=st.binary(max_size=40), skew=st.integers(-3, 3))
def test_decode_of_near_valid_headers(version, kind, sender, cycle, payload,
                                      skew):
    length = max(0, min(len(payload) + skew, 0xFFFF))
    data = (bytes([version, kind]) + sender.to_bytes(4, "big")
            + cycle.to_bytes(4, "big") + length.to_bytes(2, "big") + payload)
    assert len(data) == HEADER_LEN + len(payload)
    valid = (version == WIRE_VERSION and kind in {k.value for k in MessageKind}
             and length == len(payload))
    try:
        message = decode_message(data)
    except Malformed:
        assert not valid
        return
    assert valid
    assert message.kind is MessageKind(kind)
    assert (message.sender, message.cycle_id, message.payload) == (
        sender, cycle, payload)


# -- Node.on_message ----------------------------------------------------------

# Two tiers per kind: text a handler parses but whose content lies
# (a room key in a visitor list, a zero room, partial sums that do not
# add up), and text that is malformed anywhere.
SMALL = st.sampled_from(["0", "1", "2", "3"])
NUMBER = st.one_of(
    SMALL,
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "1.5", " 1", "-0", "0x10", "9" * 25]),
)
TAG = st.sampled_from(["man", "woman", "other"])
ROOM = st.sampled_from(["Room1", "Room3"])
KEY = TAG | ROOM
ANY_KEY = KEY | st.sampled_from(["Room0", "room1", "x", "", "man "])


def _joined(item, min_size=0):
    return st.lists(item, min_size=min_size, max_size=6).map(",".join)


def _run_item(key, value, count):
    return f"{key}={value}" if count == 1 else f"{key}={value}*{count}"


def _canonical_runs(key, value, count):
    """Run text in canonical form, with its pair count.

    Items are distinct pairs in ascending order, so the text parses;
    only its content (room keys, room 0, huge rooms or counts) can lie.
    """
    def render(items):
        runs = {}
        for k, v, c in items:
            runs.setdefault((k, int(v)), c)
        ordered = sorted(runs.items())
        return (",".join(_run_item(k, v, c) for (k, v), c in ordered),
                sum(runs.values()))
    return st.lists(st.tuples(key, value, count), min_size=1,
                    max_size=6).map(render)


def _any_runs(key, value, count):
    """Run text that may break any rule, counted one pair per item."""
    items = st.builds(lambda k, v, c: f"{k}={v}{c}", key, value,
                      st.just("") | count.map(lambda c: f"*{c}"))
    return _joined(items).map(
        lambda text: (text, len(text.split(",")) if text else 0))


def _entries(key, value, seq, min_size=0):
    return _joined(st.builds(lambda k, v, s: f"{k}={v}@{s}", key, value, seq),
                   min_size)


def _fields(**named):
    return st.tuples(*named.values()).map(
        lambda values: ";".join(f"{name}={value}"
                                for name, value in zip(named, values)))


def _fixed(strategy):
    """A renderer that ignores the node it is aimed at."""
    return strategy.map(lambda text: lambda node: text)


PART = st.builds(lambda i, t: f"{i}/{t}", NUMBER, NUMBER) | NUMBER


def _assignment(index, count, part, runs):
    """A checksummed assignment of ``runs``, (run text, pair count).

    ``count=None`` sends the runs' own pair count.
    """
    pairs, total = runs
    if count is None:
        count = total
    return (f"segment={index};count={count};"
            f"checksum={crc64(pairs.encode()):016x};part={part};"
            f"pairs={pairs}")


def _partial(index, count, visitor, room):
    """A signed partial; ``index=None`` names a segment the leader sent.

    For a real segment with ``count=None`` the partial carries its real
    pair count and checksum, so only the aggregates can lie.
    """
    def render(node):
        segment_index, checksum, pairs = index, "0" * 16, count
        if index is None:
            segment_index = 0
            if node._segments:
                # Segments go to responders in id order, so the first
                # is never the leader's own (it has the highest id).
                segment = node._segments[0]
                segment_index = segment.segment_index
                checksum = f"{segment.checksum:016x}"
                if count is None:
                    pairs = segment.pair_count
        body = (f"segment={segment_index};count={pairs};"
                f"checksum={checksum};visitor={visitor};room={room}")
        return f"{body};digest={crc64(body.encode()):016x}"
    return render


def _aggregates(key, value):
    return _joined(st.builds(lambda k, v: f"{k}:{v}", key, value))


LYING = {
    # A leader takes a submission only from its origin's registered
    # address, so this one comes from node 2's (see SOURCES).  Before
    # node 2's own submission it is overwritten; after, it replaces it.
    MessageKind.DATA_SUBMIT: _fixed(_fields(
        origin=st.just("2"), part=st.just("0/1"),
        entries=_entries(KEY, SMALL, SMALL, min_size=1))),
    MessageKind.SEGMENT_ASSIGN: _fixed(st.builds(
        _assignment, SMALL, st.none(), st.just("0/1"),
        _canonical_runs(KEY, SMALL | st.just("9" * 4290),
                        st.integers(1, 3) | st.sampled_from(
                            [10 ** 18, 2 ** 63, 10 ** 3000])))),
    # A leader takes a partial only from its segment's assignee, so
    # this one comes from node 1's address, the assignee of segment 0
    # (see SOURCES).
    MessageKind.REDUCE_RESULT: st.builds(
        _partial, st.none(), st.none() | SMALL, _aggregates(TAG, SMALL),
        _aggregates(ROOM, SMALL)),
    MessageKind.CYCLE_SUCCESS: _fixed(_fields(acks=_joined(
        st.builds(lambda o, s: f"{o}:{s}", SMALL, NUMBER)))),
    MessageKind.REGISTER_ACK: _fixed(_fields(
        leader=SMALL,
        addr=st.sampled_from(["node1:7000", "node3:7000", "nowhere", ""]))),
}
MALFORMED = {
    MessageKind.DATA_SUBMIT: _fixed(_fields(
        origin=NUMBER, part=PART, entries=_entries(ANY_KEY, NUMBER, NUMBER))),
    MessageKind.SEGMENT_ASSIGN: _fixed(st.builds(
        _assignment, NUMBER, st.none() | NUMBER, PART,
        _any_runs(ANY_KEY, NUMBER, NUMBER))),
    MessageKind.REDUCE_RESULT: st.builds(
        _partial, st.none() | NUMBER, st.none() | NUMBER,
        _aggregates(ANY_KEY, NUMBER), _aggregates(ANY_KEY, NUMBER)),
    MessageKind.CYCLE_SUCCESS: _fixed(_fields(acks=_joined(
        st.builds(lambda o, s: f"{o}:{s}", NUMBER, NUMBER)))),
    MessageKind.CYCLE_ABORT: _fixed(_fields(reason=st.text(max_size=8))),
}
SOURCES = {MessageKind.DATA_SUBMIT: "node2:7000",
           MessageKind.REDUCE_RESULT: "node1:7000"}
RAW = _fixed(st.binary(max_size=60).map(lambda b: b.decode("latin-1")))

# Node 1 dies after it got its segment and before it replies, so a
# partial forged for that segment is not overwritten by the real one.
CLUSTER = dict(nodes=3, cycles=2, seed=5, visitors=30,
               faults=(parse_fault("kill_node@1600:1"),))


@functools.lru_cache(maxsize=None)
def _phase_moments():
    """A moment just after every phase change in the first slot.

    A message aimed at every node at each of them reaches every phase
    of every node, which uniform times would mostly miss.
    """
    with tempfile.TemporaryDirectory() as workdir:
        store = JournalStore(os.path.join(workdir, "moments.journal"))
        try:
            cluster = SimCluster(ScenarioConfig(**CLUSTER), store)
            cluster.start()
            cluster.run(2000.0)
        finally:
            store.close()
    return sorted({float(line.split()[0][2:]) + 0.001
                   for line in cluster.events if " phase from=" in line})


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.name)
def test_on_message_never_raises(kind):
    # Lying text twice as often: it is what gets past the parsers.
    tiers = [LYING.get(kind), LYING.get(kind), MALFORMED.get(kind), RAW]
    renders = st.one_of(*[tier for tier in tiers if tier is not None])

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(render=renders, sender=st.integers(0, 5) | st.just(9),
           stale=st.booleans())
    def check(render, sender, stale):
        with tempfile.TemporaryDirectory() as workdir:
            store = JournalStore(os.path.join(workdir, "fuzz.journal"))
            try:
                cluster = SimCluster(ScenarioConfig(**CLUSTER), store)
                cluster.start()
                for at in _phase_moments():
                    cluster.run(at)
                    for node in cluster.nodes.values():
                        node.on_message(Message(
                            kind=kind, sender=sender,
                            cycle_id=node.cycle_id + stale,
                            payload=render(node).encode("utf-8",
                                                        "surrogateescape"),
                        ), SOURCES.get(kind, "node9:7000"),
                            cluster.clock.now_ms())
                cluster.run(4000.0)
            finally:
                store.close()

    check()
