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

from crowdmw.domain import pair_symbol
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


# Submission symbols of rooms 1-4 (one UTF-8 byte each), and of rooms
# whose symbols take two, three and four bytes.
SYMBOL = st.sampled_from([pair_symbol(tag, room)
                          for tag in ("man", "other", "woman")
                          for room in (1, 2, 3, 4)])
WIDE_SYMBOL = st.sampled_from([pair_symbol("woman", 600),
                               pair_symbol("man", 18000),
                               pair_symbol("other", 30000)])
# A base that is not canonical decimal, or that is or runs past 2**63 - 1.
BASE = NUMBER | st.sampled_from(
    ["+5", " 5", "0_5", "05", "\u0665", str(2 ** 63 - 2), str(2 ** 63 - 1),
     str(2 ** 63), str(10 ** 3000)])
# Symbols below the table (a digit, a space, NUL), the separators ';'
# and ',', wide symbols, and the empty trace.
ANY_TRACE = st.just("") | st.text(
    alphabet=SYMBOL | WIDE_SYMBOL | st.sampled_from(["0", " ", "\x00", ";",
                                                      ","]),
    max_size=12)


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
            if node._slot.segments:
                # Segments go to responders in id order, so the first
                # is never the leader's own (it has the highest id).
                segment = node._slot.segments[0]
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
        origin=st.just("2"), part=st.just("0/1"), base=SMALL,
        trace=st.text(alphabet=SYMBOL, min_size=1, max_size=12))),
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
        origin=NUMBER, part=PART, base=BASE, trace=ANY_TRACE)),
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
# A node acts on an assignment or an outcome only from its confirmed
# leader's address, so those come from node 3's, the leader's.
SOURCES = {MessageKind.DATA_SUBMIT: "node2:7000",
           MessageKind.REDUCE_RESULT: "node1:7000",
           MessageKind.SEGMENT_ASSIGN: "node3:7000",
           MessageKind.CYCLE_SUCCESS: "node3:7000",
           MessageKind.CYCLE_ABORT: "node3:7000"}
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


# -- canonical submission fields ----------------------------------------------


# Each names node 2's part 0 of 1 to ``int``, so only its spelling lies.
@pytest.mark.parametrize("origin, part", [
    pytest.param("+2", "0/1", id="origin-plus"),
    pytest.param(" 2", "0/1", id="origin-leading-space"),
    pytest.param("2 ", "0/1", id="origin-trailing-space"),
    pytest.param("02", "0/1", id="origin-leading-zero"),
    pytest.param("0_2", "0/1", id="origin-underscore"),
    pytest.param("\u0662", "0/1", id="origin-arabic-indic-digit"),
    pytest.param("\uff12", "0/1", id="origin-fullwidth-digit"),
    pytest.param("2", "+0/1", id="index-plus"),
    pytest.param("2", " 0/1", id="index-leading-space"),
    pytest.param("2", "00/1", id="index-leading-zero"),
    pytest.param("2", "\u0660/1", id="index-arabic-indic-digit"),
    pytest.param("2", "0/+1", id="total-plus"),
    pytest.param("2", "0/1 ", id="total-trailing-space"),
    pytest.param("2", "0/01", id="total-leading-zero"),
    pytest.param("2", "0/0_1", id="total-underscore"),
    pytest.param("2", "0/\u0661", id="total-arabic-indic-digit"),
])
def test_non_canonical_origin_or_part_is_malformed(origin, part, tmp_path):
    _assert_submission_refused(
        f"origin={origin};part={part};base=0;trace=<".encode(), tmp_path)


# Byte-level defects in node 2's part 0 of 1: a trace that is not UTF-8,
# or holds what no pair symbol is, and a base that ``int`` would read.
@pytest.mark.parametrize("base, trace", [
    pytest.param(b"0", b"\xff", id="trace-invalid-byte"),
    pytest.param(b"0", b"\xed\xa0\x80", id="trace-utf8-surrogate"),
    pytest.param(b"0", b"\xc0\xbb", id="trace-overlong-semicolon"),
    pytest.param(b"0", b"<\x00", id="trace-nul"),
    pytest.param(b"0", b"<;", id="trace-semicolon"),
    pytest.param(b"+0", b"<", id="base-plus"),
    pytest.param(b"00", b"<", id="base-leading-zero"),
    pytest.param("\u0660".encode(), b"<", id="base-arabic-indic-digit"),
    pytest.param(b"1" + b"0" * 19, b"<", id="base-20-digits"),
])
def test_submission_byte_defect_is_malformed(base, trace, tmp_path):
    _assert_submission_refused(
        b"origin=2;part=0/1;base=" + base + b";trace=" + trace, tmp_path)


def _assert_submission_refused(payload, tmp_path):
    """The leader logs the part from node 2 as malformed and files nothing."""
    store = JournalStore(str(tmp_path / "canonical.journal"))
    try:
        cluster = SimCluster(ScenarioConfig(**CLUSTER), store)
        cluster.start()
        cluster.run(1000.0)
        leader = cluster.nodes[3]
        assert leader._slot.is_leader and leader._slot.submissions == {}
        leader.on_message(
            Message(kind=MessageKind.DATA_SUBMIT, sender=2, cycle_id=0,
                    payload=payload),
            SOURCES[MessageKind.DATA_SUBMIT], cluster.clock.now_ms())
    finally:
        store.close()
    assert cluster.events[-1].endswith(" node=3 malformed_submit from=2")
    assert leader._slot.submissions == {}


# -- canonical fields of every other parsed kind ------------------------------

# An assignment or a partial that is not spelled exactly as its builder
# writes it is refused with its kind's reason; a success broadcast or a
# leader announcement is ignored.  Either way the node is left as it
# was, and the honest spelling of the same payload is then taken.

ARABIC_INDIC = str.maketrans("0123456789",
                             "".join(map(chr, range(0x660, 0x66A))))
FULLWIDTH = str.maketrans("0123456789",
                          "".join(map(chr, range(0xFF10, 0xFF1A))))
# Spellings that ``int`` reads as the number they rewrite.
NUMBER_SPELLINGS = {
    "plus": "+{}".format,
    "leading-space": " {}".format,
    "trailing-space": "{} ".format,
    "leading-zero": "0{}".format,
    "underscore": "0_{}".format,
    "arabic-indic-digit": lambda text: text.translate(ARABIC_INDIC),
    "fullwidth-digit": lambda text: text.translate(FULLWIDTH),
}
# Spellings that ``int(text, 16)`` reads as the checksum they rewrite.
HEX_SPELLINGS = {"0x-prefix": "0x{}".format, "uppercase": str.upper}
# A canonical number past the digits ``int`` reads from text by default
# (4 300); it still fits one payload.
LONG_NUMBER = "1" + "0" * 4300


def _honest(field, text):
    return text


def _assignment_text(node, spell):
    pairs = spell("pairs", "man=1")
    checksum = f"{crc64(pairs.encode()):016x}"
    return (f"segment={spell('segment', '0')};count={spell('count', '1')};"
            f"checksum={spell('checksum', checksum)};"
            f"part={spell('i', '0')}/{spell('n', '1')};pairs={pairs}")


def _partial_text(node, spell):
    """A partial for the leader's segment 0, whose assignee is dead."""
    segment = node._slot.segments[0]
    count = str(segment.pair_count)
    body = (f"segment={spell('segment', str(segment.segment_index))};"
            f"count={spell('count', count)};"
            f"checksum={spell('checksum', f'{segment.checksum:016x}')};"
            f"visitor=man:{spell('visitor', count)};"
            f"room={spell('room-key', 'Room1')}:{spell('room', count)}")
    return f"{body};digest={spell('digest', f'{crc64(body.encode()):016x}')}"


def _success_text(node, spell):
    """An ack of the node's first pending reading."""
    return (f"acks={spell('origin', str(node.node_id))}:"
            f"{spell('seq', str(node.buffer.base))}")


def _announcement_text(node, spell):
    return f"leader={spell('leader', '3')};addr=node3:7000"


# Per kind: its payload, the moment and node it is aimed at, the phase
# that node is in then, the sender and its address, the kind's numeric
# and hex fields, and the reason it is refused with (None: ignored).
# Node 2 awaits its segment at 1501 and the leader's PONG at 0; at
# 1700 the leader merges and awaits segment 0 from node 1, now dead.
SPELLING_TARGETS = {
    MessageKind.SEGMENT_ASSIGN: (
        _assignment_text, 1501.0, 2, "AWAITING_SEGMENT", 3,
        ("segment", "count", "i", "n"), ("checksum",),
        "malformed_assignment"),
    MessageKind.REDUCE_RESULT: (
        _partial_text, 1700.0, 3, "MERGING", 1,
        ("segment", "count", "visitor", "room"), ("checksum", "digest"),
        "corrupt_partial"),
    MessageKind.CYCLE_SUCCESS: (
        _success_text, 1501.0, 2, "AWAITING_SEGMENT", 3,
        ("origin", "seq"), (), None),
    MessageKind.REGISTER_ACK: (
        _announcement_text, 0.0, 2, "CHECKING_SERVER", 3,
        ("leader",), (), None),
}


def _respelled(field, spelling):
    """A speller that rewrites ``field`` and keeps every other field."""
    return lambda name, text: spelling(text) if name == field else text


SPELLING_CASES = [
    pytest.param(kind, _respelled(field, spelling),
                 id=f"{kind.name}-{field}-{name}")
    for kind, (_, _, _, _, _, numbers, hexes, _) in SPELLING_TARGETS.items()
    for fields, spellings in ((numbers, NUMBER_SPELLINGS),
                              (hexes, HEX_SPELLINGS))
    for field in fields
    for name, spelling in spellings.items()
] + [
    pytest.param(kind, _respelled(field, lambda _: LONG_NUMBER),
                 id=f"{kind.name}-{field}-4301-digits")
    for kind, (_, _, _, _, _, numbers, _, _) in SPELLING_TARGETS.items()
    for field in numbers
] + [
    # A part index at its total, and a negative one.
    pytest.param(MessageKind.SEGMENT_ASSIGN,
                 _respelled("i", lambda _: "1"),
                 id="SEGMENT_ASSIGN-part-1-of-1"),
    pytest.param(MessageKind.SEGMENT_ASSIGN,
                 _respelled("i", lambda _: "-1"),
                 id="SEGMENT_ASSIGN-part-minus-1-of-1"),
    # Canonical runs that are no visitor pair on the symbol table.
    pytest.param(MessageKind.SEGMENT_ASSIGN,
                 _respelled("pairs", lambda _: "man=370669"),
                 id="SEGMENT_ASSIGN-room-past-the-table"),
    pytest.param(MessageKind.SEGMENT_ASSIGN,
                 _respelled("pairs", lambda _: "Room1=1"),
                 id="SEGMENT_ASSIGN-room-key"),
    # Partial room keys past the symbol table.
    pytest.param(MessageKind.REDUCE_RESULT,
                 _respelled("room-key", lambda _: "Room370669"),
                 id="REDUCE_RESULT-room-key-past-the-table"),
    pytest.param(MessageKind.REDUCE_RESULT,
                 _respelled("room-key", lambda _: "Room" + LONG_NUMBER),
                 id="REDUCE_RESULT-room-key-4301-digits"),
]


def _node_state(node):
    """What a datagram may change: buffer, part sets, partials, leader
    and phase."""
    slot = node._slot
    return (node.buffer.base, node.buffer.trace,
            {index: (parts.total, parts.header, dict(parts.parts))
             for sets in (slot.submissions, slot.assignments)
             for index, parts in sets.items()},
            dict(slot.remote_partials), node._leader_address,
            slot.is_leader, node.phase)


@pytest.mark.parametrize("kind, spell", SPELLING_CASES)
def test_non_canonical_field_of_any_kind_changes_nothing(kind, spell,
                                                         tmp_path):
    render, at, node_id, phase, sender, _, _, refusal = (
        SPELLING_TARGETS[kind])

    def deliver(node, speller):
        node.on_message(
            Message(kind=kind, sender=sender, cycle_id=node.cycle_id,
                    payload=render(node, speller).encode()),
            f"node{sender}:7000", cluster.clock.now_ms())

    store = JournalStore(str(tmp_path / "spelling.journal"))
    try:
        cluster = SimCluster(ScenarioConfig(**CLUSTER), store)
        cluster.start()
        cluster.run(at)
        node = cluster.nodes[node_id]
        assert node.phase.name == phase
        before, seen = _node_state(node), len(cluster.events)
        deliver(node, spell)
        refused, logged = _node_state(node), cluster.events[seen:]
        # The honest spelling of the same payload is taken.
        deliver(node, _honest)
        assert _node_state(node) != before
    finally:
        store.close()
    assert refused == before
    assert len(logged) == (1 if refusal is None else 2)
    if refusal is not None:
        assert logged[-1].endswith(f" node={node_id} {refusal} "
                                   f"from={sender}")
