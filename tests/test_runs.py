"""The submission path against the per-reading code it replaced.

A node keeps its pending readings as one range of sequences with one
symbol per reading, and submits that range as (base, trace) parts
(wire v3).  The functions below keep the per-reading versions: the
buffer and the per-sequence counting of wire v2 as they were, and the
v3 part build and parse written one reading at a time.  Every step
must give exactly their results, on honest input and on hostile input
alike (overlapping and repeated parts, symbols up to four UTF-8 bytes,
text that is not a submission at all).
"""

import dataclasses
import operator
import random
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmw.domain import (
    KEY_SHIFT,
    MAX_ROOM,
    MAX_TIMESTAMP,
    SYMBOL_MASK,
    TAG_KEYS,
    CountMode,
    KeyValuePair,
    SensorReading,
    TagCategory,
    pair_symbol,
    reading_key,
)
from crowdmw.mapreduce import MAX_PAIR_COUNT, map_reading, sort_pairs
from crowdmw.runtime import (
    ClientBuffer,
    ListReadingSource,
    _chunk,
    _file_part,
    _parse_submission,
    build_submission_parts,
    consolidate_runs,
    symbol_pair,
)
from crowdmw.simgen import dedupe_readings
from crowdmw.transport import MAX_PAYLOAD

# -- the per-entry oracles ----------------------------------------------------


def old_dedupe_readings(readings):
    seen = set()
    kept = []
    for reading in readings:
        slot = (reading.tag, reading.room, reading.timestamp)
        if slot in seen:
            continue
        seen.add(slot)
        kept.append(reading)
    return kept


class OldClientBuffer:
    def __init__(self):
        self.pending = []
        self.next_seq = 0
        self.committed_through = -1

    def ingest(self, readings):
        added = []
        for reading in old_dedupe_readings(readings):
            added.append((self.next_seq, reading))
            self.next_seq += 1
        self.pending.extend(added)
        return added

    def entries(self):
        mapped = [(map_reading(reading, CountMode.VISITOR), seq)
                  for seq, reading in self.pending]
        mapped.sort(key=lambda item: (item[0].key, item[0].value, item[1]))
        return mapped

    def prune_through(self, seq):
        # Clamped to the highest sequence issued, as the buffer is now.
        seq = min(seq, self.next_seq - 1)
        if seq <= self.committed_through:
            return 0
        before = len(self.pending)
        self.pending = [(s, r) for s, r in self.pending if s > seq]
        self.committed_through = seq
        return before - len(self.pending)


class OldListReadingSource:
    def __init__(self, readings):
        self._timed = sorted(((r.timestamp, r) for r in readings),
                             key=operator.itemgetter(0))
        self._cursor = 0

    def take_due(self, now_ms):
        due = []
        while (self._cursor < len(self._timed)
               and self._timed[self._cursor][0] <= now_ms):
            due.append(self._timed[self._cursor][1])
            self._cursor += 1
        return due

    def remaining(self):
        return [r for _, r in self._timed[self._cursor:]]


def old_chunk(items, budget):
    if not items:
        return [[]]
    parts = [[]]
    used = 0
    for item in items:
        cost = len(item) + (1 if parts[-1] else 0)
        if parts[-1] and used + cost > budget:
            parts.append([])
            used = 0
            cost = len(item)
        parts[-1].append(item)
        used += cost
    return parts


def per_reading_parts(origin, base, trace, max_entries_per_part):
    """v3 parts built one reading at a time: a part takes the next
    symbol while its UTF-8 bytes fit the budget and it holds fewer than
    ``max_entries_per_part``."""
    headroom = len(f"origin={origin};part=9999/9999;"
                   f"base={base + len(trace)};trace=")
    budget = MAX_PAYLOAD - headroom
    cap = max_entries_per_part
    if cap is not None:
        cap = max(cap, 1)
    parts = [[]]
    used = 0
    for symbol in trace:
        width = len(symbol.encode("utf-8"))
        full = cap is not None and len(parts[-1]) >= cap
        if parts[-1] and (used + width > budget or full):
            parts.append([])
            used = 0
        parts[-1].append(symbol)
        used += width
    payloads = []
    for index, part in enumerate(parts):
        payloads.append((f"origin={origin};part={index}/{len(parts)};"
                         f"base={base};trace={''.join(part)}").encode("utf-8"))
        base += len(part)
    return payloads


def canonical_decimal(text):
    """The value of decimal text that ``str`` would write back as is,
    in at most 19 digits, the width of MAX_PAIR_COUNT."""
    value = int(text)
    if value < 0 or str(value) != text or len(text) > 19:
        raise ValueError(f"non-canonical decimal: {text!r}")
    return value


def per_reading_parse(base_text, trace):
    """A part's (pair, sequence) entries, checked one reading at a time."""
    base = canonical_decimal(base_text)
    if base > MAX_PAIR_COUNT:
        raise ValueError("base too large")
    entries = []
    for offset, symbol in enumerate(trace):
        if base + offset > MAX_PAIR_COUNT:
            raise ValueError("sequence too large")
        entries.append((symbol_pair(symbol), base + offset))
    return entries


def old_consolidate(submissions, watermarks):
    """Wire v2's consolidation: one pair per entry above the watermark."""
    pairs = []
    acks = {}
    for origin, entries in submissions:
        watermark = watermarks.get(origin, -1)
        top = watermark
        for pair, seq in entries:
            if seq > watermark:
                pairs.append(pair)
                top = max(top, seq)
        if top >= 0:
            acks[origin] = top
    return sort_pairs(pairs), acks


def keys_of(readings):
    """The keys of readings, as their source hands them to a buffer."""
    return [reading_key(reading) for reading in readings]


def expand(runs):
    return [(pair, seq) for pair, seqs in runs for seq in seqs]


def expand_parts(parts):
    """(base, trace) parts as their (pair, sequence) entries."""
    return [(symbol_pair(symbol), base + offset)
            for base, trace in parts
            for offset, symbol in enumerate(trace)]


# -- strategies ---------------------------------------------------------------

PAIRS = [KeyValuePair(tag, room)
         for tag in sorted(TAG_KEYS) for room in range(1, 5)]
# Rooms whose symbols take one (1-22), two (from room 23's woman),
# three (either side of the surrogate gap) and four UTF-8 bytes, up to
# the table's last room.
ROOMS = [1, 2, 4, 22, 23, 600, 18412, 18413, 30000, MAX_ROOM]
SYMBOLS = [pair_symbol(tag, room) for tag in sorted(TAG_KEYS)
           for room in ROOMS]


def _bulk_trace(seed, size, wide):
    """``size`` symbols of the four small rooms, or of every width."""
    rng = random.Random(seed)
    pool = SYMBOLS if wide else [pair_symbol(p.key, p.value) for p in PAIRS]
    return "".join(rng.choice(pool) for _ in range(size))


TRACE = (st.text(alphabet=SYMBOLS, max_size=30)
         | st.builds(_bulk_trace, st.integers(0, 2 ** 32),
                     st.integers(0, 12000), st.booleans()))
# Bases up to the highest that a trace of TRACE's sizes can follow.
BASE = (st.integers(0, 10 ** 6)
        | st.integers(MAX_PAIR_COUNT - 20000, MAX_PAIR_COUNT - 12000))


# -- building submission parts ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(base=BASE, trace=TRACE, cap=st.none() | st.integers(-1, 40),
       origin=st.integers(1, 10 ** 4))
@example(base=0, trace="", cap=None, origin=2)
@example(base=5, trace=pair_symbol("woman", MAX_ROOM) * 3000, cap=None,
         origin=2)
@example(base=5, trace="<" + pair_symbol("man", MAX_ROOM) * 2100, cap=None,
         origin=2)
def test_submission_payloads_match_per_entry_build(base, trace, cap, origin):
    messages = build_submission_parts(origin, 7, base, trace, cap)
    payloads = [m.payload for m in messages]
    assert payloads == per_reading_parts(origin, base, trace, cap)
    assert all(m.sender == origin and m.cycle_id == 7 for m in messages)
    assert all(len(payload) <= MAX_PAYLOAD for payload in payloads)
    # The leader's parse gives back the range, part by part.
    parsed = [_parse_submission(payload) for payload in payloads]
    assert [fields[:3] for fields in parsed] == [
        (origin, index, len(payloads)) for index in range(len(payloads))]
    parts = [fields[3:] for fields in parsed]
    assert "".join(part for _, part in parts) == trace
    assert expand_parts(parts) == expand_parts([(base, trace)])


@settings(max_examples=300, deadline=None)
@given(items=st.lists(st.text(alphabet="ab=@1", min_size=1, max_size=12),
                      max_size=40),
       budget=st.integers(0, 40))
def test_chunk_matches_greedy_per_item_split(items, budget):
    assert _chunk(",".join(items), budget) == [
        ",".join(part) for part in old_chunk(items, budget)]


# -- parsing submission entries -----------------------------------------------

BASE_TEXT = st.one_of(
    BASE.map(str),
    st.sampled_from(["", "+5", " 5", "5 ", "0_5", "05", "00", "-0", "-1",
                     "\u0665", "\uff15", "1.5", "0x10", str(2 ** 63),
                     str(10 ** 3000)]),
    st.text(alphabet="0123456789+-_ ", max_size=6),
)
ENTRY_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet=SYMBOLS + [";", ",", "=", "0", "\x00", "\x7f"],
            max_size=40),
    TRACE,
)


def _payload(origin, index, total, base, trace):
    """Part text with these fields; a lone surrogate stays undecodable."""
    return (f"origin={origin};part={index}/{total};base={base};"
            f"trace={trace}").encode("utf-8", "surrogatepass")


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(base_text=BASE_TEXT, trace=ENTRY_TEXT)
@example(base_text=str(MAX_PAIR_COUNT - 1), trace="<<")
@example(base_text=str(MAX_PAIR_COUNT - 1), trace="<<<")
@example(base_text=str(MAX_PAIR_COUNT + 1), trace="")
def test_parse_entries_matches_per_entry_parse(base_text, trace):
    old = _outcome(per_reading_parse, base_text, trace)
    new = _outcome(_parse_submission, _payload("2", "0", "1", base_text,
                                               trace))
    if old is ValueError:
        assert new is ValueError
        return
    assert new == (2, 0, 1, int(base_text), trace)
    assert expand_parts([new[3:]]) == old
    # Every entry is a visitor pair: a tag and a room >= 1.
    assert all(pair.key in TAG_KEYS and pair.value > 0 for pair, _ in old)


@settings(max_examples=300, deadline=None)
@given(origin=BASE_TEXT, index=BASE_TEXT, total=BASE_TEXT)
@example(origin="\u0662", index="0", total="1")
@example(origin="2", index="0", total="0_1")
def test_parse_submission_takes_canonical_origin_and_part(origin, index,
                                                          total):
    new = _outcome(_parse_submission, _payload(origin, index, total, "0",
                                               "<"))
    try:
        fields = tuple(map(canonical_decimal, (origin, index, total)))
    except ValueError:
        assert new is ValueError
        return
    assert new == (*fields, 0, "<")


# -- consolidation ------------------------------------------------------------

PART = st.tuples(st.integers(0, 12),
                 st.text(alphabet=SYMBOLS[:5] + SYMBOLS[-2:], max_size=8))


@st.composite
def filed_submissions(draw):
    """Per origin, its parts as the leader files them: in any index
    order, some more than once, with parts that overlap or repeat."""
    submissions = {}
    for origin in draw(st.sets(st.integers(1, 5), max_size=5)):
        parts = draw(st.lists(PART, min_size=1, max_size=5))
        order = draw(st.permutations(range(len(parts))))
        order += draw(st.lists(st.sampled_from(order), max_size=3))
        sets = {}
        for index in order:
            _file_part(sets, origin, len(parts), index, parts[index])
        submissions[origin] = sets[origin].ordered()
        assert submissions[origin] == parts
    return submissions


M2, W1 = pair_symbol("man", 2), pair_symbol("woman", 1)


@settings(max_examples=300, deadline=None)
@given(submissions=filed_submissions(),
       watermarks=st.dictionaries(st.integers(1, 6), st.integers(-1, 12),
                                  max_size=6))
# Parts around watermark 3: one under it, one across it, one repeated
# and one empty; an origin with nothing new keeps its watermark, one
# with neither gets no ack.
@example(submissions={1: [(9, W1), (1, M2 + W1 * 4), (1, M2 + W1 * 4),
                          (2, "")],
                      2: [(0, "")], 3: [(0, M2)]},
         watermarks={1: 3, 3: 0})
def test_consolidation_matches_per_entry_count(submissions, watermarks):
    ordered = sorted(submissions.items())
    old_pairs, old_acks = old_consolidate(
        ((origin, expand_parts(parts)) for origin, parts in ordered),
        watermarks)
    pairs, acks = consolidate_runs(ordered, watermarks)
    assert pairs == old_pairs
    assert list(acks.items()) == list(old_acks.items())


def test_consolidation_counts_many_rooms_in_one_pass():
    # One reading per pair of rooms 1..20 000 in one slot.  A scan of
    # the whole text per distinct symbol took 2.4 s for it on 2 shared
    # cores; one counting pass, cold pair cache included, about 0.3 s.
    symbols = [pair_symbol(tag, room) for room in range(1, 20_001)
               for tag in sorted(TAG_KEYS)]
    random.Random(7).shuffle(symbols)
    submissions = [(1, [(0, "".join(symbols[:30_000]))]),
                   (2, [(0, "".join(symbols[30_000:]))])]
    symbol_pair.cache_clear()
    start = time.perf_counter()
    pairs, acks = consolidate_runs(submissions, {})
    elapsed = time.perf_counter() - start
    assert pairs == sort_pairs(map(symbol_pair, symbols))
    assert acks == {1: 29_999, 2: 29_999}
    assert elapsed < 1.0, elapsed


# -- the client buffer --------------------------------------------------------

READING = st.builds(SensorReading, tag=st.sampled_from(list(TagCategory)),
                    room=st.integers(1, 4) | st.sampled_from(ROOMS),
                    timestamp=st.integers(0, 6))
READING_A = SensorReading(TagCategory.MAN, 1, 0)
READING_B = SensorReading(TagCategory.WOMAN, 2, 0)
READING_C = SensorReading(TagCategory.OTHER, MAX_ROOM, 1)
BUFFER_OPS = st.lists(
    st.tuples(st.just("ingest"), st.lists(READING, max_size=12))
    | st.tuples(st.just("prune"), st.integers(-2, 40)),
    max_size=12)


@settings(max_examples=300, deadline=None)
@given(ops=BUFFER_OPS)
def test_buffer_matches_per_reading_buffer(ops):
    old, new = OldClientBuffer(), ClientBuffer()
    for op, arg in ops:
        if op == "ingest":
            assert new.ingest(keys_of(arg)) == keys_of(
                reading for _, reading in old.ingest(arg))
        else:
            assert new.prune_through(arg) == old.prune_through(arg)
        assert new.entries() == old.entries()
        assert expand(new.runs()) == old.entries()
        # The trace is the pending range in sequence order.
        assert expand_parts([(new.base, new.trace)]) == sorted(
            old.entries(), key=operator.itemgetter(1))
        assert len(new) == len(old.pending)
        assert (new.next_seq, new.committed_through) == \
            (old.next_seq, old.committed_through)


# -- prunes inside the pending range --------------------------------------------


class PendingModel:
    """The buffer as (sequence, reading) pairs: a batch keeps the first
    reading of each (tag, room, timestamp), and a prune drops what the
    watermark covers, clamped to the highest sequence issued."""

    def __init__(self):
        self.pending = []
        self.next_seq = 0
        self.committed_through = -1

    def ingest(self, batch):
        kept = {}
        for reading in batch:
            kept.setdefault((reading.tag, reading.room, reading.timestamp),
                            reading)
        for reading in kept.values():
            self.pending.append((self.next_seq, reading))
            self.next_seq += 1
        return list(kept.values())

    def prune_through(self, watermark):
        watermark = min(watermark, self.next_seq - 1)
        if watermark <= self.committed_through:
            return 0
        before = len(self.pending)
        self.pending = [(s, r) for s, r in self.pending if s > watermark]
        self.committed_through = watermark
        return before - len(self.pending)

    def runs(self):
        seqs = {}
        for seq, reading in self.pending:
            pair = KeyValuePair(reading.tag.value, reading.room)
            seqs.setdefault(pair, []).append(seq)
        return sorted(seqs.items())


@st.composite
def shuffled_batches(draw):
    """A batch in any order, some readings read twice."""
    batch = draw(st.lists(READING, max_size=10))
    batch += draw(st.lists(st.sampled_from(batch), max_size=4)) if batch \
        else []
    return draw(st.permutations(batch))


# A prune's watermark counts from the buffer's base, so most land
# inside the pending range; a few fall below it or past its top.
PRUNE_OPS = st.lists(
    st.tuples(st.just("ingest"), shuffled_batches())
    | st.tuples(st.just("prune"), st.integers(-2, 12)),
    max_size=14)


@settings(max_examples=300, deadline=None)
@given(ops=PRUNE_OPS)
@example(ops=[("ingest", [READING_A, READING_B, READING_A, READING_C]),
              ("prune", 1), ("ingest", [READING_C, READING_B]),
              ("prune", 1)])
def test_partial_prunes_match_the_pending_model(ops):
    model, buffer = PendingModel(), ClientBuffer()
    for op, arg in ops:
        if op == "ingest":
            assert buffer.ingest(keys_of(arg)) == keys_of(model.ingest(arg))
        else:
            watermark = buffer.base - 1 + arg
            assert buffer.prune_through(watermark) == \
                model.prune_through(watermark)
        assert (buffer.base, buffer.next_seq) == (
            model.committed_through + 1, model.next_seq)
        assert buffer.trace == "".join(
            pair_symbol(reading.tag.value, reading.room)
            for _, reading in model.pending)
        assert buffer.runs() == model.runs()


# -- ingest in one pass over a batch -------------------------------------------
#
# Batches come in time order, and a double read shares its original's
# timestamp and follows it; readings of one (tag, room, timestamp) can
# also sit apart within their timestamp.  Few tags, rooms and times
# make such repeats common.

TIMESTAMP = operator.attrgetter("timestamp")


@st.composite
def timed_batches(draw, stamps=st.integers(0, 4)):
    """A batch in time order, some readings read again by the pair."""
    batch = []
    for reading in draw(st.lists(
            st.builds(SensorReading, tag=st.sampled_from(list(TagCategory)),
                      room=st.integers(1, 3), timestamp=stamps),
            max_size=20)):
        batch.append(reading)
        if draw(st.booleans()):
            batch.append(dataclasses.replace(reading, reader_id=1))
    return sorted(batch, key=TIMESTAMP)


@st.composite
def unordered_batches(draw):
    """A shuffled batch with a later reading before an earlier one."""
    batch = draw(st.permutations(draw(timed_batches().filter(bool))))
    late = SensorReading(TagCategory.MAN, 1, max(map(TIMESTAMP, batch)) + 1)
    batch.insert(draw(st.integers(0, len(batch) - 1)), late)
    return batch


def _ingest_both(batches, as_iterator):
    """Ingest each batch into both buffers; they must agree throughout."""
    old, new = OldClientBuffer(), ClientBuffer()
    for batch in batches:
        keys = keys_of(batch)
        assert new.ingest(iter(keys) if as_iterator else keys) == \
            keys_of(reading for _, reading in old.ingest(batch))
        assert expand(new.runs()) == new.entries() == old.entries()
        assert (len(new), new.next_seq) == (len(old.pending), old.next_seq)


MAN1 = SensorReading(TagCategory.MAN, 1, 3)
MAN1_AGAIN = dataclasses.replace(MAN1, reader_id=1)
WOMAN2 = SensorReading(TagCategory.WOMAN, 2, 3)


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(timed_batches() | st.just([]), max_size=4),
       as_iterator=st.booleans())
# A double read right after its original, one apart from it at the same
# timestamp, and an empty batch between.
@example(batches=[[MAN1, MAN1_AGAIN, WOMAN2,
                   SensorReading(TagCategory.MAN, 1, 4)],
                  [], [MAN1, WOMAN2, MAN1_AGAIN]],
         as_iterator=False)
def test_ingest_matches_per_reading_buffer_in_time_order(batches,
                                                         as_iterator):
    _ingest_both(batches, as_iterator)


@settings(max_examples=200, deadline=None)
@given(batch=timed_batches(stamps=st.just(7)), as_iterator=st.booleans())
def test_ingest_matches_on_one_shared_timestamp(batch, as_iterator):
    _ingest_both([batch], as_iterator)


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(unordered_batches() | timed_batches(), max_size=4),
       as_iterator=st.booleans())
# Out of order at the third reading, which repeats the first: it is
# compared with the readings kept before it, not only those after.
@example(batches=[[MAN1, SensorReading(TagCategory.MAN, 1, 5), MAN1_AGAIN,
                   WOMAN2, WOMAN2]],
         as_iterator=True)
def test_ingest_matches_per_reading_buffer_out_of_order(batches,
                                                        as_iterator):
    _ingest_both(batches, as_iterator)


@settings(max_examples=200, deadline=None)
@given(batch=timed_batches(), cut=st.integers(0, 40))
@example(batch=[MAN1, MAN1_AGAIN], cut=1)
def test_ingest_keeps_a_double_read_split_across_batches(batch, cut):
    """Dedupe is per batch: a repeat in the next batch is kept."""
    _ingest_both([batch[:cut], batch[cut:]], as_iterator=False)


def per_key_trace(keys):
    """The trace ingest appends, one ``chr`` per kept key."""
    return "".join(map(chr, map(SYMBOL_MASK.__and__, dict.fromkeys(keys))))


# Every tag; rooms on each side of the surrogate gap and the last room,
# whose symbols take three and four UTF-8 bytes; every timestamp a key
# can carry, the extremes included.
KEY = st.builds(
    lambda tag, room, stamp: reading_key(SensorReading(tag, room, stamp)),
    st.sampled_from(TagCategory), st.sampled_from([1, 18412, 18413, MAX_ROOM]),
    st.integers(0, MAX_TIMESTAMP) | st.sampled_from([0, MAX_TIMESTAMP]))


@st.composite
def key_batches(draw):
    """Keys in any order, with repeats next to their original or apart."""
    keys = draw(st.lists(KEY, max_size=30))
    if draw(st.booleans()):
        keys.sort()
    for _ in range(draw(st.integers(0, 4)) if keys else 0):
        original = draw(st.integers(0, len(keys) - 1))
        keys.insert(draw(st.integers(original + 1, len(keys))),
                    keys[original])
    return keys


LAST_KEYS = [reading_key(SensorReading(tag, MAX_ROOM, MAX_TIMESTAMP))
             for tag in TagCategory]


@settings(max_examples=300, deadline=None)
@given(batches=st.lists(key_batches(), max_size=4))
@example(batches=[LAST_KEYS + LAST_KEYS[:1], [], LAST_KEYS[::-1]])
def test_ingest_matches_the_per_key_map(batches):
    buffer, trace = ClientBuffer(), ""
    for keys in batches:
        assert buffer.ingest(keys) == list(dict.fromkeys(keys))
        trace += per_key_trace(keys)
        assert buffer.trace == trace


@settings(max_examples=200, deadline=None)
@given(readings=st.lists(READING, max_size=40))
def test_dedupe_matches_per_reading_dedupe(readings):
    assert dedupe_readings(readings) == old_dedupe_readings(readings)
    # A repeated object is a double read too.
    doubled = readings + readings[:3]
    assert dedupe_readings(doubled) == old_dedupe_readings(doubled)


# -- the reading source -------------------------------------------------------

TIME = st.integers(0, 20).map(float) | st.floats(0, 20, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(times=st.lists(st.integers(0, 20), max_size=25),
       nows=st.lists(TIME | st.sampled_from([-1.0, -0.5]), max_size=8))
def test_take_due_matches_per_reading_scan(times, nows):
    # Each reading is due at its timestamp; rooms tell equal timestamps
    # apart.  A source takes keys in timestamp order, as routing leaves
    # them: here a stable sort by timestamp, as the old source did.
    readings = [SensorReading(TagCategory.MAN, index + 1, t)
                for index, t in enumerate(times)]
    old = OldListReadingSource(readings)
    new = ListReadingSource(sorted(keys_of(readings),
                                   key=lambda key: key >> KEY_SHIFT))
    assert new.injected_count() == len(readings)
    for now in nows:
        assert new.take_due(now) == keys_of(old.take_due(now))
        assert new.remaining() == keys_of(old.remaining())
