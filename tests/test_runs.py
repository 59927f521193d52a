"""The run-grouped reading path against the per-entry code it replaced.

Readings travel from ingest to consolidation as runs: one visitor pair
with the sequences of its readings.  The functions below keep the
per-entry versions as they were before that change; every run-grouped
step must give exactly their results, on honest input and on hostile
input alike (unsorted and repeated sequences, items longer than a
datagram, text that is not a submission at all).
"""

import dataclasses
import itertools
import operator
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdmw.domain import TAG_KEYS, CountMode, KeyValuePair, SensorReading
from crowdmw.domain import TagCategory
from crowdmw.mapreduce import map_reading, sort_pairs
from crowdmw.runtime import (
    ClientBuffer,
    ListReadingSource,
    _chunk,
    _entry_pair,
    _parse_entries,
    _parse_fields,
    build_submission_parts,
    consolidate_runs,
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
    def __init__(self, timed):
        self._timed = sorted(timed, key=operator.itemgetter(0))
        self._cursor = 0

    def take_due(self, now_ms):
        due = []
        while (self._cursor < len(self._timed)
               and self._timed[self._cursor][0] <= now_ms):
            due.append(self._timed[self._cursor][1])
            self._cursor += 1
        return due

    def remaining(self):
        return list(self._timed[self._cursor:])


def old_chunk(items, budget, max_items):
    if not items:
        return [[]]
    parts = [[]]
    used = 0
    for item in items:
        cost = len(item) + (1 if parts[-1] else 0)
        full = max_items is not None and len(parts[-1]) >= max_items
        if parts[-1] and (used + cost > budget or full):
            parts.append([])
            used = 0
            cost = len(item)
        parts[-1].append(item)
        used += cost
    return parts


def old_submission_payloads(origin, entries, max_entries_per_part):
    texts = [f"{pair.key}={pair.value}@{seq}" for pair, seq in entries]
    headroom = len(f"origin={origin};part=9999/9999;entries=")
    chunks = old_chunk(texts, MAX_PAYLOAD - headroom, max_entries_per_part)
    return [
        (f"origin={origin};part={index}/{len(chunks)};"
         f"entries={','.join(chunk)}").encode("utf-8")
        for index, chunk in enumerate(chunks)
    ]


def old_parse_entries(text):
    if not text:
        return []
    entries = []
    for item in text.split(","):
        body, at, seq = item.rpartition("@")
        if not at:
            raise ValueError(f"entry without sequence: {item!r}")
        entries.append((_entry_pair(body), int(seq)))
    return entries


def old_consolidate(submissions, watermarks):
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


def expand(runs):
    return [(pair, seq) for pair, seqs in runs for seq in seqs]


def as_runs(entries):
    """Neighbouring entries of one pair as a run, as the wire groups them."""
    return [(pair, [seq for _, seq in group])
            for pair, group in itertools.groupby(entries,
                                                 operator.itemgetter(0))]


# -- strategies ---------------------------------------------------------------

PAIRS = [KeyValuePair(tag, room)
         for tag in sorted(TAG_KEYS) for room in range(1, 5)]
# An entry of this pair is longer than a whole datagram's budget.
LONG = KeyValuePair("Room" + "7" * (MAX_PAYLOAD + 10), 1)


def _bulk_entries(seed, size, long_at, ordered):
    """``size`` entries of a few pairs, grouped and sorted or shuffled."""
    rng = random.Random(seed)
    entries = [(rng.choice(PAIRS), rng.randrange(10 ** rng.randint(1, 7)))
               for _ in range(size)]
    if ordered:
        entries.sort(key=lambda e: (e[0].key, e[0].value, e[1]))
    else:
        rng.shuffle(entries)
    if long_at is not None and entries:
        entries.insert(long_at % len(entries), (LONG, 3))
    return entries


ENTRIES = (
    st.lists(st.tuples(st.sampled_from(PAIRS), st.integers(0, 10 ** 6)),
             max_size=30)
    | st.builds(_bulk_entries, st.integers(0, 2 ** 32), st.integers(0, 3000),
                st.none() | st.integers(0, 3000), st.booleans())
)


# -- building submission parts ------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(entries=ENTRIES, cap=st.none() | st.integers(-1, 40),
       origin=st.integers(1, 10 ** 4))
@example(entries=[], cap=None, origin=2)
@example(entries=[(PAIRS[0], 1), (LONG, 2), (PAIRS[0], 3)], cap=None,
         origin=2)
@example(entries=[(PAIRS[0], 1), (LONG, 2), (PAIRS[0], 3)], cap=2, origin=2)
def test_submission_payloads_match_per_entry_build(entries, cap, origin):
    messages = build_submission_parts(origin, 7, as_runs(entries), cap)
    assert [m.payload for m in messages] == \
        old_submission_payloads(origin, entries, cap)
    assert all(m.sender == origin and m.cycle_id == 7 for m in messages)
    # Built text is canonical, so the leader reads one run per stretch
    # of one pair within a part.
    for message in messages:
        text = _parse_fields(message.payload)["entries"]
        assert _parse_entries(text) == as_runs(old_parse_entries(text))


@settings(max_examples=300, deadline=None)
@given(items=st.lists(st.text(alphabet="ab=@1", min_size=1, max_size=12),
                      max_size=40),
       budget=st.integers(0, 40), cap=st.none() | st.integers(-1, 6))
def test_chunk_matches_greedy_per_item_split(items, budget, cap):
    assert _chunk(",".join(items), budget, cap) == [
        ",".join(part) for part in old_chunk(items, budget, cap)]


# -- parsing submission entries -----------------------------------------------

ENTRY_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="manwoether=@,Ro0123-+ _", max_size=40),
    st.lists(st.builds(lambda pair, seq, glue: f"{pair.key}={pair.value}"
                                               f"{glue}{seq}",
                       st.sampled_from(PAIRS), st.integers(-2, 99),
                       st.sampled_from(["@", "@", "@", "", "@@", "="])),
             max_size=8).map(",".join),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _visitor_entries(pairs):
    return all(pair.key in TAG_KEYS and pair.value > 0 for pair in pairs)


@settings(max_examples=400, deadline=None)
@given(text=ENTRY_TEXT)
def test_parse_entries_matches_per_entry_parse(text):
    old = _outcome(old_parse_entries, text)
    runs = _outcome(_parse_entries, text)
    if old is ValueError:
        assert runs is ValueError
        return
    assert runs is not ValueError
    assert expand(runs) == old
    # No run is empty.
    assert all(seqs for _, seqs in runs)
    # The leader's visitor check, once per run, decides as per entry.
    assert _visitor_entries(pair for pair, _ in runs) == \
        _visitor_entries(pair for pair, _ in old)


# -- consolidation ------------------------------------------------------------

SUBMISSION = st.lists(st.tuples(st.sampled_from(PAIRS[:5]),
                                st.integers(-1, 12)), max_size=12)


MAN, WOMAN = KeyValuePair("man", 2), KeyValuePair("woman", 1)


@settings(max_examples=300, deadline=None)
@given(submissions=st.dictionaries(st.integers(1, 5), SUBMISSION,
                                   max_size=5),
       watermarks=st.dictionaries(st.integers(1, 6), st.integers(-1, 12),
                                  max_size=6))
# Unsorted and repeated sequences around watermark 3; an origin with
# nothing new keeps its watermark, one with neither gets no ack.
@example(submissions={1: [(WOMAN, 9), (WOMAN, 3), (WOMAN, 3), (WOMAN, 5),
                          (MAN, 4), (MAN, 1), (WOMAN, 2), (WOMAN, 7)],
                      2: [], 3: [(MAN, 0)]},
         watermarks={1: 3, 3: 0})
def test_consolidation_matches_per_entry_count(submissions, watermarks):
    ordered = sorted(submissions.items())
    old_pairs, old_acks = old_consolidate(ordered, watermarks)
    pairs, acks = consolidate_runs(
        ((origin, as_runs(entries)) for origin, entries in ordered),
        watermarks)
    assert pairs == old_pairs
    assert list(acks.items()) == list(old_acks.items())


# -- the client buffer --------------------------------------------------------

READING = st.builds(SensorReading, tag=st.sampled_from(list(TagCategory)),
                    room=st.integers(1, 4), timestamp=st.integers(0, 6))
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
            assert new.ingest(arg) == old.ingest(arg)
        else:
            assert new.prune_through(arg) == old.prune_through(arg)
        assert new.entries() == old.entries()
        assert expand(new.runs()) == old.entries()
        assert len(new) == len(old.pending)
        assert (new.next_seq, new.committed_through) == \
            (old.next_seq, old.committed_through)


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
        assert new.ingest(iter(batch) if as_iterator else batch) == \
            old.ingest(batch)
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
@given(times=st.lists(TIME, max_size=25),
       nows=st.lists(TIME | st.just(-1.0), max_size=8))
def test_take_due_matches_per_reading_scan(times, nows):
    timed = [(t, SensorReading(TagCategory.MAN, 1, index))
             for index, t in enumerate(times)]
    old, new = OldListReadingSource(timed), ListReadingSource(timed)
    assert new.injected_count() == len(timed)
    for now in nows:
        assert new.take_due(now) == old.take_due(now)
        assert new.remaining() == old.remaining()
