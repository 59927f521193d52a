"""End-to-end acceptance gates for the middleware.

Each test is one claim about the system with its own wall-clock budget,
exercised through the public surface (scenarios, the pipeline, the
codec, the sweep).  Run with ``pytest tests/test_acceptance.py -v``;
add ``-s`` to see the one-line verdicts.
"""

import contextlib
import random
import time

import pytest

from crowdmw.domain import (
    CountMode,
    SensorReading,
    TagCategory,
    key_reading,
    reading_key,
)
from crowdmw.election import Role
from crowdmw.harness import (
    FaultSpec,
    ScenarioConfig,
    SWEEP_HEADER,
    SWEEP_SHAPE,
    emit_report,
    parse_scenario,
    run_scenario,
    sweep_csv,
    sweep_load,
)
from crowdmw.mapreduce import partition, sequential_oracle
from crowdmw.runtime import ClientBuffer, consolidate_runs, reduce_and_merge
from crowdmw.store import JournalStore
from crowdmw.transport import (
    Message,
    MessageKind,
    decode_message,
    encode_message,
)

VISITOR_TOTALS = {"man": 10, "other": 12, "woman": 21}
ROOM_TOTALS = {"Room1": 2, "Room2": 5, "Room3": 5, "Room4": 4}


@contextlib.contextmanager
def _budget(label, seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < seconds, (
        f"{label}: took {elapsed:.1f}s, budget {seconds:.0f}s"
    )
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_reference_stream_visitor_commit(tmp_path):
    with _budget("visitor totals committed from the reference stream", 5.0):
        config = ScenarioConfig(fixture="table1", nodes=3, seed=1)
        report = run_scenario(config, str(tmp_path / "visitor.journal"))
        assert report.commits >= 1
        assert report.visitor_totals == VISITOR_TOTALS


def test_reference_stream_room_commit(tmp_path):
    with _budget("room counts committed from the reference stream", 5.0):
        config = ScenarioConfig(fixture="table1", nodes=3, seed=1)
        report = run_scenario(config, str(tmp_path / "room.journal"))
        assert report.commits >= 1
        assert report.room_totals == ROOM_TOTALS
        assert sum(report.room_totals.values()) == 16


def test_distribution_never_changes_totals():
    # The leader's own steps: each origin's readings enter its buffer
    # and reach consolidation as two (base, trace) parts cut at a random
    # point, and each origin has a random watermark, as a commit leaves.
    with _budget("distributed totals match sequential over 200 streams",
                 60.0):
        rng = random.Random(0xC3)
        tags = sorted(TagCategory, key=lambda tag: tag.value)
        for trial in range(200):
            size = rng.randint(10, 2000)
            clients = rng.randint(1, 8)
            routed = {origin: [] for origin in range(1, clients + 1)}
            for index in range(size):
                routed[rng.randint(1, clients)].append(
                    SensorReading(tag=rng.choice(tags),
                                  room=rng.randint(1, 6),
                                  timestamp=index))
            submissions, watermarks, fresh, want_acks = [], {}, [], {}
            for origin, readings in routed.items():
                buffer = ClientBuffer()
                buffer.ingest(map(reading_key, readings))
                cut = rng.randint(0, len(buffer))
                submissions.append((origin, [
                    (buffer.base, buffer.trace[:cut]),
                    (buffer.base + cut, buffer.trace[cut:])]))
                watermarks[origin] = rng.randint(-1, len(buffer) - 1)
                fresh += readings[watermarks[origin] + 1:]
                if readings:
                    want_acks[origin] = len(readings) - 1
            consolidated, acks = consolidate_runs(submissions, watermarks)
            result = reduce_and_merge(
                trial, partition(consolidated, routed), {})
            assert acks == want_acks, trial
            assert result.total_readings == len(fresh), trial
            assert {t.value: c for t, c
                    in result.visitor_aggregates.items()} == \
                sequential_oracle(fresh, CountMode.VISITOR), trial
            assert {f"Room{r}": c for r, c
                    in result.room_aggregates.items()} == \
                sequential_oracle(fresh, CountMode.ROOM), trial


def test_leader_takeover_safety(tmp_path):
    with _budget("unique max-id takeover after 100 leader kills", 60.0):
        rng = random.Random(0xE1)
        duration = 2000
        for trial in range(100):
            nodes = rng.randint(3, 8)
            override = None
            if trial % 3 == 2:
                # A deliberate non-max leader; the kill removes it and
                # control must fall back to the max surviving id.
                override = rng.randint(1, nodes - 1)
            config = ScenarioConfig(
                nodes=nodes, cycles=3, seed=trial, visitors=6,
                override_leader=override,
                faults=(FaultSpec(kind="kill_leader", at_ms=2500.0),))
            store_path = str(tmp_path / f"takeover_{trial}.journal")
            report = run_scenario(config, store_path)

            victim = override if override is not None else nodes
            survivors = set(range(1, nodes + 1)) - {victim}
            expected = max(survivors)

            killed = [line for line in report.events
                      if line.endswith(" killed")]
            assert len(killed) == 1, trial
            assert killed[0].split()[1] == f"node={victim}", trial
            kill_at = float(killed[0].split()[0].partition("=")[2])

            claims = []
            for line in report.events:
                if " leader_claimed " not in f"{line} ":
                    continue
                parts = line.split()
                at = float(parts[0].partition("=")[2])
                who = int(parts[1].partition("=")[2])
                if at > kill_at:
                    claims.append((at, who))
            assert claims, trial
            assert {who for _, who in claims} == {expected}, trial
            # The first claim lands in the slot right after the kill's.
            first_at = min(at for at, _ in claims)
            assert int(first_at // duration) <= int(
                kill_at // duration) + 1, trial
            assert report.leader_id == expected, trial

            registry = JournalStore(store_path)
            try:
                leaders = [record.node_id
                           for record in registry.snapshot_nodes()
                           if record.role is Role.LEADER]
            finally:
                registry.close()
            assert leaders == [expected], trial


def test_no_reading_lost_under_loss_and_kill(tmp_path):
    with _budget("every reading commits exactly once under loss and a kill",
                 90.0):
        config = ScenarioConfig(
            nodes=5, cycles=10, seed=31, visitors=50, rooms=4,
            loss_rate=0.3,
            faults=(FaultSpec(kind="kill_leader", at_ms=2500.0),
                    FaultSpec(kind="set_loss", at_ms=9000.0, rate=0.0)))
        report = run_scenario(config, str(tmp_path / "lossy.journal"))
        keys = report.ledger
        deduped = [key_reading(key) for key in dict.fromkeys(keys)]

        recon = report.reconciliation
        assert recon.conserves()
        assert recon.undelivered == 0
        assert recon.pending_live == 0
        assert recon.stranded_killed == 0
        assert recon.deduplicated == len(keys) - len(deduped)
        assert recon.committed == len(deduped)
        assert recon.committed == recon.store_total
        assert report.visitor_totals == sequential_oracle(deduped,
                                                          CountMode.VISITOR)
        assert report.room_totals == sequential_oracle(deduped,
                                                       CountMode.ROOM)


def _silent_slots(events, horizon_slot):
    """Slots before ``horizon_slot`` claimed with no commit or abort."""
    claimed, ended = set(), set()
    for line in events:
        word, _, rest = line.split(" ", 2)[2].partition(" ")
        if word in ("leader_claimed", "commit", "abort"):
            slot = int(rest.removeprefix("cycle=").split()[0])
            (claimed if word == "leader_claimed" else ended).add(slot)
    return sorted(slot for slot in claimed - ended if slot < horizon_slot)


@pytest.mark.parametrize("nodes", [3, 5, 10, 20])
def test_every_claimed_slot_ends_in_one_outcome(nodes, tmp_path):
    """Under loss, a slot a leader claims ends in a commit or an abort.

    A lost partial must not leave the slot with neither: the leader
    reduces what is missing at the slot boundary.  The run's last slot
    is left out, since the run stops at its boundary; counting it would
    measure where the run ends, not the protocol.
    """
    silent = {}
    with _budget(f"every claimed slot ends in one outcome, {nodes} nodes",
                 20.0):
        for loss in (0.0, 0.05, 0.1, 0.2):
            for seed in range(5):
                config = ScenarioConfig(nodes=nodes, cycles=6, seed=seed,
                                        visitors=300, loss_rate=loss)
                report = run_scenario(
                    config, str(tmp_path / f"loss{loss}-seed{seed}.journal"))
                slots = _silent_slots(report.events, config.cycles - 1)
                if slots:
                    silent[loss, seed] = slots
        assert silent == {}


def test_single_responder_aborts_and_reelects(tmp_path):
    with _budget("lone responder aborts every cycle and keeps electing",
                 10.0):
        config = ScenarioConfig(
            nodes=2, cycles=3, seed=4, visitors=10,
            faults=(FaultSpec(kind="kill_node", at_ms=500.0, node_id=1),))
        report = run_scenario(config, str(tmp_path / "lone.journal"))
        assert report.commits == 0
        assert report.visitor_totals == {}
        assert report.room_totals == {}
        assert report.aborts >= 2
        aborts = [line for line in report.events if " abort cycle=" in line]
        assert aborts and all("reason=min_responding" in line
                              for line in aborts)
        claims_after_kill = [
            line for line in report.events
            if " leader_claimed " in f"{line} "
            and float(line.split()[0].partition("=")[2]) > 500.0
        ]
        assert claims_after_kill


def test_wire_format_roundtrip_and_header():
    with _budget("codec survives 10000 random messages, header exact",
                 30.0):
        ping = Message(kind=MessageKind.PING, sender=5, cycle_id=0,
                       payload=b"")
        assert encode_message(ping) == bytes(
            [3, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0])

        abort = Message(kind=MessageKind.CYCLE_ABORT, sender=0x01020304,
                        cycle_id=0x0A0B0C0D,
                        payload=b"reason=min_responding")
        frame = encode_message(abort)
        assert frame[:12] == bytes([3, 8, 0x01, 0x02, 0x03, 0x04,
                                    0x0A, 0x0B, 0x0C, 0x0D, 0x00, 0x15])
        assert frame[12:] == b"reason=min_responding"

        rng = random.Random(0x7F)
        kinds = list(MessageKind)
        for _ in range(10_000):
            size = rng.randint(0, 48) if rng.random() < 0.9 else \
                rng.randint(49, 4096)
            message = Message(kind=rng.choice(kinds),
                              sender=rng.randrange(2**32),
                              cycle_id=rng.randrange(2**32),
                              payload=rng.randbytes(size))
            assert decode_message(encode_message(message)) == message


def test_seeded_runs_are_byte_identical(tmp_path):
    with _budget("same seed reproduces byte-identical artifacts", 60.0):
        text = (
            "nodes = 4\ncycles = 5\nseed = 97\nvisitors = 45\n"
            "loss_rate = 0.2\n"
            "fault = kill_leader@3000\n"
            "fault = partition@5000+1500:1,2\n"
            "fault = set_loss@8000:0.0\n"
        )
        blobs = []
        for label in ("first", "second"):
            config = parse_scenario(text)
            journal = tmp_path / f"{label}.journal"
            report = run_scenario(config, str(journal))
            out_dir = tmp_path / label
            emit_report(report, str(out_dir))
            payload = {
                name: (out_dir / name).read_bytes()
                for name in ("events.log", "metrics.csv", "summary.csv")
            }
            payload["journal"] = journal.read_bytes()
            blobs.append(payload)
        assert blobs[0] == blobs[1]


def test_goodput_and_latency_rise_with_offered_load():
    with _budget("goodput and latency rise with offered load, below the knee",
                 120.0):
        rows = sweep_load([0, 1000, 2000, 2500], seed=0)
        lines = sweep_csv(rows).splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 5
        assert all(row["committed_slots"] == SWEEP_SHAPE.cycles
                   for row in rows)
        offered = [row["offered_readings"] / SWEEP_SHAPE.cycles
                   for row in rows]
        committed = [row["committed_readings"] / row["committed_slots"]
                     for row in rows]
        assert offered == sorted(set(offered)), offered
        assert committed == sorted(set(committed)), committed
        # Past the knee a slot's backlog is resent every slot, so the
        # datagrams outgrow the readings they carry.
        for row in rows[1:]:
            assert row["datagrams_sent"] <= 1.2 * row["committed_readings"], (
                row)
        means = [row["mean_response_ms"] for row in rows]
        # Non-decreasing within a 5 percent noise allowance.
        for before, after in zip(means, means[1:]):
            assert after >= before * 0.95, means
