"""Scenario parsing, simulated runs, metrics distillation, reports.

Simulated runs here pin down behaviour end to end: totals against the
deduplicated ground truth, reading conservation under faults, and
byte-stable artifacts for the same seed.
"""

import os
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdmw import harness
from crowdmw.domain import (
    KEY_SHIFT,
    MAX_ROOM,
    MAX_TIMESTAMP,
    CountMode,
    SensorReading,
    TagCategory,
    key_reading,
    reading_key,
)
from crowdmw.harness import (
    ConfigError,
    FaultSpec,
    MetricsReport,
    ScenarioConfig,
    ScenarioDeadlock,
    SimCluster,
    SWEEP_HEADER,
    _percentile,
    build_metrics,
    build_workload,
    emit_report,
    load_scenario,
    parse_fault,
    parse_scenario,
    route_readings,
    run_scenario,
    sweep_csv,
    sweep_load,
)
from crowdmw.mapreduce import sequential_oracle
from crowdmw.runtime import ListReadingSource
from crowdmw.simgen import replay_fixture
from crowdmw.store import JournalStore
from crowdmw.transport import TransportMode

TABLE_VISITOR = {"man": 10, "other": 12, "woman": 21}
TABLE_ROOM = {"Room1": 2, "Room2": 5, "Room3": 5, "Room4": 4}


# -- fault expressions --------------------------------------------------------


def test_parse_fault_forms():
    kill = parse_fault("kill_leader@3000")
    assert (kill.kind, kill.at_ms) == ("kill_leader", 3000.0)
    node = parse_fault("kill_node@4000:2")
    assert (node.kind, node.at_ms, node.node_id) == ("kill_node", 4000.0, 2)
    loss = parse_fault("set_loss@5000:0.25")
    assert (loss.kind, loss.rate) == ("set_loss", 0.25)
    cut = parse_fault("partition@6000+2000:1,2")
    assert (cut.kind, cut.at_ms, cut.nodes, cut.duration_ms) == \
        ("partition", 6000.0, (1, 2), 2000.0)


@pytest.mark.parametrize("text", [
    "kill_leader",
    "melt_down@100",
    "kill_node@100",
    "kill_node@100:x",
    "kill_leader@abc",
    "kill_leader@100:3",
    "set_loss@100:1.5",
    "set_loss@100:",
    "partition@100:1,2",
    "partition@100+0:1,2",
    "partition@100+abc:1,2",
    "partition@100+500:",
    # A time or a duration must be a finite number.
    "kill_leader@nan",
    "kill_leader@inf",
    "partition@100+nan:1",
    "partition@100+inf:1",
    # Only a partition lasts: any other kind refuses a +duration.
    "kill_leader@3000+5",
    "kill_node@4000+100:2",
    "set_loss@5+3:0.1",
])
def test_parse_fault_rejects(text):
    with pytest.raises(ConfigError):
        parse_fault(text)


def test_fault_spec_validates_directly():
    with pytest.raises(ConfigError):
        FaultSpec(kind="kill_leader", at_ms=-1)
    with pytest.raises(ConfigError):
        FaultSpec(kind="set_loss", at_ms=0, rate=1.01)
    # total loss is a legal setting, not an error
    assert FaultSpec(kind="set_loss", at_ms=0, rate=1.0).rate == 1.0


# -- scenario text ------------------------------------------------------------

SCENARIO_TEXT = """\
# cluster shape
nodes = 4
cycles = 3
seed = 42

cycle_ms = 1000
window_ms = 300
min_responding = 3

loss_rate = 0.1
latency = 5:20
tx_us_per_byte = 2.5

visitors = 25
rooms = 3
backend = sim

fault = kill_leader@1500
fault = set_loss@2000:0.0
"""


def test_parse_scenario_full():
    config = parse_scenario(SCENARIO_TEXT)
    assert config.nodes == 4
    assert config.cycles == 3
    assert config.seed == 42
    assert config.cycle_duration_ms == 1000
    assert config.mapreduce_window_ms == 300
    assert config.min_responding_nodes == 3
    assert config.loss_rate == 0.1
    assert config.latency_ms == (5.0, 20.0)
    assert config.transmission_us_per_byte == 2.5
    assert config.visitors == 25
    assert config.rooms == 3
    assert config.backend is TransportMode.SIMULATED
    assert [f.kind for f in config.faults] == ["kill_leader", "set_loss"]


def test_parse_scenario_defaults():
    config = parse_scenario("")
    assert config.nodes == 3
    assert config.cycles == 2
    assert config.cycle_duration_ms == 2000
    assert config.faults == ()


@pytest.mark.parametrize("text", [
    "bogus_key = 1",
    "nodes",
    "nodes = many",
    "latency = 40",
    "mode = both",
    "backend = carrier_pigeon",
    "fault = melt_down@100",
    "cycles = 0",
    "window_ms = 5000",
    "loss_rate = 2.0",
    "visitors = -1",
    "retry_limit = 3",
    "latency = nan:nan",
    "latency = 5:inf",
    "tx_us_per_byte = nan",
    "tx_us_per_byte = inf",
    "fault = partition@100+nan:1",
    "fault = kill_leader@nan",
    "cycle_ms = 0",
    "window_ms = 0",
    "window_ms = 2000",
    "cycle_ms = 400\nwindow_ms = 500",
    "min_responding = 1",
    "ping_timeout_ms = 0",
    "ping_retries = 0",
    "nodes = 3\nnodes = 5",
    "seed = 1\n\nseed = 1",
    "latency = 5:20\nlatency = 5:30",
    "backend = sim\n# again\nbackend = udp",
    "fixture = table1\nfixture = table1",
    "entries_per_part = 0",
    "entries_per_part = -3",
    "fixture = nope",
])
def test_parse_scenario_rejects(text):
    with pytest.raises(ConfigError):
        parse_scenario(text)


def test_parse_scenario_names_the_repeated_line():
    with pytest.raises(ConfigError,
                       match="line 3: 'nodes' is already set on line 1"):
        parse_scenario("nodes = 3\ncycles = 2\nnodes = 5")


@pytest.mark.parametrize("text, stray", [
    ("fault = kill_node@100:9", "[9]"),
    ("fault = partition@100+500:7,8", "[7, 8]"),
    ("fault = partition@100+500:0,3", "[0]"),
    ("override_leader = 12", "[12]"),
    ("override_leader = 0", "[0]"),
])
def test_parse_scenario_refuses_ids_that_name_no_node(text, stray):
    # Three nodes: a fault or override naming any other id would do
    # nothing at run time, so it is refused before anything runs.
    assert parse_scenario("fault = kill_node@100:3\n"
                          "fault = partition@100+500:1,2\n"
                          "override_leader = 3").nodes == 3
    with pytest.raises(ConfigError, match=re.escape(stray)):
        parse_scenario(text)


def test_parse_scenario_refuses_a_room_past_the_symbol_table():
    # Each reading travels as one symbol, and symbols run out past
    # MAX_ROOM, so such a room is refused before anything runs.
    assert parse_scenario(f"rooms = {MAX_ROOM}").rooms == MAX_ROOM
    with pytest.raises(ConfigError, match="rooms"):
        parse_scenario(f"rooms = {MAX_ROOM + 1}")


def test_scenario_refuses_a_horizon_past_the_key_timestamps():
    # A reading key packs its timestamp in 64 bits, so a run whose
    # horizon passes MAX_TIMESTAMP ms is refused before anything runs.
    last = ScenarioConfig(cycles=1, cycle_duration_ms=MAX_TIMESTAMP)
    assert last.cycles * last.cycle_duration_ms == MAX_TIMESTAMP
    with pytest.raises(ConfigError, match=str(MAX_TIMESTAMP)):
        ScenarioConfig(cycles=2, cycle_duration_ms=MAX_TIMESTAMP)
    with pytest.raises(ConfigError, match=str(MAX_TIMESTAMP)):
        parse_scenario(f"cycles = 1\ncycle_ms = {MAX_TIMESTAMP + 1}")


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "run.scenario"
    path.write_text(SCENARIO_TEXT, encoding="utf-8")
    assert load_scenario(str(path)) == parse_scenario(SCENARIO_TEXT)


def test_injection_window_defaults():
    assert ScenarioConfig(cycles=3).injection_window_ms() == 4000.0
    assert ScenarioConfig(cycles=1).injection_window_ms() == 1500.0


@pytest.mark.parametrize("setting", [
    dict(rooms=0),
    dict(double_read_rate=1.5),
])
def test_bad_workload_setting_is_config_error(setting):
    with pytest.raises(ConfigError):
        ScenarioConfig(visitors=30, **setting)


# -- workload routing ---------------------------------------------------------


def test_route_readings_round_robin_by_room():
    keys = [reading_key(SensorReading(tag=TagCategory.MAN, room=room,
                                      timestamp=room))
            for room in (1, 2, 3, 4, 5)]
    routed = route_readings(keys, [30, 10, 20])
    assert [key_reading(k).room for k in routed[10]] == [1, 4]
    assert [key_reading(k).room for k in routed[20]] == [2, 5]
    assert [key_reading(k).room for k in routed[30]] == [3]
    # A source releases each routed reading at its own timestamp.
    for node in routed.values():
        for key in node:
            timestamp = key_reading(key).timestamp
            source = ListReadingSource(node)
            assert key not in source.take_due(timestamp - 0.5)
            assert key in source.take_due(float(timestamp))


_READINGS = st.builds(SensorReading, tag=st.sampled_from(TagCategory),
                      room=st.integers(1, MAX_ROOM),
                      timestamp=st.integers(0, 10**6))


@given(readings=st.lists(_READINGS, max_size=60),
       node_ids=st.sets(st.integers(1, 100), min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_route_readings_matches_per_key_reference(readings, node_ids):
    keys = [reading_key(reading) for reading in readings]
    order = sorted(node_ids)
    expected = {node_id: [] for node_id in order}
    for key in keys:
        room = key_reading(key).room
        expected[order[(room - 1) % len(order)]].append(key)
    assert route_readings(keys, list(node_ids)) == expected


def test_build_workload_fixture_lands_on_lowest_id():
    config = ScenarioConfig(fixture="table1")
    routed, generated = build_workload(config)
    assert len(routed[1]) == 16
    assert routed[2] == [] and routed[3] == []
    assert generated is None


def test_fixture_keys_go_first_within_their_millisecond():
    # Keys of one millisecond keep their order: the fixture's first,
    # then the generated ones in stream order, never sorted by symbol.
    # One cycle injects over 1 500 ms, so the fixture's first 150 ms
    # share milliseconds with generated readings.
    config = ScenarioConfig(visitors=400, seed=11, fixture="table1",
                            cycles=1, rooms=40)
    routed, keys = build_workload(config)
    fixture = [reading_key(r) for r in replay_fixture("table1")]
    generated = route_readings(keys, config.node_ids())[1]
    stamps = {key >> KEY_SHIFT for key in fixture}
    assert stamps & {key >> KEY_SHIFT for key in generated}
    assert routed[1] == sorted(fixture + generated,
                               key=lambda key: key >> KEY_SHIFT)
    for stamp in stamps:
        due = [key for key in routed[1] if key >> KEY_SHIFT == stamp]
        assert due[0] in fixture


def test_build_workload_routes_every_generated_key():
    config = ScenarioConfig(visitors=30, seed=9, cycles=3)
    routed, generated = build_workload(config)
    assert generated
    assert sorted(key for items in routed.values() for key in items) == \
        sorted(generated)


# -- metrics ------------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert _percentile(samples, 50) == 20.0
    assert _percentile(samples, 95) == 40.0
    assert _percentile([7.0], 99) == 7.0
    assert _percentile([], 50) == 0.0


SYNTHETIC_EVENTS = [
    "t=100.000 node=1 send kind=ping to=node3:7000 cycle=0 bytes=0",
    "t=130.000 node=1 recv kind=pong from=node3:7000 cycle=0 bytes=0",
    "t=200.000 node=1 send kind=data_submit to=node3:7000 cycle=0 bytes=40",
    "t=210.000 node=2 send kind=data_submit to=node3:7000 cycle=0 bytes=40",
    "t=450.000 node=1 recv kind=cycle_success from=node3:7000 cycle=0 bytes=8",
    "t=470.000 node=2 recv kind=cycle_success from=node3:7000 cycle=0 bytes=8",
    "t=480.000 node=3 commit cycle=0 rows=8 total=16",
    "t=900.000 node=3 abort cycle=1 reason=min_responding",
]


def test_build_metrics_from_synthetic_log():
    report = build_metrics(SYNTHETIC_EVENTS, cycle_ms=500)
    assert report.rtt_ms == [30.0]
    assert sorted(report.response_ms) == [250.0, 260.0]
    # First leader-sourced byte per (node, slot), measured from the
    # slot start: pong at 130 for node 1, success at 470 for node 2.
    assert sorted(report.ttfb_ms) == [130.0, 470.0]
    assert [c.outcome for c in report.cycles] == ["commit",
                                                  "abort:min_responding"]
    assert report.cycles[0].rows == 8
    assert report.cycles[0].total_readings == 16


def test_late_pong_pairs_with_the_ping_of_its_cycle():
    # Node 3's cycle-22 PONG arrives after its cycle-23 PING went out:
    # it answers the cycle-22 PING, 2 131.45 ms earlier, not the latest.
    events = [
        "t=44000.000 node=3 send kind=ping to=node5:7000 cycle=22 bytes=8",
        "t=46000.000 node=3 send kind=ping to=node5:7000 cycle=23 bytes=8",
        "t=46131.450 node=3 recv kind=pong from=node5:7000 cycle=22 bytes=8",
    ]
    report = build_metrics(events, cycle_ms=2000)
    assert report.rtt_ms == [pytest.approx(2131.45)]


def test_lossy_run_rtt_samples_are_round_trips(tmp_path):
    # Lost PINGs leave some unanswered.  Each pong pairs with its node's
    # PING of the cycle it echoes, so no sample spans a lost one; paired
    # first in, first out over the run, this run's median read over 2 s.
    config = ScenarioConfig(nodes=4, cycles=8, seed=1, visitors=20,
                            loss_rate=0.2)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.metrics.rtt_ms
    assert max(report.metrics.rtt_ms) <= 2 * config.latency_ms[1]


def test_metrics_csv_shapes():
    report = build_metrics(SYNTHETIC_EVENTS, cycle_ms=500)
    metrics_lines = report.metrics_csv().splitlines()
    assert metrics_lines[0] == "metric,count,mean_ms,p50_ms,p95_ms,p99_ms"
    assert [line.split(",")[0] for line in metrics_lines[1:]] == \
        ["response", "rtt", "ttfb"]
    summary_lines = report.summary_csv().splitlines()
    assert summary_lines[0] == "cycle,outcome,rows,total_readings,finished_ms"
    assert len(summary_lines) == 3


def test_empty_metrics_do_not_divide_by_zero():
    report = MetricsReport()
    assert "response,0,0.000" in report.metrics_csv()
    assert report.summary_csv().splitlines() == [
        "cycle,outcome,rows,total_readings,finished_ms"]


# -- simulated runs -----------------------------------------------------------


def test_reference_scenario_totals(tmp_path):
    config = ScenarioConfig(fixture="table1", seed=1)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.visitor_totals == TABLE_VISITOR
    assert report.room_totals == TABLE_ROOM
    assert report.leader_id == 3
    assert report.commits >= 1
    assert report.reconciliation.conserves()
    assert report.reconciliation.committed == 16


def test_generated_scenario_matches_its_keys(tmp_path):
    config = ScenarioConfig(visitors=40, cycles=4, seed=21)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    deduped = map(key_reading, dict.fromkeys(report.ledger))
    assert report.visitor_totals == sequential_oracle(deduped,
                                                      CountMode.VISITOR)
    assert report.reconciliation.conserves()
    assert report.reconciliation.pending_live == 0


def test_conservation_counts_what_the_buffers_hold(tmp_path):
    # At t=1600 every reading ingested at the collection end is pending
    # on a live node.  An ack the store never recorded then prunes node
    # 1's buffer: counted from the ingest record, the readings it lost
    # still looked pending and the run still conserved.
    config = ScenarioConfig(nodes=3, cycles=1, seed=5, visitors=30)
    store = JournalStore(str(tmp_path / "store.journal"))
    try:
        cluster = SimCluster(config, store)
        cluster.start()
        cluster.run(1600.0)

        def reconcile():
            return harness._reconcile(store, cluster.nodes, cluster.sources,
                                      cluster.ingested)

        before = reconcile()
        buffer = cluster.nodes[1].buffer
        assert before.conserves() and before.committed == 0
        assert before.pending_live == before.ingested and len(buffer) > 0
        lost = buffer.prune_through(buffer.next_seq - 1)
        after = reconcile()
    finally:
        store.close()
    assert after.pending_live == before.pending_live - lost
    assert not after.conserves()


def test_lossy_run_with_leader_kill_conserves(tmp_path):
    config = ScenarioConfig(
        nodes=5, visitors=60, cycles=6, seed=13, loss_rate=0.2,
        faults=(parse_fault("kill_leader@2500"),
                parse_fault("set_loss@9000:0.0")))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.reconciliation.conserves()
    assert report.commits >= 1
    # The dead node held the crown; a survivor must hold it now.
    assert report.leader_id in {1, 2, 3, 4}


def test_partition_blocks_then_heals(tmp_path):
    config = ScenarioConfig(
        nodes=3, visitors=30, cycles=5, seed=8,
        faults=(parse_fault("partition@2500+2000:1,2"),))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.reconciliation.conserves()
    assert report.commits >= 1


def _faulted_config(seed):
    """3-8 nodes, loss 0-0.2 and two to five random faults."""
    rng = random.Random(seed)
    nodes = rng.randint(3, 8)
    cycles = rng.randint(4, 6)
    faults = []
    for _ in range(rng.randint(2, 5)):
        at = float(rng.randrange(0, cycles * 2000, 50))
        kind = rng.choice(("kill_node", "kill_leader", "partition",
                           "set_loss"))
        if kind == "kill_node":
            faults.append(FaultSpec(kind, at, node_id=rng.randint(1, nodes)))
        elif kind == "kill_leader":
            faults.append(FaultSpec(kind, at))
        elif kind == "partition":
            group = tuple(sorted(rng.sample(range(1, nodes + 1),
                                            rng.randint(1, nodes // 2))))
            duration_ms = float(rng.randint(1, 6) * 500)
            faults.append(FaultSpec(kind, at, nodes=group,
                                    duration_ms=duration_ms))
        else:
            faults.append(FaultSpec(kind, at, rate=rng.uniform(0.0, 0.2)))
    return ScenarioConfig(nodes=nodes, cycles=cycles, seed=seed,
                          visitors=10 * nodes,
                          loss_rate=rng.choice((0.0, 0.05, 0.1, 0.2)),
                          faults=tuple(faults))


@pytest.mark.parametrize("seed", range(40))
def test_live_buffer_holds_what_was_ingested_above_its_watermark(
        seed, tmp_path):
    config = _faulted_config(seed)
    store = JournalStore(str(tmp_path / "store.journal"))
    try:
        cluster = SimCluster(config, store)
        cluster.start()
        cluster.run(float(config.cycles * config.cycle_duration_ms))
    except ScenarioDeadlock:
        pass
    finally:
        store.close()
    for node_id, node in cluster.nodes.items():
        if node.killed:
            continue
        watermark = node.buffer.committed_through
        held = sorted((seq, pair.key, pair.value)
                      for pair, seq in node.buffer.entries())
        assert held == [(seq, reading.tag.value, reading.room)
                        for seq, reading in cluster.ingested[node_id]
                        if seq > watermark]


def test_two_node_floor_aborts_without_peer(tmp_path):
    config = ScenarioConfig(
        nodes=2, visitors=10, cycles=3, seed=4,
        faults=(parse_fault("kill_node@500:1"),))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.commits == 0
    assert report.aborts >= 1
    assert any("abort" in line and "min_responding" in line
               for line in report.events)


def test_same_seed_same_artifacts(tmp_path):
    config_text = (
        "nodes = 4\ncycles = 4\nseed = 77\nvisitors = 35\n"
        "loss_rate = 0.15\nfault = kill_leader@3000\n"
    )
    outputs = []
    for run in ("a", "b"):
        config = parse_scenario(config_text)
        report = run_scenario(config, str(tmp_path / f"{run}.journal"))
        out_dir = str(tmp_path / run)
        emit_report(report, out_dir)
        blob = {}
        for name in ("events.log", "metrics.csv", "summary.csv"):
            with open(os.path.join(out_dir, name), "rb") as handle:
                blob[name] = handle.read()
        with open(str(tmp_path / f"{run}.journal"), "rb") as handle:
            blob["journal"] = handle.read()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_emit_report_reemit_identical(tmp_path):
    config = ScenarioConfig(fixture="table1", seed=1)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    first = emit_report(report, str(tmp_path / "out"))
    before = [pathlib.Path(path).read_bytes() for path in first]
    second = emit_report(report, str(tmp_path / "out"))
    assert first == second
    assert [pathlib.Path(path).read_bytes() for path in second] == before


@pytest.mark.parametrize("fields, faults", [
    ({}, ("kill_node@100:1", "kill_node@150:2", "set_loss@70000:0.5")),
    ({"backend": TransportMode.UDP, "cycle_duration_ms": 200,
      "mapreduce_window_ms": 80, "ping_timeout_ms": 20},
     ("kill_node@100:1", "kill_node@150:2", "set_loss@7000:0.5")),
], ids=["sim", "udp"])
def test_dead_cluster_trips_deadlock_guard(tmp_path, fields, faults):
    # Every node dies early while a far-future fault keeps the scenario
    # nominally alive; the watchdog must refuse to idle through it, on
    # the wall clock as on the virtual one.
    config = ScenarioConfig(nodes=2, cycles=40, seed=2,
                            faults=tuple(map(parse_fault, faults)), **fields)
    with pytest.raises(ScenarioDeadlock):
        run_scenario(config, str(tmp_path / "store.journal"))


def test_deadlock_guard_checks_every_datagram_of_a_batch(tmp_path):
    # Both nodes die at 100 ms with two datagrams in flight, due at
    # 12 687 and 26 949 ms.  The first lands inside the budget; the
    # second, landed in the same run of deliveries, is past it.
    config = ScenarioConfig(
        nodes=2, cycles=20, seed=1, visitors=10,
        latency_ms=(10_000.0, 30_000.0),
        faults=(parse_fault("kill_node@100:1"),
                parse_fault("kill_node@100:2")))
    with JournalStore(str(tmp_path / "store.journal")) as store:
        cluster = SimCluster(config, store)
        cluster.start()
        with pytest.raises(ScenarioDeadlock,
                           match="between 0 and 26949 ms"):
            cluster.run(40_000.0)
    assert cluster.network.dropped == 1


def test_total_blackout_reelects_without_deadlock(tmp_path):
    # Total datagram loss starves every cycle, but nodes keep claiming
    # leadership through the shared registry; that is progress, so the
    # watchdog stays quiet and the run ends with zero commits.
    config = ScenarioConfig(
        nodes=2, cycles=4, seed=8, visitors=10,
        faults=(parse_fault("set_loss@0:1.0"),))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.commits == 0
    assert report.visitor_totals == {}
    claims = [line for line in report.events if " leader_claimed " in line]
    assert len(claims) >= config.cycles


def test_udp_backend_smoke(tmp_path):
    config = ScenarioConfig(
        fixture="table1", seed=1, backend=TransportMode.UDP,
        cycle_duration_ms=800, mapreduce_window_ms=300)
    report = run_scenario(config, str(tmp_path / "store.journal"))
    assert report.visitor_totals == TABLE_VISITOR
    assert report.room_totals == TABLE_ROOM
    assert report.reconciliation.conserves()


def test_udp_backend_kills_a_node_once(tmp_path):
    # The second kill_node finds node 1 dead already: no second line.
    config = ScenarioConfig(
        fixture="table1", seed=1, backend=TransportMode.UDP,
        cycle_duration_ms=800, mapreduce_window_ms=300,
        faults=(parse_fault("kill_node@100:1"),
                parse_fault("kill_node@300:1")))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    killed = [line for line in report.events if line.endswith(" killed")]
    assert len(killed) == 1 and " node=1 killed" in killed[0]
    assert report.nodes[1].killed


def test_udp_partition_cuts_traffic_and_heals(tmp_path):
    # Node 1 is cut off from nodes 2 and 3 for 1.5 s of three 800 ms
    # slots: no datagram crosses the cut inside the window, and after
    # it heals every slot still commits and every reading is counted.
    config = ScenarioConfig(
        nodes=3, cycles=3, seed=1, visitors=200, backend=TransportMode.UDP,
        cycle_duration_ms=800, mapreduce_window_ms=300,
        faults=(parse_fault("partition@100+1500:1"),))
    report = run_scenario(config, str(tmp_path / "store.journal"))
    cut = next(line for line in report.events if " partition " in line)
    start = float(cut.split()[0].partition("=")[2])
    end = float(cut.rpartition("until=")[2])
    crossings = []
    for line in report.events:
        fields = harness._parse_event(line)
        if (fields["event"] == "recv" and start <= float(fields["t"]) < end
                and (fields["node"] == "1") != (fields["from"] == "1")):
            crossings.append(line)
    assert crossings == []
    assert report.reconciliation.conserves()
    assert report.committed_cycles == [0, 1, 2]


def test_udp_kills_at_random_times_land_between_handlers(tmp_path):
    # Eight nodes, six kills each at random times in two 200 ms slots:
    # a node is only touched from ``SimCluster``'s one loop, so a kill
    # never lands inside a handler and no node logs a line after its
    # ``killed`` line.
    rng = random.Random(5)
    for run in range(6):
        faults = tuple(
            parse_fault(f"kill_node@{rng.uniform(0, 390):.1f}:"
                        f"{rng.randint(1, 8)}")
            for _ in range(6))
        config = ScenarioConfig(
            nodes=8, cycles=2, seed=run, visitors=400,
            backend=TransportMode.UDP, cycle_duration_ms=200,
            mapreduce_window_ms=80, ping_timeout_ms=20, faults=faults)
        report = run_scenario(config, str(tmp_path / f"run{run}.journal"))
        dead = set()
        for line in report.events:
            node = line.split()[1]
            assert node not in dead, line
            if line.endswith(" killed"):
                dead.add(node)


# -- sweep --------------------------------------------------------------------


def test_sweep_rejects_negative_counts():
    with pytest.raises(ConfigError):
        sweep_load([-5])


def test_sweep_rows_and_csv():
    rows = sweep_load([0, 40])
    assert [row["visitors"] for row in rows] == [0, 40]
    assert rows[0]["offered_readings"] == rows[0]["committed_readings"] == 0
    assert rows[1]["committed_readings"] > 0
    assert rows[1]["mean_response_ms"] > 0.0
    # Identical timer schedule before load: control-plane latency stays
    # flat while response tracks volume.
    assert rows[0]["rtt_ms"] == pytest.approx(rows[1]["rtt_ms"], rel=0.2)
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,0,0,")


def test_sweep_repeated_count_gives_equal_rows():
    # Each point journals afresh: a point that recovered an earlier
    # point's journal had its readings swallowed by the old acks.
    first, second = sweep_load([40, 40], seed=0)
    assert first["committed_readings"] > 0
    assert first == second


def test_sweep_csv_header_only_for_no_counts():
    assert sweep_csv([]) == SWEEP_HEADER + "\n"
