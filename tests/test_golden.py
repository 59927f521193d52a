"""Pinned seeded artifacts: wire format v3 and the journal layout.

The rerun test in ``test_acceptance`` proves a seed reproduces itself
within one build.  These hashes prove more: a change to the pipeline,
the codec or the journal that alters a single byte of ``events.log``,
of the journal or of the load sweep's CSV shows up here, even when
both reruns agree.  A change that alters any of them on purpose
updates the hashes and says why.
"""

import hashlib

import pytest

from crowdmw.harness import (
    ScenarioConfig,
    SimCluster,
    parse_fault,
    sweep_csv,
    sweep_load,
)
from crowdmw.store import JournalStore

GOLDEN = {
    # Volume path: many readings per datagram, one symbol each, and
    # segments as sorted runs.
    "crowd": (
        dict(nodes=5, cycles=4, visitors=2000, seed=11),
        "6b5ee364daf5bae7a25427d8cb0c1b523b26c5fdd79689ae2b32851bb505837c",
        "814c6bfd0fb76aacb210b492a5c1d9cf2a040a28a56ddd33bc6336a50e21c7a3",
    ),
    # One entry per datagram under loss: aborts, a fallback reduce and
    # resubmissions deduplicated against the ack watermarks.
    "one-per-part-lossy": (
        dict(nodes=4, cycles=8, visitors=200, seed=23, entries_per_part=1,
             loss_rate=0.05, transmission_us_per_byte=15.0),
        "60ca33b7754c1d864cf6a7e2b79e54f66a18e8c94f436b48801a3e72218ad4f6",
        "84e3b352ff8510d6c8ba5183595dc25ed4f106a367e440d277f867207ba2d801",
    ),
    # Eight nodes under loss with two leader kills, a partition and two
    # loss changes: kills and deliveries reschedule node timers mid-run.
    "faults-wide": (
        dict(nodes=8, cycles=12, visitors=300, seed=7, loss_rate=0.03,
             faults=tuple(parse_fault(text) for text in (
                 "kill_leader@4100", "partition@9000+3000:1,2,3",
                 "set_loss@12500:0.1", "kill_leader@16100",
                 "set_loss@20000:0.02"))),
        "b88630414e6c78a8b0f05c37521662a26cfd90a7d7377783468052591d4229db",
        "53f69da4cee1bfb04d5eccda006de7599ba02b8cfde733847b361f4f3aa3e712",
    ),
    # A manual override under loss, then the override is killed: every
    # slot checks node 2 first, and after the kill finds it unreachable
    # and elects the highest live id instead.
    "override-kill": (
        dict(nodes=5, cycles=8, visitors=200, seed=5, override_leader=2,
             loss_rate=0.05,
             faults=tuple(parse_fault(text) for text in (
                 "kill_leader@4100", "set_loss@9000:0.0"))),
        "7136c6a6094d5f9afec9f21728c4ec7da347ed5a37584ab9bfda3cf9ca938847",
        "0ed94b61ef8e099c5e2c4219c1aa9b5f077fb48d2ac55872f5dfe65ba992df30",
    ),
    # The benchmark's crowd-peak and trickle workloads at full size,
    # seed 1: the generator's draws at the scale the benchmark runs
    # them (66 k readings for crowd-peak).
    "crowd-peak-full": (
        dict(nodes=5, cycles=8, visitors=15000, seed=1),
        "6d51d5e3bf4006d90d2ae884f7c2730f36a58b2aa63d0717d0e638e84bb8e78b",
        "1f57beb9152326128abe680f963f52d3b9045a2dc2eb82c1c54d73086c10961c",
    ),
    # The fixture on node 1 shares six milliseconds with generated
    # readings, and readings of one millisecond mix one- and two-byte
    # symbols in four-symbol parts.  A source must keep readings of a
    # millisecond in their routed order: sorting them by symbol moves
    # bytes between parts.
    "fixture-and-visitors": (
        dict(nodes=3, cycles=3, visitors=400, seed=11, fixture="table1",
             inject_ms=300.0, rooms=40, entries_per_part=4),
        "0e353046253ef47dcd862074793e01e5d8c326e065c7eb945b0da8512c268ed5",
        "ff62034f7b81f9aaaa866e038d93c010b9370c266aa68a9674826a8a4073e0fe",
    ),
    # 20 000 rooms: symbols of three UTF-8 bytes on both sides of the
    # UTF-16 surrogate gap (rooms past 18 412 skip it).
    "wide-rooms": (
        dict(nodes=3, cycles=3, visitors=300, rooms=20000, seed=4),
        "1d918739cfdcd0cc90ff699517d7ff79e2c8fe647556b67f4d13db197dbdf5c6",
        "113828803a8eaa79f6c62328a4fb93d622a838e855c19d2ab441d443efdc6f45",
    ),
    "trickle-full": (
        dict(nodes=5, cycles=24, visitors=1750, seed=1, entries_per_part=1,
             transmission_us_per_byte=15.0),
        "1012f6cacfd231e4fdcea7e3876860c8018f0342ada96135287d918c45683ba9",
        "f23495e9dbdc29b10b66afe0d1ed092eadec9c9f20c70e3e4da1a3970cdd584c",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_seeded_artifacts_match_pinned_hashes(shape, tmp_path):
    params, events_sha, journal_sha = GOLDEN[shape]
    journal = tmp_path / "golden.journal"
    store = JournalStore(str(journal))
    try:
        cluster = SimCluster(ScenarioConfig(**params), store)
        cluster.start()
        cluster.run(float(params["cycles"] * 2000))
    finally:
        store.close()
    events = "".join(line + "\n" for line in cluster.events).encode("utf-8")
    assert hashlib.sha256(events).hexdigest() == events_sha
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == journal_sha


# Three volumes of one-entry requests, seed 0; the rows begin
# ``0,297.869,``, ``40,303.237,`` and ``200,340.325,``.
SWEEP_SHA = "16a01b9276dff2316f714c16f1fde0ff072c982dbd928db72682a862a76705cd"


def test_sweep_csv_matches_pinned_hash(tmp_path):
    csv = sweep_csv(sweep_load([0, 40, 200], seed=0,
                               store_dir=str(tmp_path)))
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == SWEEP_SHA
