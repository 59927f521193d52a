"""Pinned seeded artifacts: wire format v2 and the journal layout.

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
    # Volume path: many readings per datagram, sorted runs, 8 KB frames.
    "crowd": (
        dict(nodes=5, cycles=4, visitors=2000, seed=11),
        "c9c5bcf9b4b21d7c6d3bce2cbae4696e5002bc5e6e18d1ce4bbd80c8f071a4c5",
        "8065b5f9c86981dc7e7a0e4b77d03a56787b23f81b18846658f6f413d1ac73fb",
    ),
    # One entry per datagram under loss: aborts, a fallback reduce and
    # resubmissions deduplicated against the ack watermarks.
    "one-per-part-lossy": (
        dict(nodes=4, cycles=8, visitors=200, seed=23, entries_per_part=1,
             loss_rate=0.05, transmission_us_per_byte=15.0),
        "4ac47b817f75a8eb469c7b74df1e58ec575ef9390cbe1ff5d3714e385ee36b75",
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
        "a695240b557d9f91c2a8813e9a4ce5daf66463b35ceaddd5ae5a6108b85161e1",
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
        "eb72e055f443d197e91a6fe9906711a906852b8b783c012b1407ad04b3ade99a",
        "0ed94b61ef8e099c5e2c4219c1aa9b5f077fb48d2ac55872f5dfe65ba992df30",
    ),
    # The benchmark's crowd-peak and trickle workloads at full size,
    # seed 1: the generator's draws at the scale the benchmark runs
    # them (66 k readings for crowd-peak).
    "crowd-peak-full": (
        dict(nodes=5, cycles=8, visitors=15000, seed=1),
        "2818303e7ffc0628afa0cb500da7d28c1d04b9d7873410f7469e7fb62803c5fd",
        "2c044ae0d979ea5b599ef4671233fb570a507088b38acd9db202188c573ac43c",
    ),
    "trickle-full": (
        dict(nodes=5, cycles=24, visitors=1750, seed=1, entries_per_part=1,
             transmission_us_per_byte=15.0),
        "984da510d452fdd7020dc59a6c17cd7cda438dd1624641c99a26acc7605979a6",
        "07782a76d0c3c83afb54aa750277bb40a02a9a631d5abb6c18579697bde2002d",
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
# ``0,297.794,``, ``40,303.612,`` and ``200,343.309,``.
SWEEP_SHA = "4a778d42d21bc552088060a257a41192f5aa28732a3f4921deaea3bc01edb623"


def test_sweep_csv_matches_pinned_hash(tmp_path):
    csv = sweep_csv(sweep_load([0, 40, 200], seed=0,
                               store_dir=str(tmp_path)))
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == SWEEP_SHA
