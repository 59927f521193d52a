"""Pinned seeded artifacts: wire format v2 and the journal layout.

The rerun test in ``test_acceptance`` proves a seed reproduces itself
within one build.  These hashes prove more: a change to the pipeline,
the codec or the journal that alters a single byte of ``events.log``
or of the journal shows up here, even when both reruns agree.  A
change that alters either on purpose updates the hashes and says why.
"""

import hashlib

import pytest

from crowdmw.harness import ScenarioConfig, SimCluster, parse_fault
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
        "2e794ce0856fe249786163fe40eec6b70f8485d1d7c54ee62281fa0969e3101b",
        "a1c3f1432918bc8e6f1bed86fc90b00f660d6cc6e64bb5314e87b51336fb0940",
    ),
    # Eight nodes under loss with two leader kills, a partition and two
    # loss changes: kills and deliveries reschedule node timers mid-run.
    "faults-wide": (
        dict(nodes=8, cycles=12, visitors=300, seed=7, loss_rate=0.03,
             faults=tuple(parse_fault(text) for text in (
                 "kill_leader@4100", "partition@9000+3000:1,2,3",
                 "set_loss@12500:0.1", "kill_leader@16100",
                 "set_loss@20000:0.02"))),
        "934123447b12cdd02975ea3bc9b88f4bc208918265abf559549e31814ff4e8e1",
        "e5a52ae22cca5584a0e8b61459bbf96cb8e906c336c0f0f239a1e18be72ec42d",
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
