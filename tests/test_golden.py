"""Pinned seeded artifacts: wire format v1 and the journal layout.

The rerun test in ``test_acceptance`` proves a seed reproduces itself
within one build.  These hashes prove more: a change to the pipeline,
the codec or the journal that alters a single byte of ``events.log``
or of the journal shows up here, even when both reruns agree.  A
change that alters either on purpose updates the hashes and says why.
"""

import hashlib

import pytest

from crowdmw.harness import ScenarioConfig, SimCluster
from crowdmw.store import JournalStore

GOLDEN = {
    # Volume path: many readings per datagram, sorted runs, 8 KB frames.
    "crowd": (
        dict(nodes=5, cycles=4, visitors=2000, seed=11),
        "6805ccd709646a0c36c0e09ae52bc769db8c769fd2922c2a2a084829bec54425",
        "8065b5f9c86981dc7e7a0e4b77d03a56787b23f81b18846658f6f413d1ac73fb",
    ),
    # One entry per datagram under loss: aborts, a fallback reduce and
    # resubmissions deduplicated against the ack watermarks.
    "one-per-part-lossy": (
        dict(nodes=4, cycles=8, visitors=200, seed=23, entries_per_part=1,
             loss_rate=0.05, transmission_us_per_byte=15.0),
        "66246bcc9df1c6497643bbe01962801517a2d8e0d20303c051e3503f50898a2c",
        "743b15ce9c14326f78a840893be83108b8322c8480b77c91c610f5a99c5043f8",
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
