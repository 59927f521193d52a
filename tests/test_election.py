"""Registry-arbitrated election and the PING nonce.

The availability check itself runs inside the node runtime; its rules
(retries, nonce matching, other traffic kept) are tested in
``test_runtime``.
"""

import random

import pytest

from crowdmw.election import (
    AddressConflict,
    NodeRecord,
    Role,
    claim_leadership,
    elect_leader,
    live_records,
    make_nonce,
    pong_for,
    register_node,
)
from crowdmw.store import JournalStore
from crowdmw.transport import Message, MessageKind

WINDOW = 4000


@pytest.fixture
def store(tmp_path):
    journal = JournalStore(str(tmp_path / "registry.journal"))
    yield journal
    journal.close()


def _record(node_id, last_seen=0, role=Role.FOLLOWER):
    return NodeRecord(node_id=node_id, address=f"node{node_id}:7000",
                      role=role, last_seen=last_seen)


def test_register_and_snapshot(store):
    register_node(store, 3, "node3:7000", 100, WINDOW)
    register_node(store, 1, "node1:7000", 120, WINDOW)
    records = store.snapshot_nodes()
    assert [r.node_id for r in records] == [1, 3]
    assert all(r.role is Role.FOLLOWER for r in records)


def test_reregister_same_address_refreshes(store):
    register_node(store, 2, "node2:7000", 0, WINDOW)
    claim_leadership(store, 2, "node2:7000", 5)
    register_node(store, 2, "node2:7000", 50, WINDOW)
    record = store.node(2)
    assert record.last_seen == 50
    assert record.role is Role.LEADER  # refresh keeps the role


def test_register_conflicting_address_rejected(store):
    register_node(store, 2, "node2:7000", 0, WINDOW)
    with pytest.raises(AddressConflict):
        register_node(store, 2, "other:9999", 10, WINDOW)
    # Once the old record has aged out, the id can be reused.
    register_node(store, 2, "other:9999", WINDOW + 10, WINDOW)


def test_live_records_filters_by_window():
    records = (_record(1, last_seen=0), _record(2, last_seen=900))
    live = live_records(records, liveness_window_ms=500, now=1000)
    assert [r.node_id for r in live] == [2]
    live = live_records(records, liveness_window_ms=2000, now=1000)
    assert [r.node_id for r in live] == [1, 2]


def test_elect_leader_picks_max_live_id():
    assert elect_leader({1, 7, 4}) == 7


def test_elect_leader_ignores_stale_max():
    # A node elects among the ids ``live_records`` keeps.
    records = (_record(1, last_seen=1000), _record(9, last_seen=0))
    live = live_records(records, liveness_window_ms=500, now=1000)
    assert elect_leader({r.node_id for r in live}) == 1


def test_elect_leader_override():
    assert elect_leader({1, 7, 4}, 4) == 4
    # An override that is not live falls back to the maximum id.
    assert elect_leader({1, 7, 4}, 5) == 7


def test_claim_leadership_demotes_previous(store):
    register_node(store, 1, "node1:7000", 0, WINDOW)
    register_node(store, 2, "node2:7000", 0, WINDOW)
    claim_leadership(store, 1, "node1:7000", 10)
    claim_leadership(store, 2, "node2:7000", 20)
    roles = {r.node_id: r.role for r in store.snapshot_nodes()}
    assert roles == {1: Role.FOLLOWER, 2: Role.LEADER}


def test_nonce_and_pong_echo():
    rng = random.Random(3)
    nonce = make_nonce(rng)
    assert len(nonce) == 16
    assert nonce != make_nonce(rng)
    ping = Message(kind=MessageKind.PING, sender=4, cycle_id=2,
                   payload=nonce)
    pong = pong_for(ping, sender=9)
    assert pong.kind is MessageKind.PONG
    assert pong.sender == 9
    assert pong.cycle_id == 2
    assert pong.payload == nonce
