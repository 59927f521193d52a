"""Registry-backed leader election: highest live node id wins.

Nodes register themselves in the shared store and refresh a last-seen
timestamp.  A record counts as live while its last-seen is within the
liveness window (twice the availability-check interval by default).
Election is a pure function of the registry snapshot plus an optional
manual override; availability of a live-looking winner is verified
separately with a PING round trip.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from crowdmw.domain import MiddlewareError
from crowdmw.transport import Message, MessageKind

NodeId = int


class AddressConflict(MiddlewareError):
    """A live registration already claims this node id elsewhere."""


class EmptyRegistry(MiddlewareError):
    """No live records to elect from."""


class OverrideNotLive(MiddlewareError):
    """Manual override names a node without a live registration."""


class Role(enum.Enum):
    LEADER = "leader"
    FOLLOWER = "follower"


@dataclass(frozen=True)
class NodeRecord:
    """One registry row: who, where, role, and freshness."""

    node_id: NodeId
    address: str
    role: Role
    last_seen: int

    def __post_init__(self) -> None:
        if self.node_id < 1:
            raise ValueError(f"node id must be positive, got {self.node_id}")
        if ":" not in self.address:
            raise ValueError(f"address must be host:port, got {self.address!r}")
        if self.last_seen < 0:
            raise ValueError("last_seen must be >= 0")


@dataclass(frozen=True)
class RegistrySnapshot:
    """Point-in-time view of the node table, sorted by node id."""

    records: tuple[NodeRecord, ...]
    taken_at: int

    def __post_init__(self) -> None:
        ids = [r.node_id for r in self.records]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate node ids in snapshot")
        leaders = [r for r in self.records if r.role is Role.LEADER]
        if len(leaders) > 1:
            raise ValueError("snapshot holds more than one leader")

    def record_for(self, node_id: NodeId) -> Optional[NodeRecord]:
        for record in self.records:
            if record.node_id == node_id:
                return record
        return None

    def leader_record(self) -> Optional[NodeRecord]:
        for record in self.records:
            if record.role is Role.LEADER:
                return record
        return None


def live_records(snapshot: RegistrySnapshot, liveness_window_ms: int,
                 now: Optional[int] = None) -> list[NodeRecord]:
    """Records whose last-seen falls within the liveness window."""
    at = snapshot.taken_at if now is None else now
    return [
        r for r in snapshot.records if r.last_seen + liveness_window_ms >= at
    ]


def register_node(store, node_id: NodeId, address: str, now: int,
                  liveness_window_ms: int) -> NodeRecord:
    """Insert or refresh this node's registry row.

    Re-registering the same id at the same address just refreshes the
    timestamp.  A live registration of the id at a different address
    raises AddressConflict; a stale one is treated as a reboot and
    overwritten.
    """
    snapshot = store.snapshot_nodes()
    existing = snapshot.record_for(node_id)
    role = Role.FOLLOWER
    if existing is not None:
        if (existing.address != address
                and existing.last_seen + liveness_window_ms >= now):
            raise AddressConflict(
                f"node {node_id} is live at {existing.address}, "
                f"refusing {address}"
            )
        if existing.address == address:
            role = existing.role
    record = NodeRecord(node_id=node_id, address=address, role=role,
                        last_seen=now)
    store.upsert_node(record)
    return record


def elect_leader(snapshot: RegistrySnapshot,
                 override: Optional[NodeId] = None, *,
                 liveness_window_ms: int,
                 now: Optional[int] = None) -> NodeId:
    """Pick the leader: the override if live, else the maximum live id."""
    live = live_records(snapshot, liveness_window_ms, now)
    if override is not None:
        if any(r.node_id == override for r in live):
            return override
        raise OverrideNotLive(f"override node {override} has no live record")
    if not live:
        raise EmptyRegistry("no live records to elect from")
    return max(r.node_id for r in live)


def claim_leadership(store, node_id: NodeId, address: str, now: int) -> None:
    """Atomically mark this node LEADER and demote any other leader row."""
    snapshot = store.snapshot_nodes()
    updates = [NodeRecord(node_id, address, Role.LEADER, now)]
    for record in snapshot.records:
        if record.node_id != node_id and record.role is Role.LEADER:
            updates.append(
                NodeRecord(record.node_id, record.address, Role.FOLLOWER,
                           record.last_seen)
            )
    store.upsert_nodes(updates)


def make_nonce(rng: Optional[random.Random] = None) -> bytes:
    """Random 64-bit nonce as 16 hex bytes, the PING/PONG payload."""
    value = (rng or random).getrandbits(64)
    return f"{value:016x}".encode("ascii")


def pong_for(ping: Message, sender: NodeId) -> Message:
    """Echo a PING's nonce back as a PONG."""
    return Message(kind=MessageKind.PONG, sender=sender,
                   cycle_id=ping.cycle_id, payload=ping.payload)
