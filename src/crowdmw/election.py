"""Registry-backed leader election: highest live node id wins.

Nodes register themselves in the shared store and refresh a last-seen
timestamp in the store, which owns the node table and its one-leader
rule.  A record counts as live while its last-seen is within the
liveness window (twice the availability-check interval by default) of
the time the caller passes in.
Election is a pure function of the set of live ids a node counts plus
an optional manual override: the override if it is in the set, else
the highest id.  Availability of the winner is verified separately
with a PING round trip.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Collection, Iterable, Optional

from crowdmw.domain import MiddlewareError
from crowdmw.transport import Message, MessageKind

NodeId = int


class AddressConflict(MiddlewareError):
    """A live registration already claims this node id elsewhere."""


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


def live_records(records: Iterable[NodeRecord], liveness_window_ms: int,
                 now: int) -> list[NodeRecord]:
    """Records whose last-seen falls within the liveness window at ``now``."""
    return [r for r in records if r.last_seen + liveness_window_ms >= now]


def register_node(store, node_id: NodeId, address: str, now: int,
                  liveness_window_ms: int) -> NodeRecord:
    """Insert or refresh this node's registry row.

    Re-registering the same id at the same address just refreshes the
    timestamp.  A live registration of the id at a different address
    raises AddressConflict; a stale one is treated as a reboot and
    overwritten.
    """
    existing = store.node(node_id)
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


def elect_leader(live_ids: Collection[NodeId],
                 override: Optional[NodeId] = None) -> NodeId:
    """Pick the leader: the override if it is live, else the maximum id."""
    return override if override in live_ids else max(live_ids)


def claim_leadership(store, node_id: NodeId, address: str, now: int) -> None:
    """Mark this node LEADER; the store demotes any other leader row."""
    store.upsert_nodes([NodeRecord(node_id, address, Role.LEADER, now)])


def make_nonce(rng: Optional[random.Random] = None) -> bytes:
    """Random 64-bit nonce as 16 hex bytes, the PING/PONG payload."""
    value = (rng or random).getrandbits(64)
    return f"{value:016x}".encode("ascii")


def pong_for(ping: Message, sender: NodeId) -> Message:
    """Echo a PING's nonce back as a PONG."""
    return Message(kind=MessageKind.PONG, sender=sender,
                   cycle_id=ping.cycle_id, payload=ping.payload)
