"""Fault-tolerant crowd-monitoring middleware.

A small library plus a deterministic multi-node simulator and a CLI
harness.  Nodes register in a shared store, elect the highest live id
as leader, collect badge readings, and run a two-mode MapReduce over a
cyclic datagram protocol, committing aggregates to a durable results
store.
"""

from crowdmw.domain import (
    CountMode,
    KeyValuePair,
    MiddlewareError,
    SensorReading,
    TagCategory,
)
from crowdmw.mapreduce import (
    Segment,
    CycleResult,
    map_reading,
    sort_pairs,
    partition,
    reduce_segment,
    merge_partials,
    sequential_oracle,
)
from crowdmw.runtime import Node, NodePhase

__all__ = [
    "CountMode",
    "CycleResult",
    "KeyValuePair",
    "MiddlewareError",
    "Node",
    "NodePhase",
    "Segment",
    "SensorReading",
    "TagCategory",
    "map_reading",
    "merge_partials",
    "partition",
    "reduce_segment",
    "sequential_oracle",
    "sort_pairs",
]

__version__ = "0.1.0"
