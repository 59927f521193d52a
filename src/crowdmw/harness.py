"""Scenario runner: drives node clusters and reports what happened.

A scenario is a plain-text file of ``key=value`` lines describing the
cluster (size, cycle timing, network behaviour, workload) plus any
number of ``fault=`` lines injecting failures at given times.  One
event loop, ``SimCluster``, runs both backends on one thread: it orders
faults and node timers by time, waits for each through its network,
and receives every datagram through the handler it sets on each
endpoint.  On the simulated backend the clock is virtual and datagrams
are scheduled occurrences too, so a run is a pure function of the
scenario and seed: the same inputs produce byte-identical event logs
and CSV reports.  On the UDP backend the clock is the wall clock and
the wait is a ``selectors`` wait on the nodes' loopback sockets; it
exists to show the protocol works on a real transport, and makes no
determinism promise.
"""

from __future__ import annotations

import heapq
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from crowdmw import election, simgen
from crowdmw.clock import VirtualClock, WallClock
from crowdmw.domain import (
    DEFAULT_ROOM_COUNT,
    KEY_SHIFT,
    MAX_ROOM,
    MAX_TIMESTAMP,
    SYMBOL_MASK,
    MiddlewareError,
    SensorReading,
    key_reading,
    reading_key,
)
from crowdmw.runtime import ListReadingSource, Node
from crowdmw.store import JournalStore
from crowdmw.transport import (
    Message,
    SimulatedNetwork,
    TransportMode,
    UdpNetwork,
)


class ConfigError(MiddlewareError):
    """Scenario text could not be parsed into a valid configuration."""


class ScenarioDeadlock(MiddlewareError):
    """No cycle outcome for ten cycle durations while nodes still ran."""


# ---------------------------------------------------------------------------
# Scenario configuration.
# ---------------------------------------------------------------------------

_FAULT_KINDS = ("kill_leader", "kill_node", "set_loss", "partition")


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: what, when, and its parameters."""

    kind: str
    at_ms: float
    node_id: Optional[int] = None
    rate: Optional[float] = None
    nodes: tuple[int, ...] = ()
    duration_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if not (math.isfinite(self.at_ms) and self.at_ms >= 0):
            raise ConfigError("fault time must be a finite number >= 0")
        if self.kind == "kill_node" and self.node_id is None:
            raise ConfigError("kill_node needs a node id")
        if self.kind == "set_loss" and not (
            self.rate is not None and 0.0 <= self.rate <= 1.0
        ):
            raise ConfigError("set_loss needs a rate in [0, 1]")
        if self.kind == "partition" and not (
            self.nodes and self.duration_ms is not None
            and math.isfinite(self.duration_ms) and self.duration_ms > 0
        ):
            raise ConfigError("partition needs node ids and a finite "
                              "duration > 0")


def parse_fault(text: str) -> FaultSpec:
    """Parse one fault expression.

    Forms: ``kill_leader@3000``, ``kill_node@4000:2``,
    ``set_loss@5000:0.25``, ``partition@6000+2000:1,2``.
    """
    kind, at, rest = text.partition("@")
    if not at:
        raise ConfigError(f"fault needs an @time: {text!r}")
    kind = kind.strip()
    when, colon, arg = rest.partition(":")
    duration = None
    if "+" in when:
        if kind != "partition":
            raise ConfigError(f"only a partition takes a +duration: {text!r}")
        when, _, dur = when.partition("+")
        try:
            duration = float(dur)
        except ValueError:
            raise ConfigError(f"bad partition duration in {text!r}") from None
    try:
        at_ms = float(when)
    except ValueError:
        raise ConfigError(f"bad fault time in {text!r}") from None
    try:
        if kind == "kill_node":
            return FaultSpec(kind=kind, at_ms=at_ms, node_id=int(arg))
        if kind == "set_loss":
            return FaultSpec(kind=kind, at_ms=at_ms, rate=float(arg))
        if kind == "partition":
            ids = tuple(int(n) for n in arg.split(",") if n)
            return FaultSpec(kind=kind, at_ms=at_ms, nodes=ids,
                             duration_ms=duration)
        if kind == "kill_leader":
            if colon:
                raise ConfigError(f"kill_leader takes no argument: {text!r}")
            return FaultSpec(kind=kind, at_ms=at_ms)
    except ValueError:
        raise ConfigError(f"bad fault argument in {text!r}") from None
    raise ConfigError(f"unknown fault kind {kind!r}")


@dataclass
class ScenarioConfig:
    """The one settings object: cluster, timing, network, workload.

    Every setting is checked here, once, whether a scenario file, a CLI
    flag or a caller's keyword sets it.  ``SimCluster`` reads the shape,
    workload and faults; each ``Node`` the cycle timing, participation,
    ``override_leader``, ``entries_per_part`` and ``seed``; each network
    the loss, latency, ``seed`` and ``transmission_us_per_byte`` (a
    simulated sender's cost per byte, a crude bandwidth model).
    """

    nodes: int = 3
    cycles: int = 2
    seed: int = 0
    backend: TransportMode = TransportMode.SIMULATED

    cycle_duration_ms: int = 2000
    mapreduce_window_ms: int = 500
    min_responding_nodes: int = 2
    ping_timeout_ms: int = 250
    ping_retries: int = 2

    loss_rate: float = 0.0
    latency_ms: tuple[float, float] = (40.0, 90.0)
    transmission_us_per_byte: float = 0.0

    fixture: Optional[str] = None
    visitors: int = 0
    rooms: int = DEFAULT_ROOM_COUNT
    double_read_rate: float = 0.02
    entries_per_part: Optional[int] = None
    override_leader: Optional[int] = None
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError("need at least one node")
        if self.cycles < 1:
            raise ConfigError("need at least one cycle")
        if self.rooms > MAX_ROOM:
            raise ConfigError(f"rooms must be <= {MAX_ROOM}: a submission "
                              f"symbol encodes rooms 1..{MAX_ROOM}")
        if self.cycle_duration_ms < 1:
            raise ConfigError("cycle_duration_ms must be >= 1")
        if not 0 < self.mapreduce_window_ms < self.cycle_duration_ms:
            raise ConfigError("mapreduce_window_ms must fall inside the "
                              "cycle duration")
        if self.min_responding_nodes < 2:
            raise ConfigError("min_responding_nodes must be >= 2")
        if self.ping_timeout_ms < 1 or self.ping_retries < 1:
            raise ConfigError("ping timeout and retries must be >= 1")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigError(f"loss_rate {self.loss_rate} outside [0, 1]")
        low, high = self.latency_ms
        if not (math.isfinite(high) and 0 <= low <= high):
            raise ConfigError(f"bad latency range {self.latency_ms}")
        if not (math.isfinite(self.transmission_us_per_byte)
                and self.transmission_us_per_byte >= 0):
            raise ConfigError("transmission_us_per_byte must be a finite "
                              "number >= 0")
        if self.entries_per_part is not None and self.entries_per_part < 1:
            raise ConfigError("entries_per_part must be >= 1")
        if self.fixture is not None:
            bundled = simgen.list_fixtures()
            if self.fixture not in bundled:
                raise ConfigError(f"fixture {self.fixture!r} is not bundled "
                                  f"(bundled: {', '.join(bundled)})")
        try:
            self.visitor_model()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.cycles * self.cycle_duration_ms > MAX_TIMESTAMP:
            raise ConfigError(f"the run must end by {MAX_TIMESTAMP} ms: a "
                              f"reading key packs its timestamp in 64 bits")
        named = {self.override_leader}
        for fault in self.faults:
            named |= {fault.node_id, *fault.nodes}
        stray = sorted(named - {None} - set(self.node_ids()))
        if stray:
            raise ConfigError(f"node ids {stray} name no scenario node "
                              f"(1..{self.nodes})")

    def node_ids(self) -> list[int]:
        return list(range(1, self.nodes + 1))

    # Derived schedule, all relative to the slot start.
    @property
    def collection_ms(self) -> int:
        return self.cycle_duration_ms - self.mapreduce_window_ms

    @property
    def submit_window_ms(self) -> int:
        return self.mapreduce_window_ms * 2 // 5

    @property
    def liveness_window_ms(self) -> int:
        # A record is live while seen within two check intervals.
        return 2 * self.cycle_duration_ms

    def visitor_model(self) -> simgen.VisitorModel:
        return simgen.VisitorModel(
            seed=self.seed,
            visitor_count=self.visitors,
            rooms=self.rooms,
            double_read_rate=self.double_read_rate,
        )

    def injection_window_ms(self) -> float:
        if self.cycles > 1:
            return float((self.cycles - 1) * self.cycle_duration_ms)
        return float(self.cycle_duration_ms - self.mapreduce_window_ms)


_INT_KEYS = {
    "nodes": "nodes",
    "cycles": "cycles",
    "seed": "seed",
    "cycle_ms": "cycle_duration_ms",
    "window_ms": "mapreduce_window_ms",
    "min_responding": "min_responding_nodes",
    "ping_timeout_ms": "ping_timeout_ms",
    "ping_retries": "ping_retries",
    "visitors": "visitors",
    "rooms": "rooms",
    "entries_per_part": "entries_per_part",
    "override_leader": "override_leader",
}

_FLOAT_KEYS = {
    "loss_rate": "loss_rate",
    "tx_us_per_byte": "transmission_us_per_byte",
    "double_read_rate": "double_read_rate",
}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text: key=value lines, # comments, blank lines."""
    values: dict = {}
    faults: list[FaultSpec] = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value: {raw!r}")
        key = key.strip()
        value = value.strip()
        if first_line.setdefault(key, lineno) != lineno and key != "fault":
            raise ConfigError(f"line {lineno}: {key!r} is already set on "
                              f"line {first_line[key]}")
        try:
            if key == "fault":
                faults.append(parse_fault(value))
            elif key in _INT_KEYS:
                values[_INT_KEYS[key]] = int(value)
            elif key in _FLOAT_KEYS:
                values[_FLOAT_KEYS[key]] = float(value)
            elif key == "latency":
                low, colon, high = value.partition(":")
                if not colon:
                    raise ConfigError(
                        f"line {lineno}: latency needs low:high"
                    )
                values["latency_ms"] = (float(low), float(high))
            elif key == "fixture":
                values["fixture"] = value
            elif key == "backend":
                values["backend"] = TransportMode(value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {value!r}"
            ) from None
    values["faults"] = tuple(faults)
    return ScenarioConfig(**values)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_scenario(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Workload construction and routing.
# ---------------------------------------------------------------------------


def route_readings(keys: Iterable[int], node_ids: Sequence[int]
                   ) -> dict[int, list[int]]:
    """Assign each reading key's room to a node, round-robin, keeping order."""
    targets: list[list[int]] = [[] for _ in node_ids]
    # A symbol code's target list's append, filled on first use.
    appends: dict[int, Callable[[int], None]] = {}
    for key in keys:
        try:
            appends[key & SYMBOL_MASK](key)
        except KeyError:
            code = key & SYMBOL_MASK
            target = targets[(key_reading(code).room - 1) % len(targets)]
            appends[code] = target.append
            target.append(key)
    return dict(zip(sorted(node_ids), targets))


def build_workload(config: ScenarioConfig) -> tuple[
        dict[int, list[int]], Optional[list[int]]]:
    """Each node's reading keys in timestamp order, and the generated
    stream's keys (None without visitors).

    A fixture stream goes first on the lowest-id node, which keeps
    single-source totals easy to audit: its readings are checked and
    packed here, and go before the generated ones of their millisecond.
    """
    generated = None
    if config.visitors > 0:
        generated = simgen.generate_stream(
            config.visitor_model(), config.injection_window_ms())
    routed = route_readings(generated or (), config.node_ids())
    if config.fixture is not None:
        fixture = map(reading_key, simgen.replay_fixture(config.fixture))
        routed[1] = sorted([*fixture, *routed[1]],
                           key=lambda key: key >> KEY_SHIFT)
    return routed, generated


# ---------------------------------------------------------------------------
# The cluster's event loop.
# ---------------------------------------------------------------------------

class Ingested(list):
    """The reading keys one node's ingests kept, in ingest order.

    Sequences are dense from 0, so a key's sequence is its index.
    Iterating builds (sequence, reading) pairs, for audits after a run.
    """

    def __iter__(self) -> Iterator[tuple[int, SensorReading]]:
        return enumerate(map(key_reading, super().__iter__()))


IngestRecord = dict[int, Ingested]


def _leader_id(store: JournalStore) -> Optional[int]:
    """The registry's leader row, if any."""
    for record in store.snapshot_nodes():
        if record.role is election.Role.LEADER:
            return record.node_id
    return None


def _current_leader(nodes: dict[int, Node],
                    store: JournalStore) -> Optional[int]:
    """The registry's live leader, else the highest live node id."""
    leader = _leader_id(store)
    if leader in nodes and not nodes[leader].killed:
        return leader
    live = [node_id for node_id, node in nodes.items() if not node.killed]
    return max(live) if live else None


class SimCluster:
    """Single-threaded executor for a whole cluster, on either backend.

    ``config.backend`` picks the clock and network: a virtual clock and
    ``SimulatedNetwork``, or the wall clock and ``UdpNetwork``.  The
    name predates the UDP backend and stays, because benchmarks and
    tools bind it.

    Every pending occurrence (fault, datagram delivery, node timer) is
    globally ordered by time; ties break faults first, deliveries
    second, timers last, then lowest node id.  One occurrence runs per
    step, so a simulated run is exactly reproducible.  A fault or timer
    first waits for its time through ``network.wait_until``: on the
    simulated network that moves the clock, and its deliveries are
    occurrences of their own; on UDP it delivers what arrives in the
    meantime, and after any delivery the step starts over, since a
    handler may have moved a deadline.  A node is only ever touched
    from this loop, so a kill never lands inside a handler.  Once a
    delivery is picked, the deliveries that would be picked after it
    run in one inner loop, one ``dispatch_next`` each, with no new
    decision: the next datagram lands while it is due before the next
    fault and ``until_ms`` and no later than the earliest timer.

    Node timers sit in one heap of ``(deadline, node_id)`` beside each
    node's last known deadline; an entry whose deadline no longer
    matches is stale and is discarded when it reaches the top.  A
    node's deadline only moves when the node itself runs, so a step
    re-reads ``next_deadline()`` for exactly one node: the node it
    advanced, the node a delivery reached, or the node a fault killed.
    ``run`` re-reads every node once on entry, which covers changes
    made between runs.
    """

    DEADLOCK_FACTOR = 10

    def __init__(self, config: ScenarioConfig, store: JournalStore) -> None:
        self.config = config
        self.store = store
        if config.backend is TransportMode.UDP:
            self.clock = WallClock()
            self.network = UdpNetwork(config, self.clock)
            address = "127.0.0.1:0"
        else:
            self.clock = VirtualClock()
            self.network = SimulatedNetwork(config, self.clock)
            address = "node{node_id}:7000"
        self.events: list[str] = []
        self._faults = sorted(config.faults, key=lambda f: f.at_ms)
        self._fault_cursor = 0
        self._last_progress_ms = 0.0
        self._timer_heap: list[tuple[float, int]] = []
        self._deadlines: dict[int, Optional[float]] = {}
        # The generated stream's keys, or None: the benchmark reads
        # how many there were.
        routed, self.ledger = build_workload(config)
        self.nodes: dict[int, Node] = {}
        self.sources: dict[int, ListReadingSource] = {}
        self.ingested: IngestRecord = {}
        # Each node is pre-registered at t=0, so the first slot already
        # sees the full membership.
        for node_id in config.node_ids():
            endpoint = self.network.open(address.format(node_id=node_id))
            source = ListReadingSource(routed[node_id])
            node = Node(node_id, config, endpoint, store, source,
                        event_sink=self.events.append)
            self.ingested[node_id] = Ingested()
            node.ingest_listener = self.ingested[node_id].extend
            endpoint.handler = self._receiver(node)
            self.nodes[node_id] = node
            self.sources[node_id] = source
            election.register_node(store, node_id, endpoint.address, 0,
                                   config.liveness_window_ms)

    def _receiver(self, node: Node) -> Callable[[Message, str], None]:
        """``node``'s endpoint handler: the datagram, then its deadline."""
        now_ms, refresh, node_id = (self.clock.now_ms, self._refresh,
                                    node.node_id)

        def receive(message: Message, src: str) -> None:
            node.on_message(message, src, now_ms())
            refresh(node_id)

        return receive

    def _apply_fault(self, fault: FaultSpec) -> None:
        """Apply one fault now; killing a node that is dead does nothing."""
        now, nodes, log = self.clock.now_ms(), self.nodes, self.events.append
        target = None
        if fault.kind == "kill_leader":
            target = _current_leader(nodes, self.store)
        elif fault.kind == "kill_node":
            target = fault.node_id
        elif fault.kind == "set_loss":
            self.network.set_loss_rate(fault.rate)
            log(f"t={now:.3f} node=0 set_loss rate={fault.rate}")
        elif fault.kind == "partition":
            addresses = frozenset(nodes[n].endpoint.address
                                  for n in fault.nodes)
            self.network.add_partition(addresses, now,
                                       now + fault.duration_ms)
            ids = ",".join(str(n) for n in sorted(fault.nodes))
            log(f"t={now:.3f} node=0 partition nodes={ids} "
                f"until={now + fault.duration_ms:.3f}")
        if target not in nodes or nodes[target].killed:
            return
        nodes[target].kill()
        log(f"t={now:.3f} node={target} killed")
        self._refresh(target)

    # -- occurrence scheduling ------------------------------------------

    def _next_fault(self) -> Optional[float]:
        if self._fault_cursor < len(self._faults):
            return self._faults[self._fault_cursor].at_ms
        return None

    def _refresh(self, node_id: int) -> None:
        """Re-read one node's deadline; push it if it moved."""
        deadline = self.nodes[node_id].next_deadline()
        if deadline != self._deadlines.get(node_id):
            self._deadlines[node_id] = deadline
            if deadline is not None:
                heapq.heappush(self._timer_heap, (deadline, node_id))

    def _next_occurrence(self) -> Optional[tuple[float, int, int]]:
        best: Optional[tuple[float, int, int]] = None
        fault_at = self._next_fault()
        if fault_at is not None:
            best = (fault_at, 0, 0)
        net_at = self.network.next_due_ms()
        if net_at is not None and (best is None or net_at < best[0]):
            best = (net_at, 1, 0)
        heap, deadlines = self._timer_heap, self._deadlines
        while heap and deadlines[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)
        if heap and (best is None or heap[0][0] < best[0]):
            deadline, node_id = heap[0]
            best = (deadline, 2, node_id)
        return best

    def start(self) -> None:
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start(self.clock.now_ms())

    def _check_progress(self, at: float) -> None:
        """Fold in the nodes' progress; raise ScenarioDeadlock if it is
        still more than the budget before ``at``.

        ``run`` calls it only once the cached progress time trips the
        budget, so the common step reads one float.
        """
        self._last_progress_ms = max(
            node.progress_ms for node in self.nodes.values())
        if at - self._last_progress_ms > (self.DEADLOCK_FACTOR
                                          * self.config.cycle_duration_ms):
            raise ScenarioDeadlock(
                f"no cycle outcome between {self._last_progress_ms:.0f}"
                f" and {at:.0f} ms"
            )

    def run(self, until_ms: float) -> None:
        """Execute occurrences strictly before ``until_ms``."""
        budget = self.DEADLOCK_FACTOR * self.config.cycle_duration_ms
        wait_until = self.network.wait_until
        heap = self._timer_heap
        for node_id in self.nodes:
            self._refresh(node_id)
        while True:
            occurrence = self._next_occurrence()
            if occurrence is None or occurrence[0] >= until_ms:
                if wait_until(until_ms):
                    return
                continue
            at, kind, node_id = occurrence
            if at - self._last_progress_ms > budget:
                self._check_progress(at)
            if kind == 1:
                # Land datagrams while the next is due before the next
                # fault and ``until_ms`` and no later than the top of
                # the timer heap.  A delivery pushes its node's new
                # deadline, so the top stays a bound; a stale top only
                # ends the batch early.
                fault_at = self._next_fault()
                stop = (until_ms if fault_at is None or until_ms < fault_at
                        else fault_at)
                dispatch_next = self.network.dispatch_next
                at = dispatch_next()
                while (at is not None and at < stop
                       and not (heap and heap[0][0] < at)):
                    if at - self._last_progress_ms > budget:
                        self._check_progress(at)
                    at = dispatch_next()
            elif not wait_until(at):
                continue
            elif kind == 0:
                fault = self._faults[self._fault_cursor]
                self._fault_cursor += 1
                self._apply_fault(fault)
            else:
                self.nodes[node_id].advance(at)
                self._refresh(node_id)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample set."""
    return sum(samples) / len(samples) if samples else 0.0


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _parse_event(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    parts = line.split(" ")
    fields["t"] = parts[0].partition("=")[2]
    fields["node"] = parts[1].partition("=")[2]
    if len(parts) > 2 and "=" not in parts[2]:
        fields["event"] = parts[2]
        rest = parts[3:]
    else:
        fields["event"] = ""
        rest = parts[2:]
    for part in rest:
        key, sep, value = part.partition("=")
        if sep:
            fields[key] = value
    return fields


@dataclass
class CycleSummary:
    cycle_id: int
    outcome: str
    rows: int
    total_readings: int
    finished_ms: float


@dataclass
class MetricsReport:
    """Latency samples and per-cycle outcomes distilled from events."""

    response_ms: list[float] = field(default_factory=list)
    rtt_ms: list[float] = field(default_factory=list)
    ttfb_ms: list[float] = field(default_factory=list)
    cycles: list[CycleSummary] = field(default_factory=list)

    def metric_rows(self) -> list[tuple[str, list[float]]]:
        return [
            ("response", self.response_ms),
            ("rtt", self.rtt_ms),
            ("ttfb", self.ttfb_ms),
        ]

    def metrics_csv(self) -> str:
        lines = ["metric,count,mean_ms,p50_ms,p95_ms,p99_ms"]
        for name, samples in self.metric_rows():
            lines.append(
                f"{name},{len(samples)},{_mean(samples):.3f},"
                f"{_percentile(samples, 50):.3f},"
                f"{_percentile(samples, 95):.3f},"
                f"{_percentile(samples, 99):.3f}"
            )
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = ["cycle,outcome,rows,total_readings,finished_ms"]
        for summary in self.cycles:
            lines.append(
                f"{summary.cycle_id},{summary.outcome},{summary.rows},"
                f"{summary.total_readings},{summary.finished_ms:.3f}"
            )
        return "\n".join(lines) + "\n"


_LEADER_KIND_NAMES = {"pong", "register_ack", "segment_assign",
                      "cycle_success", "cycle_abort"}


def build_metrics(events: Sequence[str], cycle_ms: int) -> MetricsReport:
    """Distill latency samples and cycle outcomes from an event log."""
    report = MetricsReport()
    submit_at: dict[tuple[int, int], float] = {}
    # Each node's latest unanswered PING per cycle: a PONG echoes its
    # PING's cycle, and a queued PONG can arrive after the next cycle's
    # PING went out; of a cycle's retries, the latest counts.
    ping_at: dict[tuple[int, int], float] = {}
    ttfb_seen: set[tuple[int, int]] = set()
    cycle_rows: dict[int, CycleSummary] = {}
    for line in events:
        fields = _parse_event(line)
        t = float(fields["t"])
        node = int(fields["node"])
        event = fields["event"]
        if event == "send":
            kind = fields.get("kind", "")
            cycle = int(fields.get("cycle", -1))
            if kind == "data_submit":
                submit_at.setdefault((node, cycle), t)
            elif kind == "ping":
                ping_at[(node, cycle)] = t
        elif event == "recv":
            kind = fields.get("kind", "")
            cycle = int(fields.get("cycle", -1))
            if kind == "pong":
                sent = ping_at.pop((node, cycle), None)
                if sent is not None:
                    report.rtt_ms.append(t - sent)
            if kind in ("cycle_success", "cycle_abort"):
                sent = submit_at.pop((node, cycle), None)
                if sent is not None and kind == "cycle_success":
                    report.response_ms.append(t - sent)
            if kind in _LEADER_KIND_NAMES:
                slot = int(t // cycle_ms)
                if (node, slot) not in ttfb_seen:
                    ttfb_seen.add((node, slot))
                    report.ttfb_ms.append(t - slot * cycle_ms)
        elif event == "commit":
            cycle = int(fields["cycle"])
            cycle_rows[cycle] = CycleSummary(
                cycle_id=cycle, outcome="commit",
                rows=int(fields["rows"]),
                total_readings=int(fields["total"]),
                finished_ms=t,
            )
        elif event == "abort":
            cycle = int(fields["cycle"])
            cycle_rows.setdefault(cycle, CycleSummary(
                cycle_id=cycle, outcome=f"abort:{fields.get('reason', '?')}",
                rows=0, total_readings=0, finished_ms=t,
            ))
    report.cycles = [cycle_rows[c] for c in sorted(cycle_rows)]
    return report


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass
class Reconciliation:
    """Where every injected reading ended up, by count."""

    injected: int
    ingested: int
    deduplicated: int
    committed: int
    pending_live: int
    stranded_killed: int
    undelivered: int
    store_total: int

    def conserves(self) -> bool:
        """No reading lost or double counted across the categories.

        ``pending_live`` and ``stranded_killed`` count what the buffers
        hold above the store's watermarks, so a buffer that dropped a
        reading no commit covers breaks the second identity.
        """
        return (
            self.committed == self.store_total
            and self.ingested == (self.committed + self.pending_live
                                  + self.stranded_killed)
            and self.injected == (self.ingested + self.deduplicated
                                  + self.undelivered)
        )


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    events: list[str]
    metrics: MetricsReport
    visitor_totals: dict[str, int]
    room_totals: dict[str, int]
    committed_cycles: list[int]
    leader_id: Optional[int]
    commits: int
    aborts: int
    reconciliation: Reconciliation
    nodes: dict[int, Node]
    # The generated stream's keys, in stream order; None without visitors.
    ledger: Optional[list[int]]
    # The network's counters over the run, all nodes and kinds summed.
    datagrams_sent: int
    datagrams_dropped: int
    datagrams_delivered: int


def _reconcile(store: JournalStore, cluster_nodes: dict[int, Node],
               sources: dict[int, ListReadingSource],
               ingested: IngestRecord) -> Reconciliation:
    watermarks = store.ack_watermarks()
    injected = sum(source.injected_count() for source in sources.values())
    ingested_count = sum(len(items) for items in ingested.values())
    committed = 0
    pending_live = 0
    stranded = 0
    for node_id, node in cluster_nodes.items():
        watermark = watermarks.get(node_id, -1)
        committed += min(len(ingested[node_id]), watermark + 1)
        buffer = node.buffer
        held = len(buffer) - max(0, watermark - buffer.base + 1)
        if node.killed:
            stranded += held
        else:
            pending_live += held
    undelivered = sum(len(source.remaining()) for source in sources.values())
    deduplicated = sum(
        node.dedupe_dropped for node in cluster_nodes.values()
    )
    # Room-mode counts one per reading, so their sum is the number of
    # readings the store has committed (visitor values sum room ids).
    store_total = sum(store.totals("room").values())
    return Reconciliation(
        injected=injected,
        ingested=ingested_count,
        deduplicated=deduplicated,
        committed=committed,
        pending_live=pending_live,
        stranded_killed=stranded,
        undelivered=undelivered,
        store_total=store_total,
    )


# ---------------------------------------------------------------------------
# Running scenarios.
# ---------------------------------------------------------------------------


def _build_report(cluster: SimCluster) -> ScenarioReport:
    config, store, nodes = cluster.config, cluster.store, cluster.nodes
    network = cluster.network
    return ScenarioReport(
        config=config,
        events=list(cluster.events),
        metrics=build_metrics(cluster.events, config.cycle_duration_ms),
        visitor_totals=store.totals("visitor"),
        room_totals=store.totals("room"),
        committed_cycles=store.committed_cycles(),
        leader_id=_leader_id(store),
        commits=sum(node.commits for node in nodes.values()),
        aborts=sum(node.aborts for node in nodes.values()),
        reconciliation=_reconcile(store, nodes, cluster.sources,
                                  cluster.ingested),
        nodes=nodes,
        ledger=cluster.ledger,
        datagrams_sent=network.sent,
        datagrams_dropped=network.dropped,
        datagrams_delivered=network.delivered,
    )


def run_scenario(config: ScenarioConfig, store_path: str) -> ScenarioReport:
    with JournalStore(store_path) as store:
        cluster = SimCluster(config, store)
        try:
            cluster.start()
            cluster.run(float(config.cycles * config.cycle_duration_ms))
        finally:
            cluster.network.close()
        return _build_report(cluster)


def emit_report(report: ScenarioReport, out_dir: str) -> list[str]:
    """Write events.log, metrics.csv and summary.csv; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    events_path = os.path.join(out_dir, "events.log")
    with open(events_path, "w", encoding="utf-8") as handle:
        for line in report.events:
            handle.write(line + "\n")
    paths.append(events_path)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        handle.write(report.metrics.metrics_csv())
    paths.append(metrics_path)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(report.metrics.summary_csv())
    paths.append(summary_path)
    return paths


# ---------------------------------------------------------------------------
# Load sweep.
# ---------------------------------------------------------------------------

# The benchmark's trickle shape: one reading per submission datagram and
# a per-byte send cost, so heavier load queues at the senders.
SWEEP_SHAPE = ScenarioConfig(nodes=5, cycles=24, entries_per_part=1,
                             transmission_us_per_byte=15.0)

SWEEP_HEADER = ("visitors,offered_readings,committed_readings,"
                "committed_slots,datagrams_sent,mean_response_ms,rtt_ms,"
                "ttfb_ms")


def sweep_load(visitor_counts: Sequence[int], *,
               seed: int = 0) -> list[dict[str, float]]:
    """Goodput and latency of ``SWEEP_SHAPE``, one run per visitor count.

    Each run journals to its own file in a directory that lives as long
    as the sweep, so no point recovers another point's commits.
    """
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, visitors in enumerate(visitor_counts):
            config = replace(SWEEP_SHAPE, visitors=visitors, seed=seed)
            report = run_scenario(
                config, os.path.join(tmp, f"point{index}.journal"))
            recon = report.reconciliation
            metrics = report.metrics
            rows.append({
                "visitors": visitors,
                "offered_readings": recon.injected,
                "committed_readings": recon.committed,
                "committed_slots": len(report.committed_cycles),
                "datagrams_sent": report.datagrams_sent,
                "mean_response_ms": _mean(metrics.response_ms),
                "rtt_ms": _mean(metrics.rtt_ms),
                "ttfb_ms": _mean(metrics.ttfb_ms),
            })
    return rows


def sweep_csv(rows: Sequence[dict[str, float]]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            f"{row['visitors']},{row['offered_readings']},"
            f"{row['committed_readings']},{row['committed_slots']},"
            f"{row['datagrams_sent']},{row['mean_response_ms']:.3f},"
            f"{row['rtt_ms']:.3f},{row['ttfb_ms']:.3f}"
        )
    return "\n".join(lines) + "\n"
