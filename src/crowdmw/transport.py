"""Versioned datagram transport with two interchangeable backends.

Wire format, big-endian, 12-byte header::

    version:1  kind:1  sender:4  cycle_id:4  payload_len:2  payload...

A whole datagram never exceeds 8192 bytes.  The simulated backend
delivers through a seeded virtual network (loss, uniform latency,
reordering, never duplication) on a virtual clock, handing the
sender's immutable message to its endpoint's handler; the UDP backend
uses real sockets on a wall clock, and hands each datagram that
arrives while its ``wait_until`` waits to the handler of the endpoint
it reached.  Loss and partitions apply at send on both.  Both
backends encode each message once at send, for its checks and its
byte count; only bytes that arrive from outside, a UDP socket's, are
decoded.  Node code uses only ``address``, ``send`` and ``close``,
which both endpoint types share.  A network reads its loss, latency,
seed and per-byte cost from the checked ``harness.ScenarioConfig``.
"""

from __future__ import annotations

import enum
import heapq
import random
import selectors
import socket
import struct
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from crowdmw.clock import VirtualClock, WallClock
from crowdmw.domain import MiddlewareError

if TYPE_CHECKING:
    from crowdmw.harness import ScenarioConfig

WIRE_VERSION = 3
HEADER_LEN = 12
MAX_DATAGRAM = 8192
MAX_PAYLOAD = MAX_DATAGRAM - HEADER_LEN

_HEADER = struct.Struct(">BBIIH")


class PayloadTooLarge(MiddlewareError):
    """Encoded datagram would exceed the 8192-byte limit."""


class Malformed(MiddlewareError):
    """Datagram bytes do not decode to a valid message."""


class EndpointClosed(MiddlewareError):
    """Operation on an endpoint that has been closed."""


class MessageKind(enum.IntEnum):
    PING = 1
    PONG = 2
    REGISTER_ACK = 3
    DATA_SUBMIT = 4
    SEGMENT_ASSIGN = 5
    REDUCE_RESULT = 6
    CYCLE_SUCCESS = 7
    CYCLE_ABORT = 8


_KINDS = {int(kind): kind for kind in MessageKind}


class Message(NamedTuple):
    """One protocol datagram; payload semantics depend on kind."""

    kind: MessageKind
    sender: int
    cycle_id: int
    payload: bytes = b""


def encode_message(message: Message) -> bytes:
    """Serialize a message to datagram bytes, always of ``WIRE_VERSION``.

    It refuses every message that ``decode_message`` would not give
    back, so a message that passes may be delivered as it is.
    """
    kind, sender, cycle_id, payload = message
    if type(kind) is not MessageKind:
        raise ValueError(f"kind {kind!r} is not a MessageKind")
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    if not 0 <= sender < 2 ** 32:
        raise ValueError(f"sender {sender} outside uint32 range")
    if not 0 <= cycle_id < 2 ** 32:
        raise ValueError(f"cycle_id {cycle_id} outside uint32 range")
    return _HEADER.pack(WIRE_VERSION, kind, sender, cycle_id,
                        len(payload)) + payload


def decode_message(data: bytes) -> Message:
    """Parse datagram bytes; raises Malformed on any defect."""
    if len(data) < HEADER_LEN:
        raise Malformed(f"datagram too short: {len(data)} bytes")
    if len(data) > MAX_DATAGRAM:
        raise Malformed(f"datagram too long: {len(data)} bytes")
    version, kind_raw, sender, cycle_id, payload_len = _HEADER.unpack(
        data[:HEADER_LEN]
    )
    if version != WIRE_VERSION:
        raise Malformed(f"unsupported wire version {version}")
    kind = _KINDS.get(kind_raw)
    if kind is None:
        raise Malformed(f"unknown message kind {kind_raw}")
    payload = data[HEADER_LEN:]
    if len(payload) != payload_len:
        raise Malformed(
            f"payload length {len(payload)} does not match header {payload_len}"
        )
    return Message(kind=kind, sender=sender, cycle_id=cycle_id, payload=payload)


class TransportMode(enum.Enum):
    SIMULATED = "sim"
    UDP = "udp"


# ---------------------------------------------------------------------------
# Faults both backends apply at send.
# ---------------------------------------------------------------------------


class _FaultyNetwork:
    """Loss and partitions, drawn at send, with the send counters.

    A send checks the partitions first and draws from the seeded RNG
    only when the loss rate is positive, so a lossless run draws
    nothing here.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self._rng = random.Random(config.seed)
        self._loss_rate = config.loss_rate
        self._partitions: list[tuple[frozenset[str], float, float]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def set_loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss_rate {rate} outside [0, 1]")
        self._loss_rate = rate

    def add_partition(self, addresses: frozenset[str], start_ms: float,
                      end_ms: float) -> None:
        """Drop traffic crossing the given address set during [start, end)."""
        self._partitions.append((addresses, start_ms, end_ms))

    def _lost(self, src: str, dest: str, now: float) -> bool:
        """Count one send; True if a partition or the loss rate drops it."""
        self.sent += 1
        for group, start, end in self._partitions:
            if start <= now < end and (src in group) != (dest in group):
                self.dropped += 1
                return True
        if self._loss_rate > 0.0 and self._rng.random() < self._loss_rate:
            self.dropped += 1
            return True
        return False


# ---------------------------------------------------------------------------
# Simulated backend.
# ---------------------------------------------------------------------------


class SimulatedNetwork(_FaultyNetwork):
    """Deterministic in-process network on a virtual clock.

    Every send draws from one seeded RNG in send order, so a run is a
    pure function of (config, send sequence).  Messages are dropped or
    reordered, never duplicated or corrupted.  A send encodes its
    message for the codec's checks and the frame's length, which sets
    its transmission cost; the message itself flies.  In-flight
    messages are ``(due_ms, seq, dest, src, message)`` tuples in a
    heap; ``seq`` is unique, so ordering never looks past it.
    """

    def __init__(self, config: ScenarioConfig, clock: VirtualClock) -> None:
        super().__init__(config)
        self.clock = clock
        self._endpoints: dict[str, "SimEndpoint"] = {}
        self._in_flight: list[tuple[float, int, str, str, Message]] = []
        self._seq = 0
        # What a send reads of the config, read once.
        self._us_per_byte = config.transmission_us_per_byte
        low, high = config.latency_ms
        self._latency = (low, high - low)

    # -- wiring -------------------------------------------------------------

    def open(self, address: str) -> "SimEndpoint":
        if address in self._endpoints and not self._endpoints[address].closed:
            raise ValueError(f"address already bound: {address}")
        endpoint = SimEndpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def close(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.close()

    # -- traffic ------------------------------------------------------------

    def next_due_ms(self) -> Optional[float]:
        return self._in_flight[0][0] if self._in_flight else None

    def wait_until(self, at: float) -> bool:
        """Move the clock to ``at``; datagrams land through ``dispatch_next``."""
        self.clock.advance_to(at)
        return True

    def dispatch_next(self) -> Optional[float]:
        """Advance the clock to the next in-flight message and land it.

        Returns ``next_due_ms()`` as the handler left it.
        """
        in_flight = self._in_flight
        due_ms, _, dest, src, message = heapq.heappop(in_flight)
        self.clock.advance_to(due_ms)
        endpoint = self._endpoints.get(dest)
        if endpoint is None or endpoint.closed:
            # Dead letter: receiver gone, exactly like real UDP.
            self.dropped += 1
        else:
            self.delivered += 1
            endpoint.handler(message, src)
        return in_flight[0][0] if in_flight else None


class SimEndpoint:
    """One bound address on the simulated network.

    The network hands every message that lands here to ``handler``,
    which whoever drives the endpoint sets before traffic flows.
    """

    def __init__(self, network: SimulatedNetwork, address: str) -> None:
        self.network = network
        self.address = address
        self.closed = False
        self.handler: Optional[Callable[[Message, str], None]] = None
        self.next_free_ms = 0.0

    def send(self, dest: str, message: Message) -> None:
        """Schedule ``message`` unless a fault drops it.

        It departs once this endpoint's earlier frames have left, plus
        its own transmission cost, and lands ``uniform(low, high)`` of
        the seeded RNG later, drawn inline with ``Random.uniform``'s
        formula and its one draw.
        """
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        size = len(encode_message(message))
        network = self.network
        now = network.clock.now_ms()
        if network._lost(self.address, dest, now):
            return
        free = self.next_free_ms
        depart = ((free if free > now else now)
                  + size * network._us_per_byte / 1000.0)
        self.next_free_ms = depart
        low, span = network._latency
        network._seq += 1
        heapq.heappush(network._in_flight, (
            depart + (low + span * network._rng.random()), network._seq,
            dest, self.address, message))

    def close(self) -> None:
        self.closed = True
        self.handler = None


# ---------------------------------------------------------------------------
# UDP backend.
# ---------------------------------------------------------------------------


def _split_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


class UdpNetwork(_FaultyNetwork):
    """Real sockets on a wall clock, all waited on through one selector.

    Loss and partitions apply at send, as in the simulated backend.
    ``wait_until`` is the only place datagrams are read: each one that
    arrives is decoded and handed to its endpoint's handler.
    """

    def __init__(self, config: ScenarioConfig, clock: WallClock) -> None:
        super().__init__(config)
        self.clock = clock
        self._selector = selectors.DefaultSelector()

    def open(self, address: str = "127.0.0.1:0") -> "UdpEndpoint":
        host, port = _split_address(address)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host, port))
        sock.setblocking(False)
        endpoint = UdpEndpoint(self, sock)
        self._selector.register(sock, selectors.EVENT_READ, endpoint)
        return endpoint

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            key.data.close()
        self._selector.close()

    def next_due_ms(self) -> Optional[float]:
        # Arrivals are not scheduled; ``wait_until`` hands them over.
        return None

    def wait_until(self, at: float) -> bool:
        """Deliver what arrives before ``at``, in one wait at most.

        True once ``at`` has come, at once and without reading anything
        if it already has; False after a delivery, whose handler may
        have moved the caller's deadlines.
        """
        timeout_ms = at - self.clock.now_ms()
        if timeout_ms <= 0:
            return True
        ready = self._selector.select(timeout_ms / 1000.0)
        for key, _ in ready:
            endpoint = key.data
            try:
                data, peer = endpoint._sock.recvfrom(MAX_DATAGRAM * 2)
                message = decode_message(data)
            except (OSError, Malformed):
                # No datagram after all, an ICMP error, or bad bytes.
                continue
            self.delivered += 1
            endpoint.handler(message, f"{peer[0]}:{peer[1]}")
        return not ready and self.clock.now_ms() >= at


class UdpEndpoint:
    """One bound, non-blocking UDP socket speaking the wire format.

    Its network hands every datagram that arrives to ``handler``.
    """

    def __init__(self, network: UdpNetwork, sock: socket.socket) -> None:
        self.network = network
        self._sock = sock
        host, port = sock.getsockname()[:2]
        self.address = f"{host}:{port}"
        self.closed = False
        self.handler: Optional[Callable[[Message, str], None]] = None

    def send(self, dest: str, message: Message) -> None:
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        frame = encode_message(message)
        network = self.network
        if network._lost(self.address, dest, network.clock.now_ms()):
            return
        try:
            self._sock.sendto(frame, _split_address(dest))
        except OSError:
            # Unreachable peers look like loss, as UDP intends.
            pass

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.handler = None
        self.network._selector.unregister(self._sock)
        self._sock.close()
