"""Versioned datagram transport with two interchangeable backends.

Wire format, big-endian, 12-byte header::

    version:1  kind:1  sender:4  cycle_id:4  payload_len:2  payload...

A whole datagram never exceeds 8192 bytes.  The simulated backend
delivers through a seeded virtual network (loss, uniform latency,
reordering, never duplication) on a virtual clock; the UDP backend
uses real sockets on a wall clock.  Node code sees the same endpoint
interface either way.
"""

from __future__ import annotations

import enum
import heapq
import random
import socket
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from crowdmw.clock import VirtualClock
from crowdmw.domain import MiddlewareError

WIRE_VERSION = 2
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


@dataclass(frozen=True)
class Message:
    """One protocol datagram; payload semantics depend on kind."""

    kind: MessageKind
    sender: int
    cycle_id: int
    payload: bytes = b""
    version: int = WIRE_VERSION


def encode_message(message: Message) -> bytes:
    """Serialize a message to datagram bytes."""
    if len(message.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload of {len(message.payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    if not 0 <= message.sender < 2 ** 32:
        raise ValueError(f"sender {message.sender} outside uint32 range")
    if not 0 <= message.cycle_id < 2 ** 32:
        raise ValueError(f"cycle_id {message.cycle_id} outside uint32 range")
    header = _HEADER.pack(
        message.version,
        int(message.kind),
        message.sender,
        message.cycle_id,
        len(message.payload),
    )
    return header + message.payload


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


@dataclass
class NetConfig:
    """Knobs for a network backend.

    ``transmission_us_per_byte`` adds a sender-side serialization cost
    in the simulated backend (a crude bandwidth model); the default of
    zero leaves pure latency behavior.
    """

    loss_rate: float = 0.0
    latency_ms: tuple[float, float] = (40.0, 90.0)
    seed: int = 0
    mode: TransportMode = TransportMode.SIMULATED
    transmission_us_per_byte: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate {self.loss_rate} outside [0, 1]")
        low, high = self.latency_ms
        if low < 0 or high < low:
            raise ValueError(f"bad latency range {self.latency_ms}")
        if self.transmission_us_per_byte < 0:
            raise ValueError("transmission_us_per_byte must be >= 0")


# ---------------------------------------------------------------------------
# Simulated backend.
# ---------------------------------------------------------------------------


class SimulatedNetwork:
    """Deterministic in-process network on a virtual clock.

    Every send draws from one seeded RNG in send order, so a run is a
    pure function of (config, send sequence).  Messages are dropped or
    reordered, never duplicated or corrupted.  In-flight frames are
    ``(due_ms, seq, dest, src, frame)`` tuples in a heap; ``seq`` is
    unique, so ordering never looks past it.
    """

    def __init__(self, config: NetConfig,
                 clock: Optional[VirtualClock] = None) -> None:
        self.config = config
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = random.Random(config.seed)
        self._loss_rate = config.loss_rate
        self._endpoints: dict[str, "SimEndpoint"] = {}
        self._in_flight: list[tuple[float, int, str, str, bytes]] = []
        self._seq = 0
        self._partitions: list[tuple[frozenset[str], float, float]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    # -- wiring -------------------------------------------------------------

    def open(self, address: str) -> "SimEndpoint":
        if address in self._endpoints and not self._endpoints[address].closed:
            raise ValueError(f"address already bound: {address}")
        endpoint = SimEndpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def set_loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss_rate {rate} outside [0, 1]")
        self._loss_rate = rate

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    def add_partition(self, addresses: frozenset[str], start_ms: float,
                      end_ms: float) -> None:
        """Drop traffic crossing the given address set during [start, end)."""
        self._partitions.append((addresses, start_ms, end_ms))

    def _partitioned(self, src: str, dest: str, now: float) -> bool:
        for group, start, end in self._partitions:
            if start <= now < end and (src in group) != (dest in group):
                return True
        return False

    # -- traffic ------------------------------------------------------------

    def _send(self, src: "SimEndpoint", dest: str, message: Message) -> None:
        frame = encode_message(message)
        now = self.clock.now_ms()
        self.sent += 1
        if self._partitioned(src.address, dest, now) or (
            self._loss_rate > 0.0 and self._rng.random() < self._loss_rate
        ):
            self.dropped += 1
            return
        tx_ms = len(frame) * self.config.transmission_us_per_byte / 1000.0
        depart = max(now, src.next_free_ms) + tx_ms
        src.next_free_ms = depart
        low, high = self.config.latency_ms
        latency = self._rng.uniform(low, high)
        self._seq += 1
        heapq.heappush(
            self._in_flight,
            (depart + latency, self._seq, dest, src.address, frame),
        )

    def next_due_ms(self) -> Optional[float]:
        return self._in_flight[0][0] if self._in_flight else None

    def dispatch_next(self) -> None:
        """Advance the clock to the next in-flight message and land it."""
        due_ms, _, dest, src, frame = heapq.heappop(self._in_flight)
        self.clock.advance_to(due_ms)
        endpoint = self._endpoints.get(dest)
        if endpoint is None or endpoint.closed:
            # Dead letter: receiver gone, exactly like real UDP.
            self.dropped += 1
            return
        message = decode_message(frame)
        self.delivered += 1
        if endpoint.handler is not None:
            endpoint.handler(message, src)
        else:
            endpoint.inbox.append((message, src))


class SimEndpoint:
    """One bound address on the simulated network."""

    def __init__(self, network: SimulatedNetwork, address: str) -> None:
        self.network = network
        self.address = address
        self.inbox: list[tuple[Message, str]] = []
        self.closed = False
        self.handler: Optional[Callable[[Message, str], None]] = None
        self.next_free_ms = 0.0

    def set_handler(self, handler: Optional[Callable[[Message, str], None]]) -> None:
        """Deliver straight into a callback instead of the inbox."""
        self.handler = handler

    def send(self, dest: str, message: Message) -> None:
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        self.network._send(self, dest, message)

    def recv_from(self, timeout_ms: float) -> Optional[tuple[Message, str]]:
        """Blocking-style receive that advances the virtual clock.

        Lands in-flight traffic for the whole network in delivery order
        until something reaches this endpoint or the timeout elapses.
        """
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        deadline = self.network.clock.now_ms() + timeout_ms
        while True:
            if self.inbox:
                return self.inbox.pop(0)
            due = self.network.next_due_ms()
            if due is None or due > deadline:
                self.network.clock.advance_to(deadline)
                return None
            self.network.dispatch_next()

    def recv(self, timeout_ms: float) -> Optional[Message]:
        received = self.recv_from(timeout_ms)
        return received[0] if received else None

    def poll(self) -> Optional[tuple[Message, str]]:
        """Non-blocking: next already-delivered message, if any."""
        if self.inbox:
            return self.inbox.pop(0)
        return None

    def close(self) -> None:
        self.closed = True
        self.handler = None
        self.inbox.clear()


# ---------------------------------------------------------------------------
# UDP backend.
# ---------------------------------------------------------------------------


def _split_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


class UdpNetwork:
    """Real-socket backend; loss injection still applies sender-side."""

    def __init__(self, config: NetConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._loss_rate = config.loss_rate

    def open(self, address: str = "127.0.0.1:0") -> "UdpEndpoint":
        host, port = _split_address(address)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host, port))
        return UdpEndpoint(self, sock)

    def set_loss_rate(self, rate: float) -> None:
        self._loss_rate = rate

    def _drop(self) -> bool:
        return self._loss_rate > 0.0 and self._rng.random() < self._loss_rate


class UdpEndpoint:
    """One bound UDP socket speaking the datagram wire format."""

    def __init__(self, network: UdpNetwork, sock: socket.socket) -> None:
        self.network = network
        self._sock = sock
        host, port = sock.getsockname()[:2]
        self.address = f"{host}:{port}"
        self.closed = False

    def send(self, dest: str, message: Message) -> None:
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        frame = encode_message(message)
        if self.network._drop():
            return
        try:
            self._sock.sendto(frame, _split_address(dest))
        except OSError:
            # Unreachable peers look like loss, as UDP intends.
            pass

    def recv_from(self, timeout_ms: float) -> Optional[tuple[Message, str]]:
        if self.closed:
            raise EndpointClosed(f"endpoint {self.address} is closed")
        self._sock.settimeout(max(timeout_ms, 0.0) / 1000.0 or 0.000001)
        try:
            data, peer = self._sock.recvfrom(MAX_DATAGRAM * 2)
        except socket.timeout:
            return None
        except OSError:
            return None
        try:
            message = decode_message(data)
        except Malformed:
            return None
        return message, f"{peer[0]}:{peer[1]}"

    def recv(self, timeout_ms: float) -> Optional[Message]:
        received = self.recv_from(timeout_ms)
        return received[0] if received else None

    def close(self) -> None:
        self.closed = True
        self._sock.close()
