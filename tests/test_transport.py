"""Wire codec and both networks' behaviour."""

import random
import socket
import time

import pytest

from crowdmw.clock import VirtualClock, WallClock
from crowdmw.transport import (
    HEADER_LEN,
    MAX_PAYLOAD,
    Malformed,
    Message,
    MessageKind,
    NetConfig,
    PayloadTooLarge,
    SimulatedNetwork,
    UdpNetwork,
    decode_message,
    encode_message,
)


def test_hand_assembled_ping_frame():
    # version 3, kind PING, sender 5, cycle 0, empty payload.
    frame = encode_message(Message(kind=MessageKind.PING, sender=5,
                                   cycle_id=0))
    assert frame == bytes([3, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0])
    assert len(frame) == HEADER_LEN


def test_hand_assembled_frame_with_payload():
    frame = encode_message(Message(kind=MessageKind.CYCLE_ABORT, sender=7,
                                   cycle_id=3, payload=b"reason=x"))
    expected = bytes([3, 8, 0, 0, 0, 7, 0, 0, 0, 3, 0, 8]) + b"reason=x"
    assert frame == expected
    parsed = decode_message(expected)
    assert parsed.kind is MessageKind.CYCLE_ABORT
    assert parsed.sender == 7
    assert parsed.cycle_id == 3
    assert parsed.payload == b"reason=x"


def test_codec_roundtrip_ten_thousand_random_messages():
    rng = random.Random(42)
    kinds = list(MessageKind)
    for _ in range(10_000):
        message = Message(
            kind=rng.choice(kinds),
            sender=rng.randrange(2**32),
            cycle_id=rng.randrange(2**32),
            payload=bytes(rng.randrange(256)
                          for _ in range(rng.randrange(64))),
        )
        assert decode_message(encode_message(message)) == message


def test_payload_size_limit():
    encode_message(Message(kind=MessageKind.DATA_SUBMIT, sender=1,
                           cycle_id=0, payload=b"x" * MAX_PAYLOAD))
    with pytest.raises(PayloadTooLarge):
        encode_message(Message(kind=MessageKind.DATA_SUBMIT, sender=1,
                               cycle_id=0, payload=b"x" * (MAX_PAYLOAD + 1)))


def test_decode_rejects_garbage():
    with pytest.raises(Malformed):
        decode_message(b"short")
    good = encode_message(Message(kind=MessageKind.PING, sender=1,
                                  cycle_id=0, payload=b"abcd"))
    with pytest.raises(Malformed):
        decode_message(good[:-1])  # truncated payload
    with pytest.raises(Malformed):
        decode_message(bytes([9]) + good[1:])  # unknown version
    with pytest.raises(Malformed):
        decode_message(bytes([1]) + good[1:])  # a v1 frame
    with pytest.raises(Malformed):
        decode_message(bytes([2]) + good[1:])  # a v2 frame
    with pytest.raises(Malformed):
        decode_message(bytes([3, 200]) + good[2:])  # unknown kind


def _network(loss=0.0, seed=0, latency=(40.0, 90.0), tx=0.0):
    clock = VirtualClock()
    config = NetConfig(loss_rate=loss, latency_ms=latency, seed=seed,
                       transmission_us_per_byte=tx)
    return SimulatedNetwork(config, clock), clock


def _drain(network):
    while network.next_due_ms() is not None:
        network.dispatch_next()


def _open(network, address):
    """Open an endpoint whose handler appends each delivery to a list."""
    endpoint = network.open(address)
    received = []
    endpoint.handler = lambda message, src: received.append((message, src))
    return endpoint, received


def test_simulated_delivery_and_latency_bounds():
    network, clock = _network()
    a = network.open("a:1")
    _, received = _open(network, "b:1")
    message = Message(kind=MessageKind.PING, sender=1, cycle_id=0)
    a.send("b:1", message)
    due = network.next_due_ms()
    assert 40.0 <= due <= 90.0
    network.dispatch_next()
    assert clock.now_ms() == due
    assert received == [(message, "a:1")]


def test_simulated_receiver_gets_the_senders_message():
    network, _ = _network()
    a = network.open("a:1")
    _, received = _open(network, "b:1")
    message = Message(kind=MessageKind.DATA_SUBMIT, sender=1, cycle_id=7,
                      payload=b"origin=1;part=0/1;base=0;trace=<")
    a.send("b:1", message)
    _drain(network)
    assert received == [(message, "a:1")]
    # The same object: the network delivers it without a decode.
    assert received[0][0] is message


@pytest.mark.parametrize("message, error", [
    (Message(kind=MessageKind.DATA_SUBMIT, sender=1, cycle_id=0,
             payload=b"x" * (MAX_PAYLOAD + 1)), PayloadTooLarge),
    (Message(kind=MessageKind.PING, sender=2 ** 32, cycle_id=0), ValueError),
    (Message(kind=MessageKind.PING, sender=1, cycle_id=2 ** 32), ValueError),
    (Message(kind=int(MessageKind.PING), sender=1, cycle_id=0), ValueError),
], ids=["oversized-payload", "sender-2**32", "cycle-2**32", "int-kind"])
def test_simulated_send_refuses_what_the_codec_refuses(message, error):
    network, _ = _network(tx=15.0)
    a = network.open("a:1")
    _open(network, "b:1")
    with pytest.raises(error):
        a.send("b:1", message)
    assert network.next_due_ms() is None
    assert (network.sent, network.dropped) == (0, 0)
    assert a.next_free_ms == 0.0


def test_transmission_cost_is_the_frame_length():
    us_per_byte = 15.0
    network, _ = _network(tx=us_per_byte)
    a = network.open("a:1")
    _open(network, "b:1")
    payload = b"origin=1;part=0/1;base=0;trace=<"
    step = (HEADER_LEN + len(payload)) * us_per_byte / 1000.0
    for expected in (step, step + step):
        a.send("b:1", Message(kind=MessageKind.DATA_SUBMIT, sender=1,
                              cycle_id=0, payload=payload))
        assert a.next_free_ms == expected


def test_loss_rate_statistics():
    network, _ = _network(loss=0.25, seed=9)
    a = network.open("a:1")
    _open(network, "b:1")
    message = Message(kind=MessageKind.PING, sender=1, cycle_id=0)
    total = 10_000
    for _ in range(total):
        a.send("b:1", message)
    _drain(network)
    fraction = network.delivered / total
    assert abs(fraction - 0.75) < 0.02


def test_same_seed_same_delivery_schedule():
    def run():
        network, _ = _network(loss=0.3, seed=4)
        a = network.open("a:1")
        _, received = _open(network, "b:1")
        for i in range(200):
            a.send("b:1", Message(kind=MessageKind.PING, sender=1,
                                  cycle_id=i))
        _drain(network)
        return [message.cycle_id for message, _ in received]

    assert run() == run()


def test_reorders_but_never_duplicates():
    network, _ = _network(seed=11)
    a = network.open("a:1")
    _, received = _open(network, "b:1")
    for i in range(500):
        a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=i))
    _drain(network)
    seen = [message.cycle_id for message, _ in received]
    assert len(seen) == 500
    assert sorted(seen) == list(range(500))
    assert seen != list(range(500))  # latency jitter reorders some


def test_transmission_cost_serializes_sender():
    # With per-byte cost, back-to-back sends depart one after another.
    network, _ = _network(latency=(10.0, 10.0), tx=1000.0)
    a = network.open("a:1")
    _open(network, "b:1")
    frame_ms = HEADER_LEN * 1.0  # 1000 us/byte = 1 ms/byte, empty payload
    for _ in range(3):
        a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    dues = []
    while network.next_due_ms() is not None:
        dues.append(network.next_due_ms())
        network.dispatch_next()
    assert dues == sorted(dues)
    spacing = [round(b_ - a_, 6) for a_, b_ in zip(dues, dues[1:])]
    assert spacing == [frame_ms, frame_ms]


def _due_times(loss):
    """Send 300 frames of varied sizes from a:1, ten per instant, landing
    what is due before each instant; return {cycle_id: due time} of the
    frames delivered, and what the frames and the seed predict: per
    send, in send order, a loss draw when ``loss`` is positive, then, if
    kept, ``uniform(40, 90)`` added to the departure."""
    network, clock = _network(loss=loss, seed=17, tx=15.0)
    a = network.open("a:1")
    b = network.open("b:1")
    dues = {}
    b.handler = lambda message, src: dues.setdefault(message.cycle_id,
                                                     clock.now_ms())
    rng = random.Random(17)
    expected, free = {}, 0.0
    for i in range(300):
        now = 7.5 * (i // 10)
        while (network.next_due_ms() is not None
               and network.next_due_ms() <= now):
            network.dispatch_next()
        clock.advance_to(now)
        message = Message(kind=MessageKind.DATA_SUBMIT, sender=1,
                          cycle_id=i, payload=b"x" * (i % 37))
        a.send("b:1", message)
        if loss > 0.0 and rng.random() < loss:
            continue
        depart = max(now, free) + len(encode_message(message)) * 15.0 / 1000.0
        free = depart
        expected[i] = depart + rng.uniform(40.0, 90.0)
    _drain(network)
    return dues, expected


@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_due_time_is_departure_plus_a_seeded_uniform_draw(loss):
    dues, expected = _due_times(loss)
    assert len(expected) == 300 if loss == 0.0 else 150 < len(expected) < 250
    assert dues == expected


def test_partition_blocks_cross_group_traffic():
    network, clock = _network(latency=(5.0, 5.0))
    a = network.open("a:1")
    _, received = _open(network, "b:1")
    c = network.open("c:1")
    network.add_partition(frozenset({"a:1"}), 0.0, 100.0)
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    c.send("b:1", Message(kind=MessageKind.PING, sender=3, cycle_id=0))
    _drain(network)
    assert [src for _, src in received] == ["c:1"]
    # After the window, the same path works again.
    clock.advance_to(200.0)
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=1))
    _drain(network)
    assert [src for _, src in received] == ["c:1", "a:1"]


def test_send_to_closed_endpoint_is_silent_drop():
    network, _ = _network(latency=(5.0, 5.0))
    a = network.open("a:1")
    b = network.open("b:1")
    b.close()
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    _drain(network)
    assert network.dropped == 1
    assert network.delivered == 0


def _udp_pair():
    """A UDP network with two endpoints, each recording what reaches it."""
    network = UdpNetwork(NetConfig(), WallClock())
    endpoints, received = [], []
    for _ in range(2):
        endpoint = network.open()
        got = []
        endpoint.handler = lambda message, src, got=got: got.append(
            (message, src))
        endpoints.append(endpoint)
        received.append(got)
    return network, endpoints, received


def test_udp_roundtrip_over_loopback():
    network, (a, b), (_, received) = _udp_pair()
    try:
        message = Message(kind=MessageKind.PONG, sender=2, cycle_id=1,
                          payload=b"feedbeeffeedbeef")
        a.send(b.address, message)
        deadline = network.clock.now_ms() + 2000.0
        while not received and not network.wait_until(deadline):
            pass
        assert received == [(message, a.address)]
        assert (network.sent, network.dropped, network.delivered) == (1, 0, 1)
    finally:
        network.close()
    assert a.closed and b.closed


def test_udp_wait_until_a_passed_time_returns_before_traffic():
    # A due fault or timer goes first: with a datagram pending, a wait
    # for a time already passed reads nothing; the next wait delivers.
    network, (a, b), (_, received) = _udp_pair()
    try:
        a.send(b.address, Message(kind=MessageKind.PING, sender=1,
                                  cycle_id=0))
        time.sleep(0.05)
        now = network.clock.now_ms()
        assert network.wait_until(now - 1) is True
        assert received == []
        assert network.wait_until(now + 500) is False
        assert [message.kind for message, _ in received] == [
            MessageKind.PING]
    finally:
        network.close()


def test_udp_partition_and_loss_apply_at_send():
    network, (a, b), (_, received) = _udp_pair()
    try:
        now = network.clock.now_ms()
        network.add_partition(frozenset({a.address}), now, now + 60_000)
        a.send(b.address, Message(kind=MessageKind.PING, sender=1,
                                  cycle_id=0))
        network.set_loss_rate(1.0)
        network.open().send(b.address, Message(kind=MessageKind.PING,
                                               sender=3, cycle_id=0))
        assert network.wait_until(network.clock.now_ms() + 100) is True
        assert received == []
        assert (network.sent, network.dropped, network.delivered) == (2, 2, 0)
    finally:
        network.close()


@pytest.mark.parametrize("backend", ["sim", "udp"])
def test_set_loss_rate_outside_unit_interval_is_refused(backend):
    if backend == "sim":
        network = SimulatedNetwork(NetConfig(), VirtualClock())
    else:
        network = UdpNetwork(NetConfig(), WallClock())
    try:
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError):
                network.set_loss_rate(rate)
    finally:
        network.close()


def test_udp_recv_from_reads_bad_datagrams_as_nothing():
    # Bytes from outside are decoded where a socket is read: a short
    # datagram, a v2 frame and a payload shorter than its header says
    # reach no handler, and the next good frame still arrives.
    network, (endpoint, _), (received, _) = _udp_pair()
    raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        raw.bind(("127.0.0.1", 0))
        host, port = endpoint.address.rsplit(":", 1)
        good = encode_message(Message(kind=MessageKind.PONG, sender=2,
                                      cycle_id=1, payload=b"abcd"))
        for frame in (good[:HEADER_LEN - 1], bytes([2]) + good[1:],
                      good[:-1], good):
            raw.sendto(frame, (host, int(port)))
        deadline = network.clock.now_ms() + 2000.0
        while not received and not network.wait_until(deadline):
            pass
        assert received == [(decode_message(good),
                             f"127.0.0.1:{raw.getsockname()[1]}")]
        assert network.delivered == 1
    finally:
        raw.close()
        network.close()
