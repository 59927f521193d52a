"""Wire codec and simulated network behaviour."""

import random

import pytest

from crowdmw.clock import VirtualClock
from crowdmw.transport import (
    HEADER_LEN,
    MAX_PAYLOAD,
    Malformed,
    Message,
    MessageKind,
    NetConfig,
    PayloadTooLarge,
    SimulatedNetwork,
    TransportMode,
    UdpNetwork,
    decode_message,
    encode_message,
)


def test_hand_assembled_ping_frame():
    # version 2, kind PING, sender 5, cycle 0, empty payload.
    frame = encode_message(Message(kind=MessageKind.PING, sender=5,
                                   cycle_id=0))
    assert frame == bytes([2, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0])
    assert len(frame) == HEADER_LEN


def test_hand_assembled_frame_with_payload():
    frame = encode_message(Message(kind=MessageKind.CYCLE_ABORT, sender=7,
                                   cycle_id=3, payload=b"reason=x"))
    expected = bytes([2, 8, 0, 0, 0, 7, 0, 0, 0, 3, 0, 8]) + b"reason=x"
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
        decode_message(bytes([2, 200]) + good[2:])  # unknown kind


def _network(loss=0.0, seed=0, latency=(40.0, 90.0), tx=0.0):
    clock = VirtualClock()
    config = NetConfig(loss_rate=loss, latency_ms=latency, seed=seed,
                       transmission_us_per_byte=tx)
    return SimulatedNetwork(config, clock), clock


def _drain(network, until=10**9):
    delivered = []
    while network.next_due_ms() is not None:
        if network.next_due_ms() > until:
            break
        network.dispatch_next()
    return delivered


def test_simulated_delivery_and_latency_bounds():
    network, clock = _network()
    a = network.open("a:1")
    b = network.open("b:1")
    message = Message(kind=MessageKind.PING, sender=1, cycle_id=0)
    a.send("b:1", message)
    due = network.next_due_ms()
    assert 40.0 <= due <= 90.0
    network.dispatch_next()
    assert clock.now_ms() == due
    received = b.poll()
    assert received is not None
    assert received[0] == message
    assert received[1] == "a:1"


def test_loss_rate_statistics():
    network, _ = _network(loss=0.25, seed=9)
    a = network.open("a:1")
    network.open("b:1")
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
        b = network.open("b:1")
        order = []
        for i in range(200):
            a.send("b:1", Message(kind=MessageKind.PING, sender=1,
                                  cycle_id=i))
        while network.next_due_ms() is not None:
            network.dispatch_next()
            got = b.poll()
            if got is not None:
                order.append(got[0].cycle_id)
        return order

    assert run() == run()


def test_reorders_but_never_duplicates():
    network, _ = _network(seed=11)
    a = network.open("a:1")
    b = network.open("b:1")
    for i in range(500):
        a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=i))
    while network.next_due_ms() is not None:
        network.dispatch_next()
    seen = []
    while (got := b.poll()) is not None:
        seen.append(got[0].cycle_id)
    assert len(seen) == 500
    assert sorted(seen) == list(range(500))
    assert seen != list(range(500))  # latency jitter reorders some


def test_transmission_cost_serializes_sender():
    # With per-byte cost, back-to-back sends depart one after another.
    network, _ = _network(latency=(10.0, 10.0), tx=1000.0)
    a = network.open("a:1")
    b = network.open("b:1")
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


def test_partition_blocks_cross_group_traffic():
    network, clock = _network(latency=(5.0, 5.0))
    a = network.open("a:1")
    b = network.open("b:1")
    c = network.open("c:1")
    network.add_partition(frozenset({"a:1"}), 0.0, 100.0)
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    c.send("b:1", Message(kind=MessageKind.PING, sender=3, cycle_id=0))
    _drain(network)
    got = b.poll()
    assert got is not None and got[1] == "c:1"
    assert b.poll() is None
    # After the window, the same path works again.
    clock.advance_to(200.0)
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=1))
    _drain(network)
    got = b.poll()
    assert got is not None and got[1] == "a:1"


def test_send_to_closed_endpoint_is_silent_drop():
    network, _ = _network(latency=(5.0, 5.0))
    a = network.open("a:1")
    b = network.open("b:1")
    b.close()
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    _drain(network)
    assert network.dropped == 1
    assert network.delivered == 0


def test_recv_from_advances_virtual_clock():
    network, clock = _network(latency=(30.0, 30.0))
    a = network.open("a:1")
    b = network.open("b:1")
    a.send("b:1", Message(kind=MessageKind.PING, sender=1, cycle_id=0))
    got = b.recv_from(timeout_ms=100.0)
    assert got is not None
    assert clock.now_ms() == 30.0
    assert b.recv_from(timeout_ms=50.0) is None
    assert clock.now_ms() == 80.0


def test_udp_roundtrip_over_loopback():
    network = UdpNetwork(NetConfig(mode=TransportMode.UDP))
    a = network.open()
    b = network.open()
    try:
        message = Message(kind=MessageKind.PONG, sender=2, cycle_id=1,
                          payload=b"feedbeeffeedbeef")
        a.send(b.address, message)
        got = b.recv_from(timeout_ms=2000.0)
        assert got is not None
        assert got[0] == message
        assert got[1] == a.address
    finally:
        a.close()
        b.close()
