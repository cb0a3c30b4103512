"""TCP fleet transport: wire codec, asset channel, failure modes.

* the wire codec round-trips every protocol dataclass bit-exactly and
  refuses malformed, truncated or retired frames loudly;
* a lease service behind :class:`TcpTransport` serves published asset
  packs over the socket;
* every failure mode -- garbage frames, truncated frames, spoofed
  client ids, unknown asset packs, a handshake in another protocol
  version -- is loud on the side that caused it and never a hang; the
  offending client is dropped and the rest of the fleet keeps running.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.nn.serialization import pack_state
from repro.serving import (
    CellCoordinator,
    CellDone,
    GONScoringService,
    LeaseGrant,
    LeaseRequest,
    QueueTransport,
    TcpTransport,
    TcpWorkerChannel,
    TransportError,
    fetch_array_pack,
    parse_address,
    serve_transport,
)
from repro.serving import wire
from repro.serving.service import ClientDone


def _decode_frame(frame: bytes):
    """Parse one encoded frame the way ``recv_message`` would."""
    magic, code, header_len, body_len = wire._PREFIX.unpack(
        frame[: wire._PREFIX.size]
    )
    assert magic == wire.MAGIC
    header_end = wire._PREFIX.size + header_len
    assert len(frame) == header_end + body_len
    return wire.decode_payload(
        code, frame[wire._PREFIX.size : header_end], frame[header_end:]
    )


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_control_messages_roundtrip(self):
        done = _decode_frame(wire.encode_message(ClientDone(client_id=4)))
        assert done == ClientDone(client_id=4)
        index = _decode_frame(
            wire.encode_message(
                wire.AssetIndex(index={"s": {"gon_hidden": 8, "seed": 3}})
            )
        )
        assert index.index["s"]["gon_hidden"] == 8

    def test_bad_magic_is_loud(self):
        frame = bytearray(wire.encode_message(ClientDone(client_id=0)))
        frame[:4] = b"EVIL"
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            with pytest.raises(wire.WireError, match="magic"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_unknown_type_code_is_loud(self):
        # 99 was never assigned; 8-10, 12 and 13 are the retired
        # remote-scoring frames (ascent/confidence requests, overlay
        # updates and their replies), which must never decode again.
        for code in (99, 8, 9, 10, 12, 13):
            with pytest.raises(wire.WireError, match="unknown wire message"):
                wire.decode_payload(code, b"{}", b"")

    def test_garbage_header_is_loud(self):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_payload(1, b"\xff\xfenot json", b"")

    def test_oversized_frame_is_refused(self):
        prefix = wire._PREFIX.pack(wire.MAGIC, 1, 1, wire.MAX_BODY_BYTES + 1)
        left, right = socket.socketpair()
        try:
            left.sendall(prefix)
            with pytest.raises(wire.WireError, match="cap"):
                wire.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_is_loud(self, rng):
        buffer, manifest = pack_state({"w": rng.standard_normal((2, 4, 3))})
        frame = wire.encode_message(
            wire.AssetReply(
                pack="s/weights",
                manifest=tuple(tuple(e) for e in manifest),
                buffer=buffer,
            )
        )
        left, right = socket.socketpair()
        try:
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.recv_message(right)
        finally:
            right.close()

    def test_eof_at_boundary_is_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(wire.ConnectionClosed):
                wire.recv_message(right)
        finally:
            right.close()

    def test_body_shorter_than_manifest_is_loud(self, rng):
        frame = wire.encode_message(
            wire.AssetReply(
                pack="p",
                manifest=(("w", (4,), "<f8", 0),),
                buffer=np.zeros(32, dtype=np.uint8),
            )
        )
        magic, code, header_len, body_len = wire._PREFIX.unpack(
            frame[: wire._PREFIX.size]
        )
        header = frame[wire._PREFIX.size : wire._PREFIX.size + header_len]
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode_payload(code, header, b"\x00" * 4)

    def test_bogus_manifest_dtype_is_wire_error(self):
        # A lying header (invalid dtype string) must decode to a
        # WireError -- not a stray TypeError that a reader thread's
        # except clause would miss, stranding the service in a hang.
        import json as json_module

        header = json_module.dumps({
            "pack": "p",
            "manifest": [["w", [4], "<f8", 0]],
            "__pack__": [["buffer", [32], "bogus64", 0]],
        }).encode()
        code = wire._CODE_BY_CLASS[wire.AssetReply]
        with pytest.raises(wire.WireError, match="invalid"):
            wire.decode_payload(code, header, b"\x00" * 32)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7911") == ("127.0.0.1", 7911)
        with pytest.raises(TransportError, match="host:port"):
            parse_address("localhost")
        with pytest.raises(TransportError, match="host:port"):
            parse_address("host:port")


# ----------------------------------------------------------------------
# Queue transport (the preserved historical plumbing)
# ----------------------------------------------------------------------
class TestQueueTransport:
    def test_endpoints_are_the_service_queues(self):
        transport = QueueTransport(2)
        transport.start()
        request_queue, reply_queue = transport.worker_endpoints(1)
        assert request_queue is transport.request_queue
        assert reply_queue is transport.reply_queues[1]
        assert set(transport.reply_queues) == {0, 1}
        transport.close()


# ----------------------------------------------------------------------
# TCP lease service
# ----------------------------------------------------------------------
@pytest.fixture
def tcp_service():
    """Start a TCP-fronted lease service over one cell; yields a factory.

    The service runs until a client leases and completes the cell, or
    until the test ends (teardown aborts it), so a test that only
    probes failure paths never leaves a serve loop behind.
    """
    started = []

    def start(n_clients=1, asset_packs=None, asset_index=None):
        transport = TcpTransport(
            n_clients, asset_packs=asset_packs, asset_index=asset_index
        )
        transport.start()
        service = GONScoringService(
            transport.request_queue,
            transport.reply_queues,
            CellCoordinator([0]),
            poll_seconds=0.05,
            heartbeat_timeout=0.0,
        )
        service.on_worker_lost = transport.close_client
        stop = threading.Event()
        outcome = {}

        def run():
            try:
                outcome["stats"] = serve_transport(
                    service, transport, abort=stop.is_set
                )
            except BaseException as error:
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        started.append((transport, stop, thread))
        return transport, service, thread, outcome

    yield start
    for transport, stop, thread in started:
        stop.set()
        thread.join(timeout=15)
        transport.close()


def _await_lost(service, client_id, timeout=15.0):
    """Wait until the service declares ``client_id`` lost."""
    deadline = time.monotonic() + timeout
    while client_id not in service.lost:
        assert time.monotonic() < deadline, "client was never declared lost"
        time.sleep(0.02)


def _finish_campaign(transport):
    """A well-behaved worker: lease the cell, complete it, sign off."""
    channel = TcpWorkerChannel(transport.address)
    channel.put(LeaseRequest(client_id=channel.client_id, request_id=1))
    grant = channel.get()
    assert isinstance(grant, LeaseGrant) and grant.cell_id == 0
    channel.put(CellDone(client_id=channel.client_id, cell_id=0))
    channel.put(LeaseRequest(client_id=channel.client_id, request_id=2))
    assert channel.get().drained
    channel.put(ClientDone(channel.client_id))
    channel.close()


class TestTcpScoringService:
    def test_lease_roundtrip_over_tcp(self, tcp_service):
        transport, service, thread, outcome = tcp_service()
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome
        assert outcome["stats"].leases_granted == 1
        assert outcome["stats"].cells_completed == 1

    def test_asset_fetch_is_cached_per_process(self, tcp_service, rng):
        arrays = {"w": rng.standard_normal((6, 4)), "b": rng.standard_normal(4)}
        packs = {"scenario/weights": pack_state(arrays)}
        index = {"scenario": {"gon_hidden": 8, "gon_layers": 2,
                              "seed": 1, "gan_seed": 1}}
        transport, _service, thread, _outcome = tcp_service(
            asset_packs=packs, asset_index=index
        )
        channel = TcpWorkerChannel(transport.address)
        assert channel.fetch_index() == index
        fetched = fetch_array_pack(channel, "scenario/weights")
        for name, array in arrays.items():
            assert np.array_equal(fetched.arrays[name], array)
            assert not fetched.arrays[name].flags.writeable
        # Second fetch is served from the per-process cache.
        again = fetch_array_pack(channel, "scenario/weights")
        assert again is fetched
        channel.put(ClientDone(channel.client_id))
        channel.close()
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Failure modes: loud protocol errors, never hangs
# ----------------------------------------------------------------------
class TestTransportFailureModes:
    def test_malformed_frame_drops_the_client_loudly(self, tcp_service):
        transport, service, thread, outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        channel._sock.sendall(b"this is not a CRL1 frame at all........")
        _await_lost(service, channel.client_id)
        # The client is disconnected, not hung.
        with pytest.raises(TransportError):
            channel.get()
        channel.close()
        # The rest of the fleet is untouched.
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome

    def test_truncated_frame_is_a_loud_protocol_error(self, tcp_service, capsys):
        transport, service, thread, _outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        frame = wire.encode_message(
            LeaseRequest(client_id=channel.client_id, request_id=1)
        )
        channel._sock.sendall(frame[: len(frame) - 4])
        channel.close()  # EOF mid-frame
        _await_lost(service, channel.client_id)
        assert "mid-frame" in capsys.readouterr().err

    def test_client_id_spoofing_is_rejected(self, tcp_service, capsys):
        transport, service, thread, _outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        channel.put(LeaseRequest(client_id=channel.client_id + 7, request_id=1))
        _await_lost(service, channel.client_id)
        assert "claiming client id" in capsys.readouterr().err
        # The spoofed frame never reached the lease queue.
        assert service.coordinator.lease_view() == {}
        channel.close()

    def test_server_only_frame_from_a_client_is_rejected(self, tcp_service, capsys):
        transport, service, thread, outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        channel.put(LeaseGrant(request_id=1, cell_id=0))
        _await_lost(service, channel.client_id)
        assert "which clients may not send" in capsys.readouterr().err
        channel.close()
        # The service survived the violation and serves the rest.
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome

    def test_unknown_asset_pack_is_loud(self, tcp_service, capsys):
        transport, service, thread, _outcome = tcp_service()
        channel = TcpWorkerChannel(transport.address)
        with pytest.raises(TransportError):
            channel.fetch_pack("no-such-scenario/weights")
        _await_lost(service, channel.client_id)
        assert "unknown asset pack" in capsys.readouterr().err
        channel.close()

    def test_handshake_without_hello_is_loud(self, tcp_service):
        transport, _service, thread, outcome = tcp_service()
        rejections = telemetry.counter("fleet.handshake_rejections")
        before = rejections.value
        raw = socket.create_connection((transport.host, transport.port))
        raw.settimeout(15)
        raw.sendall(struct.pack("!I", 0xDEADBEEF) * 8)
        # Refused: the service closes the connection instead of
        # welcoming it, and keeps accepting proper workers.
        with pytest.raises(wire.WireError):
            wire.recv_message(raw)
        raw.close()
        assert rejections.value == before + 1
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome

    def test_old_protocol_hello_is_refused_loudly(self, tcp_service):
        transport, _service, thread, outcome = tcp_service()
        raw = socket.create_connection((transport.host, transport.port))
        raw.settimeout(15)  # a hang fails the test instead of stalling it
        wire.send_message(raw, wire.Hello(protocol=2))
        refusal = wire.recv_message(raw)
        assert isinstance(refusal, wire.ServiceError)
        assert "wire protocol 2" in refusal.message
        assert f"speaks {wire.PROTOCOL_VERSION}" in refusal.message
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_message(raw)
        raw.close()
        # A current client still joins: the refusal consumed no id.
        _finish_campaign(transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert "error" not in outcome

    def test_connect_to_dead_address_times_out_loudly(self):
        # Grab a port and close it again: nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="could not reach"):
            TcpWorkerChannel(f"127.0.0.1:{port}", connect_timeout=0.5)
