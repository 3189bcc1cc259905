"""Wire-protocol tests: frame fuzzing and codec exactness.

The frame decoder's contract is "valid message, clean EOF, or
ProtocolError — never a hang": every fuzz case here closes the writing
end, so a decoder that waited for more bytes than the peer sent would
deadlock the test instead of passing it.
"""

import json
import socket
import struct

import pytest

from repro.bgp.config import BGPConfig
from repro.core.sweep import SweepUnit, execute_sweep_unit
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    MSG_LEASE,
    PROTOCOL_VERSION,
    FrameStream,
    batch_result_from_wire,
    batch_result_to_wire,
    decode_frame_payload,
    encode_frame,
    unit_from_wire,
    unit_to_wire,
)
from repro.errors import ConnectionLostError, ProtocolError

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


def _unit(**overrides):
    fields = dict(
        scenario="baseline",
        n=60,
        num_origins=2,
        batch_index=0,
        num_batches=1,
        seed=9,
        config=FAST,
        scenario_kwargs=(),
    )
    fields.update(overrides)
    return SweepUnit(**fields)


@pytest.fixture()
def pipe():
    """(reader FrameStream, writer socket) over a local socketpair."""
    left, right = socket.socketpair()
    left.settimeout(5.0)  # belt and braces: a hung read fails, not blocks
    stream = FrameStream(left)
    yield stream, right
    right.close()
    stream.close()


class TestFrameCodec:
    def test_roundtrip(self, pipe):
        stream, writer = pipe
        writer.sendall(encode_frame({"type": MSG_LEASE, "payload": [1, 2.5, None]}))
        message = stream.recv()
        assert message == {
            "type": MSG_LEASE,
            "payload": [1, 2.5, None],
            "v": PROTOCOL_VERSION,
        }

    def test_clean_eof_is_none(self, pipe):
        stream, writer = pipe
        writer.close()
        assert stream.recv() is None

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            encode_frame({"type": "teleport"})

    def test_encode_rejects_missing_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            encode_frame({"payload": 1})

    def test_encode_rejects_unserializable(self):
        with pytest.raises(ProtocolError, match="not JSON-serializable"):
            encode_frame({"type": MSG_LEASE, "payload": object()})

    def test_encode_rejects_nan(self):
        with pytest.raises(ProtocolError, match="not JSON-serializable"):
            encode_frame({"type": MSG_LEASE, "payload": float("nan")})

    def test_encode_rejects_oversized(self, monkeypatch):
        monkeypatch.setattr("repro.dist.protocol.MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": MSG_LEASE, "payload": "x" * 100})


class TestFrameFuzz:
    """Malformed byte streams must fail cleanly, never hang."""

    def test_truncated_length_prefix(self, pipe):
        stream, writer = pipe
        writer.sendall(b"\x00\x00")  # 2 of 4 prefix bytes
        writer.close()
        with pytest.raises(ProtocolError, match="truncated"):
            stream.recv()

    def test_truncated_body(self, pipe):
        stream, writer = pipe
        writer.sendall(struct.pack("!I", 100) + b'{"v":1')  # promises 100 bytes
        writer.close()
        with pytest.raises(ProtocolError, match="truncated"):
            stream.recv()

    def test_zero_length_frame(self, pipe):
        stream, writer = pipe
        writer.sendall(struct.pack("!I", 0))
        with pytest.raises(ProtocolError, match="zero-length"):
            stream.recv()

    def test_oversized_declared_length(self, pipe):
        # Rejected from the prefix alone: no body bytes are ever sent, so
        # a decoder that tried to read them would hang here.
        stream, writer = pipe
        writer.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            stream.recv()

    def test_garbage_body(self, pipe):
        stream, writer = pipe
        blob = b"\xde\xad\xbe\xef not json"
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            stream.recv()

    def test_non_object_payload(self, pipe):
        stream, writer = pipe
        blob = b"[1,2,3]"
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="JSON object"):
            stream.recv()

    def test_wrong_protocol_version(self, pipe):
        stream, writer = pipe
        blob = json.dumps({"v": PROTOCOL_VERSION + 1, "type": MSG_LEASE}).encode()
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="version mismatch"):
            stream.recv()

    def test_missing_version(self, pipe):
        stream, writer = pipe
        blob = json.dumps({"type": MSG_LEASE}).encode()
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="version mismatch"):
            stream.recv()

    def test_unknown_type(self, pipe):
        stream, writer = pipe
        blob = json.dumps({"v": PROTOCOL_VERSION, "type": "teleport"}).encode()
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="unknown message type"):
            stream.recv()

    @pytest.mark.parametrize("kind", ["partition", "pcmd", "preport"])
    def test_retired_partition_kinds_name_the_removal(self, pipe, kind):
        # Version 2 still speaks the lease frames, so a peer built before
        # the partition mode was removed passes the version check and is
        # told why its frame is refused.
        stream, writer = pipe
        blob = json.dumps({"v": PROTOCOL_VERSION, "type": kind}).encode()
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError, match="partition mode, which was removed"):
            stream.recv()
        with pytest.raises(ProtocolError, match="unknown message type"):
            encode_frame({"type": kind})

    def test_broken_connection_is_told_from_a_bad_frame(self, pipe):
        stream, writer = pipe
        blob = b"[1,2,3]"
        writer.sendall(struct.pack("!I", len(blob)) + blob)
        with pytest.raises(ProtocolError) as bad_frame:
            stream.recv()
        assert not isinstance(bad_frame.value, ConnectionLostError)
        writer.sendall(struct.pack("!I", 100) + b'{"v":2')
        writer.close()
        with pytest.raises(ConnectionLostError, match="truncated"):
            stream.recv()

    def test_decode_payload_direct(self):
        with pytest.raises(ProtocolError):
            decode_frame_payload(b"\xff\xfe")
        with pytest.raises(ProtocolError):
            decode_frame_payload(b'"just a string"')


class TestUnitCodec:
    def test_roundtrip_is_exact(self):
        unit = _unit(
            scenario_kwargs=(("alpha", 0.1), ("flag", True), ("name", "x")),
            config=BGPConfig(mrai=30.0, link_delay=0.0125),
        )
        wire = json.loads(json.dumps(unit_to_wire(unit)))
        assert unit_from_wire(wire) == unit

    def test_non_json_kwarg_rejected(self):
        unit = _unit(scenario_kwargs=(("bad", object()),))
        with pytest.raises(ProtocolError, match="non-JSON"):
            unit_to_wire(unit)

    def test_malformed_wire_unit_rejected(self):
        with pytest.raises(ProtocolError, match="malformed sweep unit"):
            unit_from_wire({"scenario": "baseline"})


class TestBatchResultCodec:
    def test_roundtrip_is_exact(self):
        result = execute_sweep_unit(_unit())
        wire = json.loads(json.dumps(batch_result_to_wire(result)))
        back = batch_result_from_wire(wire)
        assert back.summary == result.summary
        assert back.config == result.config
        assert back.seed == result.seed
        assert back.origins == result.origins
        assert back.raw == result.raw
        assert back.down_totals == result.down_totals
        assert back.up_totals == result.up_totals
        assert back.down_convergence == result.down_convergence
        assert back.up_convergence == result.up_convergence
        assert back.measured_messages == result.measured_messages
        assert back.wall_clock_seconds == result.wall_clock_seconds

    def test_malformed_wire_result_rejected(self):
        with pytest.raises(ProtocolError, match="malformed batch result"):
            batch_result_from_wire({"seed": 1})
