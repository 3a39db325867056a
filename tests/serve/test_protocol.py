"""Wire-protocol unit tests: framing, validation, and the pipelined client."""

import io
import socket
import threading

import pytest

from repro.serve import ServeClient
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    read_messages,
    validate_request,
)


class CountingStream(io.RawIOBase):
    """``size`` bytes of ``x`` with no newline, counting the bytes read."""

    def __init__(self, size):
        self.remaining = size
        self.consumed = 0

    def readable(self):
        return True

    def readinto(self, buffer):
        count = min(len(buffer), self.remaining)
        buffer[:count] = b"x" * count
        self.remaining -= count
        self.consumed += count
        return count


class TestFraming:
    def test_round_trip_is_exact(self):
        message = {"id": 7, "op": "recommend", "user": "u12", "k": 10}
        assert decode_message(encode_message(message)) == message

    def test_encoding_is_canonical(self):
        wire = encode_message({"op": "health", "id": 1})
        assert wire == b'{"id":1,"op":"health"}\n'

    def test_scores_round_trip_bit_exact(self):
        import numpy as np

        score = float(np.float32(0.123456789))
        wire = encode_message({"id": 1, "items": [["i3", score]]})
        assert decode_message(wire)["items"][0][1] == score

    def test_oversized_line_rejected_both_ways(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_message({"blob": "x" * MAX_LINE_BYTES})
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(b"x" * (MAX_LINE_BYTES + 1))

    def test_malformed_json_and_non_objects_rejected(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode_message(b"{nope")
        with pytest.raises(ProtocolError, match="must be an object"):
            decode_message(b"[1, 2]")

    def test_read_messages_skips_blank_lines(self):
        stream = io.BytesIO(b'{"id":1}\n\n{"id":2}\n')
        assert [m["id"] for m in read_messages(stream)] == [1, 2]

    def test_over_long_line_is_not_buffered_whole(self):
        raw = CountingStream(4 * MAX_LINE_BYTES)  # one line, no newline
        with pytest.raises(ProtocolError, match="exceeds"):
            list(read_messages(io.BufferedReader(raw)))
        assert raw.consumed <= MAX_LINE_BYTES + io.DEFAULT_BUFFER_SIZE


class TestValidation:
    def test_accepts_every_documented_op(self):
        for request in (
            {"op": "recommend", "user": "u", "k": 3},
            {"op": "recommend", "user": "u"},  # k defaults
            {"op": "score", "pairs": [["u", "i"]]},
            {"op": "warm", "users": ["u"]},
            {"op": "health"},
            {"op": "ready"},
            {"op": "stats"},
        ):
            assert validate_request(request) is request

    @pytest.mark.parametrize(
        "request_, match",
        [
            ({"op": "explode"}, "unknown op"),
            ({}, "unknown op"),
            ({"op": "recommend"}, "string 'user'"),
            ({"op": "recommend", "user": 3}, "string 'user'"),
            ({"op": "recommend", "user": "u", "k": 0}, "positive integer"),
            ({"op": "recommend", "user": "u", "k": True}, "positive integer"),
            ({"op": "recommend", "user": "u", "k": "9"}, "positive integer"),
            ({"op": "score"}, "pairs"),
            ({"op": "score", "pairs": []}, "pairs"),
            ({"op": "score", "pairs": [["u"]]}, "pairs"),
            ({"op": "score", "pairs": [["u", 4]]}, "pairs"),
            ({"op": "warm"}, "users"),
            ({"op": "warm", "users": [1]}, "users"),
            ({"op": "health", "deadline_ms": -1}, "deadline_ms"),
            ({"op": "health", "deadline_ms": "soon"}, "deadline_ms"),
            ({"op": "health", "deadline_ms": True}, "deadline_ms"),
        ],
    )
    def test_rejects_malformed_requests(self, request_, match):
        with pytest.raises(ProtocolError, match=match):
            validate_request(request_)

    def test_deadline_zero_is_legal(self):
        validate_request({"op": "health", "deadline_ms": 0})


def one_shot_server(responder):
    """A TCP server serving a single connection with ``responder(request)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    class Drop(Exception):
        """Raised by a responder to hang up on the client."""

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            try:
                for message in read_messages(reader):
                    for response in responder(message):
                        conn.sendall(encode_message(response))
            except Drop:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, port, Drop


class TestServeClient:
    def test_matches_out_of_order_responses_by_id(self):
        held = []

        def responder(request):
            if request["id"] == 1:  # hold the first answer back
                held.append({"id": 1, "status": "ok", "slow": True})
                return []
            return [{"id": request["id"], "status": "ok"}, *held]

        listener, port, _ = one_shot_server(responder)
        try:
            with ServeClient("127.0.0.1", port) as client:
                first = client.send({"op": "health", "id": 1})
                second = client.send({"op": "health", "id": 2})
                assert client.wait(second, timeout=10) == {
                    "id": 2, "status": "ok"
                }
                assert client.wait(first, timeout=10)["slow"] is True
        finally:
            listener.close()

    def test_assigns_fresh_ids_when_missing(self):
        def responder(request):
            return [{"id": request["id"], "status": "ok"}]

        listener, port, _ = one_shot_server(responder)
        try:
            with ServeClient("127.0.0.1", port) as client:
                assert client.health()["status"] == "ok"
                assert client.stats()["status"] == "ok"
        finally:
            listener.close()

    def test_closed_connection_raises_not_hangs(self):
        def responder(request):
            raise drop("server hangs up")

        listener, port, drop = one_shot_server(responder)
        try:
            client = ServeClient("127.0.0.1", port)
            request_id = client.send({"op": "health"})
            with pytest.raises((ConnectionError, TimeoutError)):
                client.wait(request_id, timeout=10)
            client.close()
        finally:
            listener.close()

    def test_wait_timeout_raises_timeout_error(self):
        def responder(request):
            return []  # never answer

        listener, port, _ = one_shot_server(responder)
        try:
            with ServeClient("127.0.0.1", port) as client:
                request_id = client.send({"op": "health"})
                with pytest.raises(TimeoutError):
                    client.wait(request_id, timeout=0.2)
        finally:
            listener.close()
