"""Wire protocol of the recommendation daemon: JSON lines over a socket.

One request or response per line, UTF-8, newline-terminated. The format
is deliberately boring — any language can speak it with a TCP socket and
a JSON library — and every message is a flat object:

Requests
    ``{"id": 7, "op": "recommend", "user": "u12", "k": 10}``
    ``{"id": 8, "op": "score", "pairs": [["u12", "i3"], ["u12", "i9"]]}``
    ``{"id": 9, "op": "warm", "users": ["u12", "u13"]}``
    ``{"id": 0, "op": "health"}`` / ``{"op": "ready"}`` / ``{"op": "stats"}``

    ``id`` is caller-chosen and echoed back (responses to pipelined
    requests may arrive out of order). ``deadline_ms`` (optional) bounds
    how long the daemon may spend before the request is cancelled.

Responses
    Always carry ``id`` and ``status``: ``ok``, ``shed`` (load rejected —
    the 429 of this protocol; retry later against a healthier daemon),
    ``timeout`` (deadline expired; any computed result was discarded), or
    ``error`` (this request is at fault; retrying it will fail again).
    ``ok`` recommend responses carry ``items`` ``[[item_id, score], ...]``
    plus the ``retrieval`` mode and degradation ``level`` that produced
    them — scores are exact float64 JSON round-trips of the engine's
    output, so bit-identity against a reference engine is checkable from
    the wire.

:class:`ServeClient` is the blocking client used by the load generator,
the CLI and the tests; it supports pipelining through a tiny id→response
matchmaker.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Iterator

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "ServeClient",
    "decode_message",
    "encode_message",
    "read_messages",
    "validate_request",
]

#: Upper bound on one protocol line; longer lines are a client bug (or an
#: attack) and the connection is dropped rather than buffered unboundedly.
MAX_LINE_BYTES = 1 << 20

#: Operations a request may carry.
OPS = ("recommend", "score", "warm", "health", "ready", "stats")


class ProtocolError(ValueError):
    """A malformed protocol message (bad JSON, bad shape, oversized)."""


def encode_message(message: dict) -> bytes:
    """Serialize one message to its wire form (newline-terminated)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    return data


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line into a message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"malformed JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be an object, got {type(message).__name__}")
    return message


def validate_request(message: dict) -> dict:
    """Shape-check one request; returns it on success."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (known: {', '.join(OPS)})")
    if op == "recommend":
        if not isinstance(message.get("user"), str):
            raise ProtocolError("recommend needs a string 'user'")
        k = message.get("k", 10)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProtocolError("recommend 'k' must be a positive integer")
    elif op == "score":
        pairs = message.get("pairs")
        if not isinstance(pairs, list) or not pairs or not all(
            isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, str) for x in p)
            for p in pairs
        ):
            raise ProtocolError("score needs 'pairs': [[user, item], ...]")
    elif op == "warm":
        users = message.get("users")
        if not isinstance(users, list) or not all(
            isinstance(u, str) for u in users
        ):
            raise ProtocolError("warm needs 'users': [user, ...]")
    deadline = message.get("deadline_ms")
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or deadline < 0
    ):
        raise ProtocolError("'deadline_ms' must be a non-negative number")
    return message


def read_messages(stream) -> Iterator[dict]:
    """Yield decoded messages from a binary line stream (a socket file).

    Reads at most ``MAX_LINE_BYTES + 1`` bytes per line, so an over-long
    line raises :class:`ProtocolError` without being buffered whole.
    """
    while line := stream.readline(MAX_LINE_BYTES + 1):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
        if line.strip():
            yield decode_message(line)


class ServeClient:
    """Blocking JSON-lines client for one daemon connection.

    Thread-compatible: one reader thread matches responses to waiting
    callers by ``id``, so several threads may pipeline requests over one
    connection (each with a distinct id), and a single-threaded caller
    gets plain request/response semantics.
    """

    def __init__(self, host: str, port: int, *, connect_timeout: float = 5.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._cv = threading.Condition()
        self._responses: dict[object, dict] = {}
        self._next_id = 0
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for message in read_messages(self._file):
                with self._cv:
                    self._responses[message.get("id")] = message
                    self._cv.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._cv:
                self._closed = True
                self._cv.notify_all()

    def fresh_id(self) -> int:
        with self._cv:
            self._next_id += 1
            return self._next_id

    def send(self, request: dict) -> object:
        """Fire one request without waiting; returns its id."""
        if "id" not in request:
            request = {**request, "id": self.fresh_id()}
        data = encode_message(request)
        with self._write_lock:
            self._sock.sendall(data)
        return request["id"]

    def wait(self, request_id: object, timeout: float = 30.0) -> dict:
        """Block until the response for ``request_id`` arrives."""
        with self._cv:
            deadline_hit = not self._cv.wait_for(
                lambda: request_id in self._responses or self._closed,
                timeout=timeout,
            )
            if request_id in self._responses:
                return self._responses.pop(request_id)
            if deadline_hit:
                raise TimeoutError(f"no response for request {request_id!r}")
            raise ConnectionError("daemon connection closed")

    def request(self, request: dict, timeout: float = 30.0) -> dict:
        """Send one request and wait for its response."""
        return self.wait(self.send(request), timeout=timeout)

    # Convenience wrappers -------------------------------------------------
    def recommend(self, user: str, k: int = 10, **fields) -> dict:
        return self.request({"op": "recommend", "user": user, "k": k, **fields})

    def score(self, pairs, **fields) -> dict:
        return self.request(
            {"op": "score", "pairs": [list(p) for p in pairs], **fields}
        )

    def warm(self, users, **fields) -> dict:
        return self.request({"op": "warm", "users": list(users), **fields})

    def health(self) -> dict:
        return self.request({"op": "health"}, timeout=5.0)

    def ready(self) -> dict:
        return self.request({"op": "ready"}, timeout=5.0)

    def stats(self) -> dict:
        return self.request({"op": "stats"}, timeout=5.0)

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
