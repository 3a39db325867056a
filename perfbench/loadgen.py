"""Load generation against the serving daemon: closed and open loops.

One process, at most two threads and two connections, speaking the
daemon's JSON-lines protocol over plain blocking sockets (no client-side
reader thread beyond the one the open loop needs).

* Closed loop: ``CLIENTS`` threads, each with its own connection, send the
  next request only after the previous answer arrived.
* Open loop: one thread sends on a fixed schedule (request ``i`` is due at
  ``start + i / rate``) over one connection while a second thread reads the
  answers. Latency runs from the request's *due* time, so a stalled sender
  shows up as latency of the requests it delayed; the sender's own lateness
  is recorded as lag.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

from repro.serve.protocol import decode_message, encode_message

#: Closed-loop clients, each with its own connection.
CLIENTS = 2
#: Client-side patience for one response.
TIMEOUT_S = 30.0


@dataclass
class Record:
    """One request and how it ended."""

    phase: str
    request: dict
    response: dict | None
    latency_s: float
    lag_s: float = 0.0

    @property
    def status(self) -> str:
        if self.response is None:
            return "client_timeout"
        return str(self.response.get("status"))


class Connection:
    """A blocking JSON-lines connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def send(self, message: dict) -> None:
        self.sock.sendall(encode_message(message))

    def recv(self) -> dict | None:
        """The next response line, or None on timeout or a closed socket."""
        try:
            line = self.file.readline()
        except (socket.timeout, OSError):
            return None
        return decode_message(line) if line else None

    def request(self, message: dict) -> dict | None:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.file.close()
        self.sock.close()


def closed_loop(
    port: int, schedule: list[dict], seconds: float
) -> tuple[list[Record], float]:
    """Run ``CLIENTS`` closed-loop clients for ``seconds``; returns the
    records and the measured wall time."""
    records: list[Record] = []
    lock = threading.Lock()
    cursor = [0]
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                request = dict(schedule[index % len(schedule)], id=index)
                start = time.perf_counter()
                response = conn.request(request)
                record = Record("closed", request, response, time.perf_counter() - start)
                with lock:
                    records.append(record)
                if response is None:
                    return  # the connection is unusable after a timeout
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def open_loop(port: int, schedule: list[dict], rate: float) -> list[Record]:
    """Send every request of ``schedule`` at ``rate`` per second."""
    conn = Connection(port)
    count = len(schedule)
    due = [0.0] * count
    sent = [0.0] * count
    received: dict[int, tuple[dict, float]] = {}
    done = threading.Event()

    def reader() -> None:
        while len(received) < count:
            response = conn.recv()
            if response is None:
                break
            received[int(response["id"])] = (response, time.perf_counter())
        done.set()

    thread = threading.Thread(target=reader)
    thread.start()
    start = time.perf_counter() + 0.05
    try:
        for index, request in enumerate(schedule):
            due[index] = start + index / rate
            pause = due[index] - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent[index] = time.perf_counter()
            conn.send(dict(request, id=index))
        done.wait(TIMEOUT_S)
    finally:
        conn.close()
        thread.join()
    records = []
    for index, request in enumerate(schedule):
        response, arrived = received.get(index, (None, float("nan")))
        records.append(
            Record(
                "open",
                dict(request, id=index),
                response,
                arrived - due[index],
                sent[index] - due[index],
            )
        )
    return records
