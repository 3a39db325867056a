"""The daemon's per-generation result pipe: frames reassembled in order,
and a frame torn by a writer killed mid-send never blocks the reader."""

import multiprocessing
import os
import pickle
import struct

from repro.serve.daemon import _ResultPipe


def make_pipe():
    return _ResultPipe(multiprocessing.get_context("fork"))


def test_messages_arrive_whole_and_in_order():
    pipe = make_pipe()
    try:
        assert pipe.messages() == []
        big = ("results", 0, 0, 0, [(1, "ok", list(range(6_000)))])
        pipe.writer.send(("ready", 0, 0))
        pipe.writer.send(big)  # over 16 KiB: header and body written apart
        pipe.writer.send(("ready", 1, 2))
        assert pipe.messages() == [("ready", 0, 0), big, ("ready", 1, 2)]
        assert pipe.messages() == []
    finally:
        pipe.close()


def test_torn_frame_is_held_back_without_blocking():
    pipe = make_pipe()
    try:
        body = pickle.dumps(("results", 0, 0, 0, []))
        frame = struct.pack("!i", len(body)) + body
        os.write(pipe.writer.fileno(), frame + frame[:7])  # then the writer dies
        assert pipe.messages() == [("results", 0, 0, 0, [])]
        assert pipe.messages() == []  # returns at once, the tail stays buffered
    finally:
        pipe.close()
