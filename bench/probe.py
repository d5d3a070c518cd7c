"""The host probe: how fast is this machine running right now?

The sandbox the benchmark runs on is a few cores of a shared host whose
speed swings by tens of per cent for seconds or minutes at a time, so the
same code measures 10-30 % apart from one run to the next.  The probe is
a fixed piece of work - a miniature of what the program's hot path does:
pack a header, sign it, one UDP round trip on loopback, build a small
dict, verify - timed between the slices of every loaded window.  A
slice's wall-clock durations are then rescaled by ``REFERENCE_NS`` over
what the probe read around that slice, i.e. to what they would have been
on the reference host (see ``trial.py``).

The probe calls nothing in ``repro``, so no change to the program can
move it; it must not change once results are being compared.
"""

from __future__ import annotations

import socket
import time
from hmac import compare_digest, digest
from struct import pack, unpack

#: What one probe round costs on the reference host: the 2-core sandbox
#: the benchmark was defined on (Xeon @ 2.10 GHz, Python 3.11) in a calm
#: stretch.
REFERENCE_NS = 8000.0
#: Rounds per reading (about a millisecond).
ROUNDS = 120

_KEY = b"k" * 32
_PAYLOAD = b"x" * 120


def to_reference(seconds: float, *readings: float) -> float:
    """``seconds`` as the reference host would have taken them, given the
    probe ``readings`` taken around them."""
    return seconds * REFERENCE_NS * len(readings) / sum(readings)


class HostProbe:
    def __init__(self):
        self._out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._in = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._in.bind(("127.0.0.1", 0))
            self._in.settimeout(5.0)
            self._to = self._in.getsockname()
            self.read()  # the first reading on new sockets runs slow
        except BaseException:
            self.close()
            raise

    def read(self) -> float:
        """ns per round, now."""
        send, receive, to = self._out.sendto, self._in.recvfrom, self._to
        started = time.perf_counter_ns()
        for index in range(ROUNDS):
            data = pack("!IHH", index, 3, 4) + _PAYLOAD
            send(data + digest(_KEY, data, "sha256"), to)
            got, _addr = receive(2048)
            fields = {"seq": index, "head": unpack("!IHH", got[:8])}
            if not compare_digest(digest(_KEY, got[:-32], "sha256"),
                                  got[-32:]) or fields["head"][0] != index:
                raise RuntimeError("host probe: datagram out of order")
        return (time.perf_counter_ns() - started) / ROUNDS

    def close(self) -> None:
        self._out.close()
        self._in.close()
