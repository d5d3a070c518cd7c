"""Microbenchmarks of the codec, the frame authenticator and the
simulation kernel: microseconds (nanoseconds for the kernel) per call.

Each figure is the median of ``BATCHES`` batches of ``BATCH`` calls, so
20 000 calls stand behind every number.
"""

from __future__ import annotations

import statistics
import struct
import time
from typing import Callable, Dict

from repro.core.messages import CCSMessage
from repro.net.auth import WireAuthenticator
from repro.net.wire import decode_frame_ex, encode_frame, encode_payload
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Invocation, Result
from repro.sim.kernel import Simulator
from repro.totem.messages import RegularMessage, RegularToken, RingId

from .spec import GROUP

BATCHES = 5
BATCH = 4_000


def _per_call_ns(body: Callable, prepare: Callable = range) -> float:
    """``body(prepare(n))`` performs n calls; only ``body`` is timed.
    Returns the median batch's ns per call."""
    batches = []
    for _ in range(BATCHES):
        work = prepare(BATCH)
        started = time.perf_counter_ns()
        body(work)
        batches.append((time.perf_counter_ns() - started) / BATCH)
    return statistics.median(batches)


def _frames() -> Dict[str, object]:
    """One representative payload per frame kind on the live wire."""
    ring = RingId(4, "n0")
    now_us = 1_790_000_000_123_456
    request = make_envelope(
        MsgType.REQUEST, "client.b7", GROUP, 8, 1234, "b7",
        body=Invocation("gettimeofday", (now_us,)))
    reply = make_envelope(
        MsgType.REPLY, GROUP, "client.b7", 8, 1234, "n1",
        body=Result(value=now_us + 250))
    ccs = make_envelope(
        MsgType.CCS, GROUP, GROUP, 0, 5678, "n1",
        body=CCSMessage("main", 5678, now_us, 1,
                        covers_req=9012, covers_seq=1))
    return {
        "request": request,
        "reply": reply,
        "ccs": RegularMessage(ring, 34567, "n1", ccs),
        "token": RegularToken(ring, 456789, 34567, 34560, "n2", (34561,)),
    }


def run_micro() -> Dict[str, float]:
    """All microbenchmarks, keyed by per-layer metric name."""
    results: Dict[str, float] = {}
    frames = _frames()
    for kind, payload in frames.items():
        data = encode_frame("n1", payload)

        def encode(calls, payload=payload) -> None:
            for _ in calls:
                encode_frame("n1", payload)

        def decode(calls, data=data) -> None:
            for _ in calls:
                decode_frame_ex(data)

        results[f"net.wire.encode_us.{kind}"] = _per_call_ns(encode) / 1e3
        results[f"net.wire.decode_us.{kind}"] = _per_call_ns(decode) / 1e3

    auth = WireAuthenticator.from_secret("bench-micro")
    prefix = b"\x02\x00n1\x02"
    payload_bytes = encode_payload(frames["ccs"])

    def sign(calls) -> None:
        for _ in calls:
            auth.sign_field("n1", prefix, payload_bytes)

    results["net.auth.sign_us"] = _per_call_ns(sign) / 1e3

    def signed_fields(n: int):
        # Nonces must rise, so each call verifies a freshly signed field.
        fields = [auth.sign_field("n1", prefix, payload_bytes)
                  for _ in range(n)]
        return [(struct.unpack_from("<Q", f, 1)[0], f[9:],
                 prefix + f[:9] + payload_bytes) for f in fields]

    def verify(checks) -> None:
        for nonce, mac, signed in checks:
            auth.verify(dst="n2", src="n1", key_id=0, nonce=nonce, mac=mac,
                        signed_bytes=signed)

    results["net.auth.verify_us"] = _per_call_ns(verify, signed_fields) / 1e3

    def noop() -> None:
        pass

    def events(calls) -> None:
        sim = Simulator()
        for _ in calls:
            sim.schedule(0.0, noop)
        sim.run()

    results["sim.kernel.ns_per_event"] = _per_call_ns(events)
    return results
