"""LiveCaller under hostile servers: deadline budgeting, retries with a
stable operation id, and the per-server circuit breaker.

The "servers" here are bare UDP sockets — a black hole that never
answers and a scripted responder — so each retry-path property is pinned
without booting a ring.  The caller runs where it always does, as a
process on a kernel: each test owns a bare ``LiveKernel``.
"""

import socket
import threading
import time
from contextlib import nullcontext

import pytest

from repro import obs
from repro.errors import RpcTimeout
from repro.net.client import LiveCaller
from repro.net.wire import decode_frame_ex, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Result

pytestmark = pytest.mark.live


class BlackHole:
    """A bound port that swallows everything."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.address = self.sock.getsockname()

    def close(self):
        self.sock.close()


class Responder:
    """Replies to well-formed requests, optionally deaf to the first N.

    Records the operation id ``(conn_id, seq)`` of every request it
    sees, so tests can assert that retries re-send the same id.
    """

    def __init__(self, *, ignore_first: int = 0, name: str = "s0"):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self.ignore_first = ignore_first
        self.name = name
        self.seen = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        value = 0
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            _src, envelope, _trace = decode_frame_ex(data)
            header = envelope.header
            self.seen.append((header.conn_id, header.msg_seq_num))
            if len(self.seen) <= self.ignore_first:
                continue
            value += 1
            reply = make_envelope(
                MsgType.REPLY, header.dst_grp, header.src_grp,
                header.conn_id, header.msg_seq_num, self.name,
                body=Result(value=value))
            self.sock.sendto(encode_frame(self.name, reply), addr)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=1.0)
        self.sock.close()


def call(kernel, caller, **options):
    return kernel.run_process(caller.call("gettimeofday", **options))


class TestDeadlineBudget:
    def test_black_holed_first_server_cannot_starve_the_rest(self, kernel):
        """The call budget is one deadline split across the
        untried servers — not a fixed per-server floor — so a dead first
        address still leaves the live one enough time to answer."""
        hole, responder = BlackHole(), Responder()
        try:
            with LiveCaller(kernel, [hole.address, responder.address],
                            client_id="budget") as caller:
                started = time.monotonic()
                outcome = call(kernel, caller, timeout=2.0)
                elapsed = time.monotonic() - started
            assert outcome.first().ok
            assert outcome.via == responder.address
            assert outcome.attempts >= 2
            assert elapsed < 2.0  # answered within the budget, not at it
        finally:
            hole.close()
            responder.close()

    def test_exhausted_deadline_raises_rpc_timeout(self, kernel):
        hole = BlackHole()
        try:
            with LiveCaller(kernel, [hole.address],
                            client_id="doomed") as caller:
                started = time.monotonic()
                with pytest.raises(RpcTimeout, match="attempts"):
                    call(kernel, caller, timeout=0.3)
                elapsed = time.monotonic() - started
            assert 0.25 <= elapsed < 1.5  # respected the deadline
        finally:
            hole.close()


class TestRetries:
    def test_retries_resend_the_same_operation_id(self, kernel):
        """Every re-send carries the original ``(conn_id, seq)`` so the
        gateway can deduplicate instead of executing twice.  Listing the
        same server twice makes the first attempt time out (the deaf
        window) and the retry succeed — both observed by one socket."""
        responder = Responder(ignore_first=1)
        try:
            with LiveCaller(kernel, [responder.address, responder.address],
                            client_id="sameop") as caller:
                outcome = call(kernel, caller, timeout=3.0)
                stats = caller.stats
            assert outcome.first().ok
            assert outcome.attempts >= 2
            assert stats.retries >= 1
            assert len(responder.seen) >= 2
            assert len(set(responder.seen)) == 1  # one op id throughout
        finally:
            responder.close()

    def test_sequential_calls_use_fresh_operation_ids(self, kernel):
        responder = Responder()
        try:
            with LiveCaller(kernel, [responder.address],
                            client_id="fresh") as caller:
                call(kernel, caller, timeout=2.0)
                call(kernel, caller, timeout=2.0)
            assert len(set(responder.seen)) == len(responder.seen) == 2
        finally:
            responder.close()

    def test_a_tracer_sink_does_not_change_the_backoff_pauses(self, kernel):
        """The caller's jitter is seeded by its client id so a chaos run
        replays; naming a traced operation draws nothing from it.  A
        dead server (an address no datagram can be sent to) fails every
        attempt at once, so the call is all backoff pauses."""

        def pauses(traced):
            slept, timeout = [], kernel.timeout

            def recording(delay, *args):
                slept.append(delay)
                return timeout(delay, *args)

            kernel.timeout = recording
            bus = obs.Bus()
            try:
                with LiveCaller(kernel, [("127.0.0.1", 0)],
                                client_id="jitter", obs=bus) as caller:
                    with bus.tracer.capture() if traced else nullcontext():
                        with pytest.raises(RpcTimeout):
                            call(kernel, caller, timeout=0.5)
                    return slept[:caller.stats.backoffs]
            finally:
                del kernel.timeout

        untraced = pauses(traced=False)
        assert len(untraced) == LiveCaller.BREAKER_THRESHOLD
        assert pauses(traced=True) == untraced


class TestCircuitBreaker:
    def test_repeated_timeouts_open_the_breaker(self, kernel):
        """Three consecutive dead calls trip the breaker; the next call
        records the skip (and still probes rather than failing fast)."""
        hole = BlackHole()
        try:
            with LiveCaller(kernel, [hole.address],
                            client_id="breaker") as caller:
                for _ in range(LiveCaller.BREAKER_THRESHOLD):
                    with pytest.raises(RpcTimeout):
                        call(kernel, caller, timeout=0.15)
                assert caller.stats.breaker_skips == 0
                with pytest.raises(RpcTimeout):
                    call(kernel, caller, timeout=0.2)
                assert caller.stats.breaker_skips > 0
                assert caller.stats.failures == LiveCaller.BREAKER_THRESHOLD + 1
        finally:
            hole.close()

    def test_breaker_recovers_after_cooldown_probe(self, kernel):
        responder = Responder(ignore_first=LiveCaller.BREAKER_THRESHOLD)
        try:
            with LiveCaller(kernel, [responder.address],
                            client_id="halfopen") as caller:
                # Enough dead calls against the deaf window to trip the
                # breaker...
                for _ in range(LiveCaller.BREAKER_THRESHOLD):
                    with pytest.raises(RpcTimeout):
                        call(kernel, caller, timeout=0.2)
                # ...then the cooldown elapses and the half-open probe
                # finds the server answering again.
                kernel.run(kernel.now + LiveCaller.BREAKER_COOLDOWN + 0.05)
                outcome = call(kernel, caller, timeout=2.0)
            assert outcome.first().ok
        finally:
            responder.close()


class TestClientIdentity:
    def test_default_callers_in_one_process_are_distinct_clients(self, kernel):
        """The gateway's replay window is keyed by the client group, so
        two callers that take the default id — a restarted ``repro call``
        on a recycled pid, say — must not share one, or the second is
        replayed the first's recorded replies."""
        hole = BlackHole()
        try:
            with LiveCaller(kernel, [hole.address]) as first, \
                    LiveCaller(kernel, [hole.address]) as second:
                assert first.client_group != second.client_group
        finally:
            hole.close()
