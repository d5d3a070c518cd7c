"""The circuit breaker's half-open state admits a single probe.

Regression tests for the probe-token race: a tripped breaker past its
cooldown used to admit a probe on *every* sweep, so several interleaved
calls (or successive sweeps of one call) would all hammer the
recovering server at once.  The token (``_Breaker.probing``) must be
taken by exactly one sweep and released only when the probe resolves —
or when it lapses, if the claiming call died before sending it.

All but the last drive ``_sweep_order`` / ``_record_*`` directly; no
packets move.
"""

import socket

from repro.net.client import LiveCaller

ADDR = ("127.0.0.1", 45999)


def tripped_caller(kernel, address=ADDR) -> LiveCaller:
    caller = LiveCaller(kernel, [address], client_id="probe-test")
    for _ in range(LiveCaller.BREAKER_THRESHOLD):
        caller._record_failure(address)
    return caller


def half_open_instant(kernel) -> float:
    """A ``now`` at which the tripped breaker's cooldown has elapsed."""
    return kernel.now + LiveCaller.BREAKER_COOLDOWN + 0.01


class TestSingleProbeToken:
    def test_second_sweep_during_half_open_is_skipped(self, kernel):
        caller = tripped_caller(kernel)
        try:
            now = half_open_instant(kernel)
            assert caller._sweep_order(now) == [ADDR]  # takes the token
            assert caller._sweep_order(now) == []      # token already held
            assert caller.stats.breaker_skips == 1
        finally:
            caller.close()

    def test_probe_failure_releases_the_token_and_reopens(self, kernel):
        caller = tripped_caller(kernel)
        try:
            now = half_open_instant(kernel)
            assert caller._sweep_order(now) == [ADDR]
            caller._record_failure(ADDR)  # the probe timed out
            # Breaker is open again: skipped until the next cooldown...
            assert caller._sweep_order(kernel.now) == []
            # ...after which a fresh probe is admitted.
            assert caller._sweep_order(half_open_instant(kernel)) == [ADDR]
        finally:
            caller.close()

    def test_probe_success_closes_the_breaker(self, kernel):
        caller = tripped_caller(kernel)
        try:
            assert caller._sweep_order(half_open_instant(kernel)) == [ADDR]
            caller._record_success(ADDR)
            # Fully closed: every sweep lists the server again.
            assert caller._sweep_order(kernel.now) == [ADDR]
            assert caller._sweep_order(kernel.now) == [ADDR]
        finally:
            caller.close()

    def test_orphaned_token_lapses_after_cooldown(self, kernel):
        """If the claiming call hits its deadline before sending the
        probe, the token must not wedge the server out of rotation
        forever — it expires one cooldown after it was taken."""
        caller = tripped_caller(kernel)
        try:
            claimed_at = half_open_instant(kernel)
            assert caller._sweep_order(claimed_at) == [ADDR]
            # The claimer vanished without recording an outcome.
            assert caller._sweep_order(claimed_at) == []
            lapsed = claimed_at + LiveCaller.BREAKER_COOLDOWN
            assert caller._sweep_order(lapsed) == [ADDR]
        finally:
            caller.close()

    def test_concurrent_sweeps_admit_exactly_one_probe(self, kernel):
        """Two calls interleaved on one kernel: the first takes the
        token and parks waiting for the probe's answer; the second
        sweeps while it is parked and must be refused — the token has
        to outlive the yield, with no lock to lean on."""
        hole = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        hole.bind(("127.0.0.1", 0))  # swallows the probe
        address = hole.getsockname()
        caller = tripped_caller(kernel, address)
        try:
            caller._breakers[address].open_until = kernel.now  # half-open
            sweeps = []
            sweep_order = caller._sweep_order

            def recording(now, *, ignore_breakers=False):
                order = sweep_order(now, ignore_breakers=ignore_breakers)
                if not ignore_breakers:
                    sweeps.append(order)
                return order

            caller._sweep_order = recording
            calls = [kernel.process(caller.call("gettimeofday", timeout=0.15))
                     for _ in range(2)]
            for process in calls:
                process.defuse()  # both time out; nobody waits on them
            kernel.run(kernel.now + 0.05)
            assert all(process.is_alive for process in calls)
            assert sweeps == [[address], []]
            assert caller.stats.breaker_skips == 1
            assert caller._breakers[address].probing
            # The probe goes unanswered: the token is handed back.
            kernel.run(kernel.now + 0.2)
            assert not any(process.is_alive for process in calls)
            assert not caller._breakers[address].probing
        finally:
            caller.close()
            hole.close()
