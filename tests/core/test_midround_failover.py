"""Primary failure in the middle of a CCS round (paper Section 3).

"If the primary replica fails during the round before it sends the
consistent clock synchronization message ... then the new primary
replica will send a consistent clock synchronization message."

We make the initial primary pathologically slow so the backups reach the
clock operation first and block waiting for the primary's CCS message,
then crash the primary before it ever reaches the operation.  The
promoted backup must notice the blocked round and send its own proposal.
"""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def deploy_slow_primary(seed, style="semi-active"):
    bed = make_testbed(seed=seed, epoch_spread_s=30.0)
    bed.record()
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], style=style,
               time_source="cts")
    client = bed.client("n0")
    bed.start(settle=0.3)
    primary = next(nid for nid, r in bed.replicas("svc").items()
                   if r.is_primary)
    # The primary now computes ~50x slower than the backups: backups
    # reach gettimeofday() long before it does.
    bed.cluster.node(primary).cpu_factor = 0.02
    return bed, client, primary


class TestMidRoundFailover:
    def test_new_primary_sends_for_blocked_round(self):
        bed, client, primary = deploy_slow_primary(seed=220)
        backups = [r for nid, r in bed.replicas("svc").items()
                   if nid != primary]

        # Launch a call; backups will block in the round while the slow
        # primary is still crunching the servant body.
        answers = []

        def scenario():
            result, _ = yield from client.timed_call("svc", "get_time",
                                                     timeout=5.0)
            answers.append(result)
            return result.value

        proc = bed.sim.process(scenario(), name="call")
        bed.run(0.0006)  # backups have reached the op; primary has not
        blocked = [
            r for r in backups
            if any(h.in_flight is not None
                   for h in r.time_source._handlers.values())
        ]
        assert blocked, "expected backups blocked mid-round"
        sent_before = sum(r.time_source.stats.ccs_sent for r in backups)
        assert sent_before == 0  # primary-only mode: backups never sent

        bed.cluster.node(primary).crash()
        for group_replicas in bed.services.values():
            group_replicas.pop(primary, None)
        bed.run(1.0)
        assert proc.triggered, "call never completed after failover"
        assert answers and answers[0].ok
        # Someone (the new primary) sent the CCS message for the round.
        sent_after = sum(r.time_source.stats.ccs_sent for r in backups)
        assert sent_after >= 1

    def test_round_value_is_monotone_after_midround_failover(self):
        bed, client, primary = deploy_slow_primary(seed=221)

        values = []

        def scenario():
            result, _ = yield from client.timed_call("svc", "get_time",
                                                     timeout=5.0)
            values.append(result.value)
            return result.value

        proc = bed.sim.process(scenario(), name="call")
        bed.run(0.0006)
        bed.cluster.node(primary).crash()
        for group_replicas in bed.services.values():
            group_replicas.pop(primary, None)
        bed.run(1.0)
        assert proc.triggered
        follow_up = call_n(bed, client, "svc", "get_time", 3)
        sequence = values + follow_up
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_backups_agree_after_midround_failover(self):
        bed, client, primary = deploy_slow_primary(seed=222)

        def scenario():
            result, _ = yield from client.timed_call("svc", "get_time",
                                                     timeout=5.0)
            return result.value

        proc = bed.sim.process(scenario(), name="call")
        bed.run(0.0006)
        bed.cluster.node(primary).crash()
        for group_replicas in bed.services.values():
            group_replicas.pop(primary, None)
        bed.run(1.0)
        call_n(bed, client, "svc", "get_time", 2)
        bed.run(0.1)
        survivors = bed.replicas("svc")
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-3:]
            for r in survivors.values()
        ]
        assert readings[0] == readings[1]
