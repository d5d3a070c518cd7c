"""Robustness under aggressive (false-positive-prone) failure detection.

With a token-loss timeout close to the rotation time, transient jitter
causes spurious membership churn — rings reform even though nobody
failed.  Safety must hold regardless: total order, no duplicates, no
losses among live processors.
"""

import pytest

from repro.totem import TotemConfig

from .helpers import TotemHarness


def aggressive_config():
    return TotemConfig(
        token_loss_timeout_s=0.26e-3,      # barely above one rotation
        token_retransmit_timeout_s=0.08e-3,
        join_interval_s=0.4e-3,
    )


class TestChurnSafety:
    def test_total_order_survives_spurious_reforms(self):
        harness = TotemHarness(4, seed=21, totem_config=aggressive_config())
        harness.run_until_operational(timeout=3.0)
        for i in range(40):
            harness.processors[f"n{i % 4}"].mcast(i)
            harness.run(0.001)
        harness.run(1.0)
        orders = [tuple(r.payloads) for r in harness.recorders.values()]
        assert all(order == orders[0] for order in orders)
        assert sorted(orders[0]) == list(range(40))

    def test_churn_actually_happened(self):
        """Sanity: the aggressive config really does cause reforms —
        otherwise the safety test above is vacuous."""
        harness = TotemHarness(4, seed=21, totem_config=aggressive_config())
        harness.run_until_operational(timeout=3.0)
        harness.run(1.0)
        reforms = max(
            p.stats.membership_changes for p in harness.processors.values()
        )
        assert reforms >= 2  # initial ring + at least one spurious reform

    def test_no_duplicate_deliveries_under_churn(self):
        harness = TotemHarness(4, seed=22, totem_config=aggressive_config())
        harness.run_until_operational(timeout=3.0)
        for i in range(30):
            harness.processors["n1"].mcast(i)
            harness.run(0.0008)
        harness.run(1.0)
        for recorder in harness.recorders.values():
            payloads = recorder.payloads
            assert len(payloads) == len(set(payloads))

    def test_cts_stays_consistent_under_churn(self):
        """End-to-end: the group clock's guarantees hold even while the
        ring churns under a hair-trigger failure detector."""
        from support import ClockApp, call_n, make_testbed

        bed = make_testbed(seed=23, totem_config=aggressive_config())
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start(settle=0.5)
        values = call_n(bed, client, "svc", "get_time", 10)
        assert all(b > a for a, b in zip(values, values[1:]))
        bed.run(0.2)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-10:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
