"""LiveTestbed.install_gateway: the ``repro serve`` front door on an
in-process node, surviving a crash/recover cycle of that node."""

import pytest

from repro.net.client import LiveCaller
from repro.net.daemon import TimeApp
from repro.net.testbed import LiveTestbed

pytestmark = pytest.mark.live


def call_through(bed, node_id, client_id):
    """One gateway call via ``node_id``, on the bed's kernel; returns
    the served group-clock micros."""
    with LiveCaller(bed.kernel, [bed.node(node_id).address],
                    client_id=client_id) as caller:
        outcome = bed.run_process(caller.call("gettimeofday", timeout=3.0))
    result = outcome.first()
    assert result.ok, result.error
    return result.value["micros"]


def test_gateway_is_reinstalled_on_recover_and_old_tallies_survive():
    with LiveTestbed(num_nodes=3, seed=5) as bed:
        bed.deploy("timesvc", TimeApp, nodes=bed.node_ids,
                   style="active", time_source="cts")
        bed.start()
        gateways = {n: bed.install_gateway(n) for n in bed.node_ids}
        assert bed.gateways == list(gateways.values())

        before = call_through(bed, "n2", "c-before")
        old = gateways["n2"]
        assert old.requests_injected == 1
        assert old.replies_forwarded >= 1

        bed.crash("n2")
        bed.run(0.1)
        bed.recover("n2")
        fresh = bed.gateways[-1]
        assert len(bed.gateways) == 4 and fresh is not old
        assert fresh.runtime is bed.runtimes["n2"]
        joiner = bed.add_replica("timesvc", "n2")
        bed.wait_until(lambda: joiner.state_transfer.ready, timeout=10.0)

        after = call_through(bed, "n2", "c-after")
        assert after > before
        assert fresh.requests_injected == 1
        # The restart did not erase what the first gateway had counted.
        assert old.requests_injected == 1


def test_admission_config_installs_a_controller():
    from repro.control.admission import AdmissionConfig

    with LiveTestbed(num_nodes=3, seed=6) as bed:
        plain = bed.install_gateway("n0")
        config = AdmissionConfig(max_inflight=2)
        controlled = bed.install_gateway("n1", config)
        assert plain.admission is None
        assert controlled.admission.config is config
        assert controlled.node_id == "n1"


def test_gateway_and_admission_are_stamped_in_kernel_time():
    """One time base: queue ages, the service-time EWMA and the
    idempotency window's TTL read the bed's kernel clock (seconds since
    the kernel started), not ``time.monotonic`` (seconds since boot)."""
    from repro.control.admission import AdmissionConfig

    with LiveTestbed(num_nodes=1, seed=6) as bed:
        gateway = bed.install_gateway("n0", AdmissionConfig())
        bed.run(0.05)
        kernel_now = bed.kernel.now
        assert 0.05 <= kernel_now < 5.0
        assert 0.0 <= gateway.admission._clock() - kernel_now < 1.0
        gateway.admission.submit("c", "op", lambda: None, lambda _s: None)
        (stamp,) = gateway.admission._inflight.values()
        assert 0.0 <= stamp - kernel_now < 1.0
