"""``repro serve`` is a one-node live bed: a ``NodeDaemon`` and a
``LiveTestbed`` node built from the same options end up with the same
stack, because one piece of code builds both."""

import pytest

from repro.control.admission import AdmissionConfig
from repro.net.daemon import DaemonConfig, NodeDaemon, TimeApp
from repro.net.testbed import LiveTestbed

pytestmark = pytest.mark.live

TIME_OPTIONS = dict(coalesce=False, fast_path=True, max_staleness_us=1_500)


def stack(bed, gateway):
    """What a node's stack is made of, as comparable values."""
    (node_id,) = bed.node_ids
    replica = bed.replicas("timesvc")[node_id]
    source = replica.time_source
    return {
        "totem": bed.processors[node_id].config,
        "membership": bed.processors[node_id].static_membership,
        "replica": (type(replica), replica._serial),
        "source": (type(source), replica.style, source.fast_path,
                   source.max_staleness_us),
        "byzantine": source.guard is not None,
        "signed": bed.node(node_id).iface.auth is not None,
        "admission": gateway.admission.config,
        "interposed": bed.node(node_id).receiver.__qualname__,
    }


@pytest.mark.parametrize("auth_key", [None, "fold-secret"],
                         ids=["crash-only", "authenticated"])
def test_daemon_and_bed_node_have_the_same_stack(auth_key):
    daemon = NodeDaemon(DaemonConfig(
        node_id="n0", peers={"n0": ("127.0.0.1", 0)},
        time_options=TIME_OPTIONS, auth_key=auth_key))
    bed = LiveTestbed(node_ids=["n0"], auth_secret=auth_key)
    try:
        bed.deploy("timesvc", TimeApp, ["n0"],
                   byzantine=auth_key is not None, **TIME_OPTIONS)
        gateway = bed.install_gateway("n0", AdmissionConfig())
        assert stack(daemon.bed, daemon.gateway) == stack(bed, gateway)

        # ... and what the daemon's own defaults must be: the guard armed
        # exactly when a key is given, the gateway in front of the ring
        # with admission on, stamped by the daemon's kernel.
        assert (daemon.replica.time_source.guard is not None) == bool(auth_key)
        assert daemon.bed.gateways == [daemon.gateway]
        assert "install_gateway" in daemon.node.receiver.__qualname__
        assert daemon.gateway.admission is not None
        daemon.kernel.run(until=daemon.kernel.now + 0.02)
        now = daemon.kernel.now
        assert 0.0 <= daemon.gateway.admission._clock() - now < 1.0
    finally:
        daemon.shutdown()
        bed.shutdown()


def test_coalesce_is_the_replicas_option():
    # ``repro serve --no-coalesce`` hands ``coalesce=False`` to the bed,
    # which builds a serial replica; by default the replica overlaps its
    # reads.
    serial = {}
    for coalesce in (True, False):
        daemon = NodeDaemon(DaemonConfig(
            node_id="n0", peers={"n0": ("127.0.0.1", 0)},
            time_options=dict(coalesce=coalesce)))
        try:
            serial[coalesce] = daemon.replica._serial
        finally:
            daemon.shutdown()
    assert serial == {True: False, False: True}


def test_the_daemons_ring_is_the_whole_address_book():
    peers = {"n0": ("127.0.0.1", 0), "n1": ("127.0.0.1", 1),
             "n2": ("127.0.0.1", 2)}
    daemon = NodeDaemon(DaemonConfig(node_id="n0", peers=peers))
    try:
        assert daemon.bed.node_ids == ["n0"]
        assert daemon.processor.static_membership == ("n0", "n1", "n2")
        assert daemon.address[1] not in (0, 1, 2)  # bound its own entry
        assert daemon.bed.transport.peers["n1"] == peers["n1"]
    finally:
        daemon.shutdown()
