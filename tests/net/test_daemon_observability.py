"""NodeDaemon observability sidecars: metrics endpoint, shards, flight."""

import asyncio
import json
import socket

import pytest

from repro.net.daemon import DaemonConfig, NodeDaemon
from repro.obs.crossnode import shard_path

pytestmark = pytest.mark.live


@pytest.fixture
def daemon(tmp_path):
    config = DaemonConfig(
        node_id="n0",
        peers={"n0": ("127.0.0.1", 0)},
        metrics_port=0,
        trace_dir=str(tmp_path / "tr"),
    )
    daemon = NodeDaemon(config)
    try:
        yield daemon
    finally:
        daemon.shutdown()


def run_briefly(daemon, seconds=0.05):
    daemon.kernel.loop.run_until_complete(asyncio.sleep(seconds))


class TestStartObservability:
    def test_sidecars_come_up_and_shut_down(self, daemon, tmp_path):
        daemon.start_observability()
        run_briefly(daemon)  # let the endpoint's start task complete

        bus = daemon.bed.obs
        assert bus.metrics.enabled  # the bed's registry...
        assert daemon._metrics_server.registry is bus.metrics  # ...scraped
        assert daemon.flight.enabled  # this node's own recorder...
        assert daemon.bed.transport.flight is daemon.flight  # ...fed frames
        assert bus.tracer.enabled  # the shard writer is subscribed
        assert daemon._metrics_server is not None
        port = daemon._metrics_server.bound_port
        assert port

        async def fetch(path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
            await writer.drain()
            response = await reader.read()
            writer.close()
            return response.decode()

        body = daemon.kernel.loop.run_until_complete(fetch("/healthz"))
        assert "200 OK" in body and "ok" in body

        # An event the bed emits now lands in this node's shard.
        bus.tracer.emit("round.start", "n0", thread="t0", round=1, t=0.0)
        daemon.shutdown()
        assert not daemon.flight.enabled
        shard = shard_path(tmp_path / "tr", "n0")
        assert shard.exists()
        assert json.loads(shard.read_text().splitlines()[0])["round"] == 1

    def test_the_metrics_port_can_be_bound_again_after_shutdown(self, daemon):
        daemon.start_observability()
        run_briefly(daemon)
        port = daemon._metrics_server.bound_port
        assert port
        daemon.shutdown()
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))  # nothing listens there any more

    def test_dump_flight_writes_an_artifact(self, daemon, tmp_path):
        daemon.start_observability()
        run_briefly(daemon)
        daemon.bed.obs.tracer.emit("round.start", "n0", thread="t0", round=7,
                                   t=0.0)
        daemon._dump_flight("unit-test", context={"extra": "yes"})
        artifact_path = tmp_path / "tr" / "flight-n0-unit-test.json"
        assert artifact_path.exists()
        artifact = json.loads(artifact_path.read_text())
        assert artifact["reason"] == "unit-test"
        assert artifact["context"] == {"node": "n0", "extra": "yes"}
        assert any(e.get("round") == 7 for e in artifact["events"])

    def test_dump_flight_is_a_noop_when_tracing_off(self, tmp_path):
        config = DaemonConfig(node_id="n0",
                              peers={"n0": ("127.0.0.1", 0)})
        daemon = NodeDaemon(config)
        try:
            daemon.start_observability()
            assert daemon._metrics_server is None
            assert daemon._shard_writer is None
            assert daemon.flight is None
            assert not daemon.bed.obs.metrics.enabled
            assert not daemon.bed.obs.tracer.enabled
            daemon._dump_flight("never")
        finally:
            daemon.shutdown()
        assert list(tmp_path.glob("**/flight-*.json")) == []
