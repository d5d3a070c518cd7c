"""Concurrent gateway clients against a live 3-daemon group.

Eight independent ``LiveCaller`` sockets — eight processes on one client
kernel — hammer a real 3-node daemon deployment (``repro serve``
subprocesses over loopback UDP) at the same time, so concurrent requests
genuinely interleave in the total order and the daemons' coalesced CCS
rounds serve batches of them.  Checked, per call: every replica answered
the *same* value (agreement); per client: group-clock reads strictly
increase — including across a hard kill of the ring leader mid-test.
"""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import RpcTimeout
from repro.net.client import LiveCaller
from repro.net.kernel import LiveKernel

pytestmark = pytest.mark.live

REPO_ROOT = Path(__file__).parents[2]
CLIENTS = 8
NODES = ("n0", "n1", "n2")


def _free_ports(count):
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
             for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class DaemonGroup:
    """Three ``repro serve`` subprocesses on loopback."""

    def __init__(self, tmp_path):
        ports = _free_ports(len(NODES))
        self.addresses = {node: ("127.0.0.1", port)
                          for node, port in zip(NODES, ports)}
        peers = ",".join(f"{node}=127.0.0.1:{port}"
                         for node, port in zip(NODES, ports))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.logs = {}
        self.procs = {}
        for node in NODES:
            log = open(tmp_path / f"{node}.log", "wb")
            self.logs[node] = log
            self.procs[node] = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--node", node, "--peers", peers],
                env=env, cwd=str(REPO_ROOT),
                stdout=log, stderr=log,
            )

    def servers(self, *nodes):
        return [self.addresses[node] for node in nodes]

    def kill(self, node):
        self.procs[node].kill()
        self.procs[node].wait()

    def shutdown(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs.values():
            log.close()


def wait_for_group(kernel, servers, expect_replies, timeout_s=25.0):
    """Poll until the group answers with ``expect_replies`` replies."""
    deadline = kernel.now + timeout_s
    with LiveCaller(kernel, servers,
                    client_id="probe-%d" % expect_replies) as probe:
        while kernel.now < deadline:
            try:
                outcome = kernel.run_process(probe.call(
                    "gettimeofday", timeout=1.0,
                    expect_replies=expect_replies))
                if len(outcome.results) >= expect_replies:
                    return
            except RpcTimeout:
                pass
            kernel.run(kernel.now + 0.2)
    raise AssertionError(
        f"group did not answer with {expect_replies} replies "
        f"within {timeout_s}s")


class GatewayClient:
    """One gateway client socket; each phase is a process on the kernel."""

    def __init__(self, kernel, index, servers):
        self.name = f"live-client-{index}"
        self.caller = LiveCaller(kernel, servers, client_id=f"cc{index}")
        self.values = []
        self.disagreements = []

    def phase(self, calls, expect_replies, servers=None):
        if servers is not None:
            self.caller.servers = list(servers)
        done = attempts = 0
        while done < calls and attempts < calls * 6:
            attempts += 1
            try:
                outcome = yield from self.caller.call(
                    "gettimeofday", timeout=2.0,
                    expect_replies=expect_replies)
            except RpcTimeout:
                continue  # failover in progress; retry
            if len(outcome.results) < expect_replies:
                continue
            if not outcome.agreed:
                self.disagreements.append(outcome.values)
            self.values.append(outcome.first().value["micros"])
            done += 1
        assert done == calls, f"{self.name} completed {done}/{calls}"


def run_phase(kernel, clients, **phase):
    """All clients' phases at once; a failed one fails the test."""
    def together():
        # Spawn them all, then wait on each in turn (a process is an
        # event): the phases run concurrently either way.
        processes = [kernel.process(client.phase(**phase), name=client.name)
                     for client in clients]
        for process in processes:
            yield process

    kernel.run_process(together(), timeout=60.0)


def test_concurrent_gateway_clients_with_leader_kill(tmp_path):
    group = DaemonGroup(tmp_path)
    kernel = LiveKernel()
    clients = []
    try:
        wait_for_group(kernel, group.servers(*NODES), expect_replies=3)

        # Phase 1: all clients in parallel against the full group.
        clients = [GatewayClient(kernel, i, group.servers(*NODES))
                   for i in range(CLIENTS)]
        run_phase(kernel, clients, calls=5, expect_replies=3)

        # Kill the ring leader; the survivors keep serving.
        group.kill("n0")
        wait_for_group(kernel, group.servers("n1", "n2"), expect_replies=2)

        # Phase 2: same callers, so monotonicity spans the kill.
        run_phase(kernel, clients, calls=4, expect_replies=2,
                  servers=group.servers("n1", "n2"))

        for client in clients:
            # Same-operation replies were identical on every replica...
            assert not client.disagreements, client.disagreements
            # ...and one client's reads strictly increase across the
            # whole run, leader kill included.
            assert len(client.values) == 9
            assert all(b > a for a, b in
                       zip(client.values, client.values[1:])), client.values
    finally:
        for client in clients:
            client.caller.close()
        kernel.close()
        group.shutdown()
