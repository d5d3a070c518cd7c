"""Fixtures for the live-networking suite."""

import socket

import pytest

from repro.net.kernel import LiveKernel


@pytest.fixture
def kernel():
    """A bare live kernel, for clients of servers that are not a bed."""
    kernel = LiveKernel()
    yield kernel
    kernel.close()


@pytest.fixture
def port_allocator():
    """Hand out currently-free UDP ports on 127.0.0.1.

    Binding to port 0 and reading the assigned port back keeps parallel
    test runs from colliding on hard-coded port numbers.  (The port is
    released before it is handed out, so a tiny race with other local
    processes remains — acceptable for tests.)
    """

    def allocate(count: int = 1):
        sockets, ports = [], []
        try:
            for _ in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sock.bind(("127.0.0.1", 0))
                sockets.append(sock)
                ports.append(sock.getsockname()[1])
        finally:
            for sock in sockets:
                sock.close()
        return ports

    return allocate
