"""Tests for the asyncio metrics HTTP endpoint."""

import asyncio
import json

from repro.obs import MetricsHttpServer
from repro.obs.metrics import MetricsRegistry


def sample_registry():
    registry = MetricsRegistry(clock=lambda: 2.0)
    registry.enable()
    registry.counter("requests_total", help="requests").inc(5, node="n0")
    registry.gauge("offset_us", help="offset").set(-3.5, node='n"1\n')
    registry.disable()
    return registry


async def http_request(port, request_bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_bytes)
    await writer.drain()
    response = await reader.read()
    writer.close()
    return response.decode("utf-8")


def serve_and_fetch(path_or_request, *, registry=None):
    """Boot the server on an ephemeral port, issue one request, stop."""
    if isinstance(path_or_request, str):
        request = (f"GET {path_or_request} HTTP/1.1\r\n"
                   "Host: localhost\r\n\r\n").encode()
    else:
        request = path_or_request

    async def scenario():
        server = MetricsHttpServer(registry or sample_registry(), port=0)
        await server.start()
        try:
            assert server.bound_port
            response = await http_request(server.bound_port, request)
        finally:
            await server.stop()
        return server, response

    return asyncio.run(scenario())


def split_response(response):
    head, _, body = response.partition("\r\n\r\n")
    status = head.splitlines()[0]
    headers = {line.split(":", 1)[0].lower(): line.split(":", 1)[1].strip()
               for line in head.splitlines()[1:]}
    return status, headers, body


class TestRoutes:
    def test_metrics_is_prometheus_text(self):
        server, response = serve_and_fetch("/metrics")
        status, headers, body = split_response(response)
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8")
        assert int(headers["content-length"]) == len(body.encode())
        assert "# TYPE requests_total counter" in body
        assert 'requests_total{node="n0"} 5' in body
        assert server.requests_served == 1

    def test_metrics_json_parses(self):
        _, response = serve_and_fetch("/metrics.json")
        status, headers, body = split_response(response)
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"] == "application/json"
        samples = json.loads(body)
        by_name = {s["name"]: s for s in samples}
        assert by_name["requests_total"]["value"] == 5.0
        assert by_name["offset_us"]["value"] == -3.5

    def test_healthz(self):
        _, response = serve_and_fetch("/healthz")
        status, _, body = split_response(response)
        assert status == "HTTP/1.1 200 OK"
        assert body == "ok\n"

    def test_query_strings_are_ignored(self):
        _, response = serve_and_fetch("/healthz?verbose=1")
        status, _, _ = split_response(response)
        assert status == "HTTP/1.1 200 OK"

    def test_unknown_path_is_404(self):
        _, response = serve_and_fetch("/nope")
        status, _, body = split_response(response)
        assert status == "HTTP/1.1 404 Not Found"
        assert body == "not found\n"

    def test_post_is_405(self):
        _, response = serve_and_fetch(
            b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, _ = split_response(response)
        assert status == "HTTP/1.1 405 Method Not Allowed"


class TestLifecycle:
    def test_bound_port_none_before_start_and_after_stop(self):
        async def scenario():
            server = MetricsHttpServer(sample_registry(), port=0)
            assert server.bound_port is None
            await server.start()
            port = server.bound_port
            assert port
            await server.stop()
            assert server.bound_port is None
            return port

        asyncio.run(scenario())

    def test_sequential_requests_on_one_server(self):
        async def scenario():
            server = MetricsHttpServer(sample_registry(), port=0)
            await server.start()
            try:
                for _ in range(3):
                    response = await http_request(
                        server.bound_port,
                        b"GET /healthz HTTP/1.1\r\n\r\n")
                    assert "200 OK" in response
            finally:
                await server.stop()
            assert server.requests_served == 3

        asyncio.run(scenario())
