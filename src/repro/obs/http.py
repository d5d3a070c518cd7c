"""A tiny asyncio HTTP endpoint exposing a bed's metrics registry.

Runs on the daemon's own event loop (``repro serve --metrics-port``), so
a real Prometheus can scrape a live node without any extra thread or
dependency.  GET-only, no keep-alive.  Routes: ``/metrics`` (Prometheus
text), ``/metrics.json`` (the same samples as a JSON array) and
``/healthz`` (``ok``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from .export import prometheus_text
from .metrics import MetricsRegistry

_MAX_REQUEST_BYTES = 8192
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsHttpServer:
    """Serves a bed's registry over HTTP from an asyncio loop."""

    def __init__(self, registry: MetricsRegistry, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.registry = registry
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests_served = 0

    @property
    def bound_port(self) -> Optional[int]:
        """The actual listening port (useful when configured with 0)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "MetricsHttpServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        try:
            parts = request.decode("latin-1").split()
            method, path = (parts[0], parts[1]) if len(parts) >= 2 else ("", "")
            # Drain (and ignore) the header block, bounded.
            drained = 0
            while drained < _MAX_REQUEST_BYTES:
                line = await reader.readline()
                drained += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
            status, content_type, body = self._route(method, path)
            payload = body.encode("utf-8")
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1"))
            writer.write(payload)
            await writer.drain()
            self.requests_served += 1
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def _route(self, method: str, path: str):
        if method != "GET":
            return "405 Method Not Allowed", "text/plain", "method not allowed\n"
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return "200 OK", _PROM_CONTENT_TYPE, prometheus_text(self.registry)
        if path == "/metrics.json":
            samples = list(self.registry.collect())
            return ("200 OK", "application/json",
                    json.dumps(samples, default=str) + "\n")
        if path == "/healthz":
            return "200 OK", "text/plain", "ok\n"
        return "404 Not Found", "text/plain", "not found\n"
