"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class ProcessKilled(SimulationError):
    """Raised inside a simulated process that has been forcibly killed.

    Processes are killed when their hosting node crashes (fail-stop model).
    Application code generally should not catch this.
    """


class WaitTimeout(SimulationError):
    """A bed's condition wait (``wait_until``) ran out of time."""


class NodeDown(SimulationError):
    """An operation was attempted on a crashed node (fail-stop model)."""


class NetworkError(SimulationError):
    """A network-level operation failed (e.g. sending from a detached
    interface)."""


class TotemError(ReproError):
    """The Totem single-ring protocol detected a violation of its own
    invariants (sequencing, ring state, token handling)."""


class ReplicationError(ReproError):
    """The replication infrastructure detected an inconsistency."""


class ReconfigurationError(ReplicationError):
    """A control-plane reconfiguration (join/drain/rolling restart)
    could not be carried out safely — e.g. draining the last serving
    replica, or a joiner that never caught up within its deadline."""


class RpcError(ReproError):
    """A remote method invocation failed."""


class RpcTimeout(RpcError):
    """A remote method invocation did not complete within its deadline."""


class TimeServiceError(ReproError):
    """The consistent time service detected a protocol violation."""

    def __init__(self, *args: object, node: Optional[str] = None):
        super().__init__(*args)
        #: The node whose service detected it, when known.
        self.node = node


class ConsistencyError(TimeServiceError):
    """The time service's own state contradicts the total order (a
    buffered round that does not follow the consumption point).  Never
    the application's error: it ends the run instead of becoming a
    reply, unlike an aborted operation's :class:`TimeServiceError`."""


class ConfigurationError(ReproError):
    """Invalid configuration supplied to a component."""


class TransportError(NetworkError):
    """A live-transport operation failed (socket setup, closed port)."""


class FrameError(ReproError):
    """A wire frame failed to parse (bad magic, bad version, truncation).

    ``reason`` is a stable machine-readable code (``truncated``,
    ``magic``, ``version``, ``length``, ``source``, ``trace``,
    ``payload``, ``trailing``, and the authenticated-mode codes
    ``auth-missing``, ``auth-truncated``, ``auth-forged``,
    ``auth-replay``) used to label the per-reason rejection counters on
    live UDP ports.
    """

    def __init__(self, message: str, *, reason: str = "malformed"):
        super().__init__(message)
        self.reason = reason
