"""Remote-method-invocation payloads (the e*ORB/CORBA stand-in).

An :class:`Invocation` names an application method and its arguments; a
:class:`Result` carries the return value or the raised error back to the
client.  Both travel inside :class:`~repro.replication.envelope.Envelope`
bodies over the totally-ordered group layer.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple


class Invocation(NamedTuple):
    """One remote method invocation."""

    method: str
    args: Tuple[Any, ...] = ()

    def wire_size(self) -> int:
        return 24 + 16 * len(self.args)

    def __str__(self) -> str:
        return f"{self.method}({', '.join(map(repr, self.args))})"


class Result(NamedTuple):
    """The outcome of one invocation."""

    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def wire_size(self) -> int:
        return 32
