"""The cross-shard clock summary: what one shard tells its neighbors.

Once per overlay period a shard's primary publishes a
:class:`ShardSummary` to its ring neighbors: the group clock estimate at
send time (``value_us``), the committed offset the estimate was derived
from, the round watermark that committed it, and a drift-certified error
bound (how stale the estimate can be, from the round age and the
configured drift budget).  The receiving shard subtracts its own
estimate, discounts the error bound, and steers the positive remainder
into its next proposal (:class:`repro.core.drift.GradientSteering`).

Summaries cross shard boundaries, i.e. leave the sender's trust domain,
so they carry an optional HMAC-SHA256 signature over a canonical byte
string.  An unsigned or mis-signed summary is dropped by the overlay
when a secret is configured — a Byzantine shard can then not drag its
neighbors' clocks around.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple, Optional

__all__ = ["ShardSummary"]


class ShardSummary(NamedTuple):
    """One shard's signed clock advertisement to its ring neighbors."""

    #: The advertising shard's id on the ring.
    shard: int
    #: The advertising shard's CCS group name (e.g. ``"shard2"``).
    group: str
    #: Group clock estimate at send time: physical clock + committed
    #: offset — the same estimate the read fast path serves.
    value_us: int
    #: The committed group-clock offset behind the estimate.
    offset_us: int
    #: Round watermark: the last completed CCS round number.
    round_seq: int
    #: Drift-certified error bound on ``value_us``, microseconds.
    error_us: int
    #: Hex HMAC-SHA256 over :meth:`canonical_bytes` ("" = unsigned).
    signature: str = ""

    def canonical_bytes(self) -> bytes:
        """The byte string the signature covers (signature excluded)."""
        return (f"shard-summary|{self.shard}|{self.group}|{self.value_us}"
                f"|{self.offset_us}|{self.round_seq}|{self.error_us}"
                ).encode("utf-8")

    def sign(self, secret: Optional[str]) -> "ShardSummary":
        """A copy carrying the HMAC for ``secret`` (self if no secret)."""
        if not secret:
            return self
        mac = hmac.new(secret.encode("utf-8"), self.canonical_bytes(),
                       hashlib.sha256).hexdigest()
        return self._replace(signature=mac)

    def verify(self, secret: Optional[str]) -> bool:
        """True if the signature matches ``secret``.

        Without a configured secret every summary verifies (open mode);
        with one, both a missing and a forged signature fail.
        """
        if not secret:
            return True
        expected = hmac.new(secret.encode("utf-8"), self.canonical_bytes(),
                            hashlib.sha256).hexdigest()
        return hmac.compare_digest(self.signature, expected)
