"""Wire-frame authentication for the Byzantine-tolerant mode.

The crash/omission fault model of the base protocol lets any datagram
that *parses* join the total order.  Under an authenticated-Byzantine
model (f < n/3 replicas may lie, but cannot forge each other's
signatures) every ring frame instead carries a MAC field behind the
frame's flags byte (``WIRE_VERSION`` 4, :mod:`repro.net.wire`)::

    key id   1 byte   which group key signed this frame
    nonce    8 bytes  little-endian, strictly increasing per sender
    mac     16 bytes  truncated HMAC-SHA256 over everything before it
                      (src, flags, trace context, key id, nonce) plus
                      the payload bytes

One :class:`WireAuthenticator` holds the group keyring and the replay
state for every node it serves (the in-process testbed shares a single
transport among all nodes, so both send counters and receive watermarks
are keyed by node id).  Verification failures raise
:class:`~repro.errors.FrameError` with one of the stable reasons
``auth-missing`` / ``auth-truncated`` / ``auth-forged`` /
``auth-replay``, which feed the existing per-reason rejection counters —
a lying replica's forged frames show up in telemetry exactly like any
other malformed datagram.

Caveats (documented, deliberate):

* Nonces must *strictly increase* per (receiver, sender) pair.  A
  datagram reordered in flight is rejected as a replay; on lossy UDP
  that degrades to a drop, which the ring protocol already tolerates
  via retransmission.
* Key distribution is out of scope: the group key is provisioned out of
  band (``--auth-key`` on every daemon).  A compromised key defeats the
  scheme — this authenticates *members to each other*, it does not make
  a member honest.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Dict, Tuple

from ..errors import FrameError

#: Truncated HMAC-SHA256 output carried on the wire.
MAC_SIZE = 16
#: Auth field head: key id, nonce (the MAC follows).
AUTH_HEAD = struct.Struct("<BQ")
#: key id + nonce + mac.
AUTH_FIELD_SIZE = AUTH_HEAD.size + MAC_SIZE


def derive_key(secret: str, *, group: str = "timesvc") -> bytes:
    """Derive the 32-byte group key from a shared secret string."""
    return hashlib.sha256(f"repro-wire-auth:{group}:{secret}".encode()).digest()


class WireAuthenticator:
    """Signs outgoing frames and verifies incoming ones."""

    def __init__(self, key: bytes, *, key_id: int = 0):
        if not 0 <= key_id <= 255:
            raise ValueError(f"key_id must fit one byte, got {key_id}")
        self.key_id = key_id
        #: key id -> an HMAC keyed once, copied per frame.
        self._macs = {key_id: hmac.new(key, digestmod=hashlib.sha256)}
        #: sender node -> last nonce issued.
        self._send_nonce: Dict[str, int] = {}
        #: (receiver node, sender node) -> highest nonce accepted.
        self._recv_nonce: Dict[Tuple[str, str], int] = {}
        self.frames_signed = 0
        self.frames_verified = 0

    @classmethod
    def from_secret(cls, secret: str, *, group: str = "timesvc",
                    key_id: int = 0) -> "WireAuthenticator":
        return cls(derive_key(secret, group=group), key_id=key_id)

    # -- signing ----------------------------------------------------------

    def sign_field(self, src: str, signed_prefix: bytes,
                   payload_bytes: bytes) -> bytes:
        """Produce the wire auth field for one outgoing frame.

        ``signed_prefix`` is every body byte preceding the auth field
        (packed src, flags, trace context); the MAC also covers the key
        id, the nonce and the payload, so nothing in the frame can be
        spliced without detection.
        """
        nonce = self._send_nonce.get(src, 0) + 1
        self._send_nonce[src] = nonce
        self.frames_signed += 1
        head = AUTH_HEAD.pack(self.key_id, nonce)
        mac = self._macs[self.key_id].copy()
        mac.update(signed_prefix + head + payload_bytes)
        return head + mac.digest()[:MAC_SIZE]

    # -- verification -----------------------------------------------------

    def verify(self, *, dst: str, src: str, key_id: int, nonce: int,
               mac: bytes, signed_bytes: bytes,
               signed_tail: bytes = b"") -> None:
        """Check one incoming frame's auth field; raise on failure.

        ``signed_bytes + signed_tail`` is the exact byte string the sender
        signed (prefix + key id + nonce, then payload; passed apart).  Raises
        :class:`FrameError` with reason ``auth-forged`` (bad key id or
        MAC mismatch) or ``auth-replay`` (nonce not strictly newer than
        the watermark for this (dst, src) pair).
        """
        keyed = self._macs.get(key_id)
        if keyed is None:
            raise FrameError(f"auth field names unknown key id {key_id}",
                             reason="auth-forged")
        expect = keyed.copy()
        expect.update(signed_bytes)
        expect.update(signed_tail)
        if not hmac.compare_digest(expect.digest()[:MAC_SIZE], mac):
            raise FrameError(f"frame MAC from {src!r} does not verify",
                             reason="auth-forged")
        watermark = self._recv_nonce.get((dst, src), 0)
        if nonce <= watermark:
            raise FrameError(
                f"replayed frame from {src!r}: nonce {nonce} <= "
                f"watermark {watermark}", reason="auth-replay")
        self._recv_nonce[(dst, src)] = nonce
        self.frames_verified += 1
