"""Shard placement: consistent hashing.

One CCS group serves one *shard* of the client population (ROADMAP
item 1).  The routing tier needs a deterministic ``client key -> shard``
map with two properties the gateway relies on:

* **balance** — with enough virtual nodes per shard the max/min load
  ratio over a large key population stays small;
* **minimal reassignment** — adding or removing a shard moves only the
  keys that land on the new (or departed) shard's ring arcs, roughly a
  ``1/N`` fraction; every other key keeps its owner, so sessions do not
  migrate en masse on topology change.

:class:`HashRing` is the classic token ring (each shard owns
``vnodes`` pseudo-random points on a 64-bit circle; a key is owned by
the first token clockwise from its hash).

Placement is a pure function of ``(members, salt)``: hashing is SHA-256,
so it is identical across processes, platforms and Python versions
— a gateway tier can be scaled horizontally with no shared state.

The ring also defines the **overlay topology**: :meth:`HashRing.neighbors`
returns each shard's predecessor and successor in shard order, the
edges along which the gradient sync overlay exchanges clock summaries
(see :mod:`repro.shard.overlay`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = ["HashRing"]


def _hash64(text: str) -> int:
    """The first 8 bytes of SHA-256 as an unsigned 64-bit point."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over shard ids with virtual nodes.

    ``members`` may be any ids with stable ``str()`` forms (the testbed
    uses small ints).  ``vnodes`` is the token count per shard — 64
    keeps the max/min load ratio under ~1.6 for 10k keys (pinned by the
    hypothesis suite).  ``salt`` isolates independent rings from each
    other (two rings with different salts place keys independently).
    """

    def __init__(self, members: Sequence, *, vnodes: int = 64,
                 salt: str = "shard-ring"):
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.salt = salt
        self._members: List = []
        self._points: List[int] = []      # sorted token positions
        self._owners: List = []           # token position -> member
        for member in members:
            self.add(member)

    # -- topology -------------------------------------------------------

    @property
    def members(self) -> List:
        """Members in insertion order."""
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member) -> bool:
        return member in self._members

    def add(self, member) -> None:
        """Add one shard; only the keys on its new arcs move to it."""
        if member in self._members:
            raise ConfigurationError(f"shard {member!r} already on the ring")
        self._members.append(member)
        for token in range(self.vnodes):
            point = _hash64(f"{self.salt}|{member}|{token}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, member)

    def remove(self, member) -> None:
        """Remove one shard; only its keys are reassigned (to the next
        token clockwise, i.e. spread over the survivors)."""
        if member not in self._members:
            raise ConfigurationError(f"shard {member!r} is not on the ring")
        self._members.remove(member)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != member]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- placement ------------------------------------------------------

    def owner(self, key: str):
        """The shard owning ``key``: first token clockwise from its hash."""
        if not self._members:
            raise ConfigurationError("ring has no members")
        point = _hash64(f"{self.salt}|key|{key}")
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._owners[index]

    # -- overlay topology -----------------------------------------------

    def order(self) -> List:
        """Members ordered by their first (lowest) token position — the
        deterministic 'shard order' the gradient overlay walks."""
        first: Dict = {}
        for point, member in zip(self._points, self._owners):
            if member not in first:
                first[member] = point
        return sorted(self._members, key=lambda m: first[m])

    def neighbors(self, member) -> Tuple:
        """The shard's predecessor and successor in shard order — the
        gradient overlay's edges.  With two members both directions meet
        the same peer (returned once); a singleton has no neighbors."""
        ordered = self.order()
        if member not in ordered:
            raise ConfigurationError(f"shard {member!r} is not on the ring")
        if len(ordered) < 2:
            return ()
        index = ordered.index(member)
        prev_member = ordered[index - 1]
        next_member = ordered[(index + 1) % len(ordered)]
        if prev_member == next_member:
            return (prev_member,)
        return (prev_member, next_member)
