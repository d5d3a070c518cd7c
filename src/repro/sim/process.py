"""Process-level coordination for the simulation kernel.

The paper's C++ implementation protects per-thread message buffers with
POSIX mutexes and condition variables; recast as an event-based object
for simulated processes that is :class:`Store` — an unbounded FIFO with
blocking ``get()``, the analogue of a message input buffer plus its
condition variable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .kernel import Event, Simulator


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that succeeds
    with the oldest item as soon as one is available; waiters are served
    in FIFO order.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Deque[Any]:
        """The queued items (oldest first).  Read-only by convention."""
        return self._items

    def put(self, item: Any) -> None:
        """Append ``item``; wake the oldest waiting getter, if any."""
        # Skip getters that were cancelled/triggered elsewhere.
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self) -> Any:
        """Return the oldest item without removing it."""
        return self._items[0]

    def clear(self) -> List[Any]:
        """Remove and return all queued items (waiters stay blocked)."""
        items = list(self._items)
        self._items.clear()
        return items

