"""The inline-attribute budget of the per-op hot objects.

CPython 3.11 keeps an instance's attribute values inline (no ``__dict__``
table) only up to 29 of them; at 30 the dict grows from 296 to 1 584
bytes and attribute reads slow by ~15 %.  ``TotemProcessor``, an active
``Replica`` and ``ConsistentTimeService`` sit on every operation's path
and are built to stay within that budget.  ``PassiveReplica`` is not
pinned: it holds 34 attributes, and no benchmark workload deploys it.
"""

from support import ClockApp, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)

INLINE_BUDGET = 29


def test_hot_objects_keep_their_attributes_inline():
    bed = make_testbed(seed=1)
    bed.record()
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts",
               fast_path=True)
    bed.start()
    replica = bed.replicas("svc")["n1"]
    assert replica.style == "active"
    for hot in (bed.processors["n1"], replica, replica.time_source):
        assert len(vars(hot)) <= INLINE_BUDGET, (
            type(hot).__name__, sorted(vars(hot)))
