"""Unit tests for the per-thread CCS handler."""

import pytest

from repro.core import CCSMessage
from repro.core.ccs_handler import CCSHandler, PendingOp, RoundInFlight
from repro.errors import TimeServiceError
from repro.sim import Simulator

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def msg(round_number, value=1000, thread="0:main"):
    return CCSMessage(thread, round_number, value, 1)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def handler():
    return CCSHandler("0:main")


def op(sim, req, seq=1):
    return PendingOp((req, seq), None, sim.event(), 0.0)


def in_flight(round_number, covers):
    return RoundInFlight(round_number, covers, 0, 0, 1, False, 0.0)


class TestRounds:
    def test_rounds_increment(self):
        # Figure 2 line 9 in the one round engine: the round counter is
        # the consumption point, and sequential operations move it one
        # round each.
        bed = make_testbed(seed=230)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"])
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 2)
        handlers = [next(iter(r.time_source._handlers.values()))
                    for r in bed.replicas("svc").values()]
        before = [h.my_round_number for h in handlers]
        call_n(bed, client, "svc", "get_time", 3)
        bed.run(0.05)
        assert [h.my_round_number for h in handlers] == [b + 3 for b in before]

    def test_park_keeps_operation_order(self, sim, handler):
        for req in (3, 1, 2):
            handler.park(op(sim, req))
        assert [p.op_id for p in handler.parked] == [(1, 1), (2, 1), (3, 1)]

    def test_take_covered_serves_up_to_the_covering_point(self, sim, handler):
        for req in (1, 2, 3):
            handler.park(op(sim, req))
        served = handler.take_covered((2, 1))
        assert [p.op_id for p in served] == [(1, 1), (2, 1)]
        assert [p.op_id for p in handler.parked] == [(3, 1)]
        # The default covering point names no operation.
        assert handler.take_covered(msg(2).covers) == []

    def test_fallback_op_ids_continue_the_thread_sequence(self, handler):
        assert handler.assign_op_id(None) == (0, 1)
        assert handler.assign_op_id((4, 2)) == (4, 2)
        assert handler.assign_op_id(None) == (4, 3)

    def test_abort_fails_parked_ops_and_withdraws_the_round(self, sim, handler):
        parked = op(sim, 1)
        handler.park(parked)
        handler.in_flight = in_flight(1, (1, 1))
        assert handler.abort_pending("test") is True
        assert handler.parked == [] and handler.in_flight is None
        assert parked.result.triggered and not parked.result.ok
        assert isinstance(parked.result.value, TimeServiceError)
        assert handler.abort_pending("again") is False


class TestBuffer:
    def test_recv_appends_in_order(self, handler):
        handler.recv_CCS_msg(msg(1))
        handler.recv_CCS_msg(msg(2))
        assert [m.round_number for m in handler.my_input_buffer] == [1, 2]

    def test_pop_returns_first(self, handler):
        handler.recv_CCS_msg(msg(1, value=111))
        handler.recv_CCS_msg(msg(2, value=222))
        assert handler.pop_message().proposed_micros == 111

    def test_pop_empty_raises(self, handler):
        with pytest.raises(TimeServiceError, match="empty buffer"):
            handler.pop_message()
