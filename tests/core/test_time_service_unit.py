"""Unit-level tests for ConsistentTimeService internals and edge cases."""

import hashlib
from collections import deque

import pytest

from repro.core import (
    CCSMessage,
    ConsistentTimeService,
    TimeTransferState,
)
from repro.core.group_clock import CERTIFIED_SLACK_US, STABILIZE_VALUE_GAP_US
from repro.errors import TimeServiceError
from repro.net.testbed import LiveTestbed
from repro.replication.envelope import MsgType, make_envelope

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def now_us(service):
    """The service's node's physical clock: the reading a caller passes."""
    return service.replica.node.read_clock_us()


def build_service(seed=200, record=True, **kwargs):
    bed = make_testbed(seed=seed)
    if record:
        bed.record()
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source=(
        lambda replica: ConsistentTimeService(replica, **kwargs)
    ))
    client = bed.client("n0")
    bed.start()
    return bed, client


class TestConstruction:
    def test_stats_start_at_zero(self):
        bed, _client = build_service(seed=202)
        service = bed.replicas("svc")["n1"].time_source
        # Only state-transfer special rounds may have run during start().
        assert service.stats.duplicates_discarded == 0
        assert service.stats.ccs_transmitted >= 0


class TestSuppressionToggle:
    def test_disabled_suppression_still_consistent(self):
        bed, client = build_service(seed=203, suppress_pending=False)
        values = call_n(bed, client, "svc", "get_time", 8)
        bed.run(0.1)
        assert all(b > a for a, b in zip(values, values[1:]))
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-8:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]

    def test_disabled_suppression_transmits_more(self):
        bed_on, client_on = build_service(seed=204, suppress_pending=True)
        call_n(bed_on, client_on, "svc", "get_time", 10)
        bed_on.run(0.1)
        on_total = sum(
            r.time_source.stats.ccs_transmitted
            for r in bed_on.replicas("svc").values()
        )
        bed_off, client_off = build_service(seed=204, suppress_pending=False)
        call_n(bed_off, client_off, "svc", "get_time", 10)
        bed_off.run(0.1)
        off_total = sum(
            r.time_source.stats.ccs_transmitted
            for r in bed_off.replicas("svc").values()
        )
        assert off_total >= on_total


class TestAbortInFlight:
    def test_abort_without_pending_is_noop(self):
        bed, client = build_service(seed=205)
        service = bed.replicas("svc")["n1"].time_source
        service.abort_in_flight()  # nothing blocked: no error

    def test_abort_fails_blocked_operation(self):
        bed, client = build_service(seed=206)
        replica = bed.replicas("svc")["n2"]
        service = replica.time_source
        # Block an operation artificially: read on a fresh thread in
        # primary-only fashion by suppressing sends.
        service._recovering = True  # recovering replicas never send
        event = service.read("9:orphan", "gettimeofday", now_us(service))
        bed.run(0.01)
        assert not event.triggered
        service.abort_in_flight()
        bed.run(0.001)
        assert event.triggered
        assert not event.ok
        assert isinstance(event.value, TimeServiceError)
        service._recovering = False

    def test_aborted_thread_can_read_again(self):
        bed, client = build_service(seed=207)
        replica = bed.replicas("svc")["n2"]
        service = replica.time_source
        service._recovering = True
        first = service.read("9:orphan", "gettimeofday", now_us(service))
        bed.run(0.01)
        service.abort_in_flight()
        service._recovering = False
        bed.run(0.01)
        second = service.read("9:orphan", "gettimeofday", now_us(service))
        bed.run(0.05)
        assert second.triggered and second.ok


class TestBufferedRoundGap:
    def test_gap_in_the_buffer_names_what_explains_it(self):
        # The live chaos flake (ROADMAP K1) was this assertion firing on
        # a recovered replica; whoever meets it next needs the handler's
        # whole picture in the message, not just two round numbers.
        bed, client = build_service(seed=208)
        call_n(bed, client, "svc", "get_time", 3)
        service = bed.replicas("svc")["n2"].time_source
        thread = "9:gap"
        handler = service._handler(thread)
        for round_number in (7, 8):  # planted: the handler consumed 0
            handler.recv_CCS_msg(CCSMessage(thread, round_number, 1_000, 0))
        with pytest.raises(TimeServiceError) as raised:
            service.read(thread, "gettimeofday", now_us(service))
        message = str(raised.value)
        for field in ("thread '9:gap'", "round 7", "consumption point 0",
                      "node n2", "buffered rounds [7, 8]",
                      "accepted watermark None", "in-flight round None",
                      "recovering: False"):
            assert field in message, (field, message)
        assert raised.value.node == "n2"


    def test_a_gap_met_by_a_client_read_ends_the_run(self):
        # A consistency failure is this replica's, not the request's: it
        # reaches the kernel (a chaos verdict's protocol_failures) rather
        # than becoming an error reply while the popped round is lost.
        bed, client = build_service(seed=208)
        call_n(bed, client, "svc", "get_time", 3)
        service = bed.replicas("svc")["n2"].time_source
        handler = service._handlers["0:main"]
        gap = handler.my_round_number + 2  # one round skipped
        handler.recv_CCS_msg(CCSMessage(
            "0:main", gap, service.clock_state.last_group_us + 1_000, 0,
            covers_req=handler.last_op_id[0] + 1, covers_seq=1))
        with pytest.raises(TimeServiceError) as raised:
            call_n(bed, client, "svc", "get_time", 1)
        assert "does not follow consumption point" in str(raised.value)
        assert raised.value.node == "n2"


class TestOffsetRule:
    """Figure 2, line 7, in both modes: a round re-derives the offset
    from an operation's reading — the round's open, or the consuming read
    it serves; a round consumed only to catch the consumption point up
    keeps the prior offset, unless that is corruption-scale off."""

    THREAD = "9:rule"

    def plant(self, byzantine, covers):
        """A committed offset on n2, a buffered winner for a fresh thread
        covering ``covers``, and the consuming read's reading: 5 ms past
        the node's clock, so it differs from the one the offset was
        derived from."""
        bed, client = build_service(seed=214, byzantine=byzantine)
        call_n(bed, client, "svc", "get_time", 3)
        service = bed.replicas("svc")["n2"].time_source
        handler = service._handler(self.THREAD)
        group_us = service.clock_state.last_group_us + 1_000
        handler.recv_CCS_msg(CCSMessage(
            self.THREAD, handler.my_round_number + 1, group_us, 0,
            covers_req=covers[0], covers_seq=covers[1]))
        return service, now_us(service) + 5_000, group_us

    @pytest.mark.parametrize("byzantine", [False, True],
                             ids=["crash-only", "byzantine"])
    def test_a_round_serving_no_op_keeps_the_offset(self, byzantine):
        # The winner covers only (1, 1), an operation this replica has
        # already served (on the fast path, say); the read parks (2, 1).
        service, reading, group_us = self.plant(byzantine, covers=(1, 1))
        prior = service.clock_state.offset_us
        service.read(self.THREAD, "gettimeofday", reading, op_id=(2, 1))
        assert service.stats.rounds_completed
        assert group_us - reading != prior
        assert service.clock_state.offset_us == prior

    @pytest.mark.parametrize("byzantine", [False, True],
                             ids=["crash-only", "byzantine"])
    def test_a_round_serving_a_parked_op_rederives_the_offset(self, byzantine):
        # Line 11 short-circuit: the winner was buffered before the read
        # arrived, and the consuming read's reading is the op's.
        service, reading, group_us = self.plant(byzantine, covers=(2, 1))
        result = service.read(self.THREAD, "gettimeofday", reading, op_id=(2, 1))
        assert result.triggered and result.value.micros == group_us
        assert service.clock_state.offset_us == group_us - reading

    @pytest.mark.parametrize("byzantine", [False, True],
                             ids=["crash-only", "byzantine"])
    def test_a_corruption_scale_offset_is_replaced(self, byzantine):
        service, reading, group_us = self.plant(byzantine, covers=(1, 1))
        service.clock_state.offset_us += 3 * STABILIZE_VALUE_GAP_US
        service.read(self.THREAD, "gettimeofday", reading, op_id=(2, 1))
        assert service.clock_state.offset_us == group_us - reading


class TestFloorRepair:
    """The fast-floor repair is the service's, in both modes: a floor no
    state the replica trusts vouches for is corrupted, and no client may
    be handed it.  Crash-only mode trusts its causal floor — only ordered
    input raises it — so a floor that far ahead stays; the guard trusts
    no floor."""

    THREAD = "9:floors"
    HOUR_US = 3_600_000_000

    def fast_service(self, seed, byzantine):
        bed, client = build_service(seed=seed, fast_path=True,
                                    byzantine=byzantine)
        call_n(bed, client, "svc", "get_time", 3)
        return bed, bed.replicas("svc")["n2"].time_source

    @staticmethod
    def fast_read(service, thread, **kwargs):
        """A read inside the staleness budget, so the fast path is
        tried; returns it and the ceiling a plain group clock sets."""
        elapsed = 500
        reading = service._last_commit_physical_us + elapsed
        ceiling = (service.clock_state.last_group_us + elapsed
                   + service.drift_bound.error_us(elapsed)
                   + CERTIFIED_SLACK_US)
        return service.read(thread, "gettimeofday", reading, **kwargs), ceiling

    @pytest.mark.parametrize("byzantine", [False, True],
                             ids=["crash-only", "byzantine"])
    def test_the_fast_path_serves_no_corrupt_floor(self, byzantine):
        bed, service = self.fast_service(216, byzantine)
        # Both floors an hour ahead; crash-only mode keeps its causal
        # floor, so only the fast floor is planted there.
        state = service.clock_state
        state.fast_floor_us = state.last_group_us + self.HOUR_US
        if byzantine:
            state.causal_floor_us = state.fast_floor_us
        fallbacks = service.stats.fast_path_fallbacks
        result, ceiling = self.fast_read(service, self.THREAD)
        bed.run(0.05)
        assert result.triggered and result.value.micros <= ceiling
        assert service.stats.stabilizations == {"fast-floor": 1}
        assert service.stats.fast_path_fallbacks == fallbacks + 1
        assert state.causal_floor_us is None

    def test_crash_only_trusts_a_stamp_far_ahead(self):
        # Another group's stamp (or a session floor) an hour ahead is
        # ordered input: the read is served above it, and nothing is
        # repaired.
        bed, service = self.fast_service(218, byzantine=False)
        stamp = service.clock_state.last_group_us + self.HOUR_US
        service.observe_timestamp(stamp)
        result, _ceiling = self.fast_read(service, self.THREAD)
        bed.run(0.05)
        assert result.triggered and result.value.micros > stamp
        assert service.clock_state.causal_floor_us == stamp
        assert service.stats.stabilizations == {}

    @pytest.mark.parametrize("byzantine", [False, True],
                             ids=["crash-only", "byzantine"])
    def test_a_round_drops_a_corrupt_fast_floor(self, byzantine):
        # A buffered winner serves the read; the fast floor above it is
        # not a read this replica served, so it must not lift the reply.
        bed, service = self.fast_service(217, byzantine)
        handler = service._handler(self.THREAD)
        group_us = service.clock_state.last_group_us + 1_000
        handler.recv_CCS_msg(CCSMessage(
            self.THREAD, handler.my_round_number + 1, group_us, 0,
            covers_req=2, covers_seq=1))
        service.clock_state.fast_floor_us = group_us + self.HOUR_US
        result = service.read(self.THREAD, "gettimeofday", now_us(service),
                              op_id=(2, 1))
        assert result.triggered and result.value.micros == group_us
        assert service.stats.stabilizations == {"fast-floor": 1}
        assert service.clock_state.fast_floor_us == group_us

    def test_crash_only_keeps_a_session_floor_it_served(self):
        # A request's session floor an hour ahead lifts its reply, and the
        # fast floor with it; a later op a retained round serves must not
        # step back below that reply.
        bed, service = self.fast_service(219, byzantine=False)
        handler = service._handler(self.THREAD)
        group_us = service.clock_state.last_group_us + 1_000
        for seq, value in enumerate((group_us, group_us + 1_000), start=1):
            handler.recv_CCS_msg(CCSMessage(
                self.THREAD, handler.my_round_number + seq, value, 0,
                covers_req=seq + 1, covers_seq=1))
        session = group_us + self.HOUR_US
        first = service.read(self.THREAD, "gettimeofday", now_us(service),
                             op_id=(2, 1), floor_us=session)
        second = service.read(self.THREAD, "gettimeofday", now_us(service),
                              op_id=(3, 1))
        assert first.value.micros == session + 1
        assert second.value.micros > first.value.micros
        assert service.stats.stabilizations == {}


class TestRejectEvidence:
    """The guard's anchor repair counts each sender's latest rejected
    value: a seconds-old entry must not veto a fresh quorum."""

    THREAD = "9:evidence"

    def test_a_stale_entry_does_not_block_the_anchor_repair(self):
        bed, client = build_service(seed=215, byzantine=True)
        call_n(bed, client, "svc", "get_time", 3)
        service = bed.replicas("svc")["n1"].time_source
        reading, anchor = now_us(service), service._last_commit_physical_us
        elapsed = reading - anchor
        fresh = (service.clock_state.last_group_us + elapsed
                 + service.drift_bound.error_us(elapsed) + CERTIFIED_SLACK_US
                 + 20_000)  # lag-scale too high: honest winners, late anchor
        service.guard._reject_evidence["too-high"]["n2"] = fresh - 2_000_000
        assert service.stats.stabilizations == {}
        with bed.obs.metrics.session() as registry:
            for round_number, (sender, value) in enumerate(
                    [("n3", fresh), ("n2", fresh + 1_000),
                     ("n3", fresh + 2_000)], start=1):
                service.handle_ccs(make_envelope(
                    MsgType.CCS, "svc", "svc", 0, round_number, sender,
                    body=CCSMessage(self.THREAD, round_number, value, 0)),
                    reading)
        assert service.stats.stabilizations == {"anchor": 1}
        assert registry.get("cts_stabilizations_total").value(
            node="n1", what="anchor") == 1
        assert service._last_commit_physical_us < anchor


class TestTransferStateUnit:
    def test_transfer_state_round_trip(self):
        state = TimeTransferState(
            rounds={"0:main": 7},
            buffered={"0:main": [CCSMessage("0:main", 8, 123456, 1)]},
            accepted={"0:main": 8},
            last_group_us=123456,
        )
        bed, _client = build_service(seed=208)
        service = bed.replicas("svc")["n1"].time_source
        service.set_transfer_state(state)
        handler = service._handlers["0:main"]
        assert handler.my_round_number == 7
        assert [m.round_number for m in handler.my_input_buffer] == [8]
        assert service._accepted["0:main"] >= 8
        assert service.clock_state.last_group_us >= 123456

    def test_a_winner_after_a_transfer_waits_behind_its_rounds(self):
        # A passive backup applying a checkpoint, or a replica rejoining
        # after a partition, already holds the thread's handler.  A
        # winner delivered before the thread's next read must queue
        # behind the transferred rounds, not ahead of them.
        bed, client = build_service(seed=208)
        call_n(bed, client, "svc", "get_time", 3)
        service = bed.replicas("svc")["n2"].time_source
        handler = service._handlers["0:main"]
        rounds = handler.my_round_number + 5
        request = handler.last_op_id[0] + 1
        group_us = service.clock_state.last_group_us + 1_000
        service.set_transfer_state(TimeTransferState(
            rounds={"0:main": rounds},
            buffered={"0:main": [CCSMessage(
                "0:main", rounds + 1, group_us, 0,
                covers_req=request, covers_seq=1)]},
            accepted={"0:main": rounds + 1},
            ops={"0:main": (request - 1, 1)},
            last_group_us=group_us - 1_000,
        ))
        service.handle_ccs(make_envelope(
            MsgType.CCS, "svc", "svc", 0, rounds + 2, "n1",
            body=CCSMessage("0:main", rounds + 2, group_us + 1_000, 0,
                            covers_req=request + 1, covers_seq=1)),
            now_us(service))
        read = service.read("0:main", "gettimeofday", now_us(service),
                            op_id=(request, 1))
        assert read.triggered and read.value.micros == group_us
        assert handler.my_round_number == rounds + 1
        assert [m.round_number for m in handler.my_input_buffer] == [
            rounds + 2]

    def test_non_transfer_state_ignored(self):
        bed, _client = build_service(seed=209)
        service = bed.replicas("svc")["n1"].time_source
        service.set_transfer_state("garbage")  # silently ignored

    def test_wire_size_scales_with_buffered(self):
        empty = TimeTransferState()
        loaded = TimeTransferState(
            rounds={"a": 1},
            buffered={"a": [CCSMessage("a", 1, 0, 1)] * 5},
        )
        assert loaded.wire_size() > empty.wire_size()


class TestReadings:
    def test_reading_tuple_shape(self):
        bed, client = build_service(seed=210)
        call_n(bed, client, "svc", "get_time", 2)
        bed.run(0.05)
        service = bed.replicas("svc")["n1"].time_source
        sim_time, thread_id, call, value = service.recorder.readings[-1]
        assert isinstance(sim_time, float)
        assert thread_id.endswith(":main")
        assert call == "gettimeofday"
        assert value.micros > 0


class TestFastPathStaleness:
    def test_recorded_staleness_is_the_checked_one(self):
        budget = 2_000
        bed, client = build_service(seed=211, fast_path=True,
                                    max_staleness_us=budget)
        call_n(bed, client, "svc", "get_time", 3)  # commits an anchor
        service = bed.replicas("svc")["n1"].time_source
        anchor = service._last_commit_physical_us
        before = len(service.recorder.fast_served)
        fallbacks = service.stats.fast_path_fallbacks
        # A fresh thread is quiescent, so every read tries the fast path
        # until readings 450 us apart walk it past the budget.
        readings = []
        while service.stats.fast_path_fallbacks == fallbacks:
            readings.append(anchor + 450 * (len(readings) + 1))
            service.read("9:probe", "gettimeofday", readings[-1])
        served = [elapsed for _, _, elapsed in service.recorder.fast_served[before:]]
        assert served and all(0 <= elapsed <= budget for elapsed in served)
        # What is recorded is the reading the budget check saw, and the
        # read that fell back proposes from the reading that failed it:
        # one reading per operation.
        assert served == [r - anchor for r in readings[:-1]]
        assert readings[-1] - anchor > budget
        assert service._handler("9:probe").in_flight.physical_us == readings[-1]
        bed.run(0.05)


def container_sizes(service):
    """``owner.attribute -> len`` for every list / dict / set / deque a
    service holds: its own attributes, its clock state's, each CCS
    handler's."""
    owners = {"service": service, "clock_state": service.clock_state}
    owners.update(service._handlers)
    return {
        f"{name}.{attr}": len(value)
        for name, owner in owners.items()
        for attr, value in vars(owner).items()
        if isinstance(value, (list, dict, set, deque))
    }


def assert_no_growth(bed, serve, n=40):
    """Serve ``n`` then ``3 * n`` more operations; no container of any
    replica's service may be longer for it.  A handler's buffer, parked
    operations and retained rounds are windows over what is in flight —
    they drain between sequential calls — so the allowance is a couple
    of entries, not a share of the operations served."""
    serve(n)
    first = {nid: container_sizes(r.time_source)
             for nid, r in bed.replicas("svc").items()}
    serve(3 * n)
    for nid, replica in bed.replicas("svc").items():
        service = replica.time_source
        assert service.recorder is None
        assert service.stats.ops_completed >= 4 * n
        for name, size in container_sizes(service).items():
            assert size <= first[nid][name] + 2, (nid, name, size)


class TestConstantHistory:
    """A serving replica keeps O(1) history (Figure 2's clock state is an
    offset, a round number and an input buffer): run by node id in CI's
    bench job, so a per-operation leak fails here before a benchmark
    run reads it as RSS."""

    def test_simulated_service_does_not_grow_with_ops_served(self):
        bed, client = build_service(seed=212, record=False, fast_path=True,
                                    max_staleness_us=600)

        def serve(count):
            call_n(bed, client, "svc", "get_time", count)
            bed.run(0.05)

        assert_no_growth(bed, serve)

    @pytest.mark.live
    def test_live_service_does_not_grow_with_ops_served(self):
        with LiveTestbed(num_nodes=4, seed=212) as bed:
            bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], fast_path=True)
            client = bed.client("n0")
            bed.start()
            assert_no_growth(
                bed, lambda count: call_n(bed, client, "svc", "get_time",
                                          count, timeout=5.0))


#: sha256[:16] of ``repr`` of each record of the seeded run below, taken
#: at the parent of the change that moved them behind the recorder — from
#: ``service.readings`` (values as micros) / ``.winners`` /
#: ``.served_ops.items()`` / ``.fast_served`` / ``.clock_state.history`` —
#: and re-recorded once since, when a round consumed only to catch up
#: began keeping the prior offset in crash-only mode: every count and both
#: ``winners`` digests stayed; the values n1 and n3 serve (``readings``,
#: ``served_ops``, ``fast_served``) and the offsets in ``history`` moved.
PARENT_RECORDS = {
    "n1": {"readings": (152, "3088b64c7326dbc9"),
           "winners": (106, "e20279afe248378f"),
           "served_ops": (66, "2cf4e41f6c750f40"),
           "fast_served": (86, "22c5708e6970b6da"),
           "history": (106, "fe4ce1c343ee6023")},
    # Added by ``add_replica`` after recording was requested.
    "n3": {"readings": (90, "cfd54d15f4932d89"),
           "winners": (70, "679506d8514a2cb2"),
           "served_ops": (39, "be0e2d722c814f41"),
           "fast_served": (51, "36a60a42fc7af555"),
           "history": (68, "61723884dbae52b2")},
}


class TestRecorder:
    def test_recorder_holds_what_the_service_attributes_held(self):
        bed = make_testbed(seed=212)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2"], fast_path=True,
                   max_staleness_us=600)
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 60)
        joiner = bed.add_replica("svc", "n3")
        while not joiner.state_transfer.ready:
            bed.run(0.01)
        call_n(bed, client, "svc", "get_time", 90)
        bed.run(0.05)
        for node_id, expected in PARENT_RECORDS.items():
            recorder = bed.replicas("svc")[node_id].time_source.recorder
            records = {
                "readings": [(t, thread, call, v.micros)
                             for t, thread, call, v in recorder.readings],
                "winners": recorder.winners,
                "served_ops": list(recorder.served_ops.items()),
                "fast_served": recorder.fast_served,
                "history": recorder.history,
            }
            for name, sequence in records.items():
                digest = hashlib.sha256(repr(sequence).encode()).hexdigest()
                assert (len(sequence), digest[:16]) == expected[name], (
                    node_id, name)

    def test_recording_requested_late_starts_there(self):
        bed, client = build_service(seed=213, record=False)
        call_n(bed, client, "svc", "get_time", 3)
        bed.record()
        values = call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.05)
        for replica in bed.replicas("svc").values():
            recorder = replica.time_source.recorder
            assert [v.micros for _, _, _, v in recorder.readings] == values
            assert len(recorder.winners) == len(recorder.history) == 4
