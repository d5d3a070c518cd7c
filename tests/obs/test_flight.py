"""Tests for the flight recorder and its oracle integration."""

import json

import pytest

from repro import trace
from repro.chaos.oracle import InvariantOracle
from repro.net.kernel import LiveKernel
from repro.net.testbed import LiveTestbed
from repro.net.udp import UdpTransport
from repro.obs.flight import FlightRecorder
from repro.replication.envelope import MsgType, make_envelope
from repro.totem.messages import RegularMessage, RingBeacon, RingId


class TestRings:
    def test_event_ring_evicts_oldest(self):
        tracer = trace.Tracer()
        recorder = FlightRecorder(events_capacity=4).start(tracer)
        try:
            for i in range(10):
                tracer.emit("round.start", node="n0", round=i)
        finally:
            recorder.stop()
        events = recorder.snapshot()["events"]
        assert len(events) == 4
        assert [e["round"] for e in events] == [6, 7, 8, 9]
        assert all("wall" in e for e in events)

    def test_frame_ring_evicts_oldest(self):
        recorder = FlightRecorder(frames_capacity=3).start(trace.Tracer())
        recorder.stop()  # frames are gated on enabled, not the sink
        recorder.enabled = True
        for i in range(5):
            recorder.record_frame("n0", "tx", ("127.0.0.1", 9000 + i),
                                  "Envelope", 64, trace_id=f"t{i}")
        frames = recorder.snapshot()["frames"]
        assert len(frames) == 3
        assert [f["trace"] for f in frames] == ["t2", "t3", "t4"]
        assert frames[0]["peer"] == "('127.0.0.1', 9002)"

    def test_disabled_recorder_drops_frames(self):
        recorder = FlightRecorder()
        recorder.record_frame("n0", "rx", "peer", "Envelope", 64)
        assert recorder.snapshot()["frames"] == []

    def test_stop_unsubscribes(self):
        tracer = trace.Tracer()
        recorder = FlightRecorder().start(tracer)
        tracer.emit("round.start", node="n0")
        recorder.stop()
        assert not tracer.enabled
        tracer.emit("round.start", node="n0")
        assert len(recorder.snapshot()["events"]) == 1


@pytest.mark.live
class TestLiveFrames:
    def test_a_transport_feeds_the_recorder_it_is_handed(self):
        recorder = FlightRecorder().start(trace.Tracer())
        with LiveTestbed(num_nodes=2, seed=3) as bed:
            bed.transport.record_frames(recorder)
            late = bed.transport.attach("late", lambda frame: None)
            assert late.flight is recorder  # a later port is fed too
            bed.start()
            bed.run(0.05)
            bed.transport.record_frames(None)
            recorded = len(recorder.snapshot()["frames"])
            bed.run(0.05)
        frames = recorder.snapshot()["frames"]
        assert len(frames) == recorded  # nothing after it was taken away
        assert {f["dir"] for f in frames} == {"tx", "rx"}
        assert {f["node"] for f in frames} == {"n0", "n1"}

    def test_a_digest_names_the_operation_of_its_one_envelope(self):
        """A bare request and an ordered reply are digested under their
        shared operation key; a batch or a frame with no envelope under
        none."""
        request = make_envelope(MsgType.REQUEST, "client.c1", "svc", 1, 7, "c1")
        reply = make_envelope(MsgType.REPLY, "svc", "client.c1", 1, 7, "a")
        ordered = RegularMessage(RingId(1, "a"), 1, "a", reply)
        kernel = LiveKernel()
        transport = UdpTransport(kernel.loop)
        recorder = FlightRecorder().start(trace.Tracer())
        try:
            transport.record_frames(recorder)
            port = transport.attach("a", lambda frame: None)
            transport.attach("b", lambda frame: None)
            port.unicast("b", request)
            port.unicast("b", ordered)
            port.multicast_many([ordered, ordered], [64, 64])
            port.unicast("b", RingBeacon(RingId(1, "a"), "a"))
            kernel.run(kernel.now + 0.05)
        finally:
            transport.close()
            kernel.close()
        key = "svc/client.c1/1/7"
        expected = [("Envelope", key), ("RegularMessage", key),
                    ("Batch", None), ("RingBeacon", None)]
        frames = recorder.snapshot()["frames"]
        for direction in ("tx", "rx"):
            assert [(f["kind"], f["trace"]) for f in frames
                    if f["dir"] == direction] == expected


class TestDump:
    def test_artifact_shape(self, tmp_path):
        tracer = trace.Tracer()
        recorder = FlightRecorder().start(tracer)
        tracer.emit("op.send", node="c0", trace="aa00", t=1.0)
        recorder.record_frame("c0", "tx", ("127.0.0.1", 9000),
                              "Envelope", 80, trace_id="aa00")
        recorder.stop()
        path = tmp_path / "sub" / "flight.json"  # parent is created
        written = recorder.dump(path, reason="unit-test",
                                context={"check": "none"})
        assert written == str(path)
        assert recorder.dumps == [str(path)]
        artifact = json.loads(path.read_text())
        assert artifact["artifact"] == "flight-recorder"
        assert artifact["reason"] == "unit-test"
        assert artifact["context"] == {"check": "none"}
        assert artifact["events"][0]["trace"] == "aa00"
        assert artifact["frames"][0]["size"] == 80


class TestOracleIntegration:
    def force_monotonicity_violation(self, oracle):
        oracle.observe_reply("c0", 1_000, wall_s=0.0, trace_id="aaaa")
        oracle.observe_reply("c0", 2_000, wall_s=0.001, trace_id="bbbb")
        oracle.observe_reply("c0", 1_500, wall_s=0.002, trace_id="cccc")

    def test_violation_carries_trace_ids_and_dump_path(self, tmp_path):
        recorder = FlightRecorder().start(trace.Tracer())
        oracle = InvariantOracle(flight_recorder=recorder,
                                 dump_dir=str(tmp_path))
        self.force_monotonicity_violation(oracle)
        recorder.stop()
        assert not oracle.ok
        violation = oracle.violations[0]
        assert violation.check == "monotonicity"
        assert violation.trace_ids == ["aaaa", "bbbb", "cccc"]
        assert violation.flight_dump is not None
        artifact = json.loads(open(violation.flight_dump).read())
        assert artifact["reason"] == "oracle-violation:monotonicity"
        assert artifact["context"]["trace_ids"] == violation.trace_ids
        as_dict = violation.as_dict()
        assert as_dict["trace_ids"] == violation.trace_ids
        assert as_dict["flight_dump"] == violation.flight_dump

    def test_violation_without_recorder_still_carries_traces(self):
        oracle = InvariantOracle()
        self.force_monotonicity_violation(oracle)
        violation = oracle.violations[0]
        assert violation.trace_ids == ["aaaa", "bbbb", "cccc"]
        assert violation.flight_dump is None

    def test_dump_failure_does_not_mask_the_violation(self, tmp_path):
        class ExplodingRecorder(FlightRecorder):
            def dump(self, *args, **kwargs):
                raise OSError("disk full")

        oracle = InvariantOracle(flight_recorder=ExplodingRecorder(),
                                 dump_dir=str(tmp_path))
        self.force_monotonicity_violation(oracle)
        assert not oracle.ok
        assert oracle.violations[0].flight_dump is None
