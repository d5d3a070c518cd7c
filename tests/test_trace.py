"""Tests for the structured tracing facility: a tracer instance, and
the events the layers of a bed emit into the bed's own tracer."""

from repro import trace

from support import ClockApp, call_n, make_testbed  # noqa: E402


class TestTracerUnit:
    def test_disabled_by_default(self):
        assert not trace.Tracer().enabled
        assert not make_testbed(seed=1).obs.tracer.enabled

    def test_subscribe_and_emit(self):
        tracer = trace.Tracer()
        events = []
        unsubscribe = tracer.subscribe(events.append)
        assert tracer.enabled
        tracer.emit("test.kind", "n9", detail=42)
        unsubscribe()
        assert not tracer.enabled
        assert len(events) == 1
        assert events[0].kind == "test.kind"
        assert events[0].node == "n9"
        assert events[0].fields == {"detail": 42}

    def test_unsubscribe_stops_delivery(self):
        tracer = trace.Tracer()
        events = []
        unsubscribe = tracer.subscribe(events.append)
        unsubscribe()
        tracer.emit("test.kind", "n9")
        assert events == []

    def test_unsubscribe_is_idempotent(self):
        tracer = trace.Tracer()
        events = []
        unsubscribe = tracer.subscribe(events.append)
        unsubscribe()
        unsubscribe()  # second call must be a harmless no-op
        tracer.emit("test.kind", "n9")
        assert events == []

    def test_unsubscribe_is_scoped_to_its_registration(self):
        """Regression: subscribing the same callable twice used to let one
        unsubscribe handle (called repeatedly) strip both registrations."""
        tracer = trace.Tracer()
        events = []
        first = tracer.subscribe(events.append)
        second = tracer.subscribe(events.append)
        first()
        first()  # repeat release of the same handle
        tracer.emit("test.kind", "n9")
        # The second registration must still be attached.
        assert len(events) == 1
        second()
        tracer.emit("test.kind", "n9")
        assert len(events) == 1

    def test_capture_filters_by_prefix(self):
        tracer = trace.Tracer()
        with tracer.capture(kinds=["a."]) as events:
            tracer.emit("a.one", "n1")
            tracer.emit("b.two", "n1")
        assert [e.kind for e in events] == ["a.one"]
        assert not tracer.enabled

    def test_event_str(self):
        event = trace.TraceEvent("round.won", "n2", {"round": 3})
        assert "[n2] round.won round=3" == str(event)


class TestProtocolTraces:
    def test_round_events_emitted(self):
        bed = make_testbed(seed=170)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        with bed.obs.tracer.capture(kinds=["round."]) as events:
            call_n(bed, client, "svc", "get_time", 3)
            bed.run(0.05)
        kinds = {e.kind for e in events}
        assert "round.start" in kinds
        assert "round.won" in kinds
        # Each replica starts each round once.
        starts = [e for e in events if e.kind == "round.start"]
        assert len(starts) == 9  # 3 rounds x 3 replicas

    def test_totem_token_events_emitted(self):
        bed = make_testbed(seed=174)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        with bed.obs.tracer.capture(kinds=["totem."]) as events:
            call_n(bed, client, "svc", "get_time", 3)
        forwards = [e for e in events if e.kind == "totem.token.forward"]
        assert forwards, "token circulation must be traced"
        fields = forwards[0].fields
        assert {"to", "token_seq", "seq", "aru", "ring"} <= set(fields)

    def test_totem_retransmissions_traced_under_loss(self):
        bed = make_testbed(seed=175, loss_rate=0.12)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start(settle=0.5)
        with bed.obs.tracer.capture(kinds=["totem."]) as events:
            call_n(bed, client, "svc", "get_time", 10, timeout=5.0)
        kinds = {e.kind for e in events}
        # With 12% loss some data messages and/or tokens must be re-sent.
        assert ("totem.retransmit" in kinds
                or "totem.token.retransmit" in kinds)

    def test_membership_events_emitted(self):
        bed = make_testbed(seed=171)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="local")
        with bed.obs.tracer.capture(kinds=["membership."]) as events:
            bed.start()
            bed.crash("n2")
            bed.run(0.4)
        kinds = [e.kind for e in events]
        assert "membership.gather" in kinds
        assert "membership.install" in kinds

    def test_promotion_and_state_events(self):
        bed = make_testbed(seed=172)
        bed.deploy(
            "svc", ClockApp, ["n1", "n2", "n3"],
            style="passive", time_source="cts", checkpoint_interval=2,
        )
        client = bed.client("n0")
        bed.start(settle=0.3)
        with bed.obs.tracer.capture(kinds=["replica.", "state."]) as events:
            call_n(bed, client, "svc", "get_time", 4)
            primary = next(
                nid for nid, r in bed.replicas("svc").items() if r.is_primary
            )
            bed.crash(primary)
            bed.run(0.6)
        kinds = {e.kind for e in events}
        assert "replica.checkpoint" in kinds
        assert "replica.promote" in kinds

    def test_state_transfer_traced(self):
        bed = make_testbed(seed=173)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 2)
        with bed.obs.tracer.capture(kinds=["state."]) as events:
            bed.add_replica("svc", "n3", ClockApp, time_source="cts")
            bed.run(0.5)
        kinds = [e.kind for e in events]
        assert "state.served" in kinds
        assert "state.applied" in kinds
