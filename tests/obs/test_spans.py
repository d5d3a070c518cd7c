"""Round spans: the cross-node assembler folds every ``round.*`` record
of one (node, thread, round) into one span, yielded in ``round.complete``
order."""

from repro import trace
from repro.obs import CrossNodeSpanAssembler, RoundSpan
from repro.obs.export import trace_event_record

from support import ClockApp, call_n, make_testbed  # noqa: E402


def emit_round(tracer, node, thread, round_number, *, winner="n2",
               start_t=1.0, complete_t=1.001):
    tracer.emit("round.start", node, thread=thread, round=round_number,
                proposal_us=100, call="gettimeofday", buffered=False,
                t=start_t)
    tracer.emit("round.sent", node, thread=thread, round=round_number)
    tracer.emit("round.won", node, thread=thread, round=round_number,
                winner=winner, group_us=150)
    tracer.emit("round.complete", node, thread=thread, round=round_number,
                group_us=150, offset_us=50, latency_us=1000.0, t=complete_t)


def assembled(events) -> CrossNodeSpanAssembler:
    assembler = CrossNodeSpanAssembler()
    assembler.add_events(map(trace_event_record, events))
    return assembler


class TestTrackerUnit:
    """Round-span tracking by the assembler, record by record."""

    def test_assembles_one_span_per_round(self):
        tracer = trace.Tracer()
        with tracer.capture() as events:
            emit_round(tracer, "n1", "t0", 1)
            emit_round(tracer, "n1", "t0", 2, start_t=2.0, complete_t=2.002)
        spans = assembled(events).round_spans()
        assert [s.round_number for s in spans] == [1, 2]
        span = spans[0]
        assert span.node == "n1"
        assert span.sent and not span.suppressed and not span.from_buffer
        assert span.winner == "n2"
        assert not span.won_locally
        assert span.proposal_us == 100
        assert span.group_us == 150
        assert span.offset_us == 50
        assert span.latency_us == (1.001 - 1.0) * 1e6

    def test_out_of_order_won_before_start(self):
        """The winner is often ordered before the local round starts
        (input-buffer short-circuit); the span must still assemble."""
        tracer = trace.Tracer()
        with tracer.capture() as events:
            tracer.emit("round.won", "n3", thread="t0", round=1,
                        winner="n2", group_us=99)
            tracer.emit("round.start", "n3", thread="t0", round=1,
                        proposal_us=90, call="gettimeofday", buffered=True,
                        t=5.0)
            tracer.emit("round.complete", "n3", thread="t0", round=1,
                        group_us=99, offset_us=9, latency_us=0.0, t=5.0)
        (span,) = assembled(events).round_spans()
        assert span.from_buffer
        assert span.winner == "n2"
        assert span.latency_us == 0.0

    def test_suppression_and_adoption_flags(self):
        tracer = trace.Tracer()
        with tracer.capture() as events:
            tracer.emit("round.start", "n2", thread="t0", round=4,
                        proposal_us=1, call="time", buffered=False, t=0.0)
            tracer.emit("round.suppressed", "n2", thread="t0", round=4)
            tracer.emit("round.adopted", "n2", thread="t0", round=4,
                        offset_us=-7)
        # A round that has not completed yields no span.
        assert assembled(events).round_spans() == []
        with tracer.capture() as completion:
            tracer.emit("round.complete", "n2", thread="t0", round=4, t=0.5)
        (span,) = assembled(events + completion).round_spans()
        assert span.suppressed
        assert span.adopted
        assert span.offset_us == -7
        assert span.latency_us == 0.5e6

    def test_ignores_unrelated_and_incomplete_events(self):
        tracer = trace.Tracer()
        with tracer.capture() as events:
            tracer.emit("membership.gather", "n1", reason="boot")
            tracer.emit("round.start", "n1")  # no thread/round: dropped
            tracer.emit("round.complete", "n1", thread="t0")  # no round
        assert assembled(events).round_spans() == []

    def test_a_record_after_completion_opens_a_new_span(self):
        tracer = trace.Tracer()
        with tracer.capture() as events:
            emit_round(tracer, "n1", "t0", 1, winner="n2")
            tracer.emit("round.won", "n1", thread="t0", round=1,
                        winner="n3", group_us=1)
        (span,) = assembled(events).round_spans()
        assert span.winner == "n2"

    def test_winner_counts_and_latencies(self):
        tracer = trace.Tracer()
        with tracer.capture() as events:
            emit_round(tracer, "n1", "t0", 1, winner="n2")
            emit_round(tracer, "n1", "t0", 2, winner="n2")
            emit_round(tracer, "n1", "t0", 3, winner="n1")
        assembler = assembled(events)
        assert assembler.winner_counts() == {"n2": 2, "n1": 1}
        assert [round(s.latency_us) for s in assembler.round_spans()] == [
            1000, 1000, 1000]

    def test_to_dict_is_json_friendly(self):
        span = RoundSpan("n1", "t0", 7, started_at=1.0, completed_at=1.5,
                         winner="n1")
        data = span.to_dict()
        assert data["round"] == 7
        assert data["won_locally"] is True
        assert data["latency_us"] == 0.5e6


class TestTrackerIntegration:
    def test_spans_from_a_real_run(self):
        bed = make_testbed(seed=190)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        with bed.obs.tracer.capture(kinds=["round."]) as events:
            call_n(bed, client, "svc", "get_time", 5)
            bed.run(0.05)
        assembler = assembled(events)
        spans = assembler.round_spans()
        # Every replica completes every application round.
        assert len(spans) >= 15
        assert all(s.latency_us is not None and s.latency_us >= 0
                   for s in spans)
        # Exactly one synchronizer per round; every span knows its winner.
        assert all(s.winner for s in spans)
        winners = assembler.winner_counts()
        assert sum(winners.values()) == len(spans)
        # Synchronizers are group members, and one of them won rounds.
        assert set(winners) <= {"n1", "n2", "n3"}
        # A winning replica's span records a send; a buffered round not.
        for span in spans:
            if span.from_buffer:
                assert not span.sent
