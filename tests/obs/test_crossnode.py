"""Tests for the trace shard writer and the cross-node span assembler."""

import json

from repro import trace
from repro.obs.crossnode import (
    CrossNodeSpanAssembler,
    Hop,
    OpTimeline,
    TraceShardWriter,
    assemble_timelines,
    load_shards,
    shard_path,
)


def synthetic_op(trace_id="svc/grp.c0/3/7", *, client="c0",
                 nodes=("n0", "n1"), req=12):
    """Records for one complete operation, as the live stack emits them:
    the client sends, one gateway injects, every replica executes, the
    time service serves after a CCS round, the gateway forwards replies.
    Every op.* record is named by the operation key; op.served and
    round.won are not."""
    records = [
        {"record": "trace", "kind": "op.send", "node": client,
         "trace": trace_id, "method": "gettimeofday", "t": 1.0},
        {"record": "trace", "kind": "op.gateway", "node": "n0",
         "trace": trace_id, "dedup": False, "t": 0.1},
    ]
    for i, node in enumerate(nodes):
        records.append(
            {"record": "trace", "kind": "op.execute", "node": node,
             "trace": trace_id, "req": req, "method": "gettimeofday",
             "t": 0.2 + i})
        records.append(
            {"record": "trace", "kind": "round.won", "node": node,
             "thread": "t0", "round": 5, "winner": "n1",
             "group_us": 1000, "t": 0.25 + i})
        records.append(
            {"record": "trace", "kind": "op.served", "node": node,
             "thread": "t0", "req": req, "op_seq": 0, "round": 5,
             "fast": False, "group_us": 1000, "t": 0.3 + i})
    records.append(
        {"record": "trace", "kind": "op.reply", "node": "n0",
         "trace": trace_id, "replica": "n1", "t": 0.4})
    records.append(
        {"record": "trace", "kind": "op.reply_recv", "node": client,
         "trace": trace_id, "replies": 2, "t": 2.0})
    return records


class TestShardWriter:
    def test_events_land_in_per_node_shards(self, tmp_path):
        tracer = trace.Tracer()
        with TraceShardWriter(tmp_path, tracer=tracer) as writer:
            tracer.emit("op.send", node="c0", trace="ff00", t=1.0)
            tracer.emit("op.gateway", node="n0", trace="ff00", t=1.1)
            tracer.emit("op.gateway", node="n0", trace="ff01", t=1.2)
            assert writer.events_written == 3
            assert writer.shards() == [shard_path(tmp_path, "c0"),
                                       shard_path(tmp_path, "n0")]
        n0 = shard_path(tmp_path, "n0").read_text().splitlines()
        assert len(n0) == 2
        first = json.loads(n0[0])
        assert first["record"] == "trace"
        assert first["kind"] == "op.gateway"
        assert first["trace"] == "ff00"

    def test_close_unsubscribes(self, tmp_path):
        tracer = trace.Tracer()
        writer = TraceShardWriter(tmp_path, tracer=tracer)
        writer.close()
        assert not tracer.enabled
        tracer.emit("op.send", node="c0")  # no sink: must not raise
        assert writer.events_written == 0

    def test_weird_node_names_become_safe_filenames(self, tmp_path):
        path = shard_path(tmp_path, "no/des:*?")
        assert path.parent == tmp_path
        assert "/" not in path.name[len("trace-"):]
        assert path.name.startswith("trace-no_des")


class TestLoadShards:
    def test_skips_garbage_lines(self, tmp_path):
        shard = shard_path(tmp_path, "n0")
        shard.write_text(
            json.dumps({"record": "trace", "kind": "op.send"}) + "\n"
            + '{"record": "trace", "kind": "op.ga'  # truncated mid-line
            + "\n"
            + json.dumps({"record": "metric", "name": "x"}) + "\n"
            + json.dumps({"record": "trace", "kind": "op.reply"}) + "\n")
        records = load_shards(tmp_path)
        assert [r["kind"] for r in records] == ["op.send", "op.reply"]

    def test_ignores_non_shard_files(self, tmp_path):
        (tmp_path / "verdict.json").write_text("{}")
        (tmp_path / "notes.jsonl").write_text(
            json.dumps({"record": "trace", "kind": "op.send"}) + "\n")
        assert load_shards(tmp_path) == []


class TestAssembler:
    def assemble(self, records):
        assembler = CrossNodeSpanAssembler()
        assembler.add_events(records)
        return assembler.assemble()

    def test_complete_timeline_from_traced_hops(self):
        timelines = self.assemble(synthetic_op())
        assert len(timelines) == 1
        tl = timelines[0]
        assert tl.trace_id == "svc/grp.c0/3/7"
        assert tl.client == "c0"
        assert tl.method == "gettimeofday"
        assert tl.complete

    def test_every_replica_execution_joins_by_the_operation_key(self):
        tl = self.assemble(synthetic_op())[0]
        executes = [h for h in tl.hops if h.stage == "execute"]
        assert [h.node for h in executes] == ["n0", "n1"]
        assert [h.detail["req"] for h in executes] == [12, 12]

    def test_an_op_record_without_a_key_joins_nothing(self):
        records = synthetic_op()
        for record in records:
            if record["kind"] == "op.execute":
                record["trace"] = None
        tl = self.assemble(records)[0]
        assert "execute" not in tl.stages()
        assert "served" not in tl.stages()  # its request index is unbound
        assert not tl.complete

    def test_a_retry_at_the_gateway_is_a_dedup_hop(self):
        records = synthetic_op() + [
            {"record": "trace", "kind": "op.gateway", "node": "n1",
             "trace": "svc/grp.c0/3/7", "dedup": True, "t": 0.5}]
        stages = self.assemble(records)[0].stages()
        assert stages.count("gateway.inject") == 1
        assert stages.count("gateway.dedup") == 1

    def test_serves_and_rounds_join_by_request_index(self):
        tl = self.assemble(synthetic_op())[0]
        serves = [h for h in tl.hops if h.stage == "served"]
        assert [h.node for h in serves] == ["n0", "n1"]
        assert all(h.detail["group_us"] == 1000 for h in serves)
        rounds = [h for h in tl.hops if h.stage == "round.won"]
        assert [h.detail["winner"] for h in rounds] == ["n1", "n1"]

    def test_hops_are_causally_ordered(self):
        records = synthetic_op()
        records.reverse()  # arrival order must not matter
        tl = self.assemble(records)[0]
        stages = tl.stages()
        assert stages[0] == "client.send"
        assert stages[-1] == "reply.recv"
        assert stages.index("gateway.inject") < stages.index("execute")
        assert stages.index("execute") < stages.index("served")

    def test_incomplete_without_a_reply(self):
        records = [r for r in synthetic_op()
                   if r["kind"] != "op.reply_recv"]
        tl = self.assemble(records)[0]
        assert not tl.complete
        assert "reply.recv" not in tl.stages()

    def test_orphan_serves_without_execute_are_dropped(self):
        records = [r for r in synthetic_op()
                   if r["kind"] not in ("op.execute",)]
        tl = self.assemble(records)[0]
        assert "served" not in tl.stages()
        assert not tl.complete

    def test_two_operations_stay_separate(self):
        records = (synthetic_op("svc/grp.c0/3/1", req=10)
                   + synthetic_op("svc/grp.c0/3/2", req=11))
        timelines = self.assemble(records)
        assert [t.trace_id for t in timelines] == ["svc/grp.c0/3/1",
                                                   "svc/grp.c0/3/2"]
        assert all(t.complete for t in timelines)

    def test_to_dict_is_json_able(self):
        tl = self.assemble(synthetic_op())[0]
        data = json.loads(json.dumps(tl.to_dict()))
        assert data["complete"] is True
        assert data["nodes"][0] == "c0"
        assert {h["stage"] for h in data["hops"]} >= {
            "client.send", "gateway.inject", "execute", "round.won",
            "served", "reply.forward", "reply.recv"}


class TestAssembleTimelines:
    def test_round_trip_through_shard_files(self, tmp_path):
        tracer = trace.Tracer()
        with TraceShardWriter(tmp_path, tracer=tracer):
            for r in synthetic_op():
                fields = {k: v for k, v in r.items()
                          if k not in ("record", "kind", "node")}
                tracer.emit(r["kind"], node=r["node"], **fields)
        timelines = assemble_timelines(tmp_path)
        assert len(timelines) == 1
        assert timelines[0].complete


class TestOpTimeline:
    def test_complete_requires_every_acceptance_stage(self):
        tl = OpTimeline("x", hops=[Hop("client.send", "c0"),
                                   Hop("gateway.inject", "n0"),
                                   Hop("served", "n0"),
                                   Hop("round.won", "n0")])
        assert not tl.complete
        tl.hops.append(Hop("reply.recv", "c0"))
        assert tl.complete

    def test_a_fast_served_op_is_complete_without_a_round(self):
        # The fast path serves a drift-bounded local value: there is no
        # round.won to bind, and the chain is whole without one.
        stages = [Hop("client.send", "c0"), Hop("gateway.inject", "n0"),
                  Hop("reply.recv", "c0")]
        fast = OpTimeline("x", hops=stages + [
            Hop("served", "n0", detail={"round": None, "fast": True})])
        assert fast.complete
        slow = OpTimeline("y", hops=stages + [
            Hop("served", "n0", detail={"round": 5, "fast": False})])
        assert not slow.complete

    def test_unknown_stages_sort_last(self):
        tl = OpTimeline("x", hops=[Hop("mystery", "n0"),
                                   Hop("client.send", "c0")])
        tl.sort()
        assert tl.stages() == ["client.send", "mystery"]
