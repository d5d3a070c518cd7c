"""Counter and gauge families are *read* from the state the protocol
layers keep.

The evaluation tables are built from plain attributes (``CTSStats``,
``Interface.frames_sent``, ``GroupClockState.offset_us`` ...); the
registry reports those same attributes, so the checks here are (1) on
a seeded run the exported families say what the harness says, (2) for
every object handed to a bed registry's ``watch`` each family value
*is* the attribute, and (3) a run with telemetry off behaves like an
uninstrumented one.
"""

import gc
import weakref
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.obs.export import trace_event_record
from repro.chaos import transport as chaos_transport
from repro.control import admission
from repro.core import time_service
from repro.net import client as live_client, daemon, udp
from repro.net.testbed import LiveTestbed
from repro.replication import replica
from repro.rpc import client as rpc_client
from repro.shard import GradientOverlay, ShardedTestbed, ShardRouter, overlay
from repro.sim import network
from repro.totem import ring
from repro.workloads import run_latency_workload

from support import ClockApp, CounterApp, call_n, make_testbed  # noqa: E402


@pytest.fixture
def ccs_run():
    """One CCS workload recorded by its bus's registry, and the round
    spans assembled from its trace."""
    bus = obs.Bus()
    with bus.metrics.session(), bus.tracer.capture(["round."]) as events:
        run = run_latency_workload(time_source="cts", invocations=80, seed=11,
                                   obs=bus)
    spans = obs.CrossNodeSpanAssembler()
    spans.add_events(map(trace_event_record, events))
    return run, bus.metrics, spans


class TestCcsCountsMatchHarness:
    def test_transmitted_equals_sent_minus_suppressed(self, ccs_run):
        run, registry, _ = ccs_run
        sent = registry.get("ccs_sent_total")
        suppressed = registry.get("ccs_suppressed_total")
        derived = {
            node: sent.value(node=node) - suppressed.value(node=node)
            for node in run.ccs_transmitted
        }
        assert derived == {node: float(count)
                           for node, count in run.ccs_transmitted.items()}

    def test_total_transmitted_equals_rounds(self, ccs_run):
        run, registry, _ = ccs_run
        sent = registry.get("ccs_sent_total")
        suppressed = registry.get("ccs_suppressed_total")
        assert sent.total() - suppressed.total() == run.rounds

    def test_round_latency_histogram_populated(self, ccs_run):
        run, registry, _ = ccs_run
        histogram = registry.get("cts_round_latency_us")
        # Each of the three replicas completes (at least) one round per
        # application invocation; recovery rounds add a few more, but a
        # late joiner may miss the earliest ones.
        assert histogram.total_count() >= 3 * run.invocations
        for node in run.ccs_transmitted:
            snapshot = histogram.snapshot(node=node)
            assert snapshot.count >= run.invocations
            assert snapshot.sum >= 0.0

    def test_spans_agree_with_round_counters(self, ccs_run):
        _, registry, assembler = ccs_run
        rounds = registry.get("ccs_rounds_total")
        spans = assembler.round_spans()
        # One completed span per completed round per replica.
        assert len(spans) == int(rounds.total())
        sent_spans = sum(1 for s in spans if s.sent and not s.suppressed)
        sent = registry.get("ccs_sent_total")
        suppressed = registry.get("ccs_suppressed_total")
        assert sent_spans == int(sent.total() - suppressed.total())

    def test_winner_counts_sum_to_rounds(self, ccs_run):
        run, _, assembler = ccs_run
        winners = assembler.winner_counts()
        # Every completed span names its synchronizer.
        assert sum(winners.values()) == len(assembler.round_spans())
        # Only replicas that transmitted a CCS message can have won rounds.
        for node, count in winners.items():
            if count:
                assert run.ccs_transmitted.get(node, 0) > 0 or count == 0


class TestInterfaceCountersMatchNetwork:
    def test_frames_sent_matches_interface_stats(self):
        bed = make_testbed(seed=21)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        with bed.obs.metrics.session() as registry:
            bed.start()
            call_n(bed, client, "svc", "get_time", 5)
        frames = registry.get("net_frames_sent_total")
        bytes_sent = registry.get("net_bytes_sent_total")
        for node_id, node in bed.cluster.nodes.items():
            assert frames.value(node=node_id) == node.iface.frames_sent
            assert bytes_sent.value(node=node_id) == node.iface.bytes_sent


def _sim_bed(bus):
    """A lossy passive group through a crash and a state-transfer rejoin."""
    bed = make_testbed(seed=5, loss_rate=0.02, obs=bus)
    bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], style="passive",
               time_source="cts", checkpoint_interval=2)
    client = bed.client("n0")
    bed.start()
    call_n(bed, client, "svc", "stamped_increment", 6)
    bed.crash("n1")
    bed.run(0.6)
    bed.run_process(client.retrying_call("svc", "stamped_increment"))
    bed.recover("n1")
    bed.add_replica("svc", "n1")
    bed.run(0.6)
    call_n(bed, client, "svc", "stamped_increment", 3)
    return bed


def _chaos_decisions(bus):
    chaos = chaos_transport.ChaosTransport(inner=None, kernel=None, seed=3,
                                           obs=bus)
    chaos.partition({"a"}, {"b"})
    assert chaos.decide("a", "b") is None
    chaos.heal()
    chaos.set_drop(0.3)
    chaos.set_delay(0.001)
    chaos.set_duplicate(0.5)
    for _ in range(40):
        chaos.decide("a", "b")
        chaos.decide("b", "a")
    return chaos


def _admission_overflow(bus):
    controller = admission.AdmissionController(
        admission.AdmissionConfig(max_inflight=1, max_global_queue=1),
        node_id="n9", clock=lambda: 0.0, obs=bus)
    for index in range(4):
        controller.submit("c", index, lambda: None, lambda retry: None)
    return controller


def _sharded_bed(bus):
    bed = ShardedTestbed(shards=2, shard_size=3, seed=3, obs=bus)
    bed.deploy_shards(daemon.TimeApp)
    gradient = GradientOverlay(bed, overlay.OverlayConfig(secret="t"))
    router = ShardRouter(bed)
    bed.start()
    gradient.start()
    bed.run_process(router.call(router.session("c0")))
    bed.run(0.2)
    return bed, gradient


def _recovered_bed(bus=None):
    """A fast-path active group through a crash, a recover and a
    state-transfer rejoin of n2; returns the bed and n2's first service."""
    bed = make_testbed(seed=7, obs=bus)
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], style="active",
               time_source="cts", fast_path=True, max_staleness_us=1_500)
    client = bed.client("n0")
    bed.start()
    call_n(bed, client, "svc", "get_time", 6)
    first = bed.replicas("svc")["n2"].time_source
    bed.crash("n2")
    bed.run(0.6)
    call_n(bed, client, "svc", "get_time", 3)
    bed.recover("n2")
    bed.add_replica("svc", "n2")
    bed.run(0.6)
    call_n(bed, client, "svc", "get_time", 6)
    return bed, first


def _live_bed(bus):
    with LiveTestbed(num_nodes=3, seed=5, obs=bus) as bed:
        bed.deploy("timesvc", daemon.TimeApp, nodes=bed.node_ids,
                   style="active", time_source="cts")
        bed.start()
        bed.install_gateway("n0", admission.AdmissionConfig())
        caller = live_client.LiveCaller(bed.kernel, [bed.node("n0").address],
                                        client_id="xcheck", obs=bed.obs)
        for _ in range(3):
            bed.run_process(caller.call("gettimeofday", timeout=3.0))
        caller.close()
        assert caller.stats.calls == 3 and not caller.stats.failures
    return bed, caller


#: Every ``read_counters`` / ``read_gauges`` declaration in the source
#: tree, beside a scenario that builds the objects it is declared for on
#: the bus it is handed.
CASES = [
    pytest.param(_sim_bed, [
        time_service.COUNTERS, time_service.CLOCK_GAUGES,
        time_service.GAUGES, ring.COUNTERS, replica.COUNTERS,
        rpc_client.COUNTERS, network.IFACE_COUNTERS,
        network.NETWORK_COUNTERS], id="simulated-bed"),
    pytest.param(_recovered_bed, [
        time_service.COUNTERS, time_service.CLOCK_GAUGES,
        time_service.GAUGES, time_service.FAST_PATH_GAUGES],
        id="recovered-bed"),
    pytest.param(_chaos_decisions, [chaos_transport.COUNTERS], id="chaos"),
    pytest.param(_admission_overflow, [admission.COUNTERS, admission.GAUGES],
                 id="admission"),
    pytest.param(_sharded_bed, [overlay.COUNTERS, overlay.GAUGES],
                 id="overlay"),
    pytest.param(_live_bed, [udp.COUNTERS, daemon.GATEWAY_COUNTERS,
                             live_client.COUNTERS, admission.COUNTERS,
                             admission.GAUGES],
                 id="live-bed", marks=pytest.mark.live),
]


def _watched_values(registry):
    """(family, label set) -> what the live watched objects hold: a
    counter's attributes summed, a gauge's newest object's value."""
    values = {}
    for ref, families, key in list(registry._sources.values()):
        source = ref()
        for attr, family, keyed in families if source is not None else ():
            value = getattr(source, attr)
            if isinstance(family, obs.Gauge):
                values[family, key] = value  # watched in creation order
                continue
            series = ({key: value} if keyed is None else
                      {tuple(sorted(key + ((keyed, str(k)),))): v
                       for k, v in value.items()})
            for labels, count in series.items():
                values[family, labels] = values.get((family, labels), 0) + count
    return values


class TestFamiliesReadTheAttributes:
    """For every object handed to a registry's ``watch`` and every entry
    of its map, a counter family reports what the attribute counted
    during the session and a gauge family what the attribute holds:
    there is no second copy that could disagree."""

    @pytest.mark.parametrize("build, declarations", CASES)
    def test_each_watched_attribute_is_the_family_value(self, build,
                                                        declarations):
        bus = obs.Bus()
        registry = bus.metrics
        with registry.session():
            built = build(bus)  # noqa: F841 - keeps the objects alive below
            read = {}
            for (family, labels), value in _watched_values(registry).items():
                read[family, labels] = value
                if value is not None:
                    assert family.value(**dict(labels)) == value, (
                        family.name, labels)
            for declaration in declarations:
                for spec in declaration:
                    family = registry.family(spec.family)
                    if isinstance(family, obs.Counter):
                        assert family.total() == sum(
                            value for (f, _), value in read.items()
                            if f is family), family.name
        declared = {registry.family(spec.family)
                    for declaration in declarations for spec in declaration}
        assert {family for family, _ in read} >= declared - {
            # keyed tallies with nothing to tally in these scenarios
            registry.get(name) for name in (
                "shard_summaries_rejected_total", "cts_admission_shed_total",
                "udp_datagrams_rejected_total", "ccs_winners_rejected_total",
                "cts_stabilizations_total", "gateway_dedup_evictions_total")}
        assert any(value for value in read.values())

    def test_the_cases_name_every_declaration(self):
        declared = sum(
            path.read_text().count("obs.read_counters(")
            + path.read_text().count("obs.read_gauges(")
            for path in Path(repro.__file__).parent.rglob("*.py")
            if path.name != "metrics.py")
        named = {id(declaration) for case in CASES
                 for declaration in case.values[1]}
        assert declared == len(named)

    def test_a_recovered_node_reports_its_new_incarnation(self):
        bus = obs.Bus()
        with bus.metrics.session() as registry:
            bed, first = _recovered_bed(bus)
        offset = registry.get("cts_clock_offset_us")
        services = {node: r.time_source
                    for node, r in bed.replicas("svc").items()}
        assert set(services) == {"n1", "n2", "n3"}
        for node, service in services.items():
            assert offset.value(node=node) == service.clock_state.offset_us
        assert services["n2"] is not first
        assert first.clock_state.offset_us != services["n2"].clock_state.offset_us
        budget = registry.get("cts_max_staleness_us")
        assert [budget.value(node=node) for node in services] == [1_500] * 3

    def test_a_bed_built_before_recording_exports_its_budget(self):
        bed = make_testbed(seed=3)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], style="active",
                   time_source="cts", fast_path=True, max_staleness_us=1_200)
        with bed.obs.metrics.session() as registry:
            bed.start()
            call_n(bed, bed.client("n0"), "svc", "get_time", 3)
        budget = registry.get("cts_max_staleness_us")
        assert [budget.value(node=node)
                for node in ("n1", "n2", "n3")] == [1_200] * 3


class TestDisabledOverhead:
    def test_disabled_run_identical_to_baseline(self):
        """With the registry off the instrumented stack must behave
        byte-for-byte like the uninstrumented one (same RNG draws, same
        latencies) — the hooks must be pure observers."""
        off, on = obs.Bus(), obs.Bus()
        baseline = run_latency_workload(time_source="cts", invocations=40,
                                        seed=5, obs=off)
        assert off.metrics.get("ccs_rounds_total").total() == 0
        with on.metrics.session():
            recorded = run_latency_workload(time_source="cts", invocations=40,
                                            seed=5, obs=on)
        assert on.metrics.get("ccs_rounds_total").total() > 0
        assert recorded.latencies_us == baseline.latencies_us
        assert recorded.ccs_transmitted == baseline.ccs_transmitted

    def test_watching_with_recording_off_keeps_only_a_weak_reference(self):
        registry = obs.MetricsRegistry()
        declared = obs.read_counters({"count": ("things_total", "things")})

        class Thing:
            count = 0

        thing = Thing()
        registry.watch(thing, declared, node="n1")
        alive = weakref.ref(thing)
        assert len(registry._sources) == 1
        del thing
        gc.collect()
        assert alive() is None
        assert registry._sources == {}
        assert registry.get("things_total")._watched == []
