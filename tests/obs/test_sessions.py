"""What a recording session reports when counter families are read from
objects that count whether or not anyone records, and whose bus a bed's
objects record into."""

import gc

from repro import obs

from support import ClockApp, call_n, make_testbed  # noqa: E402


def serving_bed(seed, bus=None):
    bed = make_testbed(seed=seed, obs=bus)
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
    client = bed.client("n0")
    bed.start()
    return bed, client


def ops(registry, node="n1"):
    return registry.get("cts_ops_total").value(node=node)


class TestSessions:
    def test_a_bed_built_before_the_session_reports_what_it_counts_in_it(self):
        bed = make_testbed(seed=31)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        with bed.obs.metrics.session() as registry:
            bed.start()
            call_n(bed, client, "svc", "get_time", 4)
            service = bed.replicas("svc")["n1"].time_source
            assert ops(registry) == service.stats.ops_completed > 0

    def test_counts_made_with_recording_off_are_not_reported(self):
        bed, client = serving_bed(seed=32)
        registry = bed.obs.metrics
        call_n(bed, client, "svc", "get_time", 5)
        service = bed.replicas("svc")["n1"].time_source
        unrecorded = service.stats.ops_completed
        with registry.session():
            assert ops(registry) == 0
            call_n(bed, client, "svc", "get_time", 5)
            assert ops(registry) == 5
        call_n(bed, client, "svc", "get_time", 5)  # recording is off again
        assert ops(registry) == 5
        assert service.stats.ops_completed == unrecorded + 10

    def test_two_beds_in_one_session_sum_per_label(self):
        bus = obs.Bus()
        with bus.metrics.session():
            first, client = serving_bed(seed=33, bus=bus)
            call_n(first, client, "svc", "get_time", 3)
            second, client = serving_bed(seed=34, bus=bus)
            call_n(second, client, "svc", "get_time", 4)
        both = [bed.replicas("svc")["n2"].time_source.stats.ops_completed
                for bed in (first, second)]
        assert first.obs is second.obs is bus
        assert ops(bus.metrics, "n2") == sum(both) and all(both)

    def test_a_bed_stamps_its_samples_in_its_own_kernel_time(self):
        """Building a second bed does not re-clock the first one's
        samples (they were stamped with the newest bed's kernel time,
        0.0 here, when the registry was process-wide)."""
        first, client = serving_bed(seed=38)
        first.run(1.0)
        second = make_testbed(seed=39)
        with first.obs.metrics.session() as registry:
            call_n(first, client, "svc", "get_time", 3)
            samples = [sample for sample in registry.collect()
                       if sample["name"] == "cts_ops_total"]
            assert first.sim.now > 1.2 and second.sim.now == 0.0
            assert samples and {s["t"] for s in samples} == {first.sim.now}
        assert second.obs is not first.obs

    def test_series_outlive_the_session_and_the_beds(self):
        bus = obs.Bus()
        registry = bus.metrics
        with registry.session():
            bed, client = serving_bed(seed=35, bus=bus)
            call_n(bed, client, "svc", "get_time", 3)
            recorded = ops(registry)
        frames = registry.get("net_frames_sent_total").value(node="n0")
        assert recorded > 0 and frames > 0
        del bed, client
        gc.collect()
        assert ops(registry) == recorded
        assert registry.get("net_frames_sent_total").value(node="n0") == frames
        assert any(sample["name"] == "cts_ops_total"
                   for sample in registry.collect())

    def test_a_recovered_node_does_not_step_its_series_backwards(self):
        bus = obs.Bus()
        registry = bus.metrics
        with registry.session():
            bed, client = serving_bed(seed=36, bus=bus)
            call_n(bed, client, "svc", "get_time", 4)
            seen = [ops(registry, "n3")]
            tokens = registry.get("totem_tokens_forwarded_total")
            forwarded = [tokens.value(node="n3")]
            bed.crash("n3")
            bed.run(0.6)
            seen.append(ops(registry, "n3"))
            bed.recover("n3")
            bed.add_replica("svc", "n3")
            bed.run(0.6)
            gc.collect()  # the crashed incarnation's objects may be gone
            seen.append(ops(registry, "n3"))
            forwarded.append(tokens.value(node="n3"))
            call_n(bed, client, "svc", "get_time", 4)
            seen.append(ops(registry, "n3"))
            forwarded.append(tokens.value(node="n3"))
        assert seen == sorted(seen) and seen[-1] > seen[0] > 0
        assert forwarded == sorted(forwarded) and forwarded[0] > 0

    def test_reset_inside_a_session_starts_the_series_over(self):
        bus = obs.Bus()
        registry = bus.metrics
        with registry.session():
            bed, client = serving_bed(seed=37, bus=bus)
            call_n(bed, client, "svc", "get_time", 3)
            registry.reset()
            assert ops(registry) == 0
            call_n(bed, client, "svc", "get_time", 2)
            assert ops(registry) == 2
