"""Property tests for round coalescing and the drift-bounded fast path.

Random seeds, clock drift, message loss, concurrency and crash times;
the invariants checked are the ones the amortized protocol must keep
from the per-operation protocol:

* **agreement** — every operation served from a round gets the same
  group-clock value on every replica that serves it;
* **client monotonicity** — a client issuing sequential calls sees
  strictly increasing time (under the fast path this needs the session
  floor: fast values are replica-local, so the client echoes its
  last-seen value and every replica serves strictly above it);
* **replica monotonicity** — the sequence of values one replica hands
  out never decreases, fast-path reads included;
* **offset identity** — every commit records ``group == physical +
  offset`` exactly (Section 3.1's invariant);
* **bounded staleness** — a fast-path read is served at most
  ``max_staleness_us`` of local elapsed time after the last round.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RpcTimeout

from support import ClockApp, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)

COALESCE_SETTINGS = dict(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_concurrent(
    seed,
    *,
    concurrency=5,
    calls_each=5,
    loss_rate=0.0,
    drift_ppm=50.0,
    fast_path=False,
    max_staleness_us=2_000,
    crash_at=None,
    session=False,
    coalesce=True,
):
    """Drive ``concurrency`` closed-loop workers; returns the testbed
    and each worker's answered values, in call order."""
    bed = make_testbed(seed=seed, epoch_spread_s=10.0, loss_rate=loss_rate,
                       drift_ppm_max=drift_ppm)
    bed.record()
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts",
               fast_path=fast_path, max_staleness_us=max_staleness_us,
               coalesce=coalesce)
    client = bed.client("n0")
    bed.start(settle=0.3)
    if crash_at is not None:
        bed.sim.schedule(crash_at, bed.crash, "n3")

    per_worker = [[] for _ in range(concurrency)]

    def worker(i):
        done = attempts = 0
        last = None
        while done < calls_each and attempts < calls_each * 6:
            attempts += 1
            try:
                if session and last is not None:
                    result = yield client.call(
                        "svc", "get_time_after", last, timeout=0.5)
                else:
                    result = yield client.call("svc", "get_time", timeout=0.5)
            except RpcTimeout:
                continue  # failover in progress; retry
            if result.ok:
                per_worker[i].append(result.value)
                last = result.value
                done += 1
        return None

    workers = [bed.sim.process(worker(i), name=f"worker-{i}")
               for i in range(concurrency)]
    bed.run(4.0)
    for proc in workers:
        assert proc.triggered, "worker deadlocked"
        if not proc.ok:
            proc.defuse()
            raise proc.value
    return bed, per_worker


def check_agreement(bed, group="svc"):
    """Round-served operations got identical values on every replica."""
    maps = [replica.time_source.recorder.served_ops
            for replica in bed.replicas(group).values()]
    keys = set().union(*maps)
    assert keys, "no operations were served from rounds"
    for key in keys:
        values = {m[key] for m in maps if key in m}
        assert len(values) == 1, f"op {key} served {values}"


def check_replica_monotone(bed, group="svc"):
    for node_id, replica in bed.replicas(group).items():
        micros = [v.micros for _, _, _, v in replica.time_source.recorder.readings]
        for a, b in zip(micros, micros[1:]):
            assert b >= a, f"{node_id} stepped back: {a} -> {b}"


def check_offset_identity(bed, group="svc"):
    for replica in bed.replicas(group).values():
        history = replica.time_source.recorder.history
        assert history
        for group_us, physical_us, offset_us in history:
            assert group_us == physical_us + offset_us


class TestCoalescingInvariants:
    @settings(**COALESCE_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        concurrency=st.integers(min_value=2, max_value=6),
        loss_rate=st.sampled_from([0.0, 0.0, 0.02, 0.05]),
        drift_ppm=st.sampled_from([0.0, 50.0, 200.0]),
        crash=st.booleans(),
        crash_at=st.floats(min_value=0.01, max_value=0.4),
    )
    def test_agreement_and_monotonicity(
        self, seed, concurrency, loss_rate, drift_ppm, crash, crash_at
    ):
        bed, per_worker = run_concurrent(
            seed,
            concurrency=concurrency,
            loss_rate=loss_rate,
            drift_ppm=drift_ppm,
            crash_at=crash_at if crash else None,
        )
        # Every worker finished all its calls (retries absorb failover).
        assert all(len(values) == 5 for values in per_worker)
        # A client's sequential calls see strictly increasing time; two
        # *different* workers may share a round (equal values) but one
        # worker's next call always lands in a later round.
        for values in per_worker:
            assert all(b > a for a, b in zip(values, values[1:]))
        check_agreement(bed)
        check_replica_monotone(bed)
        check_offset_identity(bed)

    def test_concurrency_actually_coalesces(self):
        bed, _ = run_concurrent(11, concurrency=6, calls_each=8)
        stats = [replica.time_source.stats
                 for replica in bed.replicas("svc").values()]
        assert all(s.ops_coalesced > 0 for s in stats)
        assert all(s.ops_completed > s.rounds_completed for s in stats)

    def test_prune_floor_respects_queued_requests(self):
        # Regression (found by this suite): the retention prune floor
        # used to jump past a request that was delivered but had not
        # started executing, dropping the retained round that covered
        # its read — the replica then served it a later round's value
        # while faster replicas served the retained one.
        bed, per_worker = run_concurrent(0, concurrency=3, loss_rate=0.02)
        assert all(len(values) == 5 for values in per_worker)
        check_agreement(bed)
        check_replica_monotone(bed)

    def test_slow_member_gets_messages_others_already_delivered(self):
        # Regression (found by this suite): a member that missed an
        # old-ring CCS message went unserved during Totem recovery once
        # the other members finished recovering (installing the new
        # ring wiped their retransmission buffers) and falsely
        # tombstoned a message the others had delivered — consumption
        # then crashed on the round-sequence gap.
        bed, per_worker = run_concurrent(6, concurrency=4, loss_rate=0.05,
                                         fast_path=True, crash_at=0.2)
        assert all(len(values) == 5 for values in per_worker)
        check_agreement(bed)
        check_replica_monotone(bed)


class TestFastPathInvariants:
    @settings(**COALESCE_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        max_staleness_us=st.sampled_from([500, 2_000, 8_000]),
        drift_ppm=st.sampled_from([0.0, 50.0]),
    )
    def test_staleness_bound_and_local_monotonicity(
        self, seed, max_staleness_us, drift_ppm
    ):
        bed, per_worker = run_concurrent(
            seed,
            concurrency=4,
            fast_path=True,
            max_staleness_us=max_staleness_us,
            drift_ppm=drift_ppm,
        )
        assert all(len(values) == 5 for values in per_worker)
        for replica in bed.replicas("svc").values():
            source = replica.time_source
            for _, _, elapsed_us in source.recorder.fast_served:
                assert 0 <= elapsed_us <= max_staleness_us
                assert source.drift_bound.permits(elapsed_us)
        # Fast-path values interleave with round values: one replica's
        # hand-outs must still never decrease, and operations that did
        # go through rounds still agree across replicas.
        check_replica_monotone(bed)
        check_agreement(bed)
        check_offset_identity(bed)

    def test_quiet_client_hits_the_fast_path(self):
        bed, per_worker = run_concurrent(
            7, concurrency=1, calls_each=10, fast_path=True,
            max_staleness_us=8_000,
        )
        hits = sum(replica.time_source.stats.fast_path_hits
                   for replica in bed.replicas("svc").values())
        assert hits > 0
        assert len(per_worker[0]) == 10
        check_replica_monotone(bed)

    def test_session_floor_keeps_clients_monotone(self):
        # Regression (found by this suite): fast-path values are local
        # extrapolations, so two replicas can disagree by the
        # inter-replica synchronization error (~20us observed); a client
        # whose consecutive calls were answered by different replicas
        # saw time step back.  Echoing the last-seen value as a session
        # floor restores strictly increasing reads: the floor rides the
        # totally ordered request, so every replica serves above it.
        for seed in (36, 37):
            bed, per_worker = run_concurrent(
                seed, concurrency=4, loss_rate=0.05, fast_path=True,
                session=True, crash_at=0.2 if seed == 36 else None)
            assert all(len(values) == 5 for values in per_worker)
            for values in per_worker:
                assert all(b > a for a, b in zip(values, values[1:]))
            check_agreement(bed)
            check_replica_monotone(bed)

    def test_fast_path_with_serial_execution(self):
        # ``coalesce=False`` only stops the replica overlapping reads;
        # the fast path runs over the same round engine.  Under loss a
        # replica that fast-served an operation meets a round another
        # replica opened for it, so retained rounds (keyed by explicit
        # operation ids) must survive until the operation is issued.
        bed, per_worker = run_concurrent(
            0, concurrency=3, calls_each=30, loss_rate=0.05,
            drift_ppm=200.0, fast_path=True, max_staleness_us=400,
            coalesce=False)
        assert all(len(values) == 30 for values in per_worker)
        stats = [r.time_source.stats for r in bed.replicas("svc").values()]
        assert all(s.fast_path_hits > 0 for s in stats)
        assert all(s.ops_coalesced == 0 for s in stats)
        check_agreement(bed)
        check_replica_monotone(bed)
        check_offset_identity(bed)
