"""The replica's main thread: one callback executor that admits requests
in delivery order, parks executions on pending clock reads, and lets any
other event (``ctx.compute``) hold it.

Most tests drive one replica directly with a scripted time source whose
reads complete when a CCS message is delivered, so the order of
resumptions and admissions inside one kernel step is visible in the
application's log.
"""

from repro import Application
from repro.replication.envelope import MsgType, make_envelope
from repro.replication.timesource import ClockRead, TimeSource
from repro.rpc.messages import Invocation

from support import make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class ScriptedSource(TimeSource):
    """Every read parks until the next CCS delivery completes it."""

    name = "scripted"

    def __init__(self, replica):
        self.sim = replica.sim
        self.pending = []

    def read(self, thread_id, call_name, physical_us, **_ignored):
        read = ClockRead(self.sim)
        self.pending.append(read)
        return read

    def handle_ccs(self, envelope, physical_us):
        pending, self.pending = self.pending, []
        for read in pending:
            read.succeed(physical_us)


class LogApp(Application):
    """Logs when each execution starts, finishes its CPU work and comes
    back from its clock read."""

    def __init__(self):
        self.log = []

    def read(self, ctx, tag):
        self.log.append(("start", tag))
        yield ctx.gettimeofday()
        self.log.append(("resumed", tag))
        return tag

    def work(self, ctx, tag, seconds):
        self.log.append(("start", tag))
        yield ctx.compute(seconds)
        self.log.append(("computed", tag))
        yield ctx.gettimeofday()
        self.log.append(("resumed", tag))
        return tag


def _replica(seed=31):
    bed = make_testbed(seed=seed)
    bed.deploy("svc", LogApp, ["n1"], time_source=ScriptedSource)
    bed.start()
    replica = bed.replicas("svc")["n1"]
    assert replica.state_transfer.ready and not replica._serial
    return bed, replica


def _request(seq, method, *args):
    return make_envelope(MsgType.REQUEST, "cli", "svc", 1, seq, "n0",
                         body=Invocation(method, args))


def _ccs():
    return make_envelope(MsgType.CCS, "svc", "svc", 0, 0, "n2")


def _deliver(bed, replica, *envelopes):
    """Deliver ``envelopes`` in one kernel step, as one Totem batch."""
    bed.sim.schedule(0.0, lambda: [replica._on_message(envelope)
                                   for envelope in envelopes])
    bed.run(0.0)


class TestDeliveryOrder:
    def test_a_batch_resumes_completed_reads_before_its_request(self):
        """A round-completing CCS then a request in one batch: the
        executions the round completes resume first (admitting the
        request inside the delivery, ahead of them, moved sim-time
        figures)."""
        bed, replica = _replica()
        _deliver(bed, replica, _request(1, "read", "a"))
        assert replica.app.log == [("start", "a")]
        _deliver(bed, replica, _ccs(), _request(2, "read", "c"))
        assert replica.app.log == [
            ("start", "a"), ("resumed", "a"), ("start", "c")]

    def test_a_request_ahead_of_the_ccs_in_its_batch_waits_for_the_batch(self):
        """A request then a round-completing CCS in one batch: the request
        is admitted after the whole batch, so the completed reads still
        resume first (admitting it on delivery moved a simulated chaos
        run's throughput)."""
        bed, replica = _replica()
        _deliver(bed, replica, _request(1, "read", "a"))
        _deliver(bed, replica, _request(2, "read", "c"), _ccs())
        assert replica.app.log == [
            ("start", "a"), ("resumed", "a"), ("start", "c")]

    def test_reads_completed_while_the_thread_is_held_run_before_admissions(self):
        bed, replica = _replica()
        _deliver(bed, replica, _request(1, "read", "a"),
                 _request(2, "work", "b", 1e-3))
        _deliver(bed, replica, _ccs(), _request(3, "read", "c"))
        assert replica.app.log == [("start", "a"), ("start", "b")]
        bed.run(0.01)
        assert replica.app.log == [
            ("start", "a"), ("start", "b"), ("computed", "b"),
            ("resumed", "a"), ("start", "c")]

    def test_a_request_waits_while_compute_holds_the_thread(self):
        bed, replica = _replica()
        _deliver(bed, replica, _request(1, "work", "b", 1e-3))
        _deliver(bed, replica, _request(2, "read", "c"))
        bed.run(0.5e-3)
        assert replica.app.log == [("start", "b")]
        bed.run(0.01)
        # b parks on its read: only then is c admitted.
        assert replica.app.log == [
            ("start", "b"), ("computed", "b"), ("start", "c")]
        _deliver(bed, replica, _ccs())
        assert replica.app.log[3:] == [("resumed", "b"), ("resumed", "c")]
        assert replica.idle and replica.stats.requests_processed == 2


class TestGetState:
    def test_get_state_runs_once_the_last_parked_read_resumes(self):
        """A GET_STATE queued behind a parked execution waits for it; the
        CCS that resumes and ends that execution admits the GET_STATE,
        with no further request delivered."""
        bed, replica = _replica()
        get_state = make_envelope(MsgType.GET_STATE, "svc", "svc", 0, 1, "n5",
                                  body={"target": "n5"})
        _deliver(bed, replica, _request(1, "read", "a"))
        _deliver(bed, replica, get_state)
        assert replica._admissions and not replica.time_source.pending[1:]
        _deliver(bed, replica, _ccs())
        assert replica.app.log == [("start", "a"), ("resumed", "a")]
        # The special round's read is issued, and holds the thread.
        assert not replica._admissions and replica.time_source.pending
        _deliver(bed, replica, _ccs())
        assert replica.stats.state_transfers_served == 1


class TestCrash:
    def test_nothing_of_a_crashed_replica_runs(self):
        """One execution parked on a read, one holding the thread on
        compute: after the crash, completing the read and letting the
        compute end runs neither, even once the node is back up."""
        bed, replica = _replica()
        _deliver(bed, replica, _request(1, "read", "a"),
                 _request(2, "work", "b", 1e-3))
        assert replica.app.log == [("start", "a"), ("start", "b")]
        replica.node.crash()
        replica.time_source.handle_ccs(_ccs(), 0)
        bed.run(0.5e-3)
        replica.node.recover()
        bed.run(0.01)
        assert replica.app.log == [("start", "a"), ("start", "b")]
        assert replica.stats.requests_processed == 0


class ConcurrencyApp(Application):
    """Counts executions in flight across each clock read."""

    def __init__(self):
        self.running = 0
        self.most = 0

    def get_time(self, ctx):
        self.running += 1
        self.most = max(self.most, self.running)
        yield ctx.compute(5e-6)
        value = yield ctx.gettimeofday()
        self.running -= 1
        return value.micros


class TestSerial:
    def _most_in_flight(self, seed, **deploy_options):
        bed = make_testbed(seed=seed)
        bed.deploy("svc", ConcurrencyApp, ["n1", "n2", "n3"], **deploy_options)
        client = bed.client("n0")
        bed.start()
        answered = []

        def caller():
            for _ in range(5):
                reply = yield client.call("svc", "get_time", timeout=2.0)
                answered.append(reply.ok)

        callers = [bed.sim.process(caller()) for _ in range(6)]
        while not all(proc.triggered for proc in callers):
            bed.run(0.05)
        assert answered == [True] * 30
        replicas = bed.replicas("svc").values()
        return max(replica.app.most for replica in replicas)

    def test_passive_replicas_never_overlap_executions(self):
        # The time service could overlap reads; the style forbids it.
        assert self._most_in_flight(32, style="passive") == 1

    def test_a_local_source_never_overlaps_executions(self):
        assert self._most_in_flight(33, time_source="local") == 1

    def test_a_pipelined_replica_does_overlap_them(self):
        assert self._most_in_flight(34) > 1
