"""The client-load engine, for simulated and live testbeds alike.

The paper measures the service with one harness shape — clients invoke
the replicated server and time each reply (Section 4.2).  This module is
that shape, once: a load generator is a *bed builder* plus a *per-call
generator* handed to one of two drivers,

* :func:`closed_loop` — ``workers`` processes on the bed's kernel, each
  with one call in flight until the deadline (the in-flight population
  is pinned, so the service's pace sets the rate), and
* :func:`open_loop` — arrivals at a fixed rate whether or not earlier
  calls completed,

both filling one :class:`LoadResult`.  Every client is a process on the
bed's kernel — the simulator's heap or a live bed's event loop — so the
same driver loads either substrate and nothing runs on a second thread.
Around them: :class:`ClockSessions`, the per-call generator of the
gateway clients that ride a session floor; the zipf identity picker
skewed populations draw from; and the service-side counter roll-up.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..control.admission import is_overloaded, retry_after_of
from ..errors import RpcTimeout
from ..obs import Bus
from ..sim import ClusterConfig
from ..testbed import Testbed


def percentile(values: List[int], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return float(ordered[rank])


#: Upper bounds (microseconds) of the recorded latency histogram —
#: matches the ``cts_round_latency_us`` instrument, so benchmark runs
#: and live scrapes bucket identically.
LATENCY_BUCKETS_US = (50, 100, 200, 400, 800, 1_600, 3_200, 6_400,
                      12_800, 25_600, 51_200)


@dataclass
class LoadResult:
    """One load measurement: the tallies every generator shares, plus
    whatever else the generator reports in ``extra``."""

    mode: str
    duration_s: float
    completed: int = 0
    errors: int = 0
    #: Client-observed end-to-end latencies of completed calls, microseconds.
    latencies_us: List[int] = field(default_factory=list)
    #: Generator-specific, JSON-able fields (service counters, per-shard
    #: split, shed tallies, ...); :meth:`to_dict` merges them in.
    extra: Dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def mean_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    @property
    def p50_us(self) -> float:
        return percentile(self.latencies_us, 0.50)

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 0.99)

    @property
    def p999_us(self) -> float:
        return percentile(self.latencies_us, 0.999)

    def latency_buckets(self) -> List[List]:
        """Cumulative latency histogram: ``[[le_us, count], ...]`` ending
        with ``["+Inf", total]`` (Prometheus-shaped, JSON-able)."""
        ordered = sorted(self.latencies_us)
        buckets: List[List] = []
        index = 0
        for bound in LATENCY_BUCKETS_US:
            while index < len(ordered) and ordered[index] <= bound:
                index += 1
            buckets.append([bound, index])
        buckets.append(["+Inf", len(ordered)])
        return buckets

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "completed": self.completed,
            "errors": self.errors,
            "ops_per_s": round(self.ops_per_s, 1),
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            **self.extra,
        }


#: One call, as a generator on the bed's kernel: returns its latency in
#: microseconds, or None if the reply was an error.  ``RpcTimeout`` may
#: propagate — the driver counts it as an error too.
Call = Callable[[int], Generator]


def closed_loop(
    bed,
    call: Call,
    *,
    workers: int,
    duration_s: float,
    warmup_s: float = 0.0,
    think_s: float = 0.0,
    drain_s: float = 2.5,
    mode: str = "closed-loop",
    on_completed: Optional[Callable[[int], None]] = None,
) -> LoadResult:
    """Run ``workers`` closed-loop processes, ``call(index)`` over and
    over, for ``warmup_s + duration_s`` of bed time.

    Only calls *issued* at or after the warm-up boundary are tallied
    (``on_completed(index)`` fires for each tallied success); a worker
    sleeps ``think_s`` between calls.  The bed then runs ``drain_s``
    past the deadline so in-flight calls finish, and an exception that
    killed a worker is re-raised here rather than lost with its process.
    """
    sim = bed.sim
    result = LoadResult(mode=mode, duration_s=duration_s)
    measure_start = sim.now + warmup_s
    deadline = measure_start + duration_s

    def worker(index: int):
        while sim.now < deadline:
            measured = sim.now >= measure_start
            try:
                latency_us = yield from call(index)
            except RpcTimeout:
                latency_us = None
            if measured and latency_us is None:
                result.errors += 1
            elif measured:
                result.completed += 1
                result.latencies_us.append(latency_us)
                if on_completed is not None:
                    on_completed(index)
            if think_s > 0:
                yield sim.timeout(think_s)

    processes = [sim.process(worker(index), name=f"load-{index}")
                 for index in range(workers)]
    bed.run(warmup_s + duration_s + drain_s)
    for process in processes:
        if process.triggered and not process.ok:
            process.defuse()
            raise process.value
    return result


def open_loop(
    bed,
    issue: Callable[[Callable[[Optional[int]], None]], None],
    *,
    rate: float,
    duration_s: float,
    drain_s: float = 2.5,
    mode: str = "open-loop",
    gap: Optional[Callable[[float], float]] = None,
) -> LoadResult:
    """Issue calls at ``rate`` per bed second for ``duration_s``, whether
    or not earlier ones completed: evenly spaced, or each
    ``gap(late_s)`` seconds after the one before (exponential draws make
    the arrivals Poisson; ``late_s`` tells the arrival process how long
    after its due time the arrival was issued).

    ``issue(done)`` starts a call and arranges for ``done(latency_us)``
    (``None`` for a failed call) when it finishes.  A live bed's loop
    may reach an arrival late; the next one is still aimed at its own
    due time, so lateness does not add up — but a loop that has fallen
    behind is handed one arrival per pass, not the backlog at once (the
    generator shares it with the service it measures), and whatever it
    has not reached when the window closes is not issued.  The number
    issued is ``result.extra["issued"]``, to hold against ``rate *
    duration_s``; calls still unanswered after ``drain_s`` are in
    neither ``completed`` nor ``errors``.
    """
    sim = bed.sim
    result = LoadResult(mode=mode, duration_s=duration_s,
                        extra={"offered_per_s": rate, "issued": 0})
    interval = 1.0 / rate
    start = due = sim.now

    def done(latency_us: Optional[int]) -> None:
        if latency_us is None:
            result.errors += 1
        else:
            result.completed += 1
            result.latencies_us.append(latency_us)

    def arrival() -> None:
        nonlocal due
        if sim.now - start >= duration_s:
            return
        late = sim.now - due  # exactly 0.0 on a simulated bed
        result.extra["issued"] += 1
        issue(done)
        step = gap(late) if gap is not None else interval
        due += step
        sim.schedule(max(0.0, step - late), arrival)

    arrival()
    bed.run(duration_s + drain_s)
    return result


class ClockSessions:
    """Closed-loop ``gettimeofday`` sessions, one per gateway caller
    (:class:`~repro.net.client.LiveCaller`, or anything with its
    ``call`` generator, ``client_id`` and ``stats``).

    Each call rides its session's floor: ``after_us`` is the last value
    the session was served.  A typed ``Overloaded`` reply counts as
    ``shed``, not as an error, and the session waits out the
    retry-after hint before it calls again — shedding relieves a
    gateway only if shed clients back off.

    :meth:`call` is the per-call generator to hand :func:`closed_loop`.
    A harness that drives the bed itself (a judged run following a
    script of unknown length) runs the sessions as free workers instead,
    from :meth:`start` until :meth:`stop`.
    """

    #: Per-call deadline, seconds.
    TIMEOUT_S = 1.5

    def __init__(self, sim, callers: Sequence, *,
                 on_reply: Optional[Callable[..., None]] = None,
                 pace_s: float = 0.0):
        self.sim = sim
        self.callers = list(callers)
        #: Called on the kernel for every served call, with kernel times:
        #: ``on_reply(client_id, value_us, started, finished, outcome)``.
        self.on_reply = on_reply
        #: Pause after a served call (0: the service sets the pace).
        self.pace_s = pace_s
        self.tally: Counter = Counter()
        self._floors: List[Optional[int]] = [None] * len(self.callers)
        self._workers: List = []

    def call(self, index: int) -> Generator:
        """One call of session ``index``: its latency in microseconds,
        or None if it was not served."""
        sim, caller = self.sim, self.callers[index]
        started = sim.now
        self.tally["calls"] += 1
        try:
            outcome = yield from caller.call(
                "gettimeofday", self._floors[index], timeout=self.TIMEOUT_S)
        except RpcTimeout:
            self.tally["errors"] += 1
            return None
        finished = sim.now
        result = outcome.first()
        if is_overloaded(result):
            self.tally["shed"] += 1
            yield sim.timeout(retry_after_of(result))
            return None
        if not result.ok:
            self.tally["errors"] += 1
            return None
        self.tally["served"] += 1
        self._floors[index] = value_us = result.value["micros"]
        if self.on_reply is not None:
            self.on_reply(caller.client_id, value_us, started, finished,
                          outcome)
        if self.pace_s > 0:
            yield sim.timeout(self.pace_s)
        return outcome.latency_us

    def start(self) -> None:
        """Run every session as a worker process, call after call."""
        def session(index: int):
            while True:
                yield from self.call(index)

        self._workers = [
            self.sim.process(session(index), name=caller.client_id)
            for index, caller in enumerate(self.callers)]

    def stop(self) -> None:
        """End the workers where they stand — in a call, or backing off
        on a retry-after hint however long."""
        for worker in self._workers:
            worker.kill()

    def report(self) -> Dict[str, object]:
        """Tallies over all sessions."""
        tally = self.tally
        stats = [caller.stats for caller in self.callers]
        return {
            "count": len(self.callers),
            **{key: tally[key]
               for key in ("calls", "served", "errors", "shed")},
            "retries": sum(s.retries for s in stats),
            "breaker_skips": sum(s.breaker_skips for s in stats),
            "error_rate": tally["errors"] / tally["calls"]
            if tally["calls"] else 1.0,
        }


class ZipfPicker:
    """Draws identities ``0 .. universe-1`` from a zipf(``s``) popularity
    distribution (cumulative weights built once; pure python — the bench
    path must not depend on numpy).  ``s == 0`` degenerates to uniform."""

    def __init__(self, universe: int, s: float, rng):
        self._cum: List[float] = []
        total = 0.0
        for rank in range(1, universe + 1):
            total += 1.0 / (rank ** s) if s else 1.0
            self._cum.append(total)
        self._rng = rng

    def pick(self) -> int:
        return bisect.bisect_left(self._cum,
                                  self._rng.random() * self._cum[-1])


def paper_bed(seed: int, app_factory, nodes: Sequence[str] = ("n1", "n2", "n3"),
              *, group: str = "svc", record: bool = False,
              settle: float = 0.2, num_nodes: int = 4,
              cluster: Optional[Dict] = None, obs: Optional[Bus] = None,
              **deploy_options):
    """The paper's bed, started: four PCs, ``app_factory`` deployed as
    ``group`` on ``nodes`` (``deploy_options`` as ``Testbed.deploy``),
    the unreplicated client on the ring leader n0.  ``cluster`` holds
    further ``ClusterConfig`` fields; ``record`` asks for experiment
    records before anything is deployed; ``obs`` is the bus the bed
    records into (its own by default).  Returns the bed and the
    client."""
    bed = Testbed(seed=seed, cluster_config=ClusterConfig(
        num_nodes=num_nodes, **(cluster or {})), obs=obs)
    if record:
        bed.record()
    bed.deploy(group, app_factory, list(nodes), **deploy_options)
    client = bed.client("n0")
    bed.start(settle)
    return bed, client


def timed_calls(bed, client, group: str, method: str, count: int, *,
                timeout: float = 3.0) -> List:
    """Run ``count`` sequential timed calls from one client to completion
    and return their result values; a failed call is an assertion error
    (the seeded experiments expect every call to be answered)."""
    def scenario():
        values = []
        for _ in range(count):
            result, _ = yield from client.timed_call(group, method,
                                                     timeout=timeout)
            assert result.ok, result.error
            values.append(result.value)
        return values

    return bed.run_process(scenario())


def last_readings(replica, count: int) -> List[int]:
    """The last ``count`` values (us) ``replica`` served; needs ``bed.record()``."""
    readings = replica.time_source.recorder.readings
    return [v.micros for _, _, _, v in readings][-count:]


#: The ``CTSStats`` counters a load result reports for the group.
SERVICE_COUNTERS = ("ops_completed", "ops_coalesced", "fast_path_hits",
                    "fast_path_fallbacks", "ccs_transmitted",
                    "rounds_completed")


def service_counters(bed, group: str) -> Dict[str, int]:
    """Service-side counters summed over the group's replicas (zeros for
    a baseline time source, which keeps none).  Every replica counts
    each round, so ``rounds_completed`` is divided back to the group's
    view."""
    replicas = bed.replicas(group).values()
    totals = dict.fromkeys(SERVICE_COUNTERS, 0)
    for replica in replicas:
        stats = getattr(replica.time_source, "stats", None)
        for name in SERVICE_COUNTERS:
            totals[name] += getattr(stats, name, 0)
    totals["rounds_completed"] //= len(replicas) or 1
    return totals

