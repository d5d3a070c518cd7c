"""Shared applications and helpers for the upper-layer test suites."""

import json
from pathlib import Path
from typing import List, Optional

from repro import Application, Testbed
from repro.errors import RpcTimeout
from repro.sim import ClusterConfig
from repro.totem import TotemConfig


class ClockApp(Application):
    """The paper's measurement server: returns the current time.

    'The client invokes a remote method that returns the current time in
    two CORBA longs.  The server simply calls gettimeofday()' (§4.2).
    """

    def __init__(self, work_s: float = 20e-6):
        self.work_s = work_s

    def get_time(self, ctx):
        yield ctx.compute(self.work_s)
        value = yield ctx.gettimeofday()
        return value.micros

    def get_time_after(self, ctx, after_us):
        """Session-monotone read: the client echoes its last-seen value
        and the service replies strictly above it (on every replica)."""
        yield ctx.compute(self.work_s)
        value = yield ctx.gettimeofday(after_us=after_us)
        return value.micros

    def get_time_coarse(self, ctx):
        value = yield ctx.time()
        return value.micros

    def get_time_ms(self, ctx):
        value = yield ctx.ftime()
        return value.micros


class CounterApp(Application):
    """Stateful app for checkpoint / state-transfer tests."""

    def __init__(self):
        self.count = 0
        self.stamps: List[int] = []

    def increment(self, ctx, amount=1):
        yield ctx.compute(10e-6)
        self.count += amount
        return self.count

    def stamped_increment(self, ctx):
        value = yield ctx.gettimeofday()
        self.count += 1
        self.stamps.append(value.micros)
        return (self.count, value.micros)

    def read(self, ctx):
        yield ctx.compute(1e-6)
        return self.count

    def get_state(self):
        return {"count": self.count, "stamps": list(self.stamps)}

    def set_state(self, state):
        self.count = state["count"]
        self.stamps = list(state["stamps"])


def classed(value):
    """``value`` with the class of every message written beside it, for
    comparing a decoded payload with the original.  Message classes are
    ``NamedTuple``s, whose ``==`` is structural and class-blind —
    ``RingBeacon(ring, "n1") == (ring, "n1")`` — so plain equality would
    pass a decoder that returned bare tuples or the wrong class."""
    if isinstance(value, tuple):
        return (type(value).__name__, *map(classed, value))
    if isinstance(value, list):
        return [classed(item) for item in value]
    if isinstance(value, dict):
        return {key: classed(item) for key, item in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__, classed(vars(value)))
    return value


def make_testbed(
    *,
    seed: int = 0,
    num_nodes: int = 4,
    epoch_spread_s: float = 10.0,
    loss_rate: float = 0.0,
    drift_ppm_max: float = 50.0,
    totem_config: Optional[TotemConfig] = None,
    obs=None,
) -> Testbed:
    config = ClusterConfig(
        num_nodes=num_nodes,
        clock_epoch_spread_s=epoch_spread_s,
        clock_drift_ppm_max=drift_ppm_max,
        loss_rate=loss_rate,
    )
    return Testbed(seed=seed, cluster_config=config, totem_config=totem_config,
                   obs=obs)


def call_n(bed: Testbed, client, group: str, method: str, n: int, *args,
           timeout: float = 2.0):
    """Run ``n`` sequential invocations; returns the list of result values."""

    def scenario():
        values = []
        for _ in range(n):
            result, _latency = yield from client.timed_call(
                group, method, *args, timeout=timeout
            )
            assert result.ok, result.error
            values.append(result.value)
        return values

    return bed.run_process(scenario())


def read_until(bed: Testbed, client, group: str, n: int, *,
               tries_per_value: int = 4, oracle=None) -> List[int]:
    """The retrying client of the fault-injection suites: read the group
    clock until ``n`` calls were answered (or ``n * tries_per_value``
    were tried), riding out timeouts while a failover or a membership
    change is in progress.  Returns the answered values in order; with
    an ``oracle``, every one is fed to it as client ``c0``'s reply."""

    def scenario():
        values, tries = [], 0
        while len(values) < n and tries < n * tries_per_value:
            tries += 1
            try:
                result, latency_us = yield from client.timed_call(
                    group, "get_time", timeout=0.5)
            except RpcTimeout:
                continue
            if result.ok:
                if oracle is not None:
                    oracle.observe_reply("c0", result.value,
                                         wall_s=bed.sim.now,
                                         rtt_s=latency_us / 1e6)
                values.append(result.value)
        return values

    return bed.run_process(scenario())


def group_clock_rate(*, workers: int = 1, think_s: float = 0.0,
                     seed: int = 0, duration_s: float = 1.0, **cts_options):
    """ROADMAP item 7's reproducer: how fast the served group clock runs
    against simulated real time.  ``workers`` closed-loop clients (each
    thinking ``think_s`` between calls) read the daemon's ``TimeApp`` on
    the paper's bed for ``duration_s``; the rate is the served value
    advanced ÷ real time elapsed between the reply a tenth of the way in
    and the last one.  Returns ``(rate, allowance)``: a value is served
    somewhere inside its call, so each end of the window is uncertain by
    one call latency — the allowance is the 100 ppm drift bound plus
    2 × the mean call latency ÷ the window."""
    from repro.net.daemon import TimeApp
    from repro.workloads.load import closed_loop

    bed = make_testbed(seed=seed)
    bed.deploy("svc", TimeApp, ["n1", "n2", "n3"], **cts_options)
    client = bed.client("n0")
    bed.start()
    seen = []

    def call(_index):
        reply, latency_us = yield from client.timed_call(
            "svc", "gettimeofday", timeout=None)
        seen.append((bed.sim.now, reply.value["micros"], latency_us))
        return latency_us

    closed_loop(bed, call, workers=workers, duration_s=duration_s,
                drain_s=0.0, think_s=think_s)
    (t0, v0, _), (t1, v1, _) = seen[len(seen) // 10], seen[-1]
    mean_latency_s = sum(latency for _, _, latency in seen) / len(seen) / 1e6
    return ((v1 - v0) / 1e6 / (t1 - t0),
            100e-6 + 2 * mean_latency_s / (t1 - t0))


#: Top-level and second-level key sets of the four judged runners'
#: verdicts, recorded at the parent of the PR that put them on one
#: JudgedRun (``run_chaos``, ``run_shard_chaos``, ``run_rolling_restart``,
#: ``run_reconfig_sequence``).
VERDICT_KEYS = json.loads(
    (Path(__file__).parent / "verdict_keys.json").read_text())


def assert_verdict_keys(verdict: dict, runner: str) -> None:
    """The verdict's key sets equal the recorded ones, plus the
    ``protocol_failures`` list that PR added.  A second-level set is
    the keys of a mapping, or of the mappings in a list (skipped when
    the run left the list empty)."""
    pinned = VERDICT_KEYS[runner]
    assert sorted(verdict) == sorted(pinned["top"] + ["protocol_failures"])
    for key, expected in pinned["second"].items():
        value = verdict[key]
        if isinstance(value, list):
            if not value:
                continue
            value = set().union(*value)
        assert sorted(value) == expected, key
