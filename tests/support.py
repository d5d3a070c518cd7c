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


def make_testbed(
    *,
    seed: int = 0,
    num_nodes: int = 4,
    epoch_spread_s: float = 10.0,
    loss_rate: float = 0.0,
    drift_ppm_max: float = 50.0,
    totem_config: Optional[TotemConfig] = None,
) -> Testbed:
    config = ClusterConfig(
        num_nodes=num_nodes,
        clock_epoch_spread_s=epoch_spread_s,
        clock_drift_ppm_max=drift_ppm_max,
        loss_rate=loss_rate,
    )
    return Testbed(seed=seed, cluster_config=config, totem_config=totem_config)


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
