"""The small scenarios `repro fig fig1 | partition | scale` and their
benchmark files share.

* :func:`measure_divergence` — FIG1: how far three replicas' answers to
  the same logical ``gettimeofday()`` diverge under raw local clocks,
  NTP-disciplined clocks and the consistent time service.
* :func:`run_partition_cycle` — EXT-PARTITION (paper Section 2): one
  replica is partitioned away and remerged; only the primary component
  keeps serving, and the minority rejoins through a state transfer.
* :func:`run_at_size` — EXT-SCALE: client latency and CCS wire economy
  at one replication degree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import Summary, summarize
from ..obs import Bus
from ..sim import ClusterConfig
from ..testbed import Testbed
from .failover import ClockReadApp
from .load import last_readings, paper_bed, timed_calls
from .recovery import RecoveryClockApp


def measure_divergence(time_source: str, *, seed: int, calls: int = 60,
                       obs: Optional[Bus] = None) -> List[int]:
    """Per-operation spread (max - min, microseconds) of the replicas'
    readings over ``calls`` operations.  ``"ntp"`` installs the
    discipline and lets it converge first."""
    bed = Testbed(seed=seed, cluster_config=ClusterConfig(
        num_nodes=4, clock_epoch_spread_s=10.0), obs=obs)
    bed.record()
    if time_source == "ntp":
        bed.install_ntp(poll_interval_s=0.5, gain=0.7)
    bed.deploy("svc", lambda: ClockReadApp(30e-6), ["n1", "n2", "n3"],
               time_source=time_source)
    client = bed.client("n0")
    bed.start()
    if time_source == "ntp":
        bed.run(20.0)
    timed_calls(bed, client, "svc", "get_time", calls)
    bed.run(0.1)
    per_replica = [last_readings(replica, calls)
                   for replica in bed.replicas("svc").values()]
    return [max(values) - min(values) for values in zip(*per_replica)]


def run_partition_cycle(seed: int,
                        obs: Optional[Bus] = None) -> Dict[str, object]:
    """Three calls, partition n3 away, three calls, heal, three calls."""
    bed, client = paper_bed(seed, RecoveryClockApp, record=True,
                            cluster=dict(clock_epoch_spread_s=30.0), obs=obs)

    def stamps():
        return [micros for _, micros in
                timed_calls(bed, client, "svc", "stamped", 3)]

    before = stamps()
    bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
    bed.run(0.4)
    minority = bed.replicas("svc")["n3"]
    outcome = {"seed": seed, "minority_suspended": minority.suspended}
    during = stamps()
    outcome["minority_froze_at"] = minority.app.count
    bed.cluster.network.heal()
    bed.run(1.5)
    after = stamps()
    bed.run(0.2)
    sequence = before + during + after
    outcome["monotone"] = all(b > a for a, b in zip(sequence, sequence[1:]))
    outcome["rejoined_ready"] = minority.state_transfer.ready
    outcome["rejoined_count"] = minority.app.count
    outcome["majority_count"] = bed.replicas("svc")["n1"].app.count
    outcome["rejoined_consistent"] = last_readings(minority, 3) == after
    return outcome


def run_at_size(replicas: int, *, calls: int = 150, seed: int = 9,
                obs: Optional[Bus] = None) -> Tuple[Summary, int, int]:
    """Client latency summary, CCS messages on the wire and rounds
    decided with ``replicas`` servers (plus the client's node)."""
    nodes = [f"n{i}" for i in range(1, replicas + 1)]
    bed, client = paper_bed(seed, lambda: ClockReadApp(40e-6), nodes,
                            num_nodes=replicas + 1, settle=0.3, obs=obs)
    timed_calls(bed, client, "svc", "get_time", calls, timeout=5.0)
    bed.run(0.1)
    services = [r.time_source for r in bed.replicas("svc").values()]
    return (summarize(client.stats.latencies_us),
            sum(service.stats.ccs_transmitted for service in services),
            max(service.stats.rounds_accepted for service in services))
