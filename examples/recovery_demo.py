#!/usr/bin/env python3
"""Recovery demo: integrating a new clock into a running group.

Section 3.2 of the paper: adding a replica adds a *clock*, and the group
clock must stay consistent and monotone through it.  The recovering
replica gets application state via a checkpoint at a quiescent point; a
special round of consistent clock synchronization runs during the
transfer, and the newcomer derives its own clock offset from the
delivered CCS value — it never competes, it adopts.

This demo runs a 2-replica timestamped counter, adds a third replica
mid-run, and shows that afterwards all three replicas answer identically
while the group clock never stepped backwards.

Run:  python examples/recovery_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Application, Testbed
from repro.sim import ClusterConfig


class CounterApp(Application):
    def __init__(self):
        self.count = 0

    def tick(self, ctx):
        yield ctx.compute(20e-6)
        value = yield ctx.gettimeofday()
        self.count += 1
        return (self.count, value.micros)

    def get_state(self):
        return self.count

    def set_state(self, state):
        self.count = state


def main():
    bed = Testbed(seed=7, cluster_config=ClusterConfig(
        num_nodes=4, clock_epoch_spread_s=30.0))
    bed.record()  # keep every replica's readings, the later joiner's too
    bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="cts")
    client = bed.client("n0")
    bed.start()

    def calls(n):
        def scenario():
            out = []
            for _ in range(n):
                result, _ = yield from client.timed_call("svc", "tick",
                                                         timeout=3.0)
                out.append(result.value)
            return out
        return bed.run_process(scenario())

    print("two replicas (n1, n2) running:")
    for count, stamp in calls(4):
        print(f"  tick #{count} @ group clock {stamp} us")

    print("\nadding replica n3 (state transfer + special CCS round)...")
    joined_at = bed.sim.now
    joiner = bed.add_replica("svc", "n3", CounterApp, time_source="cts")
    while not joiner.state_transfer.ready:
        bed.run(0.01)
    print(f"  integrated in {(bed.sim.now - joined_at) * 1000:.1f} ms "
          f"(offset adoptions from CCS messages: "
          f"{joiner.time_source.stats.recovery_adoptions})")
    print(f"  n3 adopted count={joiner.app.count} and clock offset="
          f"{joiner.time_source.clock_state.offset_us} us")

    print("\nthree replicas running:")
    after = calls(4)
    for count, stamp in after:
        print(f"  tick #{count} @ group clock {stamp} us")
    bed.run(0.05)

    joiner_answers = [
        v.micros for _, _, _, v in joiner.time_source.recorder.readings
    ][-4:]
    veteran_answers = [
        v.micros for _, _, _, v
        in bed.replicas("svc")["n1"].time_source.recorder.readings
    ][-4:]
    print(f"\n  n3's readings:  {joiner_answers}")
    print(f"  n1's readings:  {veteran_answers}")
    print(f"  identical: {joiner_answers == veteran_answers}")


if __name__ == "__main__":
    main()
