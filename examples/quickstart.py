#!/usr/bin/env python3
"""Quickstart: a consistent group clock for a replicated service.

Deploys a three-way actively replicated time server on a simulated
four-node testbed (the paper's setup), makes a few invocations from an
unreplicated client, and shows that

* every replica returned the *same* timestamp for each invocation
  (replica determinism restored), and
* the group clock is strictly monotonically increasing,

then repeats the run with raw local clocks to show the problem the
consistent time service solves.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Application, Testbed


class ClockApp(Application):
    """The replicated servant: returns gettimeofday() to the caller."""

    def get_time(self, ctx):
        yield ctx.compute(25e-6)            # some servant work
        value = yield ctx.gettimeofday()    # interposed clock call
        return value.micros


def run(time_source: str):
    bed = Testbed(seed=2026)
    bed.record()  # keep what each replica serves (off unless asked)
    bed.deploy("timesvc", ClockApp, ["n1", "n2", "n3"],
               style="active", time_source=time_source)
    client = bed.client("n0")
    bed.start()

    def scenario():
        values = []
        for _ in range(5):
            result, latency_us = yield from client.timed_call(
                "timesvc", "get_time"
            )
            values.append((result.value, latency_us))
        return values

    answers = bed.run_process(scenario())
    bed.run(0.05)  # drain duplicate replies

    per_replica = {
        node_id: [v.micros for _, _, _, v
                  in replica.time_source.recorder.readings][-5:]
        for node_id, replica in bed.replicas("timesvc").items()
    }
    return answers, per_replica


def main():
    print("=== With the consistent time service ===")
    answers, per_replica = run("cts")
    for i, (value, latency) in enumerate(answers):
        print(f"  call {i}: group clock = {value} us  "
              f"(end-to-end latency {latency} us)")
    print("  what each replica answered:")
    for node_id, values in sorted(per_replica.items()):
        print(f"    {node_id}: {values}")
    agreed = len({tuple(v) for v in per_replica.values()}) == 1
    monotone = all(b > a for (a, _), (b, _) in zip(answers, answers[1:]))
    print(f"  replicas agree: {agreed}; group clock monotone: {monotone}")

    print()
    print("=== Without it (raw local clocks) ===")
    _, per_replica = run("local")
    for node_id, values in sorted(per_replica.items()):
        print(f"    {node_id}: {values}")
    spread = max(v[0] for v in per_replica.values()) - min(
        v[0] for v in per_replica.values()
    )
    print(f"  replicas disagree by up to {spread / 1e6:.3f} s for the SAME "
          "logical operation — replica consistency is lost.")


if __name__ == "__main__":
    main()
