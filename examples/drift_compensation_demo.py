#!/usr/bin/env python3
"""Drift-compensation demo (paper Section 3.3).

The group clock runs slow relative to real time: each round adopts a
value computed from a physical reading taken *before* the communication
and processing delay of the round.  Over thousands of rounds this adds
up (Figure 6(c)).  The paper sketches two counter-measures; this demo
runs the Figure 6 workload under each and prints the residual drift:

* no compensation            — the algorithm exactly as published;
* mean-delay compensation    — my_clock_offset += mean round delay;
* reference steering         — proposals steered toward a drift-free
                               (e.g. GPS) reference.

Run:  python examples/drift_compensation_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import ascii_series
from repro.workloads import run_drift_ablation

ROUNDS = 400

#: The ablation's strategy keys, as this demo labels them.
LABELS = {
    "none": "no compensation",
    "mean-delay": "mean-delay compensation",
    "reference-steering": "reference steering",
}


def main():
    print(f"running {ROUNDS} clock-synchronization rounds per strategy...\n")
    runs, mean_delay_us = run_drift_ablation(rounds=ROUNDS, seed=5)
    print(f"calibrated mean per-round delay: {mean_delay_us} us\n")

    for name, result in runs.items():
        series = next(iter(result.series.values()))
        lag = [
            g - p
            for g, p in zip(series.normalized_group(),
                            series.normalized_physical())
        ]
        print(f"--- {LABELS[name]} ---")
        print(" ", ascii_series(lag, label="group clock lag vs pc (us)"))
        print(f"  drift vs real time: {result.group_drift_ppm() / 1e4:+.2f}%")
        print()

    print("paper: compensation 'can significantly reduce the drift but is "
          "necessarily only approximate';\n       a no-drift reference "
          "'introduces a small but repeated bias towards real time'.")


if __name__ == "__main__":
    main()
