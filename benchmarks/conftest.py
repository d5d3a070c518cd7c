"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md §3 for the index) and prints a paper-vs-
measured report.  Reports are also written to ``benchmarks/reports/`` so
they survive pytest's output capture.

Scale: by default the workloads run at reduced size so the whole harness
finishes in minutes; set ``REPRO_FULL=1`` to run at the paper's full
scale (10,000 invocations / rounds).  The load gates run CI's inputs at
quick scale and the EXPERIMENTS.md rows' inputs at full scale.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

REPORT_DIR = Path(__file__).parent / "reports"

#: Paper-scale vs quick-scale workload sizes.
FULL = bool(int(os.environ.get("REPRO_FULL", "0")))


@pytest.fixture(scope="session")
def scale():
    """Workload sizes, honoring REPRO_FULL."""
    return {
        "fig5_invocations": 10_000 if FULL else 1_500,
        "fig6_rounds": 10_000 if FULL else 1_200,
        "ccs_rounds": 10_000 if FULL else 1_500,
        "failover_seeds": range(0, 16) if FULL else range(0, 8),
        "drift_rounds": 5_000 if FULL else 800,
        "shards": 4 if FULL else 3,
        "shard_duration_s": 0.5 if FULL else 0.3,
        "overload_duration_s": 2.0 if FULL else 1.5,
    }


@pytest.fixture()
def report():
    """Collects report lines; prints and persists them at teardown."""

    class Report:
        def __init__(self):
            self.lines = []
            self.name = "report"

        def title(self, name, text):
            self.name = name
            self.lines.append("=" * 72)
            self.lines.append(text)
            self.lines.append("=" * 72)

        def line(self, text=""):
            self.lines.append(str(text))

        def table(self, text):
            self.lines.append(text)
            self.lines.append("")

    r = Report()
    yield r
    output = "\n".join(r.lines)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{r.name}.txt").write_text(output + "\n")
    print("\n" + output, file=sys.stderr)
