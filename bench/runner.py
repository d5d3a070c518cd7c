"""Runs: several trials of one workload, the traced pass, the record.

A run is ``TRIALS`` back-to-back trials on fresh beds; each end-to-end
metric is the median trial, with the lowest and highest beside it, and
beside those the median of the trials' raw figures (wall-clock durations
as the clock gave them, before they were rescaled to the reference
host's speed; see ``trial.py``).  The traced pass is one untraced and
one traced trial of the same seed and size, plus the microbenchmarks; no
end-to-end figure comes from it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .layers import per_layer_metrics
from .micro import run_micro
from .spec import END_TO_END, EXTRA_END_TO_END, TRIALS, Workload
from .tracing import Tracer
from .trial import Trial, run_trial

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
ROOT = BENCH_DIR.parent
#: The command fails when more than this share of a run's ops failed.
FAILED_SHARE_BOUND = 0.001


class _Judged:
    """Something with ``attempted`` and ``failed`` op counts."""

    @property
    def ok(self) -> bool:
        return self.failed <= FAILED_SHARE_BOUND * self.attempted


@dataclass
class Run(_Judged):
    workload: Workload
    seed: int
    seconds: float
    trials: List[Trial]

    def values(self, metric: str) -> List[float]:
        return [t.metrics[metric] for t in self.trials if metric in t.metrics]

    def median(self, metric: str) -> float:
        return statistics.median(self.values(metric))

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.trials)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.trials)

    @property
    def host_speed(self) -> float:
        """Median over the trials of how fast the host ran their windows;
        1.0 is the reference host's speed."""
        return statistics.median(
            t.counters["host.speed"] for t in self.trials)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """median / min / max per metric the workload reports, and the
        median of the raw figure where durations were rescaled."""
        out = {}
        for metric in END_TO_END + EXTRA_END_TO_END:
            values = self.values(metric.name)
            if values:
                out[metric.name] = {
                    "unit": metric.unit, "median": statistics.median(values),
                    "min": min(values), "max": max(values)}
                raw = [t.raw[metric.name] for t in self.trials
                       if metric.name in t.raw]
                if raw:
                    out[metric.name]["raw_median"] = statistics.median(raw)
        return out


def run_workload(workload: Workload, seed: int, seconds: float,
                 trials: int = TRIALS,
                 import_s: Tuple[float, float] = (0.0, 0.0)) -> Run:
    """``trials`` untraced trials.  Trial ``k`` seeds its bed and its
    schedule with ``seed * trials + k``, so runs with different seeds
    share no trial.  ``import_s`` (what importing the program cost this
    process, rescaled and raw) is part of every trial's ``setup_s``."""
    window_s = workload.window_s(seconds, trials)
    done = []
    for index in range(trials):
        trial = run_trial(workload, seed * trials + index, window_s)
        trial.metrics["setup_s"] += import_s[0]
        trial.raw["setup_s"] += import_s[1]
        trial.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        done.append(trial)
    return Run(workload, seed, seconds, done)


@dataclass
class TracedRun(_Judged):
    workload: Workload
    seed: int
    untraced: Trial
    traced: Trial
    metrics: Dict[str, float]
    spans_path: Path

    @property
    def attempted(self) -> int:
        return self.untraced.attempted + self.traced.attempted

    @property
    def failed(self) -> int:
        return self.untraced.failed + self.traced.failed


def run_traced(workload: Workload, seed: int, seconds: float) -> TracedRun:
    """The traced pass: one untraced and one traced trial, each the size
    of a trial of an untraced run."""
    window_s = workload.window_s(seconds)
    untraced = run_trial(workload, seed, window_s)
    tracer = Tracer()
    traced = run_trial(workload, seed, window_s, tracer)
    metrics = per_layer_metrics(workload, traced, untraced, tracer,
                                run_micro())
    spans_path = OUT_DIR / f"{workload.name}.seed{seed}.spans"
    tracer.write(spans_path, workload=workload.name, seed=seed,
                 window_wall_ns=round(traced.counters["window.wall_s"] * 1e9))
    return TracedRun(workload, seed, untraced, traced, metrics, spans_path)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

def calibration_ns() -> float:
    """ns per iteration of a fixed spin loop (best of 5), so a slow host
    is visible next to a slow number."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter_ns()
        total = 0
        for value in range(200_000):
            total += value
        best = min(best, (time.perf_counter_ns() - started) / 200_000)
    return best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def fingerprint() -> Dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "calibration_ns": calibration_ns(),
    }


def run_record(run: Run) -> Dict[str, object]:
    workload = run.workload
    return {
        "workload": workload.name, "seed": run.seed, "seconds": run.seconds,
        "sizes": {"loop": workload.loop, "clients": workload.clients,
                  "rate": workload.rate,
                  "window_s": run.trials[0].window_s,
                  "deadline_s": workload.deadline_s},
        "trial_count": len(run.trials),
        "attempted": run.attempted, "failed": run.failed,
        "host_speed": run.host_speed,
        "summary": run.summary(),
        "trials": [asdict(t) for t in run.trials],
    }


def traced_record(run: TracedRun) -> Dict[str, object]:
    return {
        "workload": run.workload.name, "seed": run.seed,
        "attempted": run.attempted, "failed": run.failed,
        "per_layer": run.metrics,
        "spans": str(run.spans_path.relative_to(ROOT)),
        "trials": [asdict(run.untraced), asdict(run.traced)],
    }


def write_record(name: str, body: Dict[str, object]) -> Path:
    """Write ``bench/out/<name>.json``: the fingerprint plus ``body``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(
        {"benchmark": "bench", "fingerprint": fingerprint(), **body},
        indent=1) + "\n")
    return path
