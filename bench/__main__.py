"""``python3 -m bench``: run the benchmark from the repository root.

    python3 -m bench                              all six workloads
    python3 -m bench --workload live-open-r300    one workload
    python3 -m bench --workload NAME --trace 1    its traced pass
    python3 -m bench --selfcheck                  A/A: two sets, same code
    python3 -m bench --quick                      smoke sizes, not comparable

With exactly one ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exits non-zero when more than 0.1 % of a run's ops
failed, or in ``--selfcheck`` when the two sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

_started = time.perf_counter()
_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"bench: {_SRC}/repro not found; run from a checkout of the "
             "repository")
sys.path.insert(0, str(_SRC))

from .probe import HostProbe, to_reference  # noqa: E402
from .runner import (  # noqa: E402
    ROOT,
    Run,
    TracedRun,
    run_record,
    run_traced,
    run_workload,
    traced_record,
    write_record,
)
from .spec import (  # noqa: E402
    END_TO_END,
    EXTRA_END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    TRIALS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)

_imported = time.perf_counter() - _started
_probe = HostProbe()
#: What importing the program (and the benchmark) cost this process,
#: rescaled to the reference host's speed and raw; counted into
#: ``setup_s`` so work moved to import time shows.
IMPORT_S = (to_reference(_imported, statistics.median(
    _probe.read() for _ in range(5))), _imported)
_probe.close()

#: Runs per set and workload in ``--selfcheck``; a set's figure is the
#: median of its runs.
SELFCHECK_RUNS = 3

#: Metrics measured in simulated time on ``sim-*`` workloads: they must
#: repeat exactly for a seed.
SIM_TIME = {"ops_per_s", "p50_us", "mean_us", "p99_us", "outage_us",
            "recovery_us"}


def _value(metric, value: float) -> dict:
    return {"value": value, "unit": metric.unit}


def print_run(run: Run) -> None:
    workload, trial = run.workload, run.trials[0]
    clock = "sim-s" if workload.is_sim else "s"
    print(f"== {workload.name}  seed {run.seed}, {len(run.trials)} trials, "
          f"window {trial.window_s:g} {clock}; {run.attempted} ops "
          f"attempted, {run.failed} failed; host at {run.host_speed:.2f} "
          "of reference speed")
    samples = min(t.samples for t in run.trials)
    print(f"   {'metric':<18}{'unit':<7}{'median':>14}{'min':>14}{'max':>14}"
          f"{'raw median':>14}")
    for name, row in run.summary().items():
        raw = row.get("raw_median")
        rescaled = raw is not None and raw != row["median"]
        note = f"{raw:>14.6g}" if rescaled else " " * 14
        if name in ("p50_us", "mean_us", "p99_us"):
            note += f"  n>={samples}"
        if workload.is_sim and name in SIM_TIME:
            note += "  (simulated time)"
        print(f"   {name:<18}{row['unit']:<7}{row['median']:>14.6g}"
              f"{row['min']:>14.6g}{row['max']:>14.6g}{note}")
    for trial in run.trials:
        for problem in trial.violations:
            print(f"   VIOLATION (seed {trial.seed}): {problem}")
        if trial.failures:
            print(f"   failures (seed {trial.seed}): {trial.failures}")


def print_traced(run: TracedRun) -> None:
    print(f"== {run.workload.name}  traced pass, seed {run.seed}; "
          f"{run.attempted} ops attempted, {run.failed} failed; spans in "
          f"{run.spans_path.relative_to(ROOT)}")
    for metric in PER_LAYER:
        print(f"   {metric.name:<40}{run.metrics[metric.name]:>14.6g} "
              f"{metric.unit}")


def contract_line(run) -> str:
    if isinstance(run, TracedRun):
        metrics = {m.name: _value(m, run.metrics[m.name]) for m in PER_LAYER}
    else:
        metrics = {m.name: _value(m, run.median(m.name)) for m in END_TO_END}
    return json.dumps({"correct": run.failed == 0,
                       "attempted": run.attempted, "failed": run.failed,
                       "metrics": metrics})


def measure(args) -> int:
    names = args.workload or [w.name for w in WORKLOADS]
    trials = 1 if args.quick else TRIALS
    if args.quick:
        print("quick mode: 1 trial, windows / 3; numbers are not "
              "comparable with a full run")
    status = 0
    last = None
    for name in names:
        workload = WORKLOAD_BY_NAME[name]
        if args.trace:
            last = run_traced(workload, args.seed, args.seconds)
            print_traced(last)
            record = traced_record(last)
        else:
            last = run_workload(workload, args.seed, args.seconds, trials,
                                IMPORT_S)
            print_run(last)
            record = run_record(last)
        write_record(f"{name}.seed{args.seed}.trace{args.trace}", record)
        if not last.ok:
            status = 1
    if len(names) == 1:
        print(contract_line(last))
    return status


def selfcheck(args) -> int:
    """Two full sets of runs of the same code, interleaved; per metric
    both medians, their distance, and whether they agree within the
    metric's bound (simulated-time metrics must be identical)."""
    trials = 1 if args.quick else TRIALS
    sets = {"A": {}, "B": {}}
    for round_index in range(SELFCHECK_RUNS):
        for workload in WORKLOADS:
            order = "AB" if round_index % 2 == 0 else "BA"
            for label in order:
                run = run_workload(workload, args.seed + round_index,
                                   args.seconds, trials, IMPORT_S)
                sets[label].setdefault(workload.name, []).append(run)
                print(f"set {label} round {round_index} {workload.name}: "
                      f"{run.attempted} ops, {run.failed} failed",
                      flush=True)
    disagreements = 0
    print(f"{'workload':<16}{'metric':<18}{'A':>14}{'B':>14}{'apart':>9}"
          f"{'bound':>8}  agree")
    for workload in WORKLOADS:
        runs_a, runs_b = sets["A"][workload.name], sets["B"][workload.name]
        for metric in END_TO_END + EXTRA_END_TO_END:
            if not runs_a[0].values(metric.name):
                continue
            a = statistics.median(r.median(metric.name) for r in runs_a)
            b = statistics.median(r.median(metric.name) for r in runs_b)
            exact = workload.is_sim and metric.name in SIM_TIME
            if metric.bound is None and not exact:
                continue  # reported, not judged (live p99_us)
            if metric.name == "failed_share":
                apart, bound = abs(a - b), 0.001
                agree = a <= bound and b <= bound
            else:
                apart = abs(a - b) / min(a, b) if min(a, b) > 0 else 0.0
                bound = 0.0 if exact else metric.bound
                agree = apart <= bound
            disagreements += not agree
            print(f"{workload.name:<16}{metric.name:<18}{a:>14.6g}{b:>14.6g}"
                  f"{apart:>9.4f}{bound:>8.3f}  {'yes' if agree else 'NO'}")
    print("selfcheck:", "sets agree" if not disagreements
          else f"{disagreements} disagreements")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOAD_BY_NAME),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures "
                             f"(default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A check of every end-to-end metric")
    parser.add_argument("--quick", action="store_true",
                        help="1 trial, windows / 3 (smoke use)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        # One trial with a third of a full run's per-trial window.
        args.seconds = RUN_SECONDS / (3 * TRIALS) if args.quick else RUN_SECONDS
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return selfcheck(args) if args.selfcheck else measure(args)


if __name__ == "__main__":
    sys.exit(main())
