"""Run one CC-Fuzz benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ga-bbr-stall --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files live in ``.perfbench/work`` (removed at exit); the full result, and
the spans of a traced run, are kept in ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("ga-bbr-stall", "campaign-matrix", "dashboard-refresh")

#: End-to-end metrics every untraced run reports (``BENCHMARK.json`` order).
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Fresh-interpreter set-ups timed before and again after the measured
#: work; ``setup_s`` is the median of all of them.  The host's speed shifts
#: over tens of seconds, and set-ups timed back to back all land in one
#: such phase, so a run's median followed the phase it hit (dashboard
#: server starts: 0.155 s in one run, 0.22 s in the next).
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _setup_times(workload: str, seed: int, work_dir: str) -> List[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
             workload, str(seed), work_dir],
            cwd=ROOT,
        )
        # A blocking wait, not a polling one (``wait(timeout=...)`` sleeps
        # in steps of up to 50 ms); the timer only kills a hung set-up.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - started)
        if returncode != 0:
            raise RuntimeError(f"{workload} set-up exited with {returncode}")
    return times


class Run:
    """The parsed arguments plus where the run may write."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.root = ROOT
        self.work_dir = os.path.join(ROOT, ".perfbench", "work")
        self.results_dir = os.path.join(ROOT, ".perfbench", "results")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "n/a" if value is None else str(value)


def execute(run: Run) -> Dict[str, Any]:
    """Run the workload; returns the result record (also written to disk)."""
    from perfbench import campaign_matrix, dashboard_refresh, ga_bbr_stall
    from perfbench.common import host_facts, median
    from perfbench.layers import PER_LAYER

    module = {m.NAME: m for m in (ga_bbr_stall, campaign_matrix, dashboard_refresh)}[run.workload]
    host = host_facts(ROOT)
    if run.trace:
        outcome = module.trace(run)
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in outcome["per_layer"].items()}
    else:
        # The dashboard times its own set-up (server starts); the other
        # workloads are set up by ``setup_probe.py``.
        probed = hasattr(module, "setup")
        setup = _setup_times(run.workload, run.seed, run.work_dir) if probed else []
        outcome = module.measure(run)
        if probed:
            setup += _setup_times(run.workload, run.seed, run.work_dir)
        values = dict(outcome["metrics"])
        values["setup_s"] = median(setup) if probed else outcome["setup_s"]
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "host": host,
        "correct": all(outcome["checks"].values()),
        "attempted": int(outcome["attempted"]), "failed": int(outcome["failed"]),
        "metrics": metrics, "report": outcome.get("report", []),
        "checks": outcome["checks"], "digests": outcome["digests"],
    }
    os.makedirs(run.results_dir, exist_ok=True)
    stem = os.path.join(run.results_dir, f"{run.workload}-seed{run.seed}-trace{run.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)
    if run.trace:
        outcome["tracer"].dump(stem + "-spans.jsonl", outcome["origin"])
    return record


def render(record: Dict[str, Any]) -> List[str]:
    """The human-readable lines printed before the JSON result."""
    host = record["host"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}",
        "host: " + " ".join(f"{key}={_fmt(value)}" for key, value in host.items()),
    ]
    attempted, failed = record["attempted"], record["failed"]
    rows = [(name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
    rows += [tuple(row) for row in record["report"]]
    rows.append(("fail_frac", failed / attempted if attempted else None, f"of {attempted}"))
    width = max(len(row[0]) for row in rows)
    lines += [f"  {name:<{width}}  {_fmt(value):>14}  {unit}" for name, value, unit in rows]
    if record["trace"]:
        metrics = {name: m["value"] for name, m in record["metrics"].items()}
        layers = sum(value for name, value in metrics.items() if name.startswith("layer."))
        lines.append(
            f"accounting: layers {layers:.4f} s + unattributed "
            f"{metrics['unattributed_s']:.4f} s = wall {metrics['trace.wall_s']:.4f} s; "
            f"tracing overhead {100 * metrics['trace.overhead_frac']:+.2f}%"
        )
    lines.append("checks: " + " ".join(
        f"{name}={'ok' if ok else 'FAIL'}" for name, ok in record["checks"].items()))
    if record["digests"]:
        lines.append("digests: " + " ".join(
            f"{name}={digest}" for name, digest in record["digests"].items()))
    return lines


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the program sees only inputs derived from it")
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program at src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    run = Run(args)
    shutil.rmtree(run.work_dir, ignore_errors=True)
    os.makedirs(run.work_dir)
    try:
        record = execute(run)
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
    for line in render(record):
        print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
