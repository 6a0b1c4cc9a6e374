"""Helpers shared by the workloads: statistics, digests, disk, process and host facts.

The statistics, digest and journal helpers are pure or read only the file
they are given, so ``test_perfbench.py`` exercises them on synthetic inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so one slow sample cannot make the tail.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, n)``: ``value`` is the
    ``n - min_beyond``-th smallest sample, which leaves exactly
    ``min_beyond`` samples beyond it.  ``None`` when there are too few
    samples for any such percentile (``n <= min_beyond``).
    """
    n = len(samples)
    at_or_below = n - min_beyond
    if at_or_below < 1:
        return None
    ordered = sorted(samples)
    return 100.0 * at_or_below / n, float(ordered[at_or_below - 1]), n


def first_discovery(
    history: Sequence[Tuple[float, object]], threshold: float
) -> Optional[Tuple[float, int]]:
    """When a GA run first matched ``threshold``.

    ``history`` holds ``(seconds since run start, GenerationStats)`` per
    generation, in order.  Returns ``(seconds, simulations)`` at the end of
    the first generation whose best fitness is at least ``threshold``, with
    the simulation count summed over that generation and all before it; or
    ``None`` if no generation matched.
    """
    simulations = 0
    for elapsed, stats in history:
        simulations += int(stats.evaluations)
        if stats.best_fitness >= threshold:
            return elapsed, simulations
    return None


def history_digest(history: Iterable[object]) -> str:
    """Digest of a GA history: best fitness and simulations per generation."""
    rows = [
        [stats.generation, repr(stats.best_fitness), stats.evaluations]
        for stats in history
    ]
    canonical = json.dumps(rows, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def journal_bytes_by_type(path: str) -> Dict[str, int]:
    """Bytes of a JSONL journal per record ``type``, newlines included.

    A final line without its newline, or any line that does not parse, is
    counted under ``"torn"`` rather than failing the tally.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    tally: Dict[str, int] = {}
    lines = raw.split(b"\n")
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line:
            continue
        size = len(line) + (1 if index < last else 0)
        kind = "torn"
        if index < last:
            try:
                kind = str(json.loads(line)["type"])
            except (ValueError, KeyError, TypeError):
                kind = "torn"
        tally[kind] = tally.get(kind, 0) + size
    return tally


def tree_bytes(paths: Iterable[str]) -> int:
    """Total size of the given files and directory trees; missing ones count 0."""
    total = 0
    for path in paths:
        if os.path.isfile(path):
            total += os.path.getsize(path)
        elif os.path.isdir(path):
            for folder, _, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


def derive_seeds(label: str, seed: int, count: int) -> List[int]:
    """``count`` program seeds derived from the benchmark seed and a label."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def program_failures() -> float:
    """Failed evaluations so far, from the program's own ``exec.failures`` counter."""
    from repro.obs.metrics import get_registry

    return get_registry().counter("exec.failures")


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU seconds of terminated, waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def calibration_s(rounds: int = 3) -> float:
    """Best-of-``rounds`` time of a fixed pure-Python loop.

    Recorded beside every result so gaps between hosts can be explained;
    no metric is normalised by it.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - started)
    return best


def code_identity(root: str) -> str:
    """The git commit of ``root``, or ``"unknown"`` when it is no git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # git would search the parent directories
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def host_facts(root: str) -> Dict[str, object]:
    """Facts recorded beside each result; never used to adjust a metric."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "commit": code_identity(root),
        "calibration_s": calibration_s(),
    }
