"""Workload ``campaign-matrix``: a journaled campaign on the process backend.

{reno, cubic, bbr} x {traffic, link} with 1 s simulations, population 6 x
12 generations, one pool worker, and the CLI's defaults: journal,
telemetry and corpus on disk.  The simulations are short, so the
coordinator's work shows: dispatch, GA bookkeeping, per-generation
journal checkpoints (which grow quadratically with generations) and corpus
I/O.  Every campaign of a run uses the same spec, so each repeat must
produce the same deterministic digest.

One worker, not two: the coordinator and a single worker take turns, so
the campaign keeps one core busy and still pays for pool start, dispatch
and result transfer.  Two workers plus the coordinator are more busy
processes than a 2-vCPU host has cores, and the figures then follow how
the host schedules them (run-to-run spread 0.31-0.41 of the median,
against 0.07-0.08 on a quiet host).
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, List, Tuple

from .common import (
    children_cpu_s,
    derive_seeds,
    median,
    program_failures,
    self_peak_rss_mb,
    tree_bytes,
)
from . import reference
from .layers import instrument, layer_metrics, sim_probe
from .tracer import Tracer

NAME = "campaign-matrix"
WORKERS = 1
GENERATIONS = 12
MIN_CAMPAIGNS = 2

#: What ``disk_mb`` counts; telemetry (``metrics.jsonl`` and friends) is
#: excluded on purpose, so the sink's flush timing cannot move the figure.
DISK_ARTIFACTS = ("journal.jsonl", "entries", "index.json", "behavior_map.json")


def make_spec(seed: int, generations: int = GENERATIONS):
    from repro.campaign import CampaignSpec
    from repro.campaign.spec import GaBudget

    return CampaignSpec(
        name=NAME,
        ccas=["reno", "cubic", "bbr"],
        modes=["traffic", "link"],
        budget=GaBudget(population_size=6, generations=generations, duration=1.0),
        seed=derive_seeds(NAME, seed, 1)[0],
        backend="process",
        workers=WORKERS,
    )


def run_campaign(spec, corpus_dir: str):
    """One campaign with the CLI defaults into a fresh corpus directory."""
    from repro.campaign import CampaignRunner, CorpusStore

    shutil.rmtree(corpus_dir, ignore_errors=True)
    return CampaignRunner(spec, CorpusStore(corpus_dir)).run()


def setup(seed: int, work_dir: str) -> None:
    """Imports, spec and an opened (empty) journaled corpus and runner."""
    from repro.campaign import CampaignRunner, CorpusStore

    corpus_dir = os.path.join(work_dir, "setup-corpus")
    shutil.rmtree(corpus_dir, ignore_errors=True)
    CampaignRunner(make_spec(seed), CorpusStore(corpus_dir))


def disk_mb(corpus_dir: str) -> float:
    return tree_bytes(os.path.join(corpus_dir, name) for name in DISK_ARTIFACTS) / 1e6


def _timed_campaign(spec, corpus_dir: str) -> Tuple[Any, float, float]:
    """Run one campaign; returns the result, wall seconds and CPU seconds.

    CPU counts this process and the pool workers, which are reaped when the
    campaign closes its backend.
    """
    cpu_started = time.process_time() + children_cpu_s()
    started = time.perf_counter()
    result = run_campaign(spec, corpus_dir)
    wall = time.perf_counter() - started
    return result, wall, time.process_time() + children_cpu_s() - cpu_started


def measure(run) -> Dict[str, Any]:
    """Untraced run: repeat the campaign until ``run.seconds`` would pass."""
    spec = make_spec(run.seed)
    failures_before = program_failures()
    walls: List[float] = []
    cpus: List[float] = []
    disks: List[float] = []
    digests: List[str] = []
    evals = hits = scenarios = 0
    while len(walls) < MIN_CAMPAIGNS or sum(walls) + walls[-1] <= run.seconds:
        corpus_dir = os.path.join(run.work_dir, f"campaign-{len(walls)}")
        result, wall, cpu = _timed_campaign(spec, corpus_dir)
        walls.append(wall)
        cpus.append(cpu)
        disks.append(disk_mb(corpus_dir))
        digests.append(result.deterministic_digest())
        evals += sum(o.evaluations for o in result.outcomes)
        hits += sum(o.cache_hits for o in result.outcomes)
        scenarios += len(result.outcomes)
        shutil.rmtree(corpus_dir, ignore_errors=True)
    failed = int(program_failures() - failures_before)
    report = [
        ("campaign_s", median(walls), "s"),
        ("evals_per_s", evals / sum(walls), "1/s"),
        ("scored_per_s", (evals + hits) / sum(walls), "1/s"),
        ("cpu_ms_per_eval", 1000.0 * sum(cpus) / evals, "ms"),
        ("disk_mb", median(disks), "MB"),
        ("campaigns", len(walls), "count"),
        ("cache_hit_rate", hits / (hits + evals), "frac"),
    ]
    return {
        "metrics": {
            "ops_per_s": (evals + hits) / sum(walls),
            "latency_ms_p50": 1000.0 * median(walls),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "report": report,
        "attempted": evals,
        "failed": failed,
        "checks": {
            "campaign_digest_repeats": len(set(digests)) == 1,
            "all_scenarios_completed": scenarios == len(walls) * len(spec.expand()),
            **reference.check(reference.sims, lambda: reference.small_campaign(run.work_dir)),
        },
        "digests": {"campaign": digests[0]},
    }


def trace(run) -> Dict[str, Any]:
    """Traced run: the campaign untraced, then the same campaign traced."""
    spec = make_spec(run.seed)
    plain, plain_wall, _ = _timed_campaign(spec, os.path.join(run.work_dir, "campaign-plain"))
    shutil.rmtree(os.path.join(run.work_dir, "campaign-plain"), ignore_errors=True)

    corpus_dir = os.path.join(run.work_dir, "campaign-traced")
    tracer = Tracer()
    with tracer:
        instrument(tracer)
        children_before = children_cpu_s()
        window = time.perf_counter()
        result = run_campaign(spec, corpus_dir)
        wall = time.perf_counter() - window
        worker_cpu = children_cpu_s() - children_before
    layer_self = tracer.self_by_layer()
    outcomes = result.outcomes
    metrics = layer_metrics(
        tracer,
        generations=sum(o.converged_generation + 1 for o in outcomes),
        scenarios=len(outcomes), workers=WORKERS,
        cache_hits=sum(o.cache_hits for o in outcomes),
        wall_s=wall, unattributed_s=wall - sum(layer_self.values()),
        overhead_frac=wall / plain_wall - 1.0, layer_self=layer_self,
        probe=sim_probe(run.seed), worker_cpu_s=worker_cpu,
        journal_path=os.path.join(corpus_dir, "journal.jsonl"),
    )
    shutil.rmtree(corpus_dir, ignore_errors=True)
    digest = result.deterministic_digest()
    return {
        "per_layer": metrics,
        "tracer": tracer,
        "origin": window,
        "attempted": sum(o.evaluations for o in outcomes),
        "failed": int(metrics["exec.failed_jobs"]),
        "checks": {
            "traced_digest_identical": digest == plain.deterministic_digest(),
            **reference.check(reference.sims, lambda: reference.small_campaign(run.work_dir)),
        },
        "digests": {"campaign": digest},
    }
