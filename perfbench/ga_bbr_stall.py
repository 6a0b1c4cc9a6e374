"""Workload ``ga-bbr-stall``: rediscover the paper's BBR stall with serial CCFuzz.

The paper's headline result: the genetic search, run against BBR in traffic
mode on the section-4 simulation (5 s, 12 Mbps, 60-packet queue), finds
cross traffic at least as damaging as the hand-crafted ``bbr-stall`` attack.
Each run searches a sequence of GA seeds derived from the benchmark seed,
each with a fixed budget of population 10 x 3 generations, until time is
up.  A search's cost depends on the traces it wanders into, so a run holds
several short independent searches rather than one long one: one or two
long searches per run spread the run-to-run figures past any usable bound.  About
99% of the time is the simulator and TCP stack; dispatch, the journal and
the dashboard are bypassed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from .common import (
    derive_seeds,
    first_discovery,
    history_digest,
    median,
    program_failures,
    self_peak_rss_mb,
)
from . import reference
from .layers import instrument, layer_metrics, sim_probe
from .tracer import Tracer

NAME = "ga-bbr-stall"
POPULATION = 10
GENERATIONS = 3
DURATION_S = 5.0
MAX_SEEDS = 64


class _Deadline(Exception):
    """Raised from the progress callback to stop a search at the deadline."""


def _fuzzer(ga_seed: int, generations: int = GENERATIONS):
    from repro.core import CCFuzz, FuzzConfig
    from repro.tcp.cca import cca_factory

    config = FuzzConfig(mode="traffic", population_size=POPULATION,
                        generations=generations, duration=DURATION_S, seed=ga_seed)
    return CCFuzz(cca_factory("bbr"), config)


def reference_fitness(fuzzer) -> float:
    """Fitness the fuzzer's own score function gives the builtin attack."""
    from repro.attacks import builtin_attack_traces
    from repro.exec.workers import simulate_packet_trace

    attack = builtin_attack_traces(DURATION_S)["bbr-stall"]
    result = simulate_packet_trace(fuzzer.cca_factory, fuzzer.config.sim, attack)
    return fuzzer.score_function(result, attack).total


def setup(seed: int, work_dir: str) -> None:
    """What a user pays before the first generation: imports, config, baseline."""
    reference_fitness(_fuzzer(derive_seeds(NAME, seed, 1)[0]))


def _search(ga_seed: int, deadline: float, generations: int = GENERATIONS
            ) -> Tuple[List[Tuple[float, Any]], List[float], int, int, bool]:
    """One GA search; stops after the generation that ends past ``deadline``.

    Returns the ``(seconds since start, GenerationStats)`` history, the wall
    time of each generation, simulations, cache hits and whether the search
    ran its whole budget.
    """
    fuzzer = _fuzzer(ga_seed, generations)
    history: List[Tuple[float, Any]] = []
    gen_s: List[float] = []
    started = last = time.perf_counter()

    def progress(stats) -> None:
        nonlocal last
        now = time.perf_counter()
        history.append((now - started, stats))
        gen_s.append(now - last)
        last = now
        if now >= deadline:
            raise _Deadline

    complete = True
    try:
        fuzzer.run(progress)
    except _Deadline:
        complete = len(history) >= generations
    return history, gen_s, fuzzer.total_evaluations, fuzzer.cache_hits, complete


def measure(run) -> Dict[str, Any]:
    """Untraced run: GA seeds back to back for ``run.seconds``."""
    seeds = derive_seeds(NAME, run.seed, MAX_SEEDS)
    threshold = reference_fitness(_fuzzer(seeds[0]))
    failures_before = program_failures()
    started = time.perf_counter()
    cpu_started = time.process_time()
    deadline = started + run.seconds
    gen_s: List[float] = []
    sims = scored = 0
    per_seed: List[Dict[str, Any]] = []
    for ga_seed in seeds:
        history, seed_gen_s, seed_sims, seed_hits, complete = _search(ga_seed, deadline)
        gen_s += seed_gen_s
        sims += seed_sims
        scored += seed_sims + seed_hits
        found = first_discovery(history, threshold)
        per_seed.append({
            "ga_seed": ga_seed, "generations": len(history), "complete": complete,
            "discovery": found, "digest": history_digest(s for _, s in history),
            "history": [s for _, s in history],
        })
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    failed = int(program_failures() - failures_before)

    # Output check: re-running the first seed reproduces its first
    # generations exactly (the GA consumes randomness only in this process
    # and the simulator none, so any divergence is a behaviour change).
    first = per_seed[0]
    prefix = min(2, first["generations"])
    replay, _, _, _, _ = _search(first["ga_seed"], float("inf"), generations=prefix)
    replay_ok = history_digest(s for _, s in replay) == history_digest(first["history"][:prefix])

    # Discovery is judged only on seeds whose outcome is known: those that
    # matched, or ran their whole budget without matching.
    judged = [s for s in per_seed if s["discovery"] is not None or s["complete"]]
    matched = [s for s in judged if s["discovery"] is not None]
    report: List[Tuple[str, Any, str]] = [
        ("evals_per_s", sims / wall, "1/s"),
        ("scored_per_s", scored / wall, "1/s"),
        ("cpu_ms_per_eval", 1000.0 * cpu / sims, "ms"),
        ("discovery_s", median([s["discovery"][0] for s in matched]) if matched else None, "s"),
        ("evals_to_discovery",
         median([s["discovery"][1] for s in matched]) if matched else None, "count"),
        ("discovered_frac", len(matched) / len(judged) if judged else None, "frac"),
        ("seeds_judged", len(judged), "count"),
        ("bbr_stall_fitness", threshold, "fitness"),
        ("generations", len(gen_s), "count"),
    ]
    return {
        "metrics": {
            "ops_per_s": scored / wall,
            "latency_ms_p50": 1000.0 * median(gen_s),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "report": report,
        "attempted": sims,
        "failed": failed,
        "checks": {"ga_prefix_replay_identical": replay_ok,
                   **reference.check(reference.bbr_stall, reference.sims, reference.small_ga)},
        "digests": {str(s["ga_seed"]): s["digest"] for s in per_seed},
    }


def trace(run) -> Dict[str, Any]:
    """Traced run: GA seeds untraced for half the time, then the same searches traced."""
    started = time.perf_counter()
    deadline = started + run.seconds / 2
    plain = []
    for ga_seed in derive_seeds(NAME, run.seed, MAX_SEEDS):
        plain.append((ga_seed, _search(ga_seed, deadline)[0]))
        if time.perf_counter() >= deadline:
            break

    tracer = Tracer()
    traced = []
    sims = hits = 0
    with tracer:
        instrument(tracer)
        window = time.perf_counter()
        for ga_seed, history in plain:
            replay, _, seed_sims, seed_hits, _ = _search(
                ga_seed, float("inf"), generations=len(history))
            traced.append(replay)
            sims += seed_sims
            hits += seed_hits
        wall = time.perf_counter() - window
    layer_self = tracer.self_by_layer()
    digests = {str(ga_seed): history_digest(s for _, s in history) for ga_seed, history in plain}
    same = [history_digest(s for _, s in replay) for replay in traced] == list(digests.values())
    # Each search's own clock (first generation start to last generation
    # end), so the overhead compares identical work.
    overhead = (sum(replay[-1][0] for replay in traced)
                / sum(history[-1][0] for _, history in plain) - 1.0)
    metrics = layer_metrics(
        tracer, generations=sum(len(replay) for replay in traced), scenarios=0, workers=0,
        cache_hits=hits, wall_s=wall, unattributed_s=wall - sum(layer_self.values()),
        overhead_frac=overhead, layer_self=layer_self, probe=sim_probe(run.seed),
    )
    return {
        "per_layer": metrics,
        "tracer": tracer,
        "origin": window,
        "attempted": sims,
        "failed": int(metrics["exec.failed_jobs"]),
        "checks": {"traced_history_identical": same,
                   **reference.check(reference.bbr_stall, reference.sims, reference.small_ga)},
        "digests": digests,
    }
