"""Which public functions belong to which layer, and the per-layer metrics.

``PER_LAYER`` is the single list of per-layer metrics every traced run
reports, in ``BENCHMARK.json`` order.  A workload that bypasses a layer
reports 0 for it: that layer did no work in that workload.
"""

from __future__ import annotations

import multiprocessing.process
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from .common import journal_bytes_by_type
from .tracer import Tracer

#: Layers in the order their self times are printed.
LAYERS = ("netsim", "scoring", "coverage", "exec", "core", "traces",
          "journal", "campaign", "obs", "serve")

#: Sim-core probe: (CCA, fuzzing mode) pairs timed in every traced run.
PROBE_PAIRS = (("bbr", "traffic"), ("bbr", "link"), ("reno", "traffic"), ("cubic", "link"))

#: Journal record types whose bytes are reported one by one.
JOURNAL_TYPES = ("generation_checkpoint", "behavior_delta", "corpus_insert", "scenario_complete")

PER_LAYER: List[Tuple[str, str]] = (
    [
        ("netsim.ms_per_sim", "ms"),
        ("netsim.events_per_sim", "count"),
    ]
    + [(f"netsim.events_per_s.{cca}-{mode}", "1/s") for cca, mode in PROBE_PAIRS]
    + [
        ("scoring.ms_per_eval", "ms"),
        ("coverage.signature_ms_per_eval", "ms"),
        ("coverage.archive_ms_per_gen", "ms"),
        ("exec.batch_wait_s", "s"),
        ("exec.worker_cpu_s", "s"),
        ("exec.worker_busy_frac", "frac"),
        ("exec.pool_start_s", "s"),
        ("exec.cache_hit_rate", "frac"),
        ("exec.jobs", "count"),
        ("exec.failed_jobs", "count"),
        ("core.ga_ms_per_gen", "ms"),
        ("traces.mutate_ms_per_child", "ms"),
        ("journal.bytes_per_gen", "bytes"),
    ]
    + [(f"journal.bytes.{kind}", "bytes") for kind in JOURNAL_TYPES]
    + [
        ("journal.append_ms", "ms"),
        ("journal.fsyncs_per_gen", "count"),
        ("journal.view_ms", "ms"),
        ("campaign.corpus_add_ms", "ms"),
        ("campaign.scenario_overhead_s", "s"),
        ("obs.telemetry_ms", "ms"),
        ("serve.status_ms", "ms"),
        ("serve.rankings_ms", "ms"),
        ("serve.coverage_ms", "ms"),
        ("serve.corpus_ms", "ms"),
        ("serve.replay_cached_ms", "ms"),
    ]
    + [(f"layer.{layer}_s", "s") for layer in LAYERS]
    + [
        ("unattributed_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
)

MUTATORS = ("mutate_traffic_trace", "mutate_link_trace", "mutate_loss_trace", "crossover_traces")
TELEMETRY_HOOKS = ("campaign_started", "generation", "scenario_completed",
                   "campaign_completed", "close")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every in-process layer."""
    from repro.campaign.corpus import CorpusStore
    from repro.campaign.scheduler import CampaignRunner
    from repro.core import fuzzer as core_fuzzer
    from repro.coverage.archive import BehaviorArchive
    from repro.exec import workers as exec_workers
    from repro.exec.backend import EvaluationBackend, ProcessPoolBackend
    from repro.exec.cache import TraceCache
    from repro.journal.log import CampaignJournal
    from repro.obs.telemetry import CampaignTelemetry
    from repro.scoring.base import ScoreFunction
    from repro.traces.generator import LinkTraceGenerator, TrafficTraceGenerator

    def count_events(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.add("netsim.events", result.events_executed)

    def count_jobs(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.add("exec.jobs", len(result))
        failed = sum(1 for _, summary in result
                     if isinstance(summary, dict) and isinstance(summary.get("failure"), dict))
        tracer.add("exec.failed_jobs", failed)

    tracer.wrap(exec_workers, "run_simulation", "run_simulation", "netsim", count_events)
    tracer.wrap(ScoreFunction, "__call__", "ScoreFunction.__call__", "scoring")
    tracer.wrap(exec_workers, "extract_signature", "extract_signature", "coverage")
    for method in ("observe", "delta_since", "save"):
        tracer.wrap(BehaviorArchive, method, f"BehaviorArchive.{method}", "coverage")
    tracer.wrap(EvaluationBackend, "evaluate_batch", "evaluate_batch", "exec", count_jobs)
    tracer.wrap(ProcessPoolBackend, "close", "pool_close", "exec")
    tracer.wrap(multiprocessing.process.BaseProcess, "start", "process_start", "exec")
    tracer.wrap(TraceCache, "dump", "TraceCache.dump", "exec")
    for name in MUTATORS:
        tracer.wrap(core_fuzzer, name, "mutate", "traces")
    for generator in (TrafficTraceGenerator, LinkTraceGenerator):
        tracer.wrap(generator, "generate", "generate", "traces")
    tracer.wrap(core_fuzzer.CCFuzz, "run", "CCFuzz.run", "core")
    tracer.wrap(CampaignRunner, "run", "CampaignRunner.run", "campaign")
    tracer.wrap(CorpusStore, "add", "CorpusStore.add", "campaign")
    tracer.wrap(CampaignJournal, "append", "CampaignJournal.append", "journal")
    for method in TELEMETRY_HOOKS:
        tracer.wrap(CampaignTelemetry, method, "telemetry", "obs")
    tracer.count_calls(os, "fsync", "fsync")


def sim_probe(seed: int) -> Dict[str, float]:
    """Events/sec of one 5 s paper-config simulation per probe pair.

    The traces come from the fuzzer's own generators seeded by ``seed``;
    the probe runs outside every accounted window.
    """
    from repro.exec.workers import simulate_packet_trace
    from repro.netsim.simulation import SimulationConfig
    from repro.tcp.cca import cca_factory
    from repro.traces.generator import LinkTraceGenerator, TrafficTraceGenerator

    config = SimulationConfig(duration=5.0, record_series=False)
    traces = {
        "traffic": TrafficTraceGenerator(duration=5.0, max_packets=2500, seed=seed).generate(),
        "link": LinkTraceGenerator(duration=5.0, seed=seed).generate(),
    }
    rates: Dict[str, float] = {}
    for cca, mode in PROBE_PAIRS:
        started = time.perf_counter()
        result = simulate_packet_trace(cca_factory(cca), config, traces[mode])
        rates[f"netsim.events_per_s.{cca}-{mode}"] = (
            result.events_executed / (time.perf_counter() - started)
        )
    return rates


def _per_call_ms(tracer: Tracer, *names: str) -> float:
    calls = tracer.calls(*names)
    return 1000.0 * tracer.total(*names) / calls if calls else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    generations: int,
    scenarios: int,
    workers: int,
    cache_hits: int,
    wall_s: float,
    unattributed_s: float,
    overhead_frac: float,
    layer_self: Dict[str, float],
    probe: Dict[str, float],
    worker_cpu_s: float = 0.0,
    journal_path: Optional[str] = None,
    view_ms: float = 0.0,
    serve_ms: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced window."""
    per_gen = 1.0 / generations if generations else 0.0
    sims = tracer.calls("run_simulation")
    jobs = tracer.counts.get("exec.jobs", 0)
    batch_wait = tracer.total("evaluate_batch")
    core_self = tracer.by_name().get("CCFuzz.run", {}).get("self_s", 0.0)
    campaign_self = tracer.by_name().get("CampaignRunner.run", {}).get("self_s", 0.0)
    journal_bytes: Dict[str, int] = {}
    journal_size = 0
    if journal_path is not None and os.path.exists(journal_path):
        journal_bytes = journal_bytes_by_type(journal_path)
        journal_size = os.path.getsize(journal_path)
    lookups = jobs + cache_hits
    metrics: Dict[str, float] = {
        "netsim.ms_per_sim": _per_call_ms(tracer, "run_simulation"),
        "netsim.events_per_sim": tracer.counts.get("netsim.events", 0) / sims if sims else 0.0,
        **probe,
        "scoring.ms_per_eval": _per_call_ms(tracer, "ScoreFunction.__call__"),
        "coverage.signature_ms_per_eval": _per_call_ms(tracer, "extract_signature"),
        "coverage.archive_ms_per_gen": 1000.0 * per_gen * tracer.total(
            "BehaviorArchive.observe", "BehaviorArchive.delta_since", "BehaviorArchive.save"),
        "exec.batch_wait_s": batch_wait,
        "exec.worker_cpu_s": worker_cpu_s,
        "exec.worker_busy_frac": (
            worker_cpu_s / (workers * batch_wait) if workers and batch_wait else 0.0),
        "exec.pool_start_s": tracer.total("process_start"),
        "exec.cache_hit_rate": cache_hits / lookups if lookups else 0.0,
        "exec.jobs": jobs,
        "exec.failed_jobs": tracer.counts.get("exec.failed_jobs", 0),
        "core.ga_ms_per_gen": 1000.0 * per_gen * core_self,
        "traces.mutate_ms_per_child": _per_call_ms(tracer, "mutate"),
        "journal.bytes_per_gen": journal_size * per_gen,
        **{f"journal.bytes.{kind}": journal_bytes.get(kind, 0) for kind in JOURNAL_TYPES},
        "journal.append_ms": _per_call_ms(tracer, "CampaignJournal.append"),
        "journal.fsyncs_per_gen": tracer.counts.get("fsync@CampaignJournal.append", 0) * per_gen,
        "journal.view_ms": view_ms,
        "campaign.corpus_add_ms": _per_call_ms(tracer, "CorpusStore.add"),
        "campaign.scenario_overhead_s": campaign_self / scenarios if scenarios else 0.0,
        "obs.telemetry_ms": 1000.0 * per_gen * tracer.total("telemetry"),
    }
    serve_ms = serve_ms or {}
    for endpoint in ("status", "rankings", "coverage", "corpus", "replay_cached"):
        metrics[f"serve.{endpoint}_ms"] = serve_ms.get(endpoint, 0.0)
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = layer_self.get(layer, 0.0)
    metrics["unattributed_s"] = unattributed_s
    metrics["trace.wall_s"] = wall_s
    metrics["trace.overhead_frac"] = overhead_frac
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(metrics[name]) for name, _ in PER_LAYER}
