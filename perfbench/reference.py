"""Pinned reference results that do not depend on the benchmark seed.

The other output checks compare a run with itself (a replayed GA prefix, a
repeated campaign), so a deterministic change to the simulator, the TCP
stack, scoring or the GA would pass them.  These fixed inputs are run once
per workload, outside the measured window, and their results must equal
the values committed here.  A change that is meant to alter results must
update ``EXPECTED`` in the same commit, which makes it visible in review.
The values were produced by CPython 3 on Linux x86-64.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from typing import Callable, Dict

#: Program seed of every reference input (fixed, unlike the workload seed).
REFERENCE_SEED = 20220822

EXPECTED: Dict[str, str] = {
    # The hand-crafted bbr-stall attack on the paper's section-4 sim.
    "bbr_stall.fitness": "-2.822",
    "bbr_stall.sim": ("events=11760 delivered=2168 cross=1400/1010 "
                      "drops=cca=195,cross=390 goodput=5.2032"),
    # Each CCA on one generated trace per mode, 2 s default-config sims.
    "sim.reno-traffic": ("events=5722 delivered=1547 cross=722/305 "
                         "drops=cca=179,cross=417 goodput=9.282"),
    "sim.reno-link": ("events=4078 delivered=1295 cross=0/0 "
                      "drops=cca=68 goodput=7.77"),
    "sim.cubic-traffic": ("events=5075 delivered=1342 cross=722/238 "
                          "drops=cca=130,cross=484 goodput=8.052"),
    "sim.cubic-link": ("events=4217 delivered=1464 cross=0/0 "
                       "drops=cca=1 goodput=8.784"),
    "sim.bbr-traffic": ("events=5723 delivered=1121 cross=722/314 "
                        "drops=cca=145,cross=408 goodput=6.726"),
    "sim.bbr-link": ("events=3427 delivered=472 cross=0/0 "
                     "drops=cca=131 goodput=2.832"),
    # Two generations of serial CCFuzz, population 4, 1 s sims.
    "ga.bbr-traffic": "4d617f9587bce377",
    "ga.cubic-link": "76b6f1b74703ee1b",
    # The campaign-matrix spec cut to population 4 x 2 generations.
    "campaign.digest": "56beff39cc286f985077a0089cbd8c5d",
}


def _sim_facts(result) -> str:
    """What one simulation measured, as a compact exact string."""
    drops = ",".join(f"{k}={v}" for k, v in sorted(result.queue_drops.items()))
    return (f"events={result.events_executed} delivered={result.delivered_segments()} "
            f"cross={result.cross_sent}/{result.cross_delivered} drops={drops} "
            f"goodput={result.throughput_mbps()!r}")


def bbr_stall() -> Dict[str, str]:
    from . import ga_bbr_stall
    from repro.attacks import builtin_attack_traces
    from repro.exec.workers import simulate_packet_trace

    fuzzer = ga_bbr_stall._fuzzer(REFERENCE_SEED)
    attack = builtin_attack_traces(ga_bbr_stall.DURATION_S)["bbr-stall"]
    result = simulate_packet_trace(fuzzer.cca_factory, fuzzer.config.sim, attack)
    return {
        "bbr_stall.fitness": repr(fuzzer.score_function(result, attack).total),
        "bbr_stall.sim": _sim_facts(result),
    }


def sims() -> Dict[str, str]:
    """Each CCA on one generated trace per fuzzing mode, 2 s sims."""
    from repro.exec.workers import simulate_packet_trace
    from repro.netsim.simulation import SimulationConfig
    from repro.tcp.cca import cca_factory
    from repro.traces.generator import LinkTraceGenerator, TrafficTraceGenerator

    config = SimulationConfig(duration=2.0, record_series=False)
    traces = {
        "traffic": TrafficTraceGenerator(duration=2.0, max_packets=1000,
                                         seed=REFERENCE_SEED).generate(),
        "link": LinkTraceGenerator(duration=2.0, seed=REFERENCE_SEED).generate(),
    }
    return {
        f"sim.{cca}-{mode}": _sim_facts(simulate_packet_trace(cca_factory(cca), config, trace))
        for cca in ("reno", "cubic", "bbr") for mode, trace in traces.items()
    }


def small_ga() -> Dict[str, str]:
    from .common import history_digest
    from repro.core import CCFuzz, FuzzConfig
    from repro.tcp.cca import cca_factory

    facts = {}
    for cca, mode in (("bbr", "traffic"), ("cubic", "link")):
        config = FuzzConfig(mode=mode, population_size=4, generations=2, duration=1.0,
                            seed=REFERENCE_SEED)
        result = CCFuzz(cca_factory(cca), config).run()
        facts[f"ga.{cca}-{mode}"] = history_digest(result.generations)
    return facts


def small_campaign(work_dir: str) -> Dict[str, str]:
    from .campaign_matrix import make_spec, run_campaign

    spec = make_spec(0, generations=2)
    spec.seed = REFERENCE_SEED
    spec.budget = dataclasses.replace(spec.budget, population_size=4)
    corpus_dir = os.path.join(work_dir, "reference-campaign")
    try:
        digest = run_campaign(spec, corpus_dir).deterministic_digest()
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    return {"campaign.digest": digest}


def check(*parts: Callable[[], Dict[str, str]]) -> Dict[str, bool]:
    """Run the given reference parts; one check per pinned value."""
    checks = {}
    for part in parts:
        for name, value in part().items():
            checks[f"reference.{name}"] = value == EXPECTED[name]
            if value != EXPECTED[name]:
                print(f"perfbench: reference {name} is {value!r}, "
                      f"expected {EXPECTED[name]!r}", file=sys.stderr)
    return checks
