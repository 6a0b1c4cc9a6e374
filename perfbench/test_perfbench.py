"""Unit tests for the benchmark's own helpers (not for the program)."""

from __future__ import annotations

import json
import os
import types

import pytest

from perfbench import reference
from perfbench.common import first_discovery, history_digest, journal_bytes_by_type, tail_percentile
from perfbench.dashboard_refresh import expected_views, parse_response, views_match
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS
from perfbench.tracer import Tracer
from repro.core.results import GenerationStats
from repro.journal.log import CampaignJournal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# Tail percentile: the highest percentile with >= 10 samples beyond it
# --------------------------------------------------------------------------- #


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([]) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    percentile, value, n = tail_percentile(samples)
    assert (percentile, value, n) == (90.0, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    samples = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    percentile, value, n = tail_percentile(samples)
    assert value == 1.0 and n == 11
    assert percentile == pytest.approx(100.0 / 11)


# --------------------------------------------------------------------------- #
# Discovery detection from a GA history
# --------------------------------------------------------------------------- #


def _history(best, evaluations):
    return [
        (1.5 * (g + 1), GenerationStats(generation=g, best_fitness=b, mean_fitness=b,
                                        top_k_mean_fitness=b, evaluations=e))
        for g, (b, e) in enumerate(zip(best, evaluations))
    ]


def test_discovery_is_the_first_generation_at_or_above_the_threshold():
    history = _history([-5.1, -3.4, -2.822, -2.5], [10, 9, 9, 9])
    assert first_discovery(history, -2.822) == (4.5, 28)


def test_discovery_of_a_seed_that_never_matches_is_none():
    history = _history([-5.4, -4.8, -4.3, -4.3], [10, 9, 9, 8])
    assert first_discovery(history, -2.822) is None
    assert first_discovery([], -2.822) is None


def test_history_digest_covers_fitness_and_evaluations():
    base = history_digest(s for _, s in _history([-3.0, -2.0], [10, 9]))
    assert base == history_digest(s for _, s in _history([-3.0, -2.0], [10, 9]))
    assert base != history_digest(s for _, s in _history([-3.0, -2.0], [10, 8]))
    assert base != history_digest(s for _, s in _history([-3.0, -2.0000001], [10, 9]))


# --------------------------------------------------------------------------- #
# Journal bytes per record type
# --------------------------------------------------------------------------- #


def test_journal_tally_counts_a_torn_final_line_separately(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CampaignJournal(path, fsync=False) as journal:
        journal.append("scenario_lease", {"scenario_id": "a"})
        journal.append("generation_checkpoint", {"scenario_id": "a", "generation": 0})
        journal.append("generation_checkpoint", {"scenario_id": "a", "generation": 1})
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]
    torn = b'{"crc": "00000000", "data": {"scenario_id": "a", "gen'
    with open(path, "ab") as handle:
        handle.write(torn)

    tally = journal_bytes_by_type(path)
    assert tally == {
        "scenario_lease": len(lines[0]) + 1,
        "generation_checkpoint": len(lines[1]) + len(lines[2]) + 2,
        "torn": len(torn),
    }
    assert sum(tally.values()) == os.path.getsize(path)


def test_journal_tally_counts_an_unparsable_line_as_torn(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(b'{"type": "behavior_delta"}\nnot json\n')
    assert journal_bytes_by_type(str(path)) == {"behavior_delta": 27, "torn": 9}


# --------------------------------------------------------------------------- #
# Dashboard responses and served views
# --------------------------------------------------------------------------- #


def test_a_200_error_body_is_a_failed_response():
    assert parse_response(200, b'{"rows": []}') == {"rows": []}
    assert parse_response(200, b'{"error": "KeyError: rows"}') is None
    assert parse_response(200, b'{"rows": [') is None
    assert parse_response(404, b'{"rows": []}') is None
    assert parse_response(0, b"") is None


def _campaign_result():
    def outcome(cca, fitness, evaluations):
        return types.SimpleNamespace(scenario=types.SimpleNamespace(cca=cca),
                                     best_fitness=fitness, evaluations=evaluations)

    return types.SimpleNamespace(
        outcomes=[outcome("reno", -3.5, 40), outcome("reno", -2.5, 30), outcome("bbr", -4.0, 50)],
        coverage={"cells": 3, "by_cca": {"bbr": 1, "reno": 2}, "by_stall": {"none": 3},
                  "observations": 120},
    )


def _served(worst_reno=-2.5, cells=3):
    rankings = {"rows": [
        {"cca": "reno", "scenarios_completed": 2, "worst_fitness": worst_reno, "evaluations": 70,
         "corpus_entries": 4},
        {"cca": "bbr", "scenarios_completed": 1, "worst_fitness": -4.0, "evaluations": 50,
         "corpus_entries": 1},
    ]}
    coverage = {"cells": cells, "by_cca": {"bbr": 1, "reno": 2}, "by_stall": {"none": 3},
                "heatmap": {}}
    return {"rankings": json.dumps(rankings).encode(), "coverage": json.dumps(coverage).encode()}


def test_served_views_must_show_the_campaign_result():
    expected = expected_views(_campaign_result())
    assert expected["rankings"]["reno"] == {
        "scenarios_completed": 2, "worst_fitness": -2.5, "evaluations": 70}
    assert views_match(_served(), expected)
    assert not views_match(_served(worst_reno=-3.5), expected)
    assert not views_match(_served(cells=2), expected)
    assert not views_match({"rankings": _served()["rankings"]}, expected)


def test_reference_check_flags_a_changed_result():
    pinned = reference.EXPECTED["campaign.digest"]
    assert reference.check(lambda: {"campaign.digest": pinned}) == {
        "reference.campaign.digest": True}
    assert reference.check(lambda: {"campaign.digest": "0" * 32}) == {
        "reference.campaign.digest": False}


# --------------------------------------------------------------------------- #
# Tracer: self time and restoring the originals
# --------------------------------------------------------------------------- #


def test_tracer_splits_self_time_and_restores_originals():
    calls = []
    module = types.SimpleNamespace()
    module.inner = lambda: calls.append("inner")
    module.outer = lambda: (calls.append("outer"), module.inner())
    original_inner, original_outer = module.inner, module.outer

    with Tracer() as tracer:
        tracer.wrap(module, "inner", "inner", "low")
        tracer.wrap(module, "outer", "outer", "high")
        module.outer()
        module.inner()
    assert module.inner is original_inner and module.outer is original_outer
    assert calls == ["outer", "inner", "inner"]

    table = tracer.by_name()
    assert table["inner"]["calls"] == 2 and table["outer"]["calls"] == 1
    first_inner = tracer.spans[1]
    assert first_inner[4] == 0  # nested under the outer span
    outer_self = table["outer"]["total_s"] - (first_inner[3] - first_inner[2])
    assert table["outer"]["self_s"] == pytest.approx(outer_self)
    layers = tracer.self_by_layer()
    assert sum(layers.values()) == pytest.approx(
        table["outer"]["total_s"] + tracer.spans[2][3] - tracer.spans[2][2])


# --------------------------------------------------------------------------- #
# BENCHMARK.json matches what the benchmark reports
# --------------------------------------------------------------------------- #


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
