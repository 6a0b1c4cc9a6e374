"""Workload ``dashboard-refresh``: a dashboard polling ``repro-serve``.

Set-up builds a corpus with the ``campaign-matrix`` spec, its GA budget cut
to 6 generations, using the code under test (never a committed fixture),
then starts ``repro-serve`` in its own process.  One closed-loop client
replays the dashboard page's own poll (``serve/html.py``): status, then
rankings, then coverage; after each refresh it also fetches the corpus
index and clicks one replay, which is cold the first time and served from
the replay cache after that, so every cycle has the same request mix.
Rankings and coverage each refold the whole journal the campaign wrote, so
a journal change that helps writes but hurts reads shows here.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from .campaign_matrix import disk_mb, make_spec, run_campaign
from .common import median, proc_cpu_s, proc_peak_rss_mb, tail_percentile
from . import reference
from .layers import layer_metrics, sim_probe
from .tracer import Tracer

NAME = "dashboard-refresh"
#: One client, so the server folds one view at a time.  With two clients
#: the refolds of one could overlap those of the other or not, and the
#: run-to-run spread of ``latency_ms_p50`` reached 0.42 of the median.
CLIENTS = 1
#: Server starts timed before the window, and again after it (see
#: ``run.SETUP_REPEATS`` for why); ``setup_s`` is the median of all.
SERVER_STARTS = 3
REFRESH = ("status", "rankings", "coverage")
#: Views that are pure functions of a finished corpus: every poll must
#: return the same bytes.
STATIC_VIEWS = ("rankings", "coverage", "corpus")
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
REPLAY_CCAS = ("reno", "cubic", "bbr")
#: Generations of the corpus-building campaign.  The full 12 write a ~21 MB
#: journal whose refold makes one refresh take ~8 s: six refreshes per run,
#: no tail, and twice the run-to-run spread of the ~9 MB journal that 6
#: generations write (interleaved runs on one host: 0.21 vs 0.10).
CORPUS_GENERATIONS = 6


class Server:
    """``repro-serve`` in a child process, stopped and reaped by ``stop``."""

    def __init__(self, root: str, corpus_dir: str, log_path: str) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.base = f"http://127.0.0.1:{port}"
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from repro.cli import serve_main; sys.exit(serve_main())",
                 corpus_dir, "--port", str(port), "--quiet"],
                cwd=root, env=env, stdout=log, stderr=log,
            )
        try:
            self._wait_ready(started)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _wait_ready(self, started: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.proc.returncode}")
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError("repro-serve did not answer in time")
            try:
                with urllib.request.urlopen(self.base + "/api/status", timeout=5) as resp:
                    resp.read()
                    return
            except OSError:
                time.sleep(0.002)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


def parse_response(status: int, body: bytes) -> Optional[Any]:
    """The JSON payload of a good response, else ``None``.

    The server answers an internal error with a 200 ``{"error": ...}``
    body rather than a 500, so such a payload counts as a failure too.
    """
    if status != 200:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if isinstance(payload, dict) and "error" in payload:
        return None
    return payload


class Client:
    """One dashboard tab: a closed loop of refreshes and replay clicks."""

    def __init__(self, base: str, pair: Tuple[str, str], tracer: Optional[Tracer]) -> None:
        self.base = base
        self.pair = pair
        self.tracer = tracer
        self.latency_ms: Dict[str, List[float]] = {}
        self.refresh_ms: List[float] = []
        self.requests = 0
        self.failed = 0
        self.bodies: Dict[str, bytes] = {}
        self.static_ok = True
        self.replay_ok = True
        self.cold_payload: Optional[Dict[str, Any]] = None
        self.started = self.ended = 0.0
        self.ident = 0
        self.error: Optional[BaseException] = None

    def get(self, path: str, endpoint: str) -> Optional[Any]:
        started = time.perf_counter()
        status, body = 0, b""
        try:
            with urllib.request.urlopen(self.base + path, timeout=REQUEST_TIMEOUT_S) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
        except OSError:
            status = 0
        ended = time.perf_counter()
        self.requests += 1
        self.latency_ms.setdefault(endpoint, []).append(1000.0 * (ended - started))
        if self.tracer is not None:
            self.tracer.record(f"serve.{endpoint}", "serve", started, ended)
        payload = parse_response(status, body)
        if payload is None:
            self.failed += 1
            return None
        if endpoint in STATIC_VIEWS:
            if self.bodies.setdefault(endpoint, body) != body:
                self.static_ok = False
        return payload

    def replay(self) -> None:
        fingerprint, cca = self.pair
        cold = self.cold_payload is None
        payload = self.get(f"/api/replay/{fingerprint}?cca={cca}",
                           "replay_cold" if cold else "replay_cached")
        if payload is None:
            return
        flag = payload.pop("cached", None)
        if cold:
            self.cold_payload = payload
            self.replay_ok &= flag is False
        else:
            # A cached replay must be the cold replay byte for byte, apart
            # from the flag that says it was cached.
            same = (json.dumps(payload, sort_keys=True)
                    == json.dumps(self.cold_payload, sort_keys=True))
            self.replay_ok &= flag is True and same

    def loop(self, deadline: float) -> None:
        self.ident = threading.get_ident()
        self.started = time.perf_counter()
        try:
            while time.perf_counter() < deadline:
                refresh_started = time.perf_counter()
                for endpoint in REFRESH:
                    self.get(f"/api/{endpoint}", endpoint)
                self.refresh_ms.append(1000.0 * (time.perf_counter() - refresh_started))
                self.get("/api/corpus", "corpus")
                self.replay()
        except Exception as exc:  # re-raised by _drive in the caller's thread
            self.error = exc
        finally:
            self.ended = time.perf_counter()


def _replay_pairs(base: str, seed: int) -> List[Tuple[str, str]]:
    """One distinct (fingerprint, CCA) replay target per client, from the seed."""
    with urllib.request.urlopen(base + "/api/corpus", timeout=REQUEST_TIMEOUT_S) as resp:
        rows = json.loads(resp.read())["rows"]
    rng = random.Random(f"{NAME}:{seed}")
    pairs = [(row["fingerprint"], cca)
             for row in sorted(rows, key=lambda r: r["fingerprint"]) for cca in REPLAY_CCAS]
    return rng.sample(pairs, CLIENTS)


def _drive(base: str, pairs, deadline: float, tracer: Optional[Tracer],
           clients: Optional[List[Client]] = None) -> List[Client]:
    """Run the clients until ``deadline``.

    Passing the ``clients`` of an earlier drive continues their sessions
    (replay targets stay warm), with fresh refresh samples.
    """
    if clients is None:
        clients = [Client(base, pair, tracer) for pair in pairs]
    else:
        for client in clients:
            client.tracer = tracer
            client.refresh_ms = []
    threads = [threading.Thread(target=c.loop, args=(deadline,), name=f"dash-{i}")
               for i, c in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=deadline - time.perf_counter() + 2 * REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a dashboard client did not finish")
    for client in clients:
        if client.error is not None:
            raise RuntimeError(f"dashboard client failed: {client.error!r}")
    return clients


def _build_corpus(run) -> Tuple[str, Any, float]:
    corpus_dir = os.path.join(run.work_dir, "dashboard-corpus")
    started = time.perf_counter()
    result = run_campaign(make_spec(run.seed, generations=CORPUS_GENERATIONS), corpus_dir)
    return corpus_dir, result, time.perf_counter() - started


def expected_views(result) -> Dict[str, Dict[str, Any]]:
    """What rankings and coverage must show, from the campaign's own result.

    The campaign holds its outcomes and behavior archive in memory; the
    server refolds them from the files the campaign wrote.
    """
    rankings: Dict[str, Dict[str, Any]] = {}
    for outcome in result.outcomes:
        row = rankings.setdefault(outcome.scenario.cca, {
            "scenarios_completed": 0, "worst_fitness": None, "evaluations": 0})
        row["scenarios_completed"] += 1
        row["evaluations"] += outcome.evaluations
        if row["worst_fitness"] is None or outcome.best_fitness > row["worst_fitness"]:
            row["worst_fitness"] = outcome.best_fitness
    coverage = {key: result.coverage[key] for key in ("cells", "by_cca", "by_stall")}
    return {"rankings": rankings, "coverage": coverage}


def views_match(bodies: Dict[str, bytes], expected: Dict[str, Dict[str, Any]]) -> bool:
    """Whether served rankings and coverage bodies show the expected content."""
    if "rankings" not in bodies or "coverage" not in bodies:
        return False
    served = {row.get("cca"): row for row in json.loads(bodies["rankings"]).get("rows", [])}
    for cca, want in expected["rankings"].items():
        row = served.get(cca, {})
        if any(row.get(key) != value for key, value in want.items()):
            return False
    coverage = json.loads(bodies["coverage"])
    return all(coverage.get(key) == value for key, value in expected["coverage"].items())


def _merged(clients: List[Client], endpoint: str) -> List[float]:
    return [ms for c in clients for ms in c.latency_ms.get(endpoint, [])]


def _warm_up(base: str, pairs) -> Client:
    """One refresh alone before a window; it finishes the server's lazy set-up."""
    warm = Client(base, pairs[0], None)
    for endpoint in REFRESH:
        warm.get(f"/api/{endpoint}", endpoint)
    return warm


def _checks(clients: List[Client], warm: Client,
            expected: Dict[str, Dict[str, Any]]) -> Dict[str, bool]:
    polled = clients + [warm]
    return {
        "all_responses_ok": all(c.failed == 0 for c in polled),
        "views_match_campaign": all(views_match(c.bodies, expected) for c in polled),
        "static_views_identical": all(c.static_ok for c in clients),
        "cached_replay_matches_cold": all(c.replay_ok for c in clients),
        "replays_cached": all(c.latency_ms.get("replay_cached") for c in clients),
        **reference.check(reference.sims),
    }


def measure(run) -> Dict[str, Any]:
    corpus_dir, result, build_s = _build_corpus(run)
    log_path = os.path.join(run.work_dir, "serve.log")
    starts: List[float] = []
    server = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
            server = Server(run.root, corpus_dir, log_path)
            starts.append(server.start_s)
        pairs = _replay_pairs(server.base, run.seed)
        # One refresh before the window: it finishes lazy set-up, and the
        # peak RSS it leaves is the cost of one fold of each view.
        warm = _warm_up(server.base, pairs)
        solo_rss = proc_peak_rss_mb(server.proc.pid)
        cpu_before = proc_cpu_s(server.proc.pid)
        window = time.perf_counter()
        clients = _drive(server.base, pairs, window + run.seconds, None)
        server_cpu = proc_cpu_s(server.proc.pid) - cpu_before
        peak_rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    for _ in range(SERVER_STARTS):
        server = Server(run.root, corpus_dir, log_path)
        server.stop()
        starts.append(server.start_s)
    requests = sum(c.requests for c in clients)
    # Each client's rate over its own session, which ends with a complete
    # cycle, so the deadline cuts no request in half.
    rate = sum(c.requests / (c.ended - c.started) for c in clients)
    refresh = [ms for c in clients for ms in c.refresh_ms]
    tail = tail_percentile(refresh)
    cold = _merged(clients, "replay_cold")
    cached = _merged(clients, "replay_cached")
    report = [
        ("refresh_ms_p50", median(refresh), "ms"),
        ("refresh_ms_tail",
         f"p{tail[0]:.0f}={tail[1]:.1f} (n={tail[2]})" if tail
         else f"n/a (n={len(refresh)}, needs > 10)", "ms"),
        ("requests_per_s", rate, "1/s"),
        ("server_cpu_ms_per_request", 1000.0 * server_cpu / requests, "ms"),
        ("replay_cold_ms", median(cold) if cold else None, "ms"),
        ("replay_cached_ms", median(cached) if cached else None, "ms"),
        ("corpus_build_s", build_s, "s"),
        ("disk_mb", disk_mb(corpus_dir), "MB"),
        ("peak_rss_window_mb", peak_rss, "MB"),
    ]
    return {
        "setup_s": median(starts),
        "metrics": {
            "ops_per_s": rate,
            "latency_ms_p50": median(refresh),
            "peak_rss_mb": solo_rss,
        },
        "report": report,
        "attempted": requests + warm.requests,
        "failed": sum(c.failed for c in clients) + warm.failed,
        "checks": _checks(clients, warm, expected_views(result)),
        "digests": {"corpus": result.deterministic_digest()},
    }


def trace(run) -> Dict[str, Any]:
    """Traced run: the first half untraced, the second half traced."""
    from repro.journal.log import read_corpus_journal_view

    corpus_dir, result, _ = _build_corpus(run)
    server = Server(run.root, corpus_dir, os.path.join(run.work_dir, "serve.log"))
    tracer = Tracer()
    try:
        pairs = _replay_pairs(server.base, run.seed)
        # Both halves must serve the same request mix: the lazy set-up and
        # the cold replays happen before either of them.
        warm = _warm_up(server.base, pairs)
        clients = [Client(server.base, pair, None) for pair in pairs]
        for client in clients:
            client.replay()
        started = time.perf_counter()
        clients = _drive(server.base, pairs, started + run.seconds / 2, None, clients)
        plain_p50 = median([ms for c in clients for ms in c.refresh_ms])
        window = time.perf_counter()
        clients = _drive(server.base, pairs, window + run.seconds / 2, tracer, clients)
    finally:
        server.stop()
    traced_p50 = median([ms for c in clients for ms in c.refresh_ms])
    views = []
    for _ in range(2):
        view_started = time.perf_counter()
        read_corpus_journal_view(corpus_dir)
        views.append(1000.0 * (time.perf_counter() - view_started))
    # Each client thread is its own timeline: its request spans plus its
    # unattributed time make up its session, so the per-client means do too.
    sessions = [c.ended - c.started for c in clients]
    serve_s = [tracer.self_by_layer(thread=c.ident).get("serve", 0.0) for c in clients]
    table = tracer.by_name()
    serve_ms = {
        endpoint: 1000.0 * row["total_s"] / row["calls"]
        for endpoint in ("status", "rankings", "coverage", "corpus", "replay_cached")
        for row in [table.get(f"serve.{endpoint}")] if row
    }
    metrics = layer_metrics(
        tracer, generations=0, scenarios=0, workers=0, cache_hits=0,
        wall_s=sum(sessions) / len(clients),
        unattributed_s=(sum(sessions) - sum(serve_s)) / len(clients),
        overhead_frac=traced_p50 / plain_p50 - 1.0,
        layer_self={"serve": sum(serve_s) / len(clients)},
        probe=sim_probe(run.seed), view_ms=median(views), serve_ms=serve_ms,
    )
    return {
        "per_layer": metrics,
        "tracer": tracer,
        "origin": window,
        "attempted": sum(c.requests for c in clients) + warm.requests,
        "failed": sum(c.failed for c in clients) + warm.failed,
        "checks": _checks(clients, warm, expected_views(result)),
        "digests": {"corpus": result.deterministic_digest()},
    }
