"""Memoization of trace evaluations.

The simulator is deterministic, so ``(trace, CCA, simulation config)``
uniquely determines the outcome.  :class:`TraceCache` exploits that to avoid
re-simulating traces the search has already seen: elites cloned into the next
generation, migrants copied between islands, and duplicate offspring (the
mutation operators regenerate *one side* of a split, so identical children
recur surprisingly often late in a converged run).

Keys combine the cached-value schema version (:data:`OUTCOME_SCHEMA`) with
four stable fingerprints — :meth:`PacketTrace.fingerprint`, the
variant-aware CCA identity (:func:`cca_identity`),
:meth:`SimulationConfig.fingerprint` and :meth:`ScoreFunction.fingerprint` —
so one cache can be shared across fuzzing runs against different CCAs,
configs or scoring objectives without collisions, and an outcome produced
under an older value layout is never misread.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..netsim.simulation import SimulationConfig
from ..obs.metrics import get_registry
from ..scoring.base import Score, stable_state
from ..traces.trace import PacketTrace

#: Version of the cached *value* layout.  v2 outcomes carry ``episodes`` and
#: ``behavior_signature`` in the summary; folding the version into every key
#: guarantees a cache populated by an older layout (e.g. one persisted or
#: shared across processes in the future) can never serve a value the
#: coverage subsystem would misread.
OUTCOME_SCHEMA = "o2"

#: Cache key: (outcome schema, trace fp, cca identity, sim fp, score fp).
CacheKey = Tuple[str, str, str, str, str]


def make_cache_key(
    trace_fingerprint: str, cca_key: str, sim_fingerprint: str, score_fingerprint: str
) -> CacheKey:
    """Assemble a cache key from precomputed fingerprints.

    The single place that knows the key layout: every producer (the fuzzer,
    triage's :class:`~repro.triage.evaluation.BatchEvaluator`,
    :meth:`TraceCache.make_key`) routes through here, so a future layout or
    schema change cannot leave one call site mixing layouts in a shared
    cache.
    """
    return (OUTCOME_SCHEMA, trace_fingerprint, cca_key, sim_fingerprint, score_fingerprint)


def cca_identity(cca: Any) -> str:
    """Stable identity of a freshly-constructed CCA instance.

    ``cca.name`` alone is not enough: variant factories like
    ``partial(Bbr, probe_rtt_on_rto=True)`` share the class-level name while
    behaving differently, so keying on the name alone would serve one
    variant's scores to the other.  Hashing the initial attribute state
    (which the constructor arguments determine) distinguishes every variant.
    """
    canonical = stable_state(cca, depth=1)
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
    return f"{cca.name}:{digest}"

#: Cached value: the score plus the result summary dict.
CachedOutcome = Tuple[Score, Dict[str, Any]]


class TraceCache:
    """LRU memo of ``(trace, cca, sim config) -> (Score, summary)``.

    ``hits``/``misses`` count :meth:`get` outcomes exactly; callers that
    satisfy a lookup from work already in flight (an in-batch duplicate)
    should call :meth:`record_coalesced_hit` so the hit rate reflects every
    avoided simulation.

    ``thread_safe=True`` serialises every operation behind an ``RLock`` so
    one cache can be shared across threads (the dashboard's replay service
    serves from several HTTP threads); the default lock-free mode keeps
    single-run lookups overhead-free.
    """

    def __init__(self, max_entries: Optional[int] = None, thread_safe: bool = False) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self.thread_safe = thread_safe
        self._lock = threading.RLock() if thread_safe else contextlib.nullcontext()
        self._entries: "OrderedDict[CacheKey, CachedOutcome]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #

    @staticmethod
    def make_key(
        trace: PacketTrace,
        cca_key: str,
        sim_config: SimulationConfig,
        score_key: str = "",
    ) -> CacheKey:
        """Build a key; ``cca_key`` should come from :func:`cca_identity` and
        ``score_key`` from :meth:`ScoreFunction.fingerprint`."""
        return make_cache_key(
            trace.fingerprint(), cca_key, sim_config.fingerprint(), score_key
        )

    # ------------------------------------------------------------------ #
    # Lookup / insertion
    # ------------------------------------------------------------------ #

    def get(self, key: CacheKey) -> Optional[CachedOutcome]:
        """Return the cached outcome, counting the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                get_registry().inc("cache.misses")
                return None
            self.hits += 1
            get_registry().inc("cache.hits")
            if self.max_entries is not None:
                # Recency order only matters for bounded LRU eviction; the
                # (default) unbounded cache skips the per-hit reordering.
                self._entries.move_to_end(key)
            score, summary = entry
            return score, dict(summary)

    def put(self, key: CacheKey, score: Score, summary: Dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = (score, dict(summary))
            if self.max_entries is not None:
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    get_registry().inc("cache.evictions")

    def record_coalesced_hit(self) -> None:
        """Count a lookup satisfied by an identical evaluation already in flight."""
        with self._lock:
            self.hits += 1
            get_registry().inc("cache.hits")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a simulation (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "lookups": self.lookups,
                "hit_rate": round(self.hit_rate, 4),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # Checkpoint serialisation
    # ------------------------------------------------------------------ #

    def dump(self) -> Dict[str, Any]:
        """JSON-safe snapshot of entries (in LRU order) and counters.

        Journal checkpoints carry this so a resumed run re-creates not only
        the memoized outcomes but the exact ``hits``/``misses`` accounting —
        elite clones served from a warm cache must count identically to the
        uninterrupted run.
        """
        with self._lock:
            return {
                "schema": OUTCOME_SCHEMA,
                "counters": {
                    "hits": self.hits,
                    "misses": self.misses,
                    "evictions": self.evictions,
                },
                "entries": [
                    [list(key), score.to_dict(), summary]
                    for key, (score, summary) in self._entries.items()
                ],
            }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Replace contents and counters with a :meth:`dump` snapshot."""
        if payload.get("schema") != OUTCOME_SCHEMA:
            raise ValueError(
                f"cache dump schema {payload.get('schema')!r} does not match {OUTCOME_SCHEMA!r}"
            )
        with self._lock:
            self._entries.clear()
            for key, score, summary in payload["entries"]:
                self._entries[tuple(key)] = (Score.from_dict(score), dict(summary))
            counters = payload.get("counters", {})
            self.hits = int(counters.get("hits", 0))
            self.misses = int(counters.get("misses", 0))
            self.evictions = int(counters.get("evictions", 0))
