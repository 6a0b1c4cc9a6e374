"""In-memory span tracer that wraps the program's public functions.

The program itself carries no benchmark spans: a traced run swaps each
named function or method for a timing wrapper (the way
``benchmarks/test_sim_core_throughput.py`` swaps in a counting registry),
records one span per call in memory, and restores the originals when the
``with`` block ends.  Spans nest per thread, so a layer's *self* time is its
span duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called after each wrapped call returns, with its arguments and result.
Hook = Callable[[tuple, dict, Any], None]


class Tracer:
    """Records spans around wrapped callables; a context manager."""

    def __init__(self) -> None:
        #: One list per call: name, layer, start, end, parent span index
        #: (``None`` at top level) and thread id.
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._append_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def _replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, own))

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             hook: Optional[Hook] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name`` in ``layer``.

        ``hook(args, kwargs, result)`` runs after each call that returned,
        so workloads can count work (events, jobs, failures) where it is done.
        """
        tracer = self

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = tracer._stack()
                span = [name, layer, time.perf_counter(), None,
                        stack[-1] if stack else None, threading.get_ident()]
                stack.append(tracer._append(span))
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    span[3] = time.perf_counter()
                if hook is not None:
                    hook(args, kwargs, result)
                return result

            wrapper.__wrapped__ = original  # type: ignore[attr-defined]
            return wrapper

        self._replace(owner, attr, make)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` keyed by the enclosing span's name."""
        tracer = self

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                key = f"{name}@{tracer.current()}"
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # Recording spans the benchmark times itself (HTTP requests)
    # ------------------------------------------------------------------ #

    def _append(self, span: List[Any]) -> int:
        with self._append_lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        stack = self._stack()
        self._append([name, layer, start, end,
                      stack[-1] if stack else None, threading.get_ident()])

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def _child_time(self) -> List[float]:
        """Seconds each span's direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None and span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        return child_time

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over closed spans."""
        child_time = self._child_time()
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span[3] is None:
                continue
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span[3] - span[2]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
        return table

    def self_by_layer(self, thread: Optional[int] = None) -> Dict[str, float]:
        """Self seconds per layer, optionally for one thread's spans only."""
        child_time = self._child_time()
        layers: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span[3] is None or (thread is not None and span[5] != thread):
                continue
            duration = span[3] - span[2] - child_time[index]
            layers[span[1]] = layers.get(span[1], 0.0) + duration
        return layers

    def total(self, *names: str) -> float:
        table = self.by_name()
        return sum(table.get(name, {}).get("total_s", 0.0) for name in names)

    def calls(self, *names: str) -> int:
        table = self.by_name()
        return int(sum(table.get(name, {}).get("calls", 0) for name in names))

    def dump(self, path: str, origin: float) -> None:
        """Write the spans (times relative to ``origin``) as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, thread in self.spans:
                if end is None:
                    continue
                handle.write(json.dumps({
                    "name": name, "layer": layer, "parent": parent, "thread": thread,
                    "start_s": round(start - origin, 6), "end_s": round(end - origin, 6),
                }) + "\n")
