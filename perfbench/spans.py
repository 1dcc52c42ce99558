"""In-memory spans and counters for the benchmark's traced runs.

A span records one call into a layer: its name, the trace it belongs to (one
interactive round, one set-up, or one replayed search), the span that was
open when it started, and its start and end on ``time.perf_counter``. Spans
stay in memory and are written once, when the run ends.

Layer calls are traced from the benchmark's side only: either the benchmark
opens a span around a call it makes, or it swaps a module attribute of the
program for a wrapper for the length of the traced window (``patch``) and
puts the original back afterwards (``unpatch``). With ``enabled=False`` every
method is a no-op, so the untraced runs time the program alone.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.counts: Counter[str] = Counter()
        self.trace = ""
        self._open: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, **attrs: Any):
        return self._span(name, attrs) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict[str, Any]):
        rec = {
            "id": len(self.spans),
            "name": name,
            "trace": self.trace,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, **attrs: Any) -> Callable:
        """``fn`` with every call recorded as a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name, attrs):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`unpatch`."""
        if not self.enabled:
            return
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------
    def durations_ms(self, name: str, **where: Any) -> list[float]:
        """Durations of the ``name`` spans whose attributes match ``where``."""
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in where.items())
        ]

    def per_trace_s(self, name: str, prefix: str) -> list[float]:
        """Seconds spent in ``name`` spans, summed per trace whose id starts
        with ``prefix`` (one value per set-up, for example)."""
        sums: dict[str, float] = {}
        for s in self.spans:
            if s["trace"].startswith(prefix):
                sums.setdefault(s["trace"], 0.0)
                if s["name"] == name:
                    sums[s["trace"]] += s["end"] - s["start"]
        return list(sums.values())

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples,
    which the per-layer output uses for a layer the workload never calls."""
    return float(np.percentile(values, q)) if values else 0.0


def median(values: list[float]) -> float:
    return pct(values, 50)
