"""Span recording around calls into the program's public functions.

The benchmark never edits the program: it replaces a method or function
on its owner with a timing wrapper, and puts the original back when the
traced section ends. Spans stay in memory. Hot per-request calls keep
only per-name aggregates (count, total time, time covered by child
spans); coarse calls (``keep=True``) also keep every span with its
parent so the whole tree can be written out at the end.

Synchronous wrappers nest on one stack, so a layer's self time is its
total time minus the time its traced children covered. Coroutine
wrappers time from entry to return and stay off the stack: other tasks
may run while they wait.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Records spans of patched callables.

    With ``bucket_s`` the aggregates are also split by when each span
    ended (``clock() // bucket_s``), so another process sharing the
    clock can pick out the spans of one time interval afterwards.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, bucket_s: float = 0.0
    ) -> None:
        self.clock = clock
        self.bucket_s = bucket_s
        #: (name, bucket) -> [calls, total seconds, seconds covered by children]
        self.totals: Dict[Tuple[str, int], List[float]] = {}
        #: (span id, parent id, name, start, end) for ``keep`` spans.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[List[float]] = []
        self._kept: List[int] = []
        self._patched: List[Tuple[Any, str, Optional[Any]]] = []

    # -- recording -------------------------------------------------------

    def _record(self, name: str, elapsed: float, child: float, end: float) -> None:
        key = (name, int(end // self.bucket_s) if self.bucket_s else 0)
        entry = self.totals.get(key)
        if entry is None:
            self.totals[key] = [1, elapsed, child]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += child

    def span(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """Wrap a synchronous callable."""
        clock = self.clock
        stack = self._stack
        record = self._record

        if keep:
            kept = self._kept
            spans = self.spans

            @functools.wraps(fn)
            def traced_kept(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                span_id = len(spans)
                spans.append((span_id, kept[-1] if kept else -1, name, 0.0, 0.0))
                kept.append(span_id)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    kept.pop()
                    stack.pop()
                    elapsed = end - start
                    if stack:
                        stack[-1][0] += elapsed
                    spans[span_id] = (span_id, spans[span_id][1], name, start, end)
                    record(name, elapsed, frame[0], end)

            return traced_kept

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record(name, elapsed, frame[0], end)

        return traced

    def async_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a coroutine function (wall time from entry to return)."""
        clock = self.clock
        record = self._record

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                record(name, end - start, 0.0, end)

        return traced

    # -- patching --------------------------------------------------------

    def patch(
        self, owner: Any, attr: str, name: str, keep: bool = False,
        is_async: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper. On a class the
        wrapper shadows an inherited method only for that class."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        if is_async:
            wrapped = self.async_span(name, original)
        else:
            wrapped = self.span(name, original, keep=keep)
        self._patched.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def _sum(self, name: str, field: int, start: float, stop: float) -> float:
        """Sum one aggregate over the spans that ended in ``[start, stop)``
        (whole buckets; everything when not bucketing)."""
        total = 0.0
        for (span_name, bucket), entry in self.totals.items():
            if span_name != name:
                continue
            if self.bucket_s and not start <= bucket * self.bucket_s < stop:
                continue
            total += entry[field]
        return total

    def calls(self, name: str, start: float = 0.0, stop: float = float("inf")) -> int:
        return int(self._sum(name, 0, start, stop))

    def total(self, name: str, start: float = 0.0, stop: float = float("inf")) -> float:
        return self._sum(name, 1, start, stop)

    def self_time(self, name: str, start: float = 0.0, stop: float = float("inf")) -> float:
        return self._sum(name, 1, start, stop) - self._sum(name, 2, start, stop)

    def reset(self) -> None:
        self.totals.clear()
        self.spans.clear()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bucket_s": self.bucket_s,
            "totals": [
                [name, bucket] + entry for (name, bucket), entry in sorted(self.totals.items())
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Tracer":
        tracer = cls(bucket_s=payload["bucket_s"])
        for name, bucket, calls, total, child in payload["totals"]:
            tracer.totals[(name, bucket)] = [calls, total, child]
        tracer.spans = [
            (s["id"], s["parent"], s["name"], s["start"], s["end"]) for s in payload["spans"]
        ]
        return tracer

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload))
