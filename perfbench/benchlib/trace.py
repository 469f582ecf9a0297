"""In-memory spans for the traced run, and the per-layer self-time table.

A span carries its name, layer, start, end, parent span and op id. Spans
nest through a per-thread stack; a span opened on another thread (the
serve daemon's job runner) names its parent explicitly. Ops whose
boundaries are only known afterwards (campaign rows, delimited by the
``progress`` callback) are recorded retroactively, and :func:`adopt`
hands every parentless span to the op interval that encloses it.

A span's self time is its duration minus the part of its interval that
its child spans cover. Kernel time is not a span (one figure pass makes
thousands of kernel calls); each span instead records how many seconds
of backend kernel time elapsed while it was open, and the table moves the
kernel time exclusive to a span from that span's layer to ``backend``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

__all__ = [
    "OP_LAYER",
    "BACKEND_LAYER",
    "Span",
    "Tracer",
    "adopt",
    "self_times",
    "layer_table",
]

#: Layer of the op spans; their self time is the unattributed remainder.
OP_LAYER = "op"
#: Pseudo-layer receiving kernel time recorded on spans.
BACKEND_LAYER = "backend"


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory until :meth:`write_jsonl` at run end.

    ``backend_seconds`` (optional) returns the cumulative kernel seconds
    so far; each span then records the delta over its lifetime as the
    ``backend_s`` attribute.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        backend_seconds: Callable[[], float] | None = None,
    ) -> None:
        self.clock = clock
        self._backend_seconds = backend_seconds
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, str | None]:
        """``(span id, op id)`` of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        *,
        parent: int | None = None,
        op: str | None = None,
        **attrs,
    ) -> Iterator[dict]:
        """Time a block; yields the attribute dict the block may fill."""
        stack = self._stack()
        if parent is None and stack:
            parent, inherited = stack[-1]
            op = op if op is not None else inherited
        span_id = next(self._ids)
        stack.append((span_id, op))
        backend_before = self._backend_seconds() if self._backend_seconds else 0.0
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            stack.pop()
            if self._backend_seconds is not None:
                attrs["backend_s"] = self._backend_seconds() - backend_before
            self._append(
                Span(span_id, name, layer, start, end, parent, op,
                     threading.get_ident(), attrs)
            )

    def record(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        op: str | None = None,
        **attrs,
    ) -> int:
        """Add a span whose boundaries were measured by the caller."""
        span_id = next(self._ids)
        self._append(
            Span(span_id, name, layer, start, end, parent, op,
                 threading.get_ident(), attrs)
        )
        return span_id

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def adopt(spans: list[Span]) -> None:
    """Parent every parentless non-op span to the op interval around it.

    Only ops on the span's own thread qualify, so concurrent clients
    never adopt each other's work.
    """
    ops: dict[int, list[Span]] = {}
    for span in spans:
        if span.layer == OP_LAYER:
            ops.setdefault(span.thread, []).append(span)
    for candidates in ops.values():
        candidates.sort(key=lambda s: s.start)
    for span in spans:
        if span.parent is not None or span.layer == OP_LAYER:
            continue
        for op in ops.get(span.thread, ()):
            if op.start <= span.start and span.end <= op.end:
                span.parent = op.span_id
                span.op = op.op
                break
    # Descendants of an adopted span inherit its op.
    by_id = {span.span_id: span for span in spans}

    def op_of(span: Span) -> str | None:
        if span.op is None and span.parent in by_id:
            span.op = op_of(by_id[span.parent])
        return span.op

    for span in spans:
        op_of(span)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children = _children(spans)
    return {
        span.span_id: span.duration
        - _covered(
            span.start,
            span.end,
            [(c.start, c.end) for c in children.get(span.span_id, ())],
        )
        for span in spans
    }


def layer_table(spans: list[Span]) -> dict:
    """Per-layer self seconds over the spans that belong to an op.

    Returns ``{"layers": {layer: {"self_s", "spans"}}, "op_wall_s",
    "unattributed_s", "outside_ops_s"}``. The self times of all layers
    plus the unattributed remainder (the ops' own self time) add up to the
    ops' wall time.
    """
    selfs = self_times(spans)
    children = _children(spans)
    layers: dict[str, dict] = {}
    op_wall = 0.0
    outside = 0.0

    def bump(layer: str, seconds: float, count: int) -> None:
        entry = layers.setdefault(layer, {"self_s": 0.0, "spans": 0})
        entry["self_s"] += seconds
        entry["spans"] += count

    for span in spans:
        if span.layer == OP_LAYER:
            op_wall += span.duration
        elif span.op is None:
            outside += span.duration if span.parent is None else 0.0
            continue
        own = span.attrs.get("backend_s", 0.0) - sum(
            c.attrs.get("backend_s", 0.0) for c in children.get(span.span_id, ())
        )
        kernel = min(max(own, 0.0), selfs[span.span_id])
        bump(span.layer, selfs[span.span_id] - kernel, 1)
        if kernel > 0.0:
            bump(BACKEND_LAYER, kernel, 0)
    unattributed = layers.pop(OP_LAYER, {"self_s": 0.0})["self_s"]
    return {
        "layers": layers,
        "op_wall_s": op_wall,
        "unattributed_s": unattributed,
        "outside_ops_s": outside,
    }
