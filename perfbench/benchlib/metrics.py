"""Metric definitions and how each is computed from a phase and its spans.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of metric
names and units; ``BENCHMARK.json`` lists the same names (a test checks
that the two agree).
"""

from __future__ import annotations

from benchlib.stats import chunked_tail, failed_frac, median, rule_percentile
from benchlib.trace import BACKEND_LAYER, Span, adopt, layer_table, self_times

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "end_to_end",
    "per_layer",
]

#: name -> unit, reported with ``--trace 0``.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers of the self-time table, in the order a solve passes them.
LAYERS = (
    "campaigns.spec",
    "engine.cache",
    "engine.store",
    "engine.executors",
    "engine.service",
    BACKEND_LAYER,
    "campaigns.warehouse",
    "experiments",
    "server",
)

#: name -> unit, reported with ``--trace 1``.
PER_LAYER = {
    "spec.expand_s": "s",
    "spec.rows": "count",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.busy_s": "s",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.get_hit_ratio": "ratio",
    "store.bytes_read": "B",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.bytes_written": "B",
    "store.errors": "count",
    "executor.batches": "count",
    "executor.tasks": "count",
    "executor.dispatch_s": "s",
    "solve.tasks": "count",
    "solve.task_s": "s",
    "solve.equilibria": "count",
    "solve.iterations": "count",
    "solve.glue_s": "s",
    "kernel.calls": "count",
    "kernel.s": "s",
    "kernel.residual_evals": "count",
    "kernel.brackets_expanded": "count",
    "kernel.lockstep_calls": "count",
    "kernel.lockstep_s": "s",
    "warehouse.appends": "count",
    "warehouse.append_s": "s",
    "csv.write_s": "s",
    "csv.bytes": "B",
    "jobs.run_s": "s",
    "jobs.queue_wait_s": "s",
    "http.overhead_s": "s",
    "http.requests": "count",
    "failed_frac": "frac",
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
    "trace.op_wall_s": "s",
    "trace.unattributed_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}

def end_to_end(phase, tail_percentile: float) -> tuple[dict, dict]:
    """The op metrics of an untraced phase, and the tail's support.

    ``setup_s`` and ``peak_rss_mb`` are process-level; the caller adds
    them.
    """
    latencies = [op.latency for op in phase.ops]
    tail = chunked_tail(latencies, tail_percentile)
    metrics = {
        "ops_per_s": (len(phase.ops) - phase.failed) / phase.elapsed,
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": tail.value * 1e3,
    }
    detail = {
        "tail_percentile": tail.percentile,
        "samples": tail.samples,
        "samples_beyond_tail": tail.beyond,
        "tail_chunks": tail.chunks,
        "rule_percentile": rule_percentile(tail.samples),
        "failed_frac": failed_frac(len(phase.ops), phase.failed),
    }
    return metrics, detail


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def _total(spans, attr: str | None = None) -> float:
    if attr is None:
        return sum(span.duration for span in spans)
    return sum(span.attrs.get(attr, 0) for span in spans)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    spans: list[Span],
    traced,
    *,
    kernel: dict,
    untraced_ops_per_s: float,
) -> tuple[dict, dict]:
    """``(metrics, table)`` of a traced phase.

    ``kernel`` is the ``repro.backend.profiling`` counter delta over the
    traced phase; ``untraced_ops_per_s`` comes from the untraced phase run
    just before it in the same process.
    """
    adopt(spans)
    table = layer_table(spans)
    selfs = self_times(spans)
    named = _by_name(spans)
    cache_gets = named.get("cache.get", [])
    store_gets = named.get("store.get", [])
    store_puts = named.get("store.put", [])
    tasks = named.get("service.run_task", [])
    runs = {span.attrs["scenario_id"]: span for span in named.get("jobs.run", [])}
    queue_wait = 0.0
    http_overhead = 0.0
    for op in traced.ops:
        run = runs.get(op.info.get("id"))
        if run is None or "submitted_at" not in op.info:
            continue
        wait = run.attrs["start_wall"] - op.info["submitted_at"]
        queue_wait += wait
        http_overhead += op.latency - wait - run.duration
    ops_per_s = (len(traced.ops) - traced.failed) / traced.elapsed
    metrics = {
        "spec.expand_s": _total(named.get("spec.expand", [])),
        "spec.rows": _total(named.get("spec.expand", []), "rows"),
        "cache.gets": len(cache_gets),
        "cache.hit_ratio": _ratio(_total(cache_gets, "hit"), len(cache_gets)),
        "cache.busy_s": _total(cache_gets) + _total(named.get("cache.put", [])),
        "store.get_calls": len(store_gets),
        "store.get_s": _total(store_gets),
        "store.get_hit_ratio": _ratio(_total(store_gets, "hit"), len(store_gets)),
        "store.bytes_read": _total(store_gets, "bytes"),
        "store.put_calls": len(store_puts),
        "store.put_s": _total(store_puts),
        "store.bytes_written": _total(store_puts, "bytes"),
        "store.errors": sum(1 for s in store_puts if not s.attrs["committed"]),
        "executor.batches": len(named.get("executor.map_tasks", [])),
        "executor.tasks": len(tasks),
        "executor.dispatch_s": sum(
            selfs[s.span_id] for s in named.get("executor.map_tasks", [])
        ),
        "solve.tasks": traced.solve_tasks,
        "solve.task_s": _total(tasks),
        "solve.equilibria": _total(tasks, "equilibria"),
        "solve.iterations": _total(tasks, "iterations"),
        "solve.glue_s": _total(tasks) - _total(tasks, "backend_s"),
        "kernel.calls": kernel["kernel_calls"],
        "kernel.s": kernel["kernel_seconds"],
        "kernel.residual_evals": kernel["residual_evals"],
        "kernel.brackets_expanded": kernel["brackets_expanded"],
        "kernel.lockstep_calls": kernel["lockstep_calls"],
        "kernel.lockstep_s": kernel["lockstep_seconds"],
        "warehouse.appends": len(named.get("warehouse.append", [])),
        "warehouse.append_s": _total(named.get("warehouse.append", [])),
        "csv.write_s": _total(named.get("experiments.write_csv", [])),
        "csv.bytes": _total(named.get("experiments.write_csv", []), "bytes"),
        "jobs.run_s": sum(span.duration for span in runs.values()),
        "jobs.queue_wait_s": queue_wait,
        "http.overhead_s": http_overhead,
        "http.requests": traced.server.get("requests", 0),
        "failed_frac": failed_frac(len(traced.ops), traced.failed),
        "trace.ops": len(traced.ops),
        "trace.ops_per_s": ops_per_s,
        "trace.overhead_frac": 1.0 - _ratio(ops_per_s, untraced_ops_per_s),
        "trace.op_wall_s": table["op_wall_s"],
        "trace.unattributed_s": table["unattributed_s"],
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = table["layers"].get(layer, {}).get("self_s", 0.0)
    return metrics, table
