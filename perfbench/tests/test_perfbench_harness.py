"""Tests of the benchmark harness: statistics, spans, and the wrappers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from benchlib.metrics import END_TO_END, PER_LAYER  # noqa: E402
from benchlib.stats import (  # noqa: E402
    chunked_tail,
    failed_frac,
    min_chunk,
    tail_latency,
)
from benchlib.trace import Tracer, adopt, layer_table, self_times  # noqa: E402


# ----------------------------------------------------------------------
# the op_tail_ms percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (19, 50.0, 9),  # too few samples: the median, flagged as thin
        (20, 50.0, 10),
        (39, 50.0, 19),
        (40, 75.0, 10),
        (100, 90.0, 10),
        (199, 90.0, 19),
        (999, 90.0, 99),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile, beyond):
    tail = tail_latency([float(i) for i in range(n, 0, -1)])
    assert (tail.percentile, tail.beyond, tail.samples) == (percentile, beyond, n)
    assert tail.value == float(n - beyond)  # nearest rank of 1..n


def test_a_fixed_percentile_reports_its_support():
    tail = tail_latency([float(i) for i in range(1, 51)], 99.0)
    assert (tail.percentile, tail.value, tail.samples, tail.beyond) == (99.0, 50.0, 50, 0)


def test_min_chunk_puts_ten_beyond_the_percentile():
    assert [min_chunk(p) for p in (50.0, 75.0, 90.0, 99.0)] == [20, 40, 100, 1000]


def test_chunked_tail_is_the_plain_tail_below_two_chunks():
    samples = [float(i) for i in range(1, 151)]
    assert chunked_tail(samples, 90.0) == tail_latency(samples, 90.0)


def test_chunked_tail_takes_the_median_over_chunks():
    # Five chunks of 100; the third has a burst of slow ops.
    chunk = [1.0] * 85 + [2.0] * 15
    burst = [1.0] * 40 + [50.0] * 60
    samples = chunk * 2 + burst + chunk * 2
    tail = chunked_tail(samples, 90.0)
    assert (tail.chunks, tail.value, tail.samples, tail.beyond) == (5, 2.0, 500, 10)
    assert tail_latency(samples, 90.0).value == 50.0  # one window spoils it


def test_tail_ignores_sample_order():
    rng = np.random.default_rng(3)
    samples = list(rng.exponential(size=500))
    assert tail_latency(samples) == tail_latency(sorted(samples))


# ----------------------------------------------------------------------
# failed_frac counting
# ----------------------------------------------------------------------


def test_failed_frac_counts_failed_over_attempted():
    assert failed_frac(10, 0) == 0.0
    assert failed_frac(8, 2) == 0.25
    assert failed_frac(1, 1) == 1.0
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_a_failed_gate_marks_its_ops_failed():
    from benchlib.workloads import Op, Phase

    ops = [Op(f"op{i}", 0.01) for i in range(5)]
    phase = Phase(ops, 1.0, None, 0)
    phase.fail(ops[1:3], "two rows differ")
    phase.fail(ops[2:4], "overlapping gate")
    assert phase.failed == 3
    assert phase.notes == ["two rows differ", "overlapping gate"]
    assert failed_frac(len(phase.ops), phase.failed) == 0.6


# ----------------------------------------------------------------------
# self time on synthetic nested spans
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("op", "op", op="op-1"):
        clock.advance(1.0)
        with tracer.span("outer", "engine.service"):
            clock.advance(2.0)
            with tracer.span("inner", "engine.store"):
                clock.advance(3.0)
            clock.advance(0.5)
        with tracer.span("side", "engine.cache"):
            clock.advance(0.25)
        clock.advance(0.25)
    spans = {span.name: span for span in tracer.spans}
    selfs = self_times(tracer.spans)
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["outer"].op == "op-1" and spans["inner"].op == "op-1"
    assert selfs[spans["inner"].span_id] == 3.0
    assert selfs[spans["outer"].span_id] == 2.5
    assert selfs[spans["op"].span_id] == 1.25
    table = layer_table(tracer.spans)
    assert table["op_wall_s"] == 7.0
    assert table["unattributed_s"] == 1.25
    assert table["layers"]["engine.store"]["self_s"] == 3.0
    total = sum(e["self_s"] for e in table["layers"].values()) + table["unattributed_s"]
    assert total == pytest.approx(table["op_wall_s"])


def test_overlapping_children_are_covered_once():
    tracer = Tracer()
    parent = tracer.record("op", "op", 0.0, 10.0, op="a")
    tracer.record("x", "server", 1.0, 5.0, parent=parent, op="a")
    tracer.record("y", "server", 4.0, 6.0, parent=parent, op="a")
    selfs = self_times(tracer.spans)
    assert selfs[parent] == pytest.approx(5.0)


def test_retroactive_ops_adopt_the_spans_inside_them():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("batch", "engine.executors"):
        clock.advance(1.0)
        with tracer.span("task", "engine.service"):
            clock.advance(2.0)
    clock.advance(1.0)
    tracer.record("op", "op", 0.0, 4.0, op="row-0")
    with tracer.span("late", "engine.store"):
        clock.advance(1.0)
    adopt(tracer.spans)
    spans = {span.name: span for span in tracer.spans}
    assert spans["batch"].parent == spans["op"].span_id
    assert spans["task"].op == "row-0"
    assert spans["late"].op is None
    table = layer_table(tracer.spans)
    assert table["layers"]["engine.service"]["self_s"] == 2.0
    assert table["layers"]["engine.executors"]["self_s"] == 1.0
    assert table["unattributed_s"] == 1.0
    assert table["outside_ops_s"] == 1.0


def test_kernel_time_moves_to_the_backend_layer():
    clock = FakeClock()
    kernel = {"s": 0.0}
    tracer = Tracer(clock=clock, backend_seconds=lambda: kernel["s"])
    with tracer.span("op", "op", op="p"):
        with tracer.span("task", "engine.service"):
            clock.advance(3.0)
            kernel["s"] += 1.0
        clock.advance(1.0)
        kernel["s"] += 0.5  # kernel time outside any task
    table = layer_table(tracer.spans)
    assert table["layers"]["engine.service"]["self_s"] == 2.0
    assert table["layers"]["backend"]["self_s"] == 1.5
    assert table["unattributed_s"] == 0.5


# ----------------------------------------------------------------------
# the timing wrappers return what the plain classes return
# ----------------------------------------------------------------------


def _small_spec(seed: int):
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        campaign_id=f"harness-{seed}",
        generator="random_market",
        sweep="price",
        seed_start=seed,
        seed_count=3,
        base_params={"n_types": 3, "prices": (0.5, 1.0, 1.5)},
    )


def _campaign(tmp_path: Path, tracer):
    from repro.campaigns import run_campaign
    from benchlib.workloads import Parts

    parts = Parts(tracer)
    spec = _small_spec(5)
    service = parts.service(memory=8, store=parts.store(tmp_path / "store"))
    with parts.warehouse(tmp_path / "w.sqlite") as warehouse:
        report = run_campaign(parts.spec(spec), service=service, warehouse=warehouse)
        summary = warehouse.summary_csv(spec.digest())
        rows = json.dumps(warehouse.rows(spec.digest()), sort_keys=True)
    return report, summary, rows, service


def test_wrapped_layers_match_the_plain_ones(tmp_path):
    from repro.engine.service import SolveTask

    tracer = Tracer()
    plain = _campaign(tmp_path / "plain", None)
    traced = _campaign(tmp_path / "traced", tracer)
    assert plain[0].rows_computed == traced[0].rows_computed == 3
    assert plain[1] == traced[1]
    assert plain[2] == traced[2]
    names = {span.name for span in tracer.spans}
    assert {"spec.expand", "cache.get", "store.get", "store.put",
            "executor.map_tasks", "service.run_task",
            "warehouse.append"} <= names

    # A warm read through each tier returns the value the plain tier holds.
    plain_service, traced_service = plain[3], traced[3]
    key = ("harness-key", 1)
    task = SolveTask(fn=abs, args=(-4,), key=key, codec="json")
    assert plain_service.run(task) == traced_service.run(task) == 4
    for service in (plain_service, traced_service):
        service.clear_memory()
    assert plain_service.run(task) == traced_service.run(task) == 4
    assert traced_service.counters.store_hits == plain_service.counters.store_hits == 1


def test_timed_executor_matches_serial_order_and_values():
    from repro.engine.executors import SerialExecutor
    from benchlib.wrappers import TimedSerialExecutor
    from repro.engine.service import SolveTask

    items = [(i, SolveTask(fn=abs, args=(-i,), codec="json")) for i in range(5)]
    seen_plain, seen_timed = [], []
    SerialExecutor().map_tasks(items, lambda i, v: seen_plain.append((i, v)), workers=1)
    tracer = Tracer()
    timed = TimedSerialExecutor(tracer=tracer)
    timed.map_tasks(items, lambda i, v: seen_timed.append((i, v)), workers=1)
    assert seen_plain == seen_timed
    assert timed.stats()["tasks"] == 5
    assert sum(span.name == "service.run_task" for span in tracer.spans) == 5


# ----------------------------------------------------------------------
# BENCHMARK.json names what the harness reports
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    digests = json.loads((HERE / "digests.json").read_text())
    assert sorted(digests) == sorted(w["name"] for w in bench["workloads"])
