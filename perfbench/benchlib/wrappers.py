"""Timing wrappers around each layer's public entry points.

Every wrapper subclasses (or replaces, for the executor) the class the
program already accepts through a parameter, calls the parent
implementation unchanged and records one span per call, so a traced run
computes exactly what an untraced run computes. Two layers are reached
without a constructor parameter and are patched for the traced phase
only: the figure pipeline's grid-object cache (built inside
``repro.experiments.grid.reset_engine``) and ``ExperimentResult.write_csv``
(called inside ``run_experiments``); :func:`patched` restores both.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from repro.campaigns import CampaignSpec, CampaignWarehouse
from repro.engine import SolveCache, SolveStore
from repro.engine.executors import Executor
from repro.engine.service import run_task
from repro.engine.store import key_digest
from repro.server.client import ServeClient
from repro.server.jobs import default_runner

from benchlib.trace import Tracer

__all__ = [
    "TimedSolveCache",
    "TimedSolveStore",
    "TimedCampaignWarehouse",
    "TimedSerialExecutor",
    "CountingServeClient",
    "timed_spec",
    "timed_runner",
    "timed_write_csv",
    "patched",
]


class TimedSolveCache(SolveCache):
    """Memory tier recording ``cache.get`` / ``cache.put`` spans."""

    def __init__(self, maxsize: int = 32, *, tracer: Tracer) -> None:
        super().__init__(maxsize)
        self._tracer = tracer

    def get(self, key):
        with self._tracer.span("cache.get", "engine.cache") as attrs:
            value = super().get(key)
            attrs["hit"] = value is not None
        return value

    def put(self, key, value) -> None:
        with self._tracer.span("cache.put", "engine.cache"):
            super().put(key, value)


class TimedSolveStore(SolveStore):
    """Persistent tier recording ``store.get`` / ``store.put`` spans.

    Entry sizes are read from the sharded layout after the span closes,
    so the stat calls land in the caller's self time, not the store's.
    """

    def __init__(self, root, *, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def _entry_bytes(self, key: tuple) -> int:
        digest = key_digest(key)
        total = 0
        for suffix in (".json", ".npz"):
            try:
                total += (self.path / digest[:2] / f"{digest}{suffix}").stat().st_size
            except OSError:
                pass
        return total

    def get(self, key: tuple) -> Any | None:
        with self._tracer.span("store.get", "engine.store") as attrs:
            value = super().get(key)
        attrs["hit"] = value is not None
        attrs["bytes"] = self._entry_bytes(key) if value is not None else 0
        return value

    def put(self, key: tuple, value: Any, *, codec: str) -> bool:
        with self._tracer.span("store.put", "engine.store") as attrs:
            committed = super().put(key, value, codec=codec)
        attrs["committed"] = committed
        attrs["bytes"] = self._entry_bytes(key) if committed else 0
        return committed


class TimedCampaignWarehouse(CampaignWarehouse):
    """Warehouse recording one ``warehouse.append`` span per row."""

    def __init__(self, path, *, tracer: Tracer) -> None:
        super().__init__(path)
        self._tracer = tracer

    def append(self, campaign: str, **row) -> bool:
        with self._tracer.span("warehouse.append", "campaigns.warehouse") as attrs:
            landed = super().append(campaign, **row)
            attrs["landed"] = landed
        return landed


def _equilibria(value) -> tuple[int, int]:
    """``(equilibria, iterations)`` in a task result (a cap row tuple)."""
    if isinstance(value, tuple) and all(hasattr(v, "iterations") for v in value):
        return len(value), sum(int(v.iterations) for v in value)
    return 0, 0


class TimedSerialExecutor(Executor):
    """The serial schedule, with a span per batch and per task.

    Mirrors :class:`repro.engine.executors.SerialExecutor` (submission
    order, in-process, same counters) and runs each task through the
    public :func:`repro.engine.service.run_task`. The batch span's self
    time is the dispatch cost: its wall time minus the tasks and the
    cache commits the ``on_result`` callback performs.
    """

    name = "serial"

    def __init__(self, *, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def map_tasks(self, items, on_result, *, workers: int) -> None:
        items = list(items)
        self.batches += 1
        self.tasks += len(items)
        with self._tracer.span(
            "executor.map_tasks", "engine.executors", tasks=len(items)
        ):
            for index, task in items:
                self.inline_tasks += 1
                with self._tracer.span("service.run_task", "engine.service") as attrs:
                    value = run_task(task)
                attrs["equilibria"], attrs["iterations"] = _equilibria(value)
                on_result(index, value)


class CountingServeClient(ServeClient):
    """A serve client that counts its HTTP requests."""

    def __init__(self, host: str, port: int, **kwargs) -> None:
        super().__init__(host, port, **kwargs)
        self.requests = 0

    def request(self, method: str, path: str, payload: dict | None = None):
        self.requests += 1
        return super().request(method, path, payload)


def timed_spec(spec: CampaignSpec, tracer: Tracer) -> CampaignSpec:
    """An equal spec whose ``expand`` records a ``spec.expand`` span."""

    class TimedCampaignSpec(CampaignSpec):
        def expand(self):
            with tracer.span("spec.expand", "campaigns.spec") as attrs:
                rows = super().expand()
                attrs["rows"] = len(rows)
            return rows

    return TimedCampaignSpec.from_dict(spec.to_dict())


def timed_runner(
    tracer: Tracer, parents: dict[str, tuple[int | None, str | None]], wall: Callable[[], float]
):
    """A ``JobManager`` runner recording a ``jobs.run`` span per job.

    ``parents`` maps a scenario id to the submitting client's open op span,
    so the job's span (on the solver thread) nests under the op that
    waits for it. ``start_wall`` is the wall-clock start, comparable with
    the job's ``submitted_at``.
    """

    def runner(scn, service) -> dict:
        parent, op = parents.get(scn.scenario_id, (None, None))
        with tracer.span("jobs.run", "server", parent=parent, op=op) as attrs:
            attrs["scenario_id"] = scn.scenario_id
            attrs["start_wall"] = wall()
            return default_runner(scn, service)

    return runner


def timed_write_csv(tracer: Tracer, original: Callable):
    """``ExperimentResult.write_csv`` recording bytes written per call."""

    def write_csv(self, out_dir) -> list[Path]:
        with tracer.span("experiments.write_csv", "experiments") as attrs:
            paths = original(self, out_dir)
        attrs["bytes"] = sum(Path(p).stat().st_size for p in paths)
        return paths

    return write_csv


@contextmanager
def patched(target: Any, name: str, value: Any):
    """Set ``target.name = value`` for the block, then restore it."""
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield original
    finally:
        setattr(target, name, original)
