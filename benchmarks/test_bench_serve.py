"""Benchmark: the serve daemon replaying a warm store at line rate.

The serve story's perf claim: once one pass has populated the on-disk
store, N concurrent clients replaying overlapping scenario sets cost
**zero solves** — every request is answered from the on-disk store tier —
and the daemon's throughput is bounded by HTTP + JSON, not equilibrium
math. ``BENCH_serve.json`` records both phases:

* **Warm pass** — one client solving the scenario set cold through the
  daemon (this is the solve cost the store amortizes away);
* **Replay** — a *fresh* service and job manager over the same store
  directory (so job-level coalescing cannot be the explanation), four
  concurrent clients each replaying the full set from staggered offsets;
  the replay must report ``computed_delta == 0`` and no failures.
"""

import threading
import time

from benchmarks.conftest import _write_bench_record, run_once

from repro.engine import SolveCache, SolveService, SolveStore
from repro.server import JobManager, ServeClient, replay, run_server

#: Overlapping scenario set: one trivial figure, one broad grid and one
#: five-carrier market — every client replays all of them.
SCENARIOS = ("section3", "random-12", "oligopoly-4")

#: Concurrent replay clients (the acceptance floor is four).
CLIENTS = 4


class _Daemon:
    """A real asyncio server on an ephemeral port, in a thread."""

    def __init__(self, manager: JobManager) -> None:
        import asyncio

        self.manager = manager
        self._bound: dict = {}
        self._listening = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._task = None

        def runner():
            self._task = self._loop.create_task(
                run_server(
                    manager, host="127.0.0.1", port=0, on_bound=self._on_bound
                )
            )
            try:
                self._loop.run_until_complete(self._task)
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        assert self._listening.wait(10), "serve daemon failed to bind"

    def _on_bound(self, address):
        self._bound["host"], self._bound["port"] = address
        self._listening.set()

    @property
    def address(self) -> tuple:
        return self._bound["host"], self._bound["port"]

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(10)
        assert not self._thread.is_alive()
        self.manager.close()


def _service(store_dir) -> SolveService:
    return SolveService(
        cache=SolveCache(), store=SolveStore(store_dir), executor="serial"
    )


def test_bench_serve(benchmark, tmp_path):
    store_dir = tmp_path / "store"

    # Warm pass: one client, cold store, everything computed once.
    warm_service = _service(store_dir)
    warm = _Daemon(JobManager(service=warm_service, workers=2))
    host, port = warm.address
    client = ServeClient(host, port, timeout=300)
    start = time.perf_counter()
    for scenario in SCENARIOS:
        record = client.run(scenario, timeout=300)
        assert record["state"] == "done", record
    warm_seconds = time.perf_counter() - start
    warm_stats = client.stats()
    warm_computed = warm_stats["service"]["computed"]
    assert warm_computed > 0  # the cold pass really solved
    store_entries = warm_stats["service"]["store"]["entries"]
    warm.close()
    warm_service.close()

    # Replay: fresh service + manager over the same store directory, so a
    # zero computed delta can only come from the store tier.
    cold_service = _service(store_dir)
    daemon = _Daemon(JobManager(service=cold_service, workers=2))
    host, port = daemon.address
    try:
        summary = run_once(
            benchmark,
            lambda: replay(
                host, port, SCENARIOS, clients=CLIENTS, timeout=300
            ),
        )
    finally:
        daemon.close()
        cold_service.close()

    assert summary["failures"] == []
    assert summary["outcomes"] == {"done": CLIENTS * len(SCENARIOS)}
    # The headline claim: a warm store answers every client without a
    # single new solve (and without a single store write).
    assert summary["computed_delta"] == 0
    assert summary["store_writes_delta"] == 0
    # The N clients' duplicate submits coalesced at the job layer.
    assert summary["coalesced_delta"] > 0
    assert summary["requests_per_sec"] > 0

    _write_bench_record(
        {
            "case": "serve",
            "seconds": summary["elapsed_seconds"],
            "solve_tasks": 0,
            "cache_hits": 0,
            "clients": CLIENTS,
            "scenario_set": list(SCENARIOS),
            "warm_seconds": warm_seconds,
            "warm_solve_tasks": warm_computed,
            "store_entries": store_entries,
            "replay_requests": summary["requests"],
            "requests_per_sec": summary["requests_per_sec"],
            "computed_delta": summary["computed_delta"],
            "store_writes_delta": summary["store_writes_delta"],
            "coalesced_delta": summary["coalesced_delta"],
        }
    )
