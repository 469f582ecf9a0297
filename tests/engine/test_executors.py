"""The executor layer: selection, fast paths, incremental commit, parity.

The contract under test (see :mod:`repro.engine.executors`):

* executor choice resolves explicit > ``$REPRO_EXECUTOR`` > ``pool`` and
  bad names fail loudly;
* one-task batches (and ``workers == 1``) run inline and never spawn a
  worker pool;
* the pool persists across batches and respawns only when the worker
  count or requested backend changes;
* results commit to the cache tiers *as they complete*, so a batch
  killed midway loses only the unfinished rows;
* serial, pool and chunked executors produce bitwise-identical results
  — and identical store contents — for grids, oligopoly rounds and
  dynamics trajectories, under the numpy and compiled backends.
"""

import sqlite3
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from repro.backend import available_backends, profiling, use_backend
from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.engine import (
    EXECUTOR_NAMES,
    ChunkedExecutor,
    GridEngine,
    PoolExecutor,
    SerialExecutor,
    SolveCache,
    SolveService,
    SolveStore,
    get_default_executor_name,
    make_executor,
    set_default_executor,
)
from repro.engine.service import SolveTask
from repro.providers import AccessISP, Market, exponential_cp
from repro.simulation import DynamicsSpec, run_trajectory


def _backends() -> list[str]:
    names = ["numpy"]
    if available_backends()["cext"] == "resolves to cext":
        names.append("compiled")
    return names


BACKENDS = _backends()


# Module-level pure functions so tasks pickle for the pool executors.
def _square(x, *, offset=0.0):
    return {"value": np.asarray(x * x + offset, dtype=float)}


def _square_task(x, offset=0.0):
    return SolveTask(
        fn=_square,
        args=(float(x),),
        kwargs=(("offset", float(offset)),),
        key=("exec-square/1", float(x), float(offset)),
        codec="ndarrays",
    )


def _fragile(x, *, fail=False):
    if fail:
        raise RuntimeError(f"task {x} interrupted")
    return {"value": np.asarray(2.0 * x, dtype=float)}


def _fragile_task(x, fail=False):
    # ``fail`` is deliberately NOT part of the key: the rerun of an
    # interrupted batch issues the *same* tasks, minus the interruption.
    return SolveTask(
        fn=_fragile,
        args=(float(x),),
        kwargs=(("fail", bool(fail)),),
        key=("exec-fragile/1", float(x)),
        codec="ndarrays",
    )


def _slow(x, *, delay=0.0):
    time.sleep(delay)
    return {"value": np.asarray(3.0 * x, dtype=float)}


def _slow_task(x, delay=0.0):
    # ``delay`` is not part of the key: the rerun of an interrupted batch
    # issues the same tasks without the artificial slowness.
    return SolveTask(
        fn=_slow,
        args=(float(x),),
        kwargs=(("delay", float(delay)),),
        key=("exec-slow/1", float(x)),
        codec="ndarrays",
    )


def small_market():
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


def store_listing(path) -> dict[str, tuple[str, bytes]]:
    """Every stored entry as ``{digest: (header, payload)}`` — the exact
    rows, so two listings agreeing means the stores are interchangeable
    byte for byte, not merely equal in decoded content."""
    with closing(sqlite3.connect(path / "store.sqlite")) as conn:
        rows = conn.execute("SELECT digest, header, payload FROM entries")
        return {digest: (header, payload) for digest, header, payload in rows}


class TestDefaultSelection:
    @pytest.fixture(autouse=True)
    def _clean_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        set_default_executor(None)
        yield
        set_default_executor(None)

    def test_builtin_default_is_pool(self):
        assert get_default_executor_name() == "pool"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "chunked")
        assert get_default_executor_name() == "chunked"

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ValueError):
            get_default_executor_name()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "chunked")
        set_default_executor("serial")
        assert get_default_executor_name() == "serial"
        set_default_executor(None)
        assert get_default_executor_name() == "chunked"

    def test_unknown_names_rejected_everywhere(self):
        with pytest.raises(ValueError):
            set_default_executor("bogus")
        with pytest.raises(ValueError):
            make_executor("bogus")
        with pytest.raises(ValueError):
            SolveService(executor="bogus")

    def test_service_resolves_and_reuses_by_name(self):
        service = SolveService(cache=SolveCache(), executor="serial")
        executor = service.resolve_executor()
        assert isinstance(executor, SerialExecutor)
        assert service.resolve_executor() is executor

    def test_service_follows_process_default(self):
        service = SolveService(cache=SolveCache())
        set_default_executor("serial")
        assert isinstance(service.resolve_executor(), SerialExecutor)
        set_default_executor("chunked")
        assert isinstance(service.resolve_executor(), ChunkedExecutor)

    def test_stats_surface_executor(self):
        service = SolveService(cache=SolveCache(), executor="serial")
        service.map([_square_task(1.0)])
        stats = service.stats()["executor"]
        assert stats["name"] == "serial"
        assert stats["tasks"] == 1


class TestInlineFastPath:
    """One-task batches (and workers == 1) never touch a worker pool."""

    @pytest.mark.parametrize("executor_cls", [PoolExecutor, ChunkedExecutor])
    def test_single_task_batch_never_spawns(self, executor_cls):
        executor = executor_cls()
        service = SolveService(cache=SolveCache(), executor=executor)
        (value,) = service.map([_square_task(3.0)], workers=4)
        assert float(value["value"]) == 9.0
        stats = executor.stats()
        assert stats["inline_tasks"] == 1
        assert stats["pooled_tasks"] == 0
        assert stats["pool_spawns"] == 0

    @pytest.mark.parametrize("executor_cls", [PoolExecutor, ChunkedExecutor])
    def test_workers_one_runs_inline(self, executor_cls):
        executor = executor_cls()
        service = SolveService(cache=SolveCache(), executor=executor)
        values = service.map(
            [_square_task(x) for x in (1.0, 2.0, 3.0)], workers=1
        )
        assert [float(v["value"]) for v in values] == [1.0, 4.0, 9.0]
        assert executor.stats()["pool_spawns"] == 0
        assert executor.stats()["inline_tasks"] == 3


class TestPoolPersistence:
    def test_pool_survives_across_batches(self):
        executor = PoolExecutor()
        service = SolveService(cache=SolveCache(), executor=executor)
        try:
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
            service.map([_square_task(x) for x in (3.0, 4.0)], workers=2)
            stats = executor.stats()
            assert stats["pool_spawns"] == 1
            assert stats["pool_reuses"] == 1
        finally:
            executor.shutdown()

    def test_worker_count_change_respawns(self):
        executor = PoolExecutor()
        service = SolveService(cache=SolveCache(), executor=executor)
        try:
            service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
            service.map([_square_task(x) for x in (3.0, 4.0)], workers=3)
            assert executor.stats()["pool_spawns"] == 2
        finally:
            executor.shutdown()

    def test_shutdown_is_idempotent(self):
        executor = PoolExecutor()
        executor.shutdown()
        executor.shutdown()

    def test_service_close_shuts_executors_down(self):
        executor = PoolExecutor()
        service = SolveService(cache=SolveCache(), executor=executor)
        service.map([_square_task(x) for x in (1.0, 2.0)], workers=2)
        service.close()
        assert executor._pool is None


class TestChunking:
    def test_derived_chunk_size_targets_oversubscription(self):
        executor = ChunkedExecutor()
        # ceil(100 / (4 workers * 4 oversubscription)) = 7
        assert executor._resolve_chunk_size(100, 4) == 7
        assert executor._resolve_chunk_size(3, 4) == 1

    def test_explicit_chunk_size_wins(self):
        assert ChunkedExecutor(chunk_size=5)._resolve_chunk_size(100, 4) == 5

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ChunkedExecutor(chunk_size=0)

    def test_chunks_counted_and_results_ordered(self):
        executor = ChunkedExecutor(chunk_size=2)
        service = SolveService(cache=SolveCache(), executor=executor)
        try:
            xs = [float(x) for x in range(10)]
            values = service.map([_square_task(x) for x in xs], workers=2)
            assert [float(v["value"]) for v in values] == [x * x for x in xs]
            stats = executor.stats()
            assert stats["chunks"] == 5
            assert stats["pooled_tasks"] == 10
            assert stats["pool_spawns"] == 1
        finally:
            executor.shutdown()

    def test_single_chunk_falls_back_to_per_task_pooling(self):
        executor = ChunkedExecutor(chunk_size=100)
        service = SolveService(cache=SolveCache(), executor=executor)
        try:
            values = service.map(
                [_square_task(x) for x in (1.0, 2.0, 3.0)], workers=2
            )
            assert [float(v["value"]) for v in values] == [1.0, 4.0, 9.0]
            stats = executor.stats()
            assert stats["chunks"] == 0  # per-task fallback, no chunk trips
            assert stats["pooled_tasks"] == 3
        finally:
            executor.shutdown()


class TestIncrementalCommit:
    """Results land in the cache tiers as they complete, not per batch."""

    def test_interrupted_batch_keeps_completed_rows(self, tmp_path):
        service = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path), executor="serial"
        )
        tasks = [
            _fragile_task(1.0),
            _fragile_task(2.0, fail=True),  # the "kill" mid-batch
            _fragile_task(3.0),
        ]
        with pytest.raises(RuntimeError):
            service.map(tasks)
        # The row completed before the interruption is already persisted.
        assert len(service.store) == 1

        # Warm rerun of the same batch: only the lost rows recompute.
        rerun = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path), executor="serial"
        )
        values = rerun.map([_fragile_task(x) for x in (1.0, 2.0, 3.0)])
        assert [float(v["value"]) for v in values] == [2.0, 4.0, 6.0]
        assert rerun.counters.store_hits == 1
        assert rerun.counters.computed == 2

    def test_pooled_batches_commit_incrementally(self, tmp_path):
        executor = PoolExecutor()
        service = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path), executor=executor
        )
        try:
            committed = []
            original = service._commit

            def spying_commit(task, value):
                committed.append(task.key)
                return original(task, value)

            service._commit = spying_commit
            service.map([_square_task(x) for x in (5.0, 6.0, 7.0)], workers=2)
            assert len(committed) == 3
            assert len(service.store) == 3
        finally:
            executor.shutdown()


class TestCloseDuringBatch:
    """service.close() mid-batch: queued work cancels, the store survives."""

    def test_close_midbatch_leaves_store_readable(self, tmp_path):
        service = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path), executor="pool"
        )
        xs = [float(x) for x in range(1, 7)]
        failures: list[BaseException] = []

        def run_batch():
            try:
                service.map(
                    [_slow_task(x, delay=0.25) for x in xs], workers=2
                )
            except BaseException as exc:  # CancelledError is a BaseException
                failures.append(exc)

        thread = threading.Thread(target=run_batch)
        thread.start()
        # Wait for the first commit so the close genuinely interrupts a
        # batch that has landed partial work (on a slow machine the batch
        # may still finish whole — the assertions below hold either way).
        deadline = time.time() + 30.0
        while (
            time.time() < deadline
            and thread.is_alive()
            and len(service.store) == 0
        ):
            time.sleep(0.02)
        service.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert service.inflight == 0  # the gauge recovered from the cancel

        # Every committed entry decodes — nothing is torn — and a warm
        # rerun recomputes exactly the rows the cancel lost.
        survivors = 0
        check = SolveStore(tmp_path)
        for x in xs:
            value = check.get(("exec-slow/1", float(x)))
            if value is not None:
                assert float(value["value"]) == 3.0 * x
                survivors += 1
        assert survivors == len(check)
        rerun = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path), executor="serial"
        )
        values = rerun.map([_slow_task(x) for x in xs])
        assert [float(v["value"]) for v in values] == [3.0 * x for x in xs]
        assert rerun.counters.store_hits == survivors
        assert rerun.counters.computed == len(xs) - survivors


@pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="needs the cext kernels"
)
class TestPoolProfiling:
    """Kernel counters counted in pool workers reach the parent."""

    @pytest.mark.parametrize("name", ["pool", "chunked"])
    def test_pool_counters_equal_serial(self, name):
        market = small_market()
        prices = np.round(np.linspace(0.1, 1.0, 4), 10)
        caps = np.array([0.0, 0.5, 1.0])
        totals, pooled = {}, 0
        try:
            with use_backend("compiled"):
                for executor in ("serial", name):
                    service = SolveService(
                        cache=SolveCache(), workers=2, executor=executor
                    )
                    profiling.reset()
                    try:
                        with profiling.profiled():
                            GridEngine(
                                workers=2, cache=SolveCache(), service=service
                            ).solve_grid(market, prices, caps)
                        if executor == name:
                            pooled = service.resolve_executor().pooled_tasks
                    finally:
                        service.close()
                    totals[executor] = profiling.snapshot()
        finally:
            profiling.reset()
        assert pooled == caps.size
        for counter in ("kernel_calls", "residual_evals"):
            assert totals[name][counter] == totals["serial"][counter] > 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestExecutorParityMatrix:
    """serial / pool / chunked are bitwise-identical, store for store."""

    def _service(self, tmp_path, backend, name):
        return SolveService(
            cache=SolveCache(),
            store=SolveStore(tmp_path / f"{backend}-{name}"),
            workers=2,
            executor=name,
        )

    def test_grid_parity(self, tmp_path, backend):
        market = small_market()
        prices = np.round(np.linspace(0.1, 1.0, 4), 10)
        caps = np.array([0.0, 0.5, 1.0])
        grids, services = {}, {}
        with use_backend(backend):
            for name in EXECUTOR_NAMES:
                service = self._service(tmp_path, backend, name)
                engine = GridEngine(cache=SolveCache(), service=service)
                grids[name] = engine.solve_grid(market, prices, caps)
                services[name] = service
        try:
            reference = grids["serial"]
            for name in ("pool", "chunked"):
                for k in range(caps.size):
                    for j in range(prices.size):
                        a = reference.at(k, j)
                        b = grids[name].at(k, j)
                        assert (
                            a.subsidies.tobytes() == b.subsidies.tobytes()
                        ), f"{backend}/{name} grid cell ({k},{j}) differs"
                        assert a.state.welfare == b.state.welfare
                assert store_listing(
                    services[name].store.path
                ) == store_listing(services["serial"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_oligopoly_jacobi_parity(self, tmp_path, backend):
        cps = [exponential_cp(2.0, 2.0, value=1.0)]
        results, services = {}, {}
        with use_backend(backend):
            for name in EXECUTOR_NAMES:
                service = self._service(tmp_path, backend, name)
                game = OligopolyGame(
                    cps,
                    tuple(
                        AccessISP(price=1.0, capacity=0.25, name=f"isp-{k}")
                        for k in range(4)
                    ),
                    switching=2.0,
                    cap=0.3,
                    service=service,
                )
                results[name] = solve_oligopoly_competition(
                    game,
                    initial_prices=(0.6, 0.6, 0.6, 0.6),
                    price_range=(0.05, 2.0),
                    grid_points=8,
                    xtol=1e-3,
                    policy=IterationPolicy(mode="jacobi", tol=5e-3),
                )
                services[name] = service
        try:
            reference = results["serial"]
            for name in ("pool", "chunked"):
                assert results[name].state.prices == reference.state.prices
                assert results[name].state.revenues == reference.state.revenues
                assert results[name].iterations == reference.iterations
                for eq_a, eq_b in zip(
                    reference.state.equilibria, results[name].state.equilibria
                ):
                    assert (
                        eq_a.subsidies.tobytes() == eq_b.subsidies.tobytes()
                    )
                assert store_listing(
                    services[name].store.path
                ) == store_listing(services["serial"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_dynamics_trajectory_parity(self, tmp_path, backend):
        market = small_market()
        spec = DynamicsSpec(kind="capacity", horizon=20, segment_length=5)
        trajectories, services = {}, {}
        with use_backend(backend):
            for name in EXECUTOR_NAMES:
                service = self._service(tmp_path, backend, name)
                trajectories[name] = run_trajectory(
                    market, spec, service=service
                )
                services[name] = service
        try:
            reference = trajectories["serial"]
            for name in ("pool", "chunked"):
                got = trajectories[name]
                for attr in (
                    "capacities",
                    "revenues",
                    "welfares",
                    "utilizations",
                    "prices",
                ):
                    assert (
                        getattr(got, attr).tobytes()
                        == getattr(reference, attr).tobytes()
                    ), f"{backend}/{name} trajectory {attr} differs"
                assert store_listing(
                    services[name].store.path
                ) == store_listing(services["serial"].store.path)
        finally:
            for service in services.values():
                service.close()

    def test_stores_are_executor_interchangeable(self, tmp_path, backend):
        """A store warmed by one executor replays under another: computed == 0."""
        market = small_market()
        prices = np.round(np.linspace(0.1, 1.0, 4), 10)
        caps = np.array([0.0, 0.5])
        store_dir = tmp_path / f"{backend}-shared"
        with use_backend(backend):
            warm = SolveService(
                cache=SolveCache(),
                store=SolveStore(store_dir),
                workers=2,
                executor="chunked",
            )
            GridEngine(cache=SolveCache(), service=warm).solve_grid(
                market, prices, caps
            )
            warm.close()
            assert warm.counters.computed > 0

            replay = SolveService(
                cache=SolveCache(),
                store=SolveStore(store_dir),
                workers=2,
                executor="serial",
            )
            GridEngine(cache=SolveCache(), service=replay).solve_grid(
                market, prices, caps
            )
            assert replay.counters.computed == 0
            assert replay.counters.store_hits == caps.size
