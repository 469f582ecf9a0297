"""The solve service: task scheduling plus two-tier content-keyed caching.

The engine layer sits between the Nash solvers (:mod:`repro.core`) and the
figure/analysis layers. It owns the *scheduling* of pure solve work —
content-keyed :class:`SolveTask` units (cap rows of (price × policy)
grids, oligopoly best-response sweeps, continuation refinements) resolved by
a :class:`SolveService` over an optional process pool — and the
*memoization* of every keyed result through two tiers: the in-process
:class:`SolveCache` and the persistent, content-addressed
:class:`SolveStore` (one sqlite file under ``$REPRO_CACHE_DIR``).
Sequential, pooled and cache-fed schedules are bitwise interchangeable, so
``workers`` and the cache tiers are purely throughput knobs.
"""

from repro.engine.cache import SolveCache, grid_key, market_fingerprint
from repro.engine.executors import (
    EXECUTOR_NAMES,
    ChunkedExecutor,
    Executor,
    PoolExecutor,
    SerialExecutor,
    get_default_executor_name,
    make_executor,
    set_default_executor,
)
from repro.engine.grid_engine import (
    EquilibriumGrid,
    GridEngine,
    cap_row_task,
    get_default_workers,
    set_default_workers,
    solve_cap_row,
)
from repro.engine.service import (
    SolveService,
    SolveTask,
    default_service,
    set_default_service,
)
from repro.engine.store import SolveStore, key_digest

__all__ = [
    "EXECUTOR_NAMES",
    "ChunkedExecutor",
    "EquilibriumGrid",
    "Executor",
    "GridEngine",
    "PoolExecutor",
    "SerialExecutor",
    "SolveCache",
    "SolveService",
    "SolveStore",
    "SolveTask",
    "cap_row_task",
    "default_service",
    "get_default_executor_name",
    "get_default_workers",
    "grid_key",
    "key_digest",
    "make_executor",
    "market_fingerprint",
    "set_default_executor",
    "set_default_service",
    "set_default_workers",
    "solve_cap_row",
]
