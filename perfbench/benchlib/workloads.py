"""The four workloads: what each op is, how the timed loop runs, the gates.

Each workload has three stages. ``prepare`` builds what the first op
needs (it ends the set-up time); ``fill`` warms whatever the workload
reads (untimed, not part of set-up); ``run_phase`` runs a closed loop for
a fixed number of seconds and then checks every op's output. A phase
with a tracer builds its layers from the timing subclasses in
:mod:`benchlib.wrappers`; a phase without one uses the plain classes.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaigns import CampaignSpec, CampaignWarehouse, run_campaign
from repro.engine import SolveCache, SolveService, SolveStore
from repro.experiments import grid as figure_grid
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import resolve_experiments, run_experiments
from repro.io import scenario_to_dict
from repro.scenarios.generators import random_market
from repro.server.http import run_server
from repro.server.jobs import JobManager

from benchlib.trace import OP_LAYER, Tracer
from benchlib.wrappers import (
    CountingServeClient,
    TimedCampaignWarehouse,
    TimedSerialExecutor,
    TimedSolveCache,
    TimedSolveStore,
    patched,
    timed_runner,
    timed_spec,
    timed_write_csv,
)

__all__ = ["Op", "Phase", "WORKLOADS"]

clock = time.perf_counter

#: The paper's figures regenerated by one ``figures`` op.
FIGURES = ("fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11")
#: Rows of one campaign (random markets, default 21-price axis, q = 0).
CAMPAIGN_ROWS = 256
#: CP types per random market.
CP_TYPES = 8
#: Rows whose metrics make up the ``campaign-cold`` output digest.
DIGEST_ROWS = 64
#: Certification bound on every campaign row's KKT residual.
KKT_BOUND = 1e-7
#: Distinct base markets behind the ``serve-warm`` docs.
SERVE_POOL = 64
#: Memory-tier entries of the serve daemon's service: fewer than the
#: pool, so the cyclic doc order misses it and every job reads the store.
SERVE_MEMORY = 32
#: Closed-loop clients of ``serve-warm``.
SERVE_CLIENTS = 2
#: Memory-tier entries of the campaign and figure services.
MEMORY = 256


@dataclass
class Op:
    op_id: str
    latency: float
    ok: bool = True
    info: dict = field(default_factory=dict)


@dataclass
class Phase:
    """One timed loop: its ops, wall time and what the layers did."""

    ops: list[Op]
    elapsed: float
    digest: str | None
    solve_tasks: int
    notes: list[str] = field(default_factory=list)
    server: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def fail(self, ops, note: str) -> None:
        for op in ops:
            op.ok = False
        self.notes.append(note)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dir_digest(directory: Path) -> str:
    """Digest of every file name and its bytes under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _canonical(value) -> str:
    """Exact JSON text of a value (NaN-safe equality for metric dicts)."""
    return json.dumps(value, sort_keys=True)


def campaign_spec(seed: int) -> CampaignSpec:
    """The seeded price campaign both campaign workloads run."""
    return CampaignSpec(
        campaign_id=f"perfbench-{seed}",
        generator="random_market",
        sweep="price",
        seed_start=seed * CAMPAIGN_ROWS,
        seed_count=CAMPAIGN_ROWS,
        base_params={"n_types": CP_TYPES},
    )


class Parts:
    """Builds one phase's layers: plain without a tracer, timed with one."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.solved = 0

    def cache(self, maxsize: int) -> SolveCache:
        if self.tracer is None:
            return SolveCache(maxsize)
        return TimedSolveCache(maxsize, tracer=self.tracer)

    def store(self, root: Path) -> SolveStore:
        if self.tracer is None:
            return SolveStore(root)
        return TimedSolveStore(root, tracer=self.tracer)

    def warehouse(self, path: Path) -> CampaignWarehouse:
        if self.tracer is None:
            return CampaignWarehouse(path)
        return TimedCampaignWarehouse(path, tracer=self.tracer)

    def spec(self, spec: CampaignSpec) -> CampaignSpec:
        return spec if self.tracer is None else timed_spec(spec, self.tracer)

    def service(self, *, memory: int, store: SolveStore | None) -> SolveService:
        executor = (
            "serial"
            if self.tracer is None
            else TimedSerialExecutor(tracer=self.tracer)
        )
        return SolveService(
            cache=self.cache(memory), store=store, executor=executor
        )

    def retire(self, service: SolveService) -> int:
        """Count a finished service's solves and drop its memory tier.

        Dropping the tier keeps the process's memory independent of how
        many ops a phase completes. Returns the service's solve count.
        """
        computed = service.counters.computed
        self.solved += computed
        service.clear_memory()
        return computed

    def op(self, op_id: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("op", OP_LAYER, op=op_id)

    def record_op(self, op_id: str, start: float, end: float) -> None:
        if self.tracer is not None:
            self.tracer.record("op", OP_LAYER, start, end, op=op_id)


class Workload:
    name = "abstract"
    #: The ``op_tail_ms`` percentile: the tail rule applied to one chunk
    #: (a fifth, or at least 40 ops) of a 20-second baseline run (see
    #: :mod:`benchlib.stats`).
    tail_percentile = 50.0

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def prepare(self) -> None:
        """Build what the first op needs (the end of set-up)."""

    def fill(self) -> None:
        """Warm what the timed loop reads (untimed, not set-up)."""

    def run_phase(
        self, tracer: Tracer | None, seconds: float, label: str, *, cut: bool = True
    ) -> Phase:
        """Run ops for ``seconds``, then check them.

        ``cut`` ends a multi-op unit (a campaign) at the deadline; without
        it the unit in progress runs to its end, so a traced run's counts
        cover whole campaigns.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


class Figures(Workload):
    """One op regenerates the seven paper figures cold into a fresh dir."""

    name = "figures"
    tail_percentile = 75.0  # 50-70 passes, one chunk

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.reference: str | None = None

    def prepare(self) -> None:
        resolve_experiments(FIGURES)

    def run_phase(self, tracer, seconds, label, *, cut=True) -> Phase:
        parts = Parts(tracer)
        ops: list[Op] = []
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(
                    patched(
                        figure_grid,
                        "SolveCache",
                        functools.partial(TimedSolveCache, tracer=tracer),
                    )
                )
                stack.enter_context(
                    patched(
                        ExperimentResult,
                        "write_csv",
                        timed_write_csv(tracer, ExperimentResult.write_csv),
                    )
                )
            start = clock()
            deadline = start + seconds
            while clock() < deadline:
                op_id = f"{label}-pass{len(ops)}"
                out = self.tmp / op_id
                begin = clock()
                service = parts.service(memory=MEMORY, store=None)
                with parts.op(op_id):
                    figure_grid.reset_engine(service=service)
                    results = run_experiments(FIGURES, out_dir=out, quiet=True)
                ops.append(
                    Op(op_id, clock() - begin, all(r.all_passed() for r in results),
                       {"out": out})
                )
                parts.retire(service)
            elapsed = clock() - start
        figure_grid.reset_engine()
        phase = Phase(ops, elapsed, None, parts.solved)
        failed_checks = [op for op in ops if not op.ok]
        if failed_checks:
            phase.notes.append(f"{len(failed_checks)} pass(es) failed a shape check")
        digests = [dir_digest(op.info["out"]) for op in ops]
        if self.reference is None and digests:
            self.reference = digests[0]
        phase.digest = self.reference
        differing = [op for op, d in zip(ops, digests) if d != self.reference]
        if differing:
            phase.fail(differing, f"{len(differing)} pass(es) wrote CSVs unlike the first pass")
        return phase


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------


class _Deadline(Exception):
    """Raised from the progress callback to end a campaign at the deadline."""


@dataclass
class _Campaign:
    warehouse: CampaignWarehouse
    computed: int
    report: object | None
    ops: list[Op]


class CampaignCold(Workload):
    """One op is one row of a seeded campaign into an empty store."""

    name = "campaign-cold"
    tail_percentile = 90.0  # 650-1000 rows, chunks of 130-200

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.spec = campaign_spec(seed)
        self.campaign = self.spec.digest()
        self._pending: tuple | None = None
        self._count = itertools.count()

    def _layers(self, parts: Parts) -> tuple[SolveService, CampaignWarehouse]:
        root = self.tmp / f"cold-{next(self._count)}"
        service = parts.service(memory=MEMORY, store=parts.store(root / "store"))
        return service, parts.warehouse(root / "campaigns.sqlite")

    def prepare(self) -> None:
        self._pending = self._layers(Parts(None))

    def _run(self, parts: Parts, label: str, deadline: float | None) -> _Campaign:
        if parts.tracer is None and self._pending is not None:
            (service, warehouse), self._pending = self._pending, None
        else:
            service, warehouse = self._layers(parts)
        ops: list[Op] = []
        last = clock()

        def progress(done: int, total: int, row) -> None:
            nonlocal last
            now = clock()
            op = Op(f"{label}-r{row.index}", now - last, True, {"row": row.digest})
            parts.record_op(op.op_id, last, now)
            last = now
            ops.append(op)
            if deadline is not None and now >= deadline:
                raise _Deadline

        try:
            report = run_campaign(
                parts.spec(self.spec), service=service, warehouse=warehouse,
                progress=progress,
            )
        except _Deadline:
            report = None
        return _Campaign(warehouse, parts.retire(service), report, ops)

    def _loop(self, tracer, seconds: float, label: str, cut: bool) -> Phase:
        """Campaigns back to back until the deadline; checks come after."""
        parts = Parts(tracer)
        runs: list[_Campaign] = []
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            runs.append(
                self._run(parts, f"{label}-c{len(runs)}", deadline if cut else None)
            )
        elapsed = clock() - start
        return Phase(
            [op for run in runs for op in run.ops], elapsed, None,
            parts.solved, runs=runs,
        )

    def run_phase(self, tracer, seconds, label, *, cut=True) -> Phase:
        phase = self._loop(tracer, seconds, label, cut)
        for number, run in enumerate(phase.runs):
            rows = {r["digest"]: r for r in run.warehouse.rows(self.campaign)}
            if run.report is not None and run.report.rows_computed != run.report.rows_total:
                phase.fail(run.ops, f"campaign {number}: rows_computed != rows_total")
            uncertified = [
                op for op in run.ops
                if op.info["row"] not in rows
                or not rows[op.info["row"]]["metrics"]["kkt_max"] <= KKT_BOUND
            ]
            if uncertified:
                phase.fail(uncertified, f"campaign {number}: {len(uncertified)} row(s) missing or kkt_max > {KKT_BOUND}")
            if number == 0:
                first = sorted(rows.values(), key=lambda r: r["index"])[:DIGEST_ROWS]
                if len(first) == DIGEST_ROWS:
                    phase.digest = sha256(
                        _canonical([[r["digest"], r["metrics"]] for r in first])
                    )
            run.warehouse.close()
        return phase


class CampaignWarm(CampaignCold):
    """One op is one row of the same campaign replayed over a full store."""

    name = "campaign-warm"
    # The rule allows p99 for chunks of 1000-1300 rows, but the p99 of a
    # 3 ms row is set by 5-15 ms host preemptions: its ten-run spread was
    # 17% on a quiet host and 71% on a busy one. p90 keeps 100-130 rows
    # beyond it in each chunk.
    tail_percentile = 90.0  # 5000-6500 rows, chunks of 1000-1300

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.store_root = tmp / "warm-store"
        self.cold_summary: str | None = None
        self.cold_rows: dict[str, str] = {}

    def _layers(self, parts: Parts) -> tuple[SolveService, CampaignWarehouse]:
        # The replay warehouse is in memory: this workload is the read path.
        # On disk, each append's fsync (about 2 ms, with 10-20 ms spikes on
        # a shared disk) set the p99 row latency, so the tail measured the
        # disk instead of the program; campaign-cold measures durable appends.
        service = parts.service(memory=MEMORY, store=parts.store(self.store_root))
        return service, parts.warehouse(":memory:")

    def fill(self) -> None:
        service = SolveService(
            cache=SolveCache(MEMORY), store=SolveStore(self.store_root),
            executor="serial",
        )
        with CampaignWarehouse(self.tmp / "fill.sqlite") as warehouse:
            report = run_campaign(self.spec, service=service, warehouse=warehouse)
            if report.rows_computed != report.rows_total:
                raise RuntimeError(f"store fill incomplete: {report}")
            self.cold_summary = warehouse.summary_csv(self.campaign)
            self.cold_rows = {
                r["digest"]: _canonical(r["metrics"])
                for r in warehouse.rows(self.campaign)
            }

    def run_phase(self, tracer, seconds, label, *, cut=True) -> Phase:
        phase = self._loop(tracer, seconds, label, cut)
        phase.digest = sha256(self.cold_summary)
        for number, run in enumerate(phase.runs):
            if run.computed != 0:
                phase.fail(run.ops, f"replay {number}: {run.computed} solve(s) computed")
            if run.report is not None and (
                run.report.solves_computed != 0
                or run.warehouse.summary_csv(self.campaign) != self.cold_summary
            ):
                phase.fail(run.ops, f"replay {number}: summary_csv differs from the cold pass")
            rows = {
                r["digest"]: _canonical(r["metrics"])
                for r in run.warehouse.rows(self.campaign)
            }
            differing = [
                op for op in run.ops
                if op.info["row"] not in rows
                or rows[op.info["row"]] != self.cold_rows.get(op.info["row"])
            ]
            if differing:
                phase.fail(differing, f"replay {number}: {len(differing)} row(s) differ from the cold pass")
            run.warehouse.close()
        return phase


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Daemon:
    """An in-process ``run_server`` on an ephemeral port, on its own thread."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self.address: tuple | None = None
        self._bound = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._task: asyncio.Task | None = None
        self._thread = threading.Thread(target=self._serve, name="perfbench-daemon")
        self._thread.start()
        if not self._bound.wait(30):
            self.close()
            raise RuntimeError("serve daemon did not bind within 30 s")

    def _on_bound(self, bound) -> None:
        self.address = tuple(bound)
        self._bound.set()

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._task = self._loop.create_task(
            run_server(self.manager, host="127.0.0.1", port=0, on_bound=self._on_bound)
        )
        try:
            self._loop.run_until_complete(self._task)
            self._loop.run_until_complete(self._loop.shutdown_default_executor())
        finally:
            self._loop.close()

    def close(self) -> None:
        if self._task is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(30)
        self.manager.close()
        if self._thread.is_alive():
            raise RuntimeError("serve daemon thread did not stop")


def _normalized(result: dict, variant: str, base: str) -> str:
    return _canonical(result).replace(variant, base)


class ServeWarm(Workload):
    """One op is one job: submit a distinct doc, wait, fetch the payload."""

    name = "serve-warm"
    tail_percentile = 90.0  # 2300-3000 jobs, chunks of 460-600

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.store_root = tmp / "serve-store"
        self.daemon: Daemon | None = None
        self.docs: list[dict] = []
        self.payloads: dict[str, str] = {}

    def _daemon(self, parts: Parts, runner=None) -> Daemon:
        service = parts.service(
            memory=SERVE_MEMORY, store=parts.store(self.store_root)
        )
        return Daemon(JobManager(service=service, runner=runner, workers=1))

    def prepare(self) -> None:
        self.daemon = self._daemon(Parts(None))

    def fill(self) -> None:
        first = 1_000_000 + self.seed * SERVE_POOL
        self.docs = [
            scenario_to_dict(
                random_market(
                    first + i, CP_TYPES, policy_levels=(0.0,),
                    scenario_id=f"pb{self.seed}-m{i}",
                )
            )
            for i in range(SERVE_POOL)
        ]
        client = CountingServeClient(*self.daemon.address)
        for doc in self.docs:
            record = client.run(doc)
            if record["state"] != "done":
                raise RuntimeError(f"fill job for {doc['id']} ended {record['state']}")
            result = client.result(record["job_id"])["result"]
            self.payloads[doc["id"]] = _canonical(result)

    def run_phase(self, tracer, seconds, label, *, cut=True) -> Phase:
        parts = Parts(tracer)
        parents: dict = {}
        if tracer is None:
            daemon = self.daemon
        else:
            daemon = self._daemon(parts, timed_runner(tracer, parents, time.time))
        service = daemon.manager.service
        computed_before = service.counters.computed
        ops: list[Op] = []
        requests = []
        lock = threading.Lock()
        counter = itertools.count()
        start = clock()
        deadline = start + seconds

        def client_loop() -> None:
            client = CountingServeClient(*daemon.address)
            while clock() < deadline:
                with lock:
                    k = next(counter)
                base = self.docs[k % SERVE_POOL]
                doc = dict(base, id=f"{base['id']}-{label}-j{k}")
                op = Op(f"{label}-j{k}", 0.0, True, {"base": base["id"], "id": doc["id"]})
                begin = clock()
                try:
                    with parts.op(op.op_id):
                        if tracer is not None:
                            parents[doc["id"]] = tracer.current()
                        record = client.run(doc)
                        result = client.result(record["job_id"])
                except Exception as exc:  # a failed request is a failed op
                    op.ok = False
                    op.info["error"] = f"{type(exc).__name__}: {exc}"
                op.latency = clock() - begin
                if op.ok:
                    # Checked here, outside the op's latency, so no payload
                    # outlives its op.
                    op.info["submitted_at"] = result["submitted_at"]
                    op.ok = result["state"] == "done" and _normalized(
                        result["result"], doc["id"], base["id"]
                    ) == self.payloads[base["id"]]
                with lock:
                    ops.append(op)
            with lock:
                requests.append(client.requests)

        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
            for i in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock() - start
        computed = service.counters.computed - computed_before
        if tracer is not None:
            daemon.close()
        phase = Phase(
            ops, elapsed, sha256("".join(self.payloads[d["id"]] for d in self.docs)),
            computed, server={"requests": sum(requests)},
        )
        errors = [op for op in ops if "error" in op.info]
        if errors:
            phase.fail(errors, f"{len(errors)} job(s) raised: {errors[0].info['error']}")
        wrong = [op for op in ops if not op.ok and "error" not in op.info]
        if wrong:
            phase.fail(wrong, f"{len(wrong)} job(s) not done or unlike the fill payload")
        if computed != 0:
            phase.fail(ops, f"computed_delta = {computed} on a warm store")
        return phase

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


WORKLOADS = {
    cls.name: cls for cls in (Figures, CampaignCold, CampaignWarm, ServeWarm)
}
