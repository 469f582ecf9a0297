"""One benchmark process: set up a workload, run it, print one JSON line.

``perfbench/run.py`` starts this module in a child process (``python3 -m
benchlib.worker``) with the environment pinned, so the child's start is
the start of the set-up time and its peak RSS is the workload's own.
Modes:

``--build``
    Resolve the compiled backend (building the C kernels if needed),
    refuse anything but ``cext`` without a fallback, and import every
    module the workloads use. Nothing is timed.
``--setup-only``
    Import, build the workload's first-op layers, report ``setup_s``.
(default)
    Set-up, untimed fill, then the timed phase(s); report everything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path


def _environment(seed: int) -> dict:
    import numpy

    from repro.backend import get_backend

    backend = get_backend()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "backend": backend.name,
        "backend_requested": backend.requested,
        "fallback_reason": backend.fallback_reason,
    }


def _guard_backend() -> None:
    from repro.backend import get_backend

    backend = get_backend()
    if backend.name != "cext" or backend.fallback_reason is not None:
        raise SystemExit(
            f"refusing to benchmark: REPRO_BACKEND={backend.requested} resolved "
            f"to {backend.name!r} (fallback: {backend.fallback_reason}); "
            f"the benchmark needs the cext kernels"
        )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phase_summary(phase) -> dict:
    return {
        "ops": len(phase.ops),
        "failed": phase.failed,
        "elapsed_s": phase.elapsed,
        "digest": phase.digest,
        "notes": phase.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="wall-clock time the parent started this process")
    parser.add_argument("--tmp", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--build", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.time()

    from benchlib.workloads import WORKLOADS

    _guard_backend()
    if args.build:
        from repro.backend import warm_kernels

        warm_kernels()
        print(json.dumps({"env": _environment(args.seed)}))
        return 0

    tmp = args.tmp
    tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, tmp)
    try:
        workload.prepare()
        setup_s = time.time() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"env": _environment(args.seed), "setup_s": setup_s}
        fill_start = time.perf_counter()
        workload.fill()
        result["fill_s"] = time.perf_counter() - fill_start
        result.update(_run(workload, args))
        result["peak_rss_mb"] = _peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(workload, args) -> dict:
    from repro.backend import profiling

    from benchlib.metrics import end_to_end, per_layer
    from benchlib.trace import Tracer

    if not args.trace:
        phase = workload.run_phase(None, args.seconds, "e2e")
        metrics, detail = end_to_end(phase, workload.tail_percentile)
        return {
            "phase": _phase_summary(phase),
            "e2e": metrics,
            "detail": detail,
        }
    # Traced mode: an untraced half for the overhead baseline, then the
    # traced half with profiling counters on. Both run whole campaigns, so
    # the traced counts compare rows expanded with rows stored.
    half = args.seconds / 2.0
    plain = workload.run_phase(None, half, "plain", cut=False)
    plain_rate = (len(plain.ops) - plain.failed) / plain.elapsed

    def backend_seconds() -> float:
        counters = profiling.snapshot()
        return counters["kernel_seconds"] + counters["lockstep_seconds"]

    tracer = Tracer(backend_seconds=backend_seconds)
    profiling.reset()
    with profiling.profiled():
        before = profiling.snapshot()
        traced = workload.run_phase(tracer, half, "traced", cut=False)
        after = profiling.snapshot()
    kernel = {key: after[key] - before[key] for key in after}
    metrics, table = per_layer(
        tracer.spans, traced, kernel=kernel, untraced_ops_per_s=plain_rate
    )
    if args.spans is not None:
        tracer.write_jsonl(args.spans)
    agree = plain.digest == traced.digest
    if not agree:
        traced.notes.append(
            f"traced output digest {traced.digest} != untraced {plain.digest}"
        )
    return {
        "phase": _phase_summary(traced),
        "untraced_phase": _phase_summary(plain),
        "digests_agree": agree,
        "per_layer": metrics,
        "table": table,
    }


if __name__ == "__main__":
    sys.exit(main())
