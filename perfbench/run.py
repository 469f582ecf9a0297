"""The repository benchmark: one workload, timed from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics and a
self-time table. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output gate passed.

The steps, each in its own child process with the environment pinned
(``REPRO_BACKEND=compiled``, serial executor, one worker):

1. build: compile the C kernels into ``perfbench/out/cext`` and refuse to
   go on unless the backend resolves to ``cext`` with no fallback;
2. set-up samples: start the workload and stop once its first op could
   run (the reported ``setup_s`` is the median over these and the main
   run, each measured from process start);
3. the main run: set-up, untimed fill, timed loop, output gates.

Everything the benchmark writes goes under ``perfbench/out/``; a full
record of each run lands in ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from benchlib.metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("figures", "campaign-cold", "campaign-warm", "serve-warm")
#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 0
#: Set-up-only processes started besides the main run.
SETUP_SAMPLES = 2
#: Hard limit on one child process.
CHILD_TIMEOUT_S = 150


def _environment() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONHASHSEED="0",
        REPRO_BACKEND="compiled",
        REPRO_EXECUTOR="serial",
        REPRO_WORKERS="1",
        REPRO_CEXT_CACHE=str(OUT / "cext"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to one CPU.

    The serve workload runs four Python threads under one interpreter
    lock; spread over several CPUs, lock hand-offs between cores made its
    throughput swing by a third from run to run. On one CPU the runs
    agree within a few percent. The highest-numbered CPU is chosen, as
    CPU 0 tends to take the most interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], *, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one worker; its last stdout line is its JSON result."""
    command = [sys.executable, "-m", "benchlib.worker", "--t0", repr(time.time()), *args]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_environment(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker {args} timed out after {timeout} s")
    if proc.returncode != 0:
        raise ChildFailed(
            f"worker {args} exited {proc.returncode}:\n{stderr.strip()[-4000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")


def _layer_table(table: dict) -> None:
    wall = table["op_wall_s"]
    print(f"self time by layer over {wall:.4f} s of op wall time")
    rows = [(layer, table["layers"].get(layer, {}).get("self_s", 0.0)) for layer in LAYERS]
    rows.append(("unattributed", table["unattributed_s"]))
    for layer, seconds in rows:
        share = seconds / wall if wall else 0.0
        print(f"  {layer:<22} {seconds:>10.4f} s {share:>7.1%}")
    total = sum(seconds for _, seconds in rows)
    print(f"  {'total':<22} {total:>10.4f} s {total / wall if wall else 0.0:>7.1%}")
    print(f"  (spans outside any op: {table['outside_ops_s']:.4f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cpu = _pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        build = _child([*common, "--build"], timeout=600)
        setups = [
            _child([*common, "--setup-only", "--tmp", str(tmp / f"setup{i}")])["setup_s"]
            for i in range(SETUP_SAMPLES)
        ]
        run = _child([
            *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp / "run"), "--spans", str(OUT / f"{tag}.spans.jsonl"),
        ], timeout=CHILD_TIMEOUT_S)
    except ChildFailed as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    phases = [run["phase"]] + ([run["untraced_phase"]] if "untraced_phase" in run else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    notes = [note for p in phases for note in p["notes"]]
    digest = run["phase"]["digest"]
    if args.trace and not run["digests_agree"]:
        notes.append("traced and untraced output digests differ")
    expected = _digests().get(args.workload)
    if args.seed == DEFAULT_SEED and digest != expected:
        notes.append(f"output digest {digest} != recorded {expected}")
    correct = failed == 0 and not notes

    setup_s = statistics.median([run["setup_s"], *setups])
    if args.trace:
        values = run["per_layer"]
        units = PER_LAYER
    else:
        values = dict(run["e2e"], setup_s=setup_s, peak_rss_mb=run["peak_rss_mb"])
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = dict(build["env"], pinned_cpu=cpu)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"pinned to cpu {cpu}  backend {env['backend']}  fill {run['fill_s']:.3f} s  "
          f"setup samples {', '.join(f'{s:.3f}' for s in [run['setup_s'], *setups])} s")
    print(f"ops attempted {attempted}  failed {failed}  digest {digest}")
    if not args.trace:
        detail = run["detail"]
        print(f"op_tail_ms is p{detail['tail_percentile']:g} of {detail['samples']} "
              f"ops, the median over {detail['tail_chunks']} chunk(s) with at least "
              f"{detail['samples_beyond_tail']} beyond it (the tail rule gives "
              f"p{detail['rule_percentile']:g} at this count); "
              f"failed_frac {detail['failed_frac']:g}")
    _print_table("metrics", [(n, m["value"], m["unit"]) for n, m in metrics.items()])
    if args.trace:
        _layer_table(run["table"])
    for note in notes:
        print(f"GATE FAILED: {note}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": [run["setup_s"], *setups],
        "run": run, "correct": correct, "notes": notes,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
