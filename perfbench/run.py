"""Benchmark runner for nfg.

    python3 perfbench/run.py --workload two_mode_stream --seed 1 --seconds 20 --trace 0

Run from the repository root; nfg is imported from ``src/`` of the same
tree.  One process, one client, closed loop: the next op starts when the
previous one and its checks have finished.  The last line of standard
output is the result, ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment and the workload-specific
figures.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS/OpenMP thread cap: one client, and matrices small enough that extra
#: BLAS threads only add hand-off cost and timing noise.  Must be set before
#: NumPy is imported.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed per run for setup_s (median reported).
SETUP_PROBES = 5

#: Scratch directory for CLI output files, under the checkout root.
WORK_DIR_NAME = ".perfbench_work"


def _cap_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _import_nfg():
    """Import nfg from this tree's src/, never from an installed copy."""
    if not (SRC / "nfg" / "__init__.py").is_file():
        sys.exit(f"error: no nfg sources at {SRC / 'nfg'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nfg

    if Path(nfg.__file__).resolve().parent != SRC / "nfg":
        sys.exit(f"error: imported nfg from {nfg.__file__}, expected {SRC / 'nfg'}")
    return nfg


def _generate(workload: str, seed: int, smoke: bool, work_dir: Path):
    """The workload and its inputs, built from the seed."""
    import numpy as np
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    return w, w.generate(np.random.default_rng(seed), smoke, str(work_dir))


def _setup_seconds(args) -> tuple[float, float]:
    """Median (measured, normalized) set-up time of fresh interpreters that
    import nfg and generate the inputs (``--probe`` runs).

    Each probe times itself from the moment it was spawned and calibrates
    on its own CPU afterwards, since it may run on another one than this
    process.
    """
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", str(time.perf_counter_ns())]  # fmt: skip
        out = subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True,
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)  # fmt: skip
        times.append(json.loads(out.stdout))
    return tuple(statistics.median(t) * 1e-9 for t in zip(*times))


def _probe(args, work_dir: Path) -> None:
    """Set up as a run does, then report [measured, normalized] ns since spawn."""
    _generate(args.workload, args.seed, args.smoke, work_dir)
    elapsed = time.perf_counter_ns() - args.probe
    from calibration import REQUEST, Calibration

    cal = Calibration(REQUEST)  # set-up is interpreter-bound on every workload
    cal.measure(elapsed)
    print(json.dumps([elapsed, cal.normalized(elapsed)]))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nfg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    """HEAD of the git checkout rooted here; "unknown" for any other tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "blas_threads": BLAS_THREADS,
    }


def _measure(w, inputs, seconds: float, cal, tracer, trace: bool):
    """Closed loop over the inputs until `seconds` have passed.

    Returns (measured and per-op normalized ns of each untraced op that
    passed its checks, items per such op, ops attempted, ops failed).  A
    traced run takes each input twice, untraced and then traced, so both
    sets of op times cover the same inputs and the same stretch of time.
    """
    from tracing import NULL

    op_ns, norm_ns, items, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        inp = inputs[(attempted // 2 if trace else attempted) % len(inputs)]
        t = tracer if traced else NULL
        tracer.op_id = attempted
        attempted += 1
        try:
            out, dt, norm = cal.timed(t.call, "op", w.op, inp, t)
            problems = t.call("check", w.check, inp, out, t)
            if traced and w.decompose is not None:
                t.call("decompose", w.decompose, inp, t)
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        if problems:
            failed += 1
            print(f"op {attempted - 1} failed: {'; '.join(problems)}", file=sys.stderr)
        elif not traced:
            op_ns.append(dt)
            norm_ns.append(norm)
            items.append(w.items(inp))
        if time.perf_counter() >= deadline and attempted >= (2 if trace else 1):
            return op_ns, norm_ns, items, attempted, failed


def main(argv=None) -> int:
    _cap_threads()
    _import_nfg()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--probe", type=int, help=argparse.SUPPRESS)  # spawn time, ns
    args = parser.parse_args(argv)

    work_dir = ROOT / WORK_DIR_NAME / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe is not None:
            _probe(args, work_dir)
            return 0
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, work_dir: Path) -> int:
    w, inputs = _generate(args.workload, args.seed, args.smoke, work_dir)
    from calibration import Calibration
    from tracing import Tracer, layer_metrics

    cal = Calibration(w.reference)
    setup_s = None if args.trace else _setup_seconds(args)
    w.warmup(str(work_dir))
    tracer = Tracer()
    op_ns, norm_ns, items, attempted, failed = _measure(
        w, inputs, args.seconds, cal, tracer, bool(args.trace)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": args.workload,
        "ops_timed": len(op_ns),
        "failed_ratio": failed / attempted,
        "measured_op_p50_ms": _median(op_ns) * 1e-6,
        "measured_op_p99_ms": _p99(op_ns) * 1e-6 if len(op_ns) >= 1000 else None,
        "measured_items_per_s": _rate(items, op_ns),
        "measured_setup_s": setup_s[0] if setup_s else None,
        "reference_unit_us": cal.unit_ns * 1e-3,
    }
    if args.trace:
        metrics = layer_metrics(tracer, op_ns)
    else:
        metrics = {
            "setup_s": (setup_s[1], "s"),
            "op_p50_ms": (_median(norm_ns) * 1e-6, "ms"),
            "items_per_s": (_rate(items, [cal.normalized(sum(op_ns))]), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({"env": _environment(args.seed), "report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(items: list[int], ns: list[float]) -> float:
    return sum(items) / (sum(ns) * 1e-9) if ns else 0.0


def _p99(op_ns: list[int]) -> float:
    """p99 of the op times; meaningful with ten or more samples beyond it."""
    return statistics.quantiles(op_ns, n=100)[98]


if __name__ == "__main__":
    sys.exit(main())
