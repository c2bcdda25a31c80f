"""cohpert benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload witness-grid --seed 1 --seconds 15 --trace 0

One client runs ops back to back with no worker threads and BLAS pinned to
one thread.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` replays a fixed op list alternately untraced and traced
and reports the per-layer metrics.  Every op's output is checked by a
plain-numpy oracle (``oracles.py``) outside its timed region.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, the failed-op ratio and the versions the run used.

See ``bench/README.md`` for the workloads, the metrics, which end-to-end
metric each per-layer metric should move, and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith((".s", "_s")) else "ratio"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("witness-grid", "search", "custom-check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the seeded inputs, then exit (times set-up)")
    return ap.parse_args(argv)


def pin_blas() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_cohpert():
    """Import cohpert from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cohpert" / "__init__.py").is_file():
        raise SystemExit(f"error: no cohpert sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import cohpert

    if not Path(cohpert.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported cohpert from {cohpert.__file__}, not {SRC}")
    return cohpert


# ---------------------------------------------------------------------------
# environment record and tolerance hygiene


def blas_threads() -> str:
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def tolerance_values(module) -> dict:
    return {k: v for k, v in vars(module).items() if k.isupper() and isinstance(v, float)}


def tolerance_defaults() -> dict | None:
    """The tolerances as ``tolerances.py`` defines them, from a fresh execution of the file."""
    import importlib.util

    path = SRC / "cohpert" / "tolerances.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_bench_tolerance_defaults", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tolerance_values(module)


def tolerance_problems(cohpert, defaults: dict | None, when: str) -> list[str]:
    module = getattr(cohpert, "tolerances", None)
    if defaults is None or module is None:
        return []
    current = tolerance_values(module)
    return [f"tolerance {k} is {current.get(k)!r} {when} the workload, default {v!r}"
            for k, v in defaults.items() if current.get(k) != v]


# ---------------------------------------------------------------------------
# running ops


def run_op(op) -> tuple[object, BaseException | None, float]:
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises counts as failed; keep going
        result, error = None, exc
    return result, error, time.perf_counter() - start


def verify(op, result, error) -> list[str]:
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    try:
        return op.verify(result)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return [f"oracle could not read the output: {type(exc).__name__}: {exc}"]


class Ledger:
    """Counts attempted and failed ops and keeps the first few problems.

    ``run_problems`` are failed checks of the run as a whole (tolerance
    hygiene, repeatable counts); they make the result incorrect too.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_problems: list[str] = []

    def record(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.kind}: " + "; ".join(problems[:3]))


def setup_probe(args) -> float:
    """Wall time of one fresh process that imports cohpert and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return elapsed


def build_pool(workloads, cohpert, args, outdir: str):
    stream = workloads.stream(args.workload, args.seed, cohpert, outdir)
    size = workloads.CYCLE[args.workload] * workloads.POOL_CYCLES
    return stream, [next(stream) for _ in range(size)]


def end_to_end(args, cohpert, workloads, ledger: Ledger, outdir: str) -> dict:
    stream, pool = build_pool(workloads, cohpert, args, outdir)
    cycle = workloads.CYCLE[args.workload]
    for op in pool[:cycle]:  # warm-up: one op of each kind, checked but not timed
        ledger.record(op, verify(op, *run_op(op)[:2]))

    def ops():
        yield from pool[cycle:]
        yield from stream

    # each op is checked right after it runs, outside its timed region, and
    # its output dropped, so memory does not grow with the number of ops;
    # set-up probes are spread over the run so they see the same machine
    # speed as the ops, which on a shared host drifts over tens of seconds
    op_ms, points, busy, setup_times = [], 0, 0.0, []
    for op in ops():
        if busy >= args.seconds:
            break
        if busy >= len(setup_times) * args.seconds / SETUP_REPEATS:
            setup_times.append(setup_probe(args))
        result, error, dt = run_op(op)
        busy += dt
        op_ms.append(dt * 1e3)
        problems = verify(op, result, error)
        ledger.record(op, problems)
        if not problems:
            points += op.points(result)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_probe(args))
    print(f"# timed ops: {len(op_ms)}, points: {points}, busy: {busy:.3f} s")
    return {
        "setup_s": statistics.median(setup_times),
        "points_per_s": points / busy,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(args, cohpert, workloads, ledger: Ledger, outdir: str) -> dict:
    """Alternate untraced and traced passes over one fixed op list."""
    import tracing

    _, op_list = build_pool(workloads, cohpert, args, outdir)

    def one_pass(tracer=None) -> float:
        if tracer is not None:
            tracer.install(cohpert)
        start = time.perf_counter()
        try:
            outputs = [(op, *run_op(op)[:2]) for op in op_list]
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        for op, result, error in outputs:
            ledger.record(op, verify(op, result, error))
        return wall

    one_pass()  # warm-up
    untraced_walls, traced_walls, tracers = [], [], []
    begin = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - begin < args.seconds:
        untraced_walls.append(one_pass())
        tracers.append(tracing.Tracer())
        traced_walls.append(one_pass(tracers[-1]))

    tallies = [t.tallies() for t in tracers]
    counts_repeat = all(t == tallies[0] for t in tallies)
    if not counts_repeat:
        ledger.run_problems.append("traced counts differ between passes over the same ops")
    print(f"# traced passes: {len(tracers)} over {len(op_list)} ops each; "
          f"counts repeat exactly: {counts_repeat}")
    per_pass = [t.metrics() for t in tracers]
    # times are medians over passes; counts and ratios of counts are the same in every pass
    metrics = {k: statistics.median(m[k] for m in per_pass) if per_layer_unit(k) == "s" else v
               for k, v in per_pass[0].items()}
    metrics["trace.untraced_pass_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - metrics["trace.untraced_pass_s"]
    print("# self time by layer (median traced pass):")
    for name in sorted(k for k in metrics if k.startswith("layer.")):
        print(f"#   {name[6:-7]:<14} {metrics[name]:.6f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    cohpert = import_cohpert()
    import workloads

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as outdir:
            build_pool(workloads, cohpert, args, outdir)
        return 0

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    defaults = tolerance_defaults()
    ledger = Ledger()
    ledger.run_problems += tolerance_problems(cohpert, defaults, "before")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as outdir:
        if args.trace:
            metrics = traced(args, cohpert, workloads, ledger, outdir)
        else:
            metrics = end_to_end(args, cohpert, workloads, ledger, outdir)
    ledger.run_problems += tolerance_problems(cohpert, defaults, "after")

    for problem in ledger.run_problems + ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    units = END_TO_END if not args.trace else {k: per_layer_unit(k) for k in metrics}
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(f"failed_ratio: {ledger.failed / max(1, ledger.attempted):.6g} "
          f"({ledger.failed} of {ledger.attempted} ops)")
    result = {
        "correct": ledger.failed == 0 and not ledger.run_problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
