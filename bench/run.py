#!/usr/bin/env python3
"""povmcert benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload lab --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The
workload repeats whole passes, all with the same seed, until about
--seconds of pass time (at least two passes), and their artifacts are
compared byte for byte.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 traced and untraced passes alternate
and it holds the per-layer metrics plus the tracing overhead.  Full
results, with the environment, go to
bench/results/<workload>-seed<n>-trace<t>/.
"""
import os
import sys

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NPROC = len(os.sched_getaffinity(0))
# BLAS sizes its thread pool when numpy loads, so the cap goes in first
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
MIN_PASSES = 2
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
SETUP_CODE = """
import povmcert
from povmcert import OptimizerConfig, build_witness, sic_experiment, sic_target, trine_experiment, trine_target
for name, k in (("sic", 0.2), ("trine", 1.0), ("trine", 4.5)):
    build_witness(name, k)
sic_target(); trine_target(); sic_experiment(); trine_experiment(); OptimizerConfig()
"""


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("lab", "envelope", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing povmcert and building its inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)))
    # a blocking wait: Popen.wait(timeout=...) polls in steps of up to
    # 50 ms, which would quantize the reading
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        raise RuntimeError(f"set-up interpreter exited with {rc}")
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def main() -> int:
    args = parse_args()
    if not (SRC / "povmcert" / "__init__.py").is_file():
        print(f"error: no povmcert sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS, Client

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    client = Client()
    tracer = tracing.Tracer() if args.trace else None
    setup: list[float] = []
    passes = []  # (traced, times)
    busy = 0.0
    # traced runs alternate untraced and traced passes after an untraced
    # warm-up pass, which is left out of the overhead estimate
    min_passes = 3 if args.trace else MIN_PASSES
    while True:
        # set-up samples sit between passes, so they meet the same
        # stretches of machine speed as the passes do
        if len(setup) < SETUP_REPEATS:
            setup.append(measure_setup())
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracing.install(tracer)
            client.tracer, lo = tracer, len(tracer.spans)
        t0 = time.perf_counter()
        times = workload.run_pass(client, run_dir / f"pass{len(passes)}")
        times["wall_s"] = time.perf_counter() - t0
        if traced:
            tracer.restore()
            client.tracer = None
            times["layers"] = tracing.layer_metrics(tracer, lo, len(tracer.spans))
        passes.append((traced, times))
        busy += times["wall_s"]
        # stop at the pass boundary nearest to --seconds of pass time
        if len(passes) >= min_passes and busy * (1 + 0.5 / len(passes)) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())

    pass_dirs = [run_dir / f"pass{i}" for i in range(len(passes))]
    try:
        failures = workload.check(pass_dirs)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failures = [f"check could not read the outputs: {type(exc).__name__}: {exc}"]
    for extra in pass_dirs[1:]:
        shutil.rmtree(extra, ignore_errors=True)

    plain = [t for is_traced, t in passes if not is_traced][1 if args.trace else 0:]
    traced = [t for is_traced, t in passes if is_traced]

    def mean(rows, key):
        return statistics.mean(r[key] for r in rows)

    # a mean, not a median, over passes: the host's speed drifts by some
    # 20% over tens of seconds, and a median of a few passes jumps between
    # fast and slow stretches where the mean averages over them
    wall_s = mean(plain, "wall_s")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process",
        "environment": environment(),
        "setup_s": setup,
        "passes": [dict(t, traced=is_traced) for is_traced, t in passes],
        "items_per_pass": workload.items,
        workload.rate_name: workload.items / wall_s,
        "phase_means_s": {k: mean(plain, k) for k in plain[0] if k != "wall_s"},
        "peak_rss_mb": peak_rss_mb,
        "attempted": client.attempted,
        "failed": client.failed,
        "errors": client.errors,
        "check_failures": failures,
    }
    if args.trace:
        layers = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = mean(traced, "wall_s") - wall_s
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
        detail["traced_wall_s"] = mean(traced, "wall_s")
        detail["absent"] = tracer.absent
        (run_dir / "trace.json").write_text(json.dumps(tracer.to_json()))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail["metrics"] = metrics
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")

    for line in failures + client.errors:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in ("workload", "seed", workload.rate_name, "phase_means_s", "environment")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
