"""Benchmark of the sasmamba pose lifter.

Usage, from the repository root:

    python3 bench/run.py --workload infer --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``infer``,
``train-default``, ``train-small`` and ``io-eval``. One client sends each
request after the previous one finished (a closed loop, no concurrency), in a
fresh process per run. A run sets up its inputs repeatedly for at least two
seconds and reports the median as ``setup_s``, does the workload's warm-up,
then sends requests until ``--seconds`` have passed and a whole cycle of the
workload's distinct requests is done. Every request's outputs are checked untimed; a request fails
on an exception, a non-zero exit code or a failed check, and the final line's
``failed`` / ``attempted`` is the fail ratio.

With ``--trace 0`` the final line holds the end-to-end metrics. With
``--trace 1`` the run first measures the workload untraced, then again with
the layer tracer installed; the final line holds the per-layer metrics and
the spans go to ``.bench_run/spans-<workload>.json``. ``python3
bench/selftest.py`` runs every workload at tiny sizes.

The last stdout line is one JSON object; the lines before it give the
provenance and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is short, so it is repeated for a while and the median reported;
# a single set-up mostly measures how fast the host happened to be.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# One BLAS thread for every run, so that runs compare like with like. The
# model's matrices are small enough that a second thread gains little, and it
# makes each step depend on a second, shared core.
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "frames_per_s": "frames/s",
                    "latency_p50_s": "s", "peak_rss_mb": "MB"}
MAX_ERRORS_SHOWN = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("infer", "train-default", "train-small", "io-eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every model and input (used by selftest.py)")
    p.add_argument("--fault", choices=("none", "perturb-pred", "flip-ckpt-byte"),
                   default="none", help="corrupt outputs on purpose (used by selftest.py)")
    return p.parse_args(argv)


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: send request i, wait for it, check it, send request i + 1."""
    latencies, frames, dropped, failed, errors = [], 0, 0, 0, []
    i, elapsed = 0, 0.0
    while elapsed < seconds or i % workload.cycle:
        if tracer is not None:
            tracer.begin_request(i)
            tracer.resume()
        t0 = time.perf_counter()
        try:
            result = workload.request(i)
        except Exception:
            result, error = None, traceback.format_exc()
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.pause()
        latencies.append(dt)
        elapsed += dt
        if error is None:
            try:
                done, lost = workload.check(i, result)
                frames += done
                dropped += lost
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            errors.append(error)
        i += 1
    return {"latencies": latencies, "frames": frames, "dropped": dropped,
            "failed": failed, "errors": errors, "busy_s": elapsed}


def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    lines = {p.stem: sum(1 for _ in p.open()) for p in sorted((SRC / "sasmamba").glob("*.py"))}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def _commit() -> str:
    """The checked-out commit, or 'unknown' outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sasmamba" / "__init__.py").is_file():
        print(f"error: sasmamba sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    info = provenance(args.seed)
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny, args.fault)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            workload.setup()
            tracer.pause()
        workload.warmup()
        run = run_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = run_loop(workload, args.seconds, tracer) if tracer is not None else None
        finish_error = None
        try:
            workload.finish()
        except Exception:
            finish_error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [run] if traced is None else [run, traced]
    attempted = sum(len(r["latencies"]) for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    failed = sum(r["failed"] for r in runs)
    if finish_error is not None:
        errors.append(finish_error)
        failed = min(failed + 1, attempted)
    for err in errors[:MAX_ERRORS_SHOWN]:
        print(err, file=sys.stderr)

    fps = run["frames"] / run["busy_s"]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": fps,
            "latency_p50_s": statistics.median(run["latencies"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        from tracing import METRIC_UNITS
        n = len(traced["latencies"])
        metrics = tracer.metrics(requests=n, setups=1,
                                 frames_dropped=traced["dropped"] / n,
                                 overhead_ratio=(traced["frames"] / traced["busy_s"]) / fps
                                 if fps > 0 else 0.0)
        units = METRIC_UNITS
        spans_path = ROOT / ".bench_run" / f"spans-{args.workload}.json"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))

    print(json.dumps({"provenance": info}))
    print(f"workload {args.workload}: {len(run['latencies'])} untraced requests "
          f"(latency samples), {run['busy_s']:.2f} s timed, closed loop with one client")
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} requests)")
    tail = tail_latency(run["latencies"])
    if tail is not None:
        print(f"latency_tail_s {tail[1]:.6f} s (p{tail[0]:.1f}, "
              f"{len(run['latencies'])} samples)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
