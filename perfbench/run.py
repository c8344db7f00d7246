#!/usr/bin/env python3
"""drumhead benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload chain_n345 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; drumhead is imported from `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer ones. Every line before it is a readable summary:
the environment stamp, each metric with its unit and sample count, failed
checks and the sha256 of every output file. The full record (spans included)
goes to `perfbench/out/`. See perfbench/DESIGN.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUPS = 3  # set-up repeats per run; setup_s reports their median
WORKLOAD_NAMES = ("chain_n345", "thermometry_n190", "buckled_n345", "downstream_n345")
END_TO_END_UNITS = {"setup_s": "s", "requests_per_s": "1/s", "peak_rss_mb": "MB"}
COMPUTED_COUNTS = {
    "crystal.accepted_steps": "count",
    "dynamics.sweep_cells": "count",
    "thermometry.fits": "count",
    "io_formats.bytes_written": "bytes",
    "io_formats.bytes_read": "bytes",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="N = 19 everywhere: exercises the harness, not the program")
    parser.add_argument("--wrong-expectation", action="store_true",
                        help="give the first request a wrong expectation (harness self-test)")
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved {ref}"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _run_request(workload, inputs, tracer, index: int, wrong: bool):
    """One timed request and its checks; a broken request is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        outcome = workload.request(inputs, tracer, index)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)], {}
    finally:
        tracer.request = None
    wall = time.perf_counter() - t0
    try:
        failures, hashes = workload.check(inputs, outcome, wrong)
    except Exception:
        failures, hashes = [traceback.format_exc(limit=3)], {}
    return wall, failures, hashes


def measure(workload, inputs, seconds: float, trace: bool, wrong: bool):
    """Closed loop: after one untimed warm-up request (the first calls in a
    process pay one-off costs), run requests back to back until `seconds`
    have passed.

    In a traced run every other request is traced, starting with the first,
    so the run shows its own untraced throughput beside the traced one.
    """
    tracer = spans.Tracer()
    _run_request(workload, inputs, tracer, 0, False)
    requests = []
    min_requests = 2 if trace else 1
    context = spans.instrument(tracer) if trace else contextlib.nullcontext()
    start = time.perf_counter()
    with context:
        while len(requests) < min_requests or time.perf_counter() - start < seconds:
            index = len(requests)
            traced = trace and index % 2 == 0
            tracer.request = index if traced else None
            wall, failures, hashes = _run_request(workload, inputs, tracer, index, wrong and index == 0)
            requests.append({"index": index, "traced": traced, "wall_s": wall,
                             "failures": failures, "sha256": hashes})
    return requests, tracer


def _per_s(requests) -> float:
    done = [r for r in requests if not r["failures"]]
    wall = sum(r["wall_s"] for r in requests)
    return len(done) / wall if wall > 0.0 else 0.0


def end_to_end(import_s: float, setup_times: list[float], requests) -> dict:
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "requests_per_s": _per_s(requests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(requests, tracer) -> tuple[dict, dict]:
    """Median over traced requests of each layer figure, plus tracing overhead."""
    traced = [r for r in requests if r["traced"]]
    rows = [spans.request_layer_metrics(tracer.spans, r["index"], r["wall_s"]) for r in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.coverage"] = min(row["trace.coverage"] for row in rows)
    metrics["trace.requests_per_s"] = _per_s(traced)
    metrics["trace.untraced_requests_per_s"] = _per_s([r for r in requests if not r["traced"]])
    units = {name: COMPUTED_COUNTS.get(name, "s") for name in metrics}
    units.update({
        "dynamics.sweep_cells_per_s": "1/s",
        "trace.coverage": "fraction",
        "trace.requests_per_s": "1/s",
        "trace.untraced_requests_per_s": "1/s",
    })
    samples = {name: len(rows) for name in metrics}
    samples["trace.untraced_requests_per_s"] = len(requests) - len(traced)
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "drumhead" / "__init__.py").is_file():
        print(f"error: no drumhead sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import drumhead.cli  # noqa: F401  (timed: import is part of set-up)
    import_s = time.perf_counter() - t0
    if not Path(drumhead.cli.__file__).resolve().is_relative_to(src):
        print(f"error: drumhead was imported from {drumhead.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{run_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir, args.smoke)
            setup_times.append(time.perf_counter() - t0)
        requests, tracer = measure(workload, inputs, args.seconds, bool(args.trace), args.wrong_expectation)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in requests if r["failures"])
    if args.trace:
        metrics, samples = per_layer(requests, tracer)
    else:
        values = end_to_end(import_s, setup_times, requests)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        samples = {"setup_s": len(setup_times), "requests_per_s": len(requests), "peak_rss_mb": 1}
    result = {"correct": failed == 0, "attempted": len(requests), "failed": failed, "metrics": metrics}

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{run_name}: {len(requests)} requests, {failed} failed, "
          f"ops_failed_frac {failed / len(requests):.4g}, "
          f"request_s_p50 {statistics.median(r['wall_s'] for r in requests):.6g} s (n={len(requests)}), "
          f"import {import_s:.3f} s, setups {', '.join(f'{t:.3f}' for t in setup_times)} s")
    for name, metric in metrics.items():
        tag = " [computed]" if name in COMPUTED_COUNTS else ""
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:8s} n={samples[name]}{tag}")
    for r in requests:
        for failure in r["failures"]:
            print(f"  request {r['index']} FAILED: {failure.strip()}")
    for file_name in sorted({f for r in requests for f in r["sha256"]}):
        digests = [r["sha256"][file_name] for r in requests if file_name in r["sha256"]]
        print(f"  sha256 {file_name} {digests[-1]} ({len(digests)} writes, {len(set(digests))} distinct)")

    record = {
        "args": vars(args), "env": env, "import_s": import_s, "setup_s": setup_times,
        "requests": requests, "samples": samples, "computed_counts": sorted(COMPUTED_COUNTS),
        "result": result,
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "counts": s.counts}
            for s in tracer.spans
        ],
    }
    record_path = OUT_DIR / f"{run_name}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
