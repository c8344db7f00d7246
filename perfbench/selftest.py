#!/usr/bin/env python3
"""Self-test of the benchmark harness at N = 19; takes about half a minute.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that
the run exits 0, that its last line holds exactly the keys the benchmark
contract names, that every metric BENCHMARK.json lists is printed with its
unit, and that every request passed its checks. It then gives one request a
wrong expectation and checks that the request is counted as failed while the
run still completes, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("chain_n345", "thermometry_n190", "buckled_n345", "downstream_n345")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int, *extra: str) -> dict:
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--smoke", *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_problems(result: dict, expected_units: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(expected_units):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected_units))}")
    for name, unit in expected_units.items():
        metric = result["metrics"].get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    if not (result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True):
        problems.append(f"requests: {result['attempted']} attempted, {result['failed']} failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            found = _metric_problems(_result(workload, trace), units)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)

    first = WORKLOADS[0]
    wrong = _result(first, 0, "--wrong-expectation")
    if not (wrong["correct"] is False and wrong["failed"] == 1 and wrong["attempted"] >= 1):
        problems.append(f"wrong expectation not counted as one failed request: {wrong}")
    print(f"{first} with a wrong expectation: {wrong['failed']} of {wrong['attempted']} failed", flush=True)

    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / "perfbench")
        proc = _run(bare, "--workload", first)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"run without sources exited {proc.returncode} with output {proc.stdout!r}")
        print(f"run without sources: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
