#!/usr/bin/env python3
"""Times of the start-up, the crystal solve, the spectrum file, the sweep and the fit, two source trees side by side.

    python3 tools/kernel_bench.py --parent OLD/src --change src --workdir /tmp/kb \
        --out BENCH_<short-sha>.json [--repeats 7]

Every child process starts from `_run`, with its tree's `src/` on PYTHONPATH
and its stderr passed through; it gives the wall time, the peak RSS
(`ru_maxrss`, from `os.wait4`) and the stdout. Where both trees run,
`_alternate` starts the parent first in even rounds and the change first in
odd ones. Start-up: a fresh `python -c "import drumhead.cli"` process,
timed whole and inside, `--repeats` times per tree. Solve: `solve_equilibrium`
at N = 190 and 345 (44.7 kHz, seeds 1-3), the buckled N = 345 (45.2 kHz,
seeds 0 and 1) and N = 1000 (42.5 kHz, seed 1). Each of `SOLVE_ROUNDS` (8)
rounds starts one process per tree that runs an N = 50 warm-up solve and
then the 9 solves once; with each time come the energy, the convergence
flag, the accepted-step count and every field of the lattice's
`solve_stats` (which both trees must have), and with each process its peak
RSS, which N = 1000 sets. One more process per tree solves the 384 small
crystals of `SMALL_SOLVES` (N = 7, 13, 19 and 20, seeds 0-23, at 42.2, 43.2,
44.7 and 45.0 kHz): it lists those that do not converge, with the reason,
counts those that end above max |g| 1e-10 (scaled units, against the 1e-9
bar), gives the largest final max |g|, and sums their `solve_stats` over all
384 and for each N (`_stats_summary`). Both solve workers call `_solve`.

For N = 19, 190, 345 (44.7 kHz) and N = 1000 (42.5 kHz) the `--parent`
tree's CLI solves the crystal (seed 1) and computes its spectrum once. On
that lattice each tree runs `modes compute` and then `spectrum simulate`
(spin echo, on the band below) `--repeats` times, and the record says
whether the trees wrote the same spectrum and trace files. Then a process
per tree, the first alternating with N, times `save_spectrum` and
`load_spectrum` and, for spin echo and Ramsey on the full 30-800 kHz band
(1541 points, 500 Hz steps), the gain kernel `_gain_blocks`,
`sweep_spectrum`, `fit_occupation`, and a sweep and a fit back to back, as
one `thermometry_n190` request runs them: the minor page faults of a call
repeated alone depend on what the call before left on the heap. The fit
reads the noiseless trace plus seeded Gaussian noise (sigma = 0.02). Each
time is the median, q1 and q3 of `--repeats` calls after a warm-up call,
with the minor page faults per call; save, load and sweep also report the
`tracemalloc` peak of one more call (a load's includes the spectrum it
returns). The record also holds the BLAS thread variables, the numpy, scipy
and Python versions and each tree's commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLI = (sys.executable, "-m", "drumhead")
WORKER = (sys.executable, __file__)
SIZES = ((19, 44.7e3), (190, 44.7e3), (345, 44.7e3), (1000, 42.5e3))
SEQUENCES = {"spin_echo": {"type": "spin_echo", "tau_s": 5e-4, "t_pi_s": 65e-6},
             "ramsey": {"type": "ramsey", "tau_s": 5e-4}}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOLVES = ((190, 44.7e3, 1), (190, 44.7e3, 2), (190, 44.7e3, 3), (345, 44.7e3, 1), (345, 44.7e3, 2),
          (345, 44.7e3, 3), (345, 45.2e3, 0), (345, 45.2e3, 1), (1000, 42.5e3, 1))
SOLVE_ROUNDS = 8
SMALL_SOLVES = tuple((n_ions, rotation_hz, seed) for rotation_hz in (42.2e3, 43.2e3, 44.7e3, 45.0e3)
                     for n_ions in (7, 13, 19, 20) for seed in range(24))
# a small solve's final max |g| (scaled units) counts as thin margin above this, against the 1e-9 bar
MARGIN_GMAX = 1e-10
# the counts printed beside each solve's time and in the small solves' summary
SOLVE_COUNTS = ("kernel_calls", "newton_steps", "newton_far", "newton_near", "cg_float32", "cg_float64",
                "near_rounds", "switched_to_float64")
SMALL_COUNTS = ("above_margin", "largest_final_gmax", "switched_to_float64", "polish_ended", "newton_steps")
IMPORT_CODE = ("import time; start = time.perf_counter(); import drumhead.cli; "
               "print(time.perf_counter() - start)")


def _config(n_ions: int, rotation_hz: float, sequence: dict) -> dict:
    return {
        "trap": {"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": rotation_hz},
        "n_ions": n_ions,
        "drive": {"force_n": 1.5e-23, "gamma_per_s": 223.14, "sequence": sequence},
        "thermal": {"nbar_com": 60.0, "bath_temperature_k": 4.3e-4},
        "sweep": {"start_hz": 30e3, "stop_hz": 800e3, "step_hz": 500.0},
    }


def _commit(src: Path) -> str:
    root = src.resolve().parent
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (not a git checkout)"
    return sha + (" with uncommitted changes under src/" if dirty else "")


def _run(src: Path, argv: list) -> tuple[float, float, str]:
    """Wall seconds, peak RSS (MB) and stdout of one child process with `src` on its PYTHONPATH, which
    must succeed; its stderr passes through."""
    import time

    start = time.perf_counter()
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(src.resolve())), stdout=subprocess.PIPE,
                          text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        seconds, child.returncode = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return seconds, usage.ru_maxrss / 1024, out  # ru_maxrss is in KiB on Linux


def _alternate(trees: dict, rounds: range, commands) -> dict:
    """{side: {name: [`_run` result per round]}} of each tree's commands(side) = {name: argv}, run in
    `rounds`: even rounds run the parent's commands first, odd rounds the change's."""
    runs = {side: {} for side in SIDES}
    for index in rounds:
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            for name, argv in commands(side).items():
                runs[side].setdefault(name, []).append(_run(trees[side], argv))
    return runs


def _both(record: dict, *keys) -> list:
    """The value at `keys` under the parent's and under the change's part of `record`."""
    values = [record[side] for side in SIDES]
    for key in keys:
        values = [value[key] for value in values]
    return values


def _quartiles(values) -> dict:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples": len(values)}


def _worker(workdir: Path, n_ions: int, repeats: int) -> dict:
    """Time the spectrum save and load, the gain kernel, the sweep and the fit in this process; drumhead comes
    from PYTHONPATH."""
    import collections
    import functools
    import resource
    import time
    import tracemalloc

    import numpy as np

    from drumhead import config, dynamics, io_formats, thermometry

    def quartiles(call):
        call()
        times = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / repeats
        return {**_quartiles(times), "minor_faults_per_call": faults}

    def traced_peak_mb(call):
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        return peak

    path, copy = workdir / f"spectrum_{n_ions}.json", workdir / f"spectrum_{n_ions}_saved.json"
    spectrum = io_formats.load_spectrum(path)
    save = functools.partial(io_formats.save_spectrum, spectrum, copy)
    load = functools.partial(io_formats.load_spectrum, path)
    result = {"save_spectrum": {**quartiles(save), "traced_peak_mb": traced_peak_mb(save)},
              "load_spectrum": {**quartiles(load), "traced_peak_mb": traced_peak_mb(load)}}
    for name in SEQUENCES:
        run = config.load_config(workdir / f"run_{n_ions}_{name}.json")
        drive, grid = run.drive, run.sweep.points_rad_s()
        thermal = run.thermal.realize(spectrum)
        clean = dynamics.sweep_spectrum(drive, spectrum, thermal, grid).p_up_mean
        noisy = np.clip(clean + np.random.default_rng(1).normal(0.0, 0.02, len(grid)), 1e-4, 1 - 1e-4)
        data = thermometry.ObservedSpectrum(mu_hz=grid / (2 * np.pi), p_up=noisy,
                                            sigma=np.full(len(grid), 0.02))
        background = dynamics.ThermalState.com_plus_bath(spectrum, 0.0, run.thermal.bath_temperature_k)
        fit = thermometry.fit_occupation(data, spectrum, drive, background=background)
        sweep = functools.partial(dynamics.sweep_spectrum, drive, spectrum, thermal, grid)
        fit_call = functools.partial(thermometry.fit_occupation, data, spectrum, drive, background=background)
        result[name] = {
            "gain_blocks": quartiles(lambda: collections.deque(dynamics._gain_blocks(drive, spectrum, grid), 0)),
            "sweep_spectrum": {**quartiles(sweep), "traced_peak_mb": traced_peak_mb(sweep)},
            "fit_occupation": quartiles(fit_call),
            "sweep_then_fit": quartiles(lambda: (sweep(), fit_call())),
            "fit_status": fit.status,
            "fit_nbar": fit.nbar,
        }
    return result


def _solve(case: tuple) -> tuple:
    """Solve the crystal `case` = (n_ions, rotation_hz, seed): the wall seconds, the lattice (the best one
    when the solve did not converge), its `solve_stats` as a dict and the failure message, or None."""
    import dataclasses
    import time

    from drumhead import EquilibriumNotConverged, TrapParams, solve_equilibrium

    n_ions, rotation_hz, seed = case
    start = time.perf_counter()
    try:
        lattice, message = solve_equilibrium(TrapParams.from_hz(795e3, 7.6e6, rotation_hz), n_ions, seed=seed), None
    except EquilibriumNotConverged as exc:
        lattice, message = exc.best, str(exc)
    return time.perf_counter() - start, lattice, dataclasses.asdict(lattice.solve_stats), message


def _solve_worker() -> list:
    """Time each of SOLVES once in this process, after a warm-up solve; drumhead comes from PYTHONPATH."""
    _solve((50, 44.7e3, 0))  # a first solve runs slower
    return [{"seconds": seconds, "energy_j": lattice.energy, "converged": lattice.converged,
             "accepted_steps": len(lattice.energy_trace), **stats}
            for seconds, lattice, stats, _ in map(_solve, SOLVES)]


def _stats_summary(stats: list) -> dict:
    """Rule tallies, step counts, per-solve ranges and totals over solves' `solve_stats` (as dicts)."""
    import collections

    import numpy as np

    steps = [s["newton_steps"] for s in stats]
    return {"solves": len(stats),
            "relax_ended": collections.Counter(rule for s in stats for rule in s["relax_ended"]),
            "polish_ended": collections.Counter(s["polish_ended"] for s in stats),
            "newton_steps": {"min": min(steps), "median": float(np.median(steps)), "max": max(steps)},
            **{key: [min(s[key] for s in stats), max(s[key] for s in stats)]
               for key in ("lbfgs_steps", "kernel_calls", "newton_far", "newton_near")},
            **{key: sum(s[key] for s in stats) for key in ("cg_float32", "cg_float64", "cg_capped", "near_rounds",
                                                          "descent_steps", "switched_to_float64")}}


def _small_worker() -> dict:
    """Solve SMALL_SOLVES in this process; drumhead comes from PYTHONPATH."""
    from drumhead import length_scale

    failed, final_gmax, stats = [], [], {}
    for n_ions, rotation_hz, seed in SMALL_SOLVES:
        _, lattice, stats_dict, message = _solve((n_ions, rotation_hz, seed))
        if message is not None:
            failed.append({"n_ions": n_ions, "rotation_hz": rotation_hz, "seed": seed, "message": message})
        stats.setdefault(n_ions, []).append(stats_dict)
        # the scaled gradient: the residual force over the force unit M w1^2 l0
        params = lattice.params
        final_gmax.append(lattice.residual_force_max / (params.mass * params.omega_1**2 * length_scale(params)))
    return {"not_converged": failed, "above_margin": sum(g > MARGIN_GMAX for g in final_gmax),
            "largest_final_gmax": max(final_gmax), **_stats_summary(sum(stats.values(), [])),
            "by_n_ions": {n_ions: _stats_summary(each) for n_ions, each in stats.items()}}


def _startup_and_solves(trees: dict, repeats: int) -> dict:
    """Import and solve times of both trees, with each solve's counts, and each tree's small-solve summary."""
    imports = _alternate(trees, range(repeats), lambda side: {"import": [sys.executable, "-c", IMPORT_CODE]})
    rounds = _alternate(trees, range(SOLVE_ROUNDS), lambda side: {"solve": [*WORKER, "--solve-worker"]})
    small = _alternate(trees, range(1), lambda side: {"small": [*WORKER, "--small-worker"]})
    record = {}
    for side in SIDES:
        runs = [json.loads(out) for _, _, out in rounds[side]["solve"]]
        record[side] = {
            "import_process_s": _quartiles([wall for wall, _, _ in imports[side]["import"]]),
            "import_in_process_s": _quartiles([float(out) for _, _, out in imports[side]["import"]]),
            "solve_process_peak_rss_mb": [rss for _, rss, _ in rounds[side]["solve"]],
            "solves": {f"{n_ions}_{rotation_hz / 1e3:g}kHz_seed{seed}": {
                "rotation_hz": rotation_hz, **_quartiles([run[i]["seconds"] for run in runs]),
                **{key: value for key, value in runs[0][i].items() if key != "seconds"}}
                for i, (n_ions, rotation_hz, seed) in enumerate(SOLVES)},
            "small_solves": json.loads(small[side]["small"][0][2])}
    return record


def _commands(trees: dict, workdir: Path, n_ions: int, repeats: int) -> dict:
    """`modes compute` and `spectrum simulate` processes of both trees."""
    def commands(side):
        spectrum = workdir / f"spectrum_{n_ions}_{side}.json"
        return {"modes_compute": [*CLI, "modes", "compute", "--lattice", workdir / f"lattice_{n_ions}.json",
                                  "--out", spectrum],
                "spectrum_simulate": [*CLI, "spectrum", "simulate", "--config",
                                      workdir / f"run_{n_ions}_spin_echo.json", "--spectrum", spectrum,
                                      "--out", workdir / f"trace_{n_ions}_{side}.csv"]}

    record = {side: {command: {**_quartiles([wall for wall, _, _ in samples]),
                               "peak_rss_mb": [rss for _, rss, _ in samples]}
                     for command, samples in runs.items()}
              for side, runs in _alternate(trees, range(repeats), commands).items()}
    for kind, suffix in (("spectrum", "json"), ("trace", "csv")):
        files = [(workdir / f"{kind}_{n_ions}_{side}.{suffix}").read_bytes() for side in SIDES]
        record[f"{kind}_files_equal"] = files[0] == files[1]
    return record


def _environment(src: Path) -> dict:
    # scipy is optional: the package runs without it
    code = ("import importlib.metadata as meta, numpy, platform\n"
            "try:\n    scipy = meta.version('scipy')\nexcept meta.PackageNotFoundError:\n    scipy = 'absent'\n"
            "print(numpy.__version__, scipy, platform.python_version())")
    numpy_v, scipy_v, python_v = _run(src, [sys.executable, "-c", code])[2].split()
    return {"threads": {var: os.environ.get(var) for var in THREAD_VARS}, "cpu_count": os.cpu_count(),
            "numpy": numpy_v, "scipy": scipy_v, "python": python_v}


def _print_solves(startup: dict) -> None:
    for key in ("import_process_s", "import_in_process_s"):
        old, new = _both(startup, key, "median_s")
        print(f"{key:22s} {old:9.3f} -> {new:9.3f} s")
    for key in startup["parent"]["solves"]:
        old, new = _both(startup, "solves", key)
        print(f"solve {key:22s} {old['median_s']:9.3f} -> {new['median_s']:9.3f} s, " + ", ".join(
            f"{count} {old[count]} -> {new[count]}" for count in SOLVE_COUNTS))
    old, new = _both(startup, "small_solves")
    print(f"small solves not converged {len(old['not_converged'])} -> {len(new['not_converged'])} of "
          f"{len(SMALL_SOLVES)}; " + "; ".join(f"{key} {old[key]} -> {new[key]}" for key in SMALL_COUNTS))
    old, new = map(max, _both(startup, "solve_process_peak_rss_mb"))
    print(f"solve process peak RSS {old:9.1f} -> {new:9.1f} MB (largest of {SOLVE_ROUNDS})")


def _print_size(n_ions: int, size: dict) -> None:
    commands = size["commands"]
    for command in ("modes_compute", "spectrum_simulate"):
        old, new = _both(commands, command)
        print(f"N={n_ions:5d} {command:17s} {old['median_s']:9.3f} -> {new['median_s']:9.3f} s, "
              f"largest peak RSS {max(old['peak_rss_mb']):7.1f} -> {max(new['peak_rss_mb']):7.1f} MB")
    print(f"N={n_ions:5d} same spectrum file: {commands['spectrum_files_equal']}, "
          f"same trace: {commands['trace_files_equal']}")
    for call in ("save_spectrum", "load_spectrum"):
        old, new = _both(size, call)
        print(f"N={n_ions:5d} {call:26s} {old['median_s'] * 1e3:9.2f} -> {new['median_s'] * 1e3:9.2f} ms, "
              f"traced peak {old['traced_peak_mb']:7.2f} -> {new['traced_peak_mb']:7.2f} MB")
    for name in SEQUENCES:
        for call in ("gain_blocks", "sweep_spectrum", "fit_occupation", "sweep_then_fit"):
            old, new = _both(size, name, call)
            print(f"N={n_ions:5d} {name:9s} {call:16s} {old['median_s'] * 1e3:9.2f} -> {new['median_s'] * 1e3:9.2f} "
                  f"ms, minor faults per call {old['minor_faults_per_call']:6.0f} -> "
                  f"{new['minor_faults_per_call']:6.0f}")
        old, new = _both(size, name, "sweep_spectrum", "traced_peak_mb")
        print(f"N={n_ions:5d} {name:9s} {'sweep traced peak':16s} {old:9.2f} -> {new:9.2f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("--change", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--solve-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None or args.solve_worker or args.small_worker:
        print(json.dumps(_solve_worker() if args.solve_worker else _small_worker() if args.small_worker
                         else _worker(args.workdir, args.worker, args.repeats)))
        return 0
    if None in (args.parent, args.change, args.out, args.workdir):
        parser.error("--parent, --change, --workdir and --out are required")

    args.workdir.mkdir(parents=True, exist_ok=True)
    trees = {"parent": args.parent, "change": args.change}
    record = {"sides": {side: _commit(src) for side, src in trees.items()},
              "environment": _environment(args.parent), "repeats": args.repeats, "solve_rounds": SOLVE_ROUNDS}
    record["startup_and_solves"] = _startup_and_solves(trees, args.repeats)
    _print_solves(record["startup_and_solves"])
    record["sizes"] = {}
    for index, (n_ions, rotation_hz) in enumerate(SIZES):
        for name, sequence in SEQUENCES.items():
            (args.workdir / f"run_{n_ions}_{name}.json").write_text(json.dumps(_config(n_ions, rotation_hz, sequence)))
        lattice, spectrum = args.workdir / f"lattice_{n_ions}.json", args.workdir / f"spectrum_{n_ions}.json"
        _run(args.parent, [*CLI, "crystal", "solve", "--config", args.workdir / f"run_{n_ions}_spin_echo.json",
                           "--out", lattice, "--seed", "1"])
        _run(args.parent, [*CLI, "modes", "compute", "--lattice", lattice, "--out", spectrum])
        commands = _commands(trees, args.workdir, n_ions, args.repeats)
        workers = _alternate(trees, range(index, index + 1), lambda side: {"worker": [
            *WORKER, "--worker", str(n_ions), "--workdir", args.workdir, "--repeats", str(args.repeats)]})
        record["sizes"][str(n_ions)] = size = {
            "rotation_hz": rotation_hz, "commands": commands, "first": SIDES[index % 2],
            **{side: json.loads(workers[side]["worker"][0][2]) for side in SIDES}}
        _print_size(n_ions, size)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
