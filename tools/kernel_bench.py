#!/usr/bin/env python3
"""Times of the start-up, the crystal solve, the spectrum file, the sweep and the fit, two source trees side by side.

    python3 tools/kernel_bench.py --parent OLD/src --change src --workdir /tmp/kb \
        --out BENCH_<short-sha>.json [--repeats 7]

Start-up: the wall time of a fresh `python -c "import drumhead.cli"` process
and the import's own time inside it, `--repeats` times per tree, the trees
alternating. Solve: `solve_equilibrium` at N = 190 and 345 (44.7 kHz, seeds
1-3), the buckled N = 345 (45.2 kHz, seeds 0 and 1) and N = 1000 (42.5 kHz,
seed 1). `SOLVE_ROUNDS` (8) rounds alternate which tree runs first, and each
round starts one fresh process per tree that runs one N = 50 warm-up solve
and then the 9 solves once; so each solve is timed 8 times per tree, in 8
processes. The energy, the convergence flag, the accepted-step count and
every field of the lattice's `solve_stats` (which both trees must have) come
with each time, and each solve process reports its peak RSS (`ru_maxrss`),
which its largest solve, N = 1000, sets. One more process per tree solves
the 384 small crystals of `SMALL_SOLVES` (N = 7, 13, 19 and 20, seeds 0-23,
at 42.2, 43.2, 44.7 and 45.0 kHz). It lists those that do not converge, with
the reason, and counts those that end above max |g| 1e-10 (scaled units,
against the 1e-9 bar), with the largest final max |g|. From their
`solve_stats` it gives, over all 384 and for each N, the rules that ended
each stage, the Newton steps (least, median and most), per-solve ranges and
totals of the other counts (`_stats_summary`).

For N = 19, 190, 345 (44.7 kHz) and N = 1000 (42.5 kHz) it then solves the
crystal (seed 1) and computes the spectrum once with the `--parent` tree's
CLI. On that lattice each tree runs `modes compute` and then `spectrum
simulate` (spin echo, on the band below) `--repeats` times, the trees
alternating; each process reports its wall time and peak RSS (`ru_maxrss`,
from `os.wait4`), and the record says whether the two trees wrote the same
spectrum and trace files. Then, for each N, a fresh process per tree times
`save_spectrum` and `load_spectrum`, and, for spin echo and Ramsey on the
full 30-800 kHz band (1541 points, 500 Hz steps), the gain kernel
`_gain_blocks` on its own, `sweep_spectrum`, `fit_occupation`, and a sweep
and a fit back to back, as one `thermometry_n190` request runs them: the
minor page faults of a call repeated alone depend on what the call before
left on the heap, and only the pair repeats a request's. The fit reads the noiseless trace plus seeded
Gaussian noise (sigma = 0.02). The two trees alternate which runs first.
Each time is reported as median, q1 and q3 over `--repeats` calls after one
warm-up call, with the minor page faults per call, the BLAS thread
variables, numpy/scipy versions and the commit of each tree. Each
`save_spectrum`, `load_spectrum` and `sweep_spectrum` also reports the
`tracemalloc` peak of one more call, untimed, beside its time; a load's peak
includes the spectrum it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

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
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

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


def _solve_worker() -> dict:
    """Time each of SOLVES once in this process; drumhead comes from PYTHONPATH."""
    import dataclasses
    import resource
    import time

    from drumhead import EquilibriumNotConverged, TrapParams, solve_equilibrium

    solve_equilibrium(TrapParams.from_hz(795e3, 7.6e6, 44.7e3), 50)  # a first solve runs slower
    result = []
    for n_ions, rotation_hz, seed in SOLVES:
        start = time.perf_counter()
        try:
            lattice = solve_equilibrium(TrapParams.from_hz(795e3, 7.6e6, rotation_hz), n_ions, seed=seed)
        except EquilibriumNotConverged as exc:
            lattice = exc.best
        result.append({"seconds": time.perf_counter() - start, "energy_j": lattice.energy,
                       "converged": lattice.converged, "accepted_steps": len(lattice.energy_trace),
                       **dataclasses.asdict(lattice.solve_stats)})
    # ru_maxrss is in KiB on Linux
    return {"solves": result, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


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
    import dataclasses

    from drumhead import EquilibriumNotConverged, TrapParams, length_scale, solve_equilibrium

    failed, final_gmax, stats = [], [], {}
    for n_ions, rotation_hz, seed in SMALL_SOLVES:
        params = TrapParams.from_hz(795e3, 7.6e6, rotation_hz)
        try:
            lattice = solve_equilibrium(params, n_ions, seed=seed)
        except EquilibriumNotConverged as exc:
            lattice = exc.best
            failed.append({"n_ions": n_ions, "rotation_hz": rotation_hz, "seed": seed, "message": str(exc)})
        stats.setdefault(n_ions, []).append(dataclasses.asdict(lattice.solve_stats))
        # the scaled gradient: the residual force over the force unit M w1^2 l0
        final_gmax.append(lattice.residual_force_max / (params.mass * params.omega_1**2 * length_scale(params)))
    return {"not_converged": failed, "above_margin": sum(g > MARGIN_GMAX for g in final_gmax),
            "largest_final_gmax": max(final_gmax), **_stats_summary(sum(stats.values(), [])),
            "by_n_ions": {n_ions: _stats_summary(each) for n_ions, each in stats.items()}}


def _startup_and_solves(trees: dict, repeats: int) -> dict:
    """Import and solve times of both trees, alternating which runs first, with each solve's counts,
    and each tree's small-solve summary."""
    import time

    envs = {side: dict(os.environ, PYTHONPATH=str(src.resolve())) for side, src in trees.items()}
    wall, inside = {side: [] for side in trees}, {side: [] for side in trees}
    for index in range(repeats):
        for side in (("parent", "change") if index % 2 == 0 else ("change", "parent")):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=envs[side], capture_output=True,
                                 text=True, check=True)
            wall[side].append(time.perf_counter() - start)
            inside[side].append(float(out.stdout))
    rounds = {side: [] for side in trees}
    for index in range(SOLVE_ROUNDS):
        for side in (("parent", "change") if index % 2 == 0 else ("change", "parent")):
            out = subprocess.run([sys.executable, __file__, "--solve-worker"], env=envs[side],
                                 capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(out.stdout))
    record = {side: {"import_process_s": _quartiles(wall[side]), "import_in_process_s": _quartiles(inside[side]),
                     "solve_process_peak_rss_mb": [r["peak_rss_mb"] for r in rounds[side]],
                     "solves": {}} for side in trees}
    for i, (n_ions, rotation_hz, seed) in enumerate(SOLVES):
        for side in trees:
            runs = [r["solves"][i] for r in rounds[side]]
            record[side]["solves"][f"{n_ions}_{rotation_hz / 1e3:g}kHz_seed{seed}"] = {
                "rotation_hz": rotation_hz, **_quartiles([r["seconds"] for r in runs]),
                **{key: value for key, value in runs[0].items() if key != "seconds"}}
    for side in trees:
        out = subprocess.run([sys.executable, __file__, "--small-worker"], env=envs[side], capture_output=True,
                             text=True, check=True)
        record[side]["small_solves"] = json.loads(out.stdout)
    return record


def _process(argv: list, env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one child process, which must succeed."""
    import time

    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return time.perf_counter() - start, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _commands(trees: dict, workdir: Path, n_ions: int, repeats: int) -> dict:
    """`modes compute` and `spectrum simulate` processes of both trees, alternating which runs first."""
    runs = {side: {"modes_compute": [], "spectrum_simulate": []} for side in trees}
    for index in range(repeats):
        for side in (("parent", "change") if index % 2 == 0 else ("change", "parent")):
            env = dict(os.environ, PYTHONPATH=str(trees[side].resolve()))
            cli = [sys.executable, "-m", "drumhead"]
            spectrum = workdir / f"spectrum_{n_ions}_{side}.json"
            runs[side]["modes_compute"].append(_process(
                [*cli, "modes", "compute", "--lattice", workdir / f"lattice_{n_ions}.json", "--out", spectrum], env))
            runs[side]["spectrum_simulate"].append(_process(
                [*cli, "spectrum", "simulate", "--config", workdir / f"run_{n_ions}_spin_echo.json",
                 "--spectrum", spectrum, "--out", workdir / f"trace_{n_ions}_{side}.csv"], env))
    record = {side: {command: {**_quartiles([wall for wall, _ in samples]),
                               "peak_rss_mb": [rss for _, rss in samples]}
                     for command, samples in commands.items()} for side, commands in runs.items()}
    for kind, suffix in (("spectrum", "json"), ("trace", "csv")):
        files = [(workdir / f"{kind}_{n_ions}_{side}.{suffix}").read_bytes() for side in trees]
        record[f"{kind}_files_equal"] = files[0] == files[1]
    return record


def _run_worker(src: Path, workdir: Path, n_ions: int, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    out = subprocess.run([sys.executable, __file__, "--worker", str(n_ions), "--workdir", str(workdir),
                          "--repeats", str(repeats)], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _environment() -> dict:
    # scipy is optional: the package runs without it
    code = ("import importlib.metadata as meta, numpy, platform\n"
            "try:\n    scipy = meta.version('scipy')\nexcept meta.PackageNotFoundError:\n    scipy = 'absent'\n"
            "print(numpy.__version__, scipy, platform.python_version())")
    versions = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    numpy_v, scipy_v, python_v = versions.stdout.split()
    return {"threads": {var: os.environ.get(var) for var in THREAD_VARS}, "cpu_count": os.cpu_count(),
            "numpy": numpy_v, "scipy": scipy_v, "python": python_v}


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
    if args.worker is not None:
        print(json.dumps(_worker(args.workdir, args.worker, args.repeats)))
        return 0
    if args.solve_worker:
        print(json.dumps(_solve_worker()))
        return 0
    if args.small_worker:
        print(json.dumps(_small_worker()))
        return 0
    if None in (args.parent, args.change, args.out, args.workdir):
        parser.error("--parent, --change, --workdir and --out are required")

    args.workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(args.parent.resolve()))
    record = {"sides": {"parent": _commit(args.parent), "change": _commit(args.change)},
              "environment": _environment(), "repeats": args.repeats, "solve_rounds": SOLVE_ROUNDS}
    record["startup_and_solves"] = startup = _startup_and_solves(
        {"parent": args.parent, "change": args.change}, args.repeats)
    for key in ("import_process_s", "import_in_process_s"):
        old, new = (startup[side][key]["median_s"] for side in ("parent", "change"))
        print(f"{key:22s} {old:9.3f} -> {new:9.3f} s")
    for key in startup["parent"]["solves"]:
        old, new = (startup[side]["solves"][key] for side in ("parent", "change"))
        print(f"solve {key:22s} {old['median_s']:9.3f} -> {new['median_s']:9.3f} s, "
              f"kernel calls {old['kernel_calls']:5d} -> {new['kernel_calls']:5d}, Newton steps "
              f"{old['newton_steps']} -> {new['newton_steps']}")
        print(f"      {key:22s} Newton solves far/near {old['newton_far']}/{old['newton_near']} -> "
              f"{new['newton_far']}/{new['newton_near']}, CG products float32/float64 "
              f"{old['cg_float32']}/{old['cg_float64']} -> {new['cg_float32']}/{new['cg_float64']}, near-step "
              f"rounds {old['near_rounds']} -> {new['near_rounds']}, switched to float64 "
              f"{old['switched_to_float64']} -> {new['switched_to_float64']}")
    old, new = (startup[side]["small_solves"] for side in ("parent", "change"))
    print(f"small solves not converged {len(old['not_converged'])} -> {len(new['not_converged'])} of "
          f"{len(SMALL_SOLVES)}; ending above max |g| {MARGIN_GMAX:g} {old['above_margin']} -> "
          f"{new['above_margin']}; largest final max |g| {old['largest_final_gmax']:.2e} -> "
          f"{new['largest_final_gmax']:.2e}; switched to float64 CG products {old['switched_to_float64']} -> "
          f"{new['switched_to_float64']}")
    print(f"small solves' polish ended on {dict(old['polish_ended'])} -> {dict(new['polish_ended'])}; Newton steps "
          f"median/max {old['newton_steps']['median']}/{old['newton_steps']['max']} -> "
          f"{new['newton_steps']['median']}/{new['newton_steps']['max']}")
    old, new = (max(startup[side]["solve_process_peak_rss_mb"]) for side in ("parent", "change"))
    print(f"solve process peak RSS {old:9.1f} -> {new:9.1f} MB (largest of {SOLVE_ROUNDS})")
    record["sizes"] = {}
    for index, (n_ions, rotation_hz) in enumerate(SIZES):
        for name, sequence in SEQUENCES.items():
            path = args.workdir / f"run_{n_ions}_{name}.json"
            path.write_text(json.dumps(_config(n_ions, rotation_hz, sequence)), encoding="utf-8")
        lattice, spectrum = args.workdir / f"lattice_{n_ions}.json", args.workdir / f"spectrum_{n_ions}.json"
        cli = [sys.executable, "-m", "drumhead"]
        subprocess.run([*cli, "crystal", "solve", "--config", args.workdir / f"run_{n_ions}_spin_echo.json",
                        "--out", lattice, "--seed", "1"], env=env, check=True, capture_output=True)
        subprocess.run([*cli, "modes", "compute", "--lattice", lattice, "--out", spectrum],
                       env=env, check=True, capture_output=True)
        commands = _commands({"parent": args.parent, "change": args.change}, args.workdir, n_ions, args.repeats)
        for command in ("modes_compute", "spectrum_simulate"):
            (old, old_rss), (new, new_rss) = ((commands[side][command]["median_s"],
                                               max(commands[side][command]["peak_rss_mb"]))
                                              for side in ("parent", "change"))
            print(f"N={n_ions:5d} {command:17s} {old:9.3f} -> {new:9.3f} s, "
                  f"largest peak RSS {old_rss:7.1f} -> {new_rss:7.1f} MB")
        print(f"N={n_ions:5d} same spectrum file: {commands['spectrum_files_equal']}, "
              f"same trace: {commands['trace_files_equal']}")
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        times = {side: _run_worker(getattr(args, side), args.workdir, n_ions, args.repeats) for side in order}
        record["sizes"][str(n_ions)] = {"rotation_hz": rotation_hz, "commands": commands, "first": order[0], **times}
        for call in ("save_spectrum", "load_spectrum"):
            (old, old_mb), (new, new_mb) = ((times[side][call]["median_s"], times[side][call]["traced_peak_mb"])
                                            for side in ("parent", "change"))
            print(f"N={n_ions:5d} {call:26s} {old * 1e3:9.2f} -> {new * 1e3:9.2f} ms, "
                  f"traced peak {old_mb:7.2f} -> {new_mb:7.2f} MB")
        for name in SEQUENCES:
            for call in ("gain_blocks", "sweep_spectrum", "fit_occupation", "sweep_then_fit"):
                (old, old_faults), (new, new_faults) = ((times[side][name][call]["median_s"],
                                                         times[side][name][call]["minor_faults_per_call"])
                                                        for side in ("parent", "change"))
                print(f"N={n_ions:5d} {name:9s} {call:16s} {old * 1e3:9.2f} -> {new * 1e3:9.2f} ms, "
                      f"minor faults per call {old_faults:6.0f} -> {new_faults:6.0f}")
            old, new = (times[side][name]["sweep_spectrum"]["traced_peak_mb"] for side in ("parent", "change"))
            print(f"N={n_ions:5d} {name:9s} {'sweep traced peak':16s} {old:9.2f} -> {new:9.2f} MB")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
