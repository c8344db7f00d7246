"""Command-line front end tying the pipeline together.

Subcommands
    crystal solve       relax an ion crystal, write the lattice JSON
    modes compute       stiffness + eigenmodes from a lattice file
    spectrum simulate   sweep the drive beat frequency, write a trace CSV
    fit temperature     fit a mode occupation from measured data
    plot                normalize a result table to plot-ready data

Exit codes
    0  success
    2  configuration or validation error
    3  equilibrium did not converge (best effort written when possible)
    4  lattice is not a single plane
    5  fit / estimation error (span, background, convergence)
    6  file I/O error
    1  unexpected failure
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io_formats as iof
from .config import load_config
from .crystal import lattice_stats, solve_equilibrium
from .dynamics import sweep_spectrum
from .errors import (
    ConfigError,
    DrumheadError,
    EquilibriumNotConverged,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSpanError,
    NonPlanarLatticeError,
    UnphysicalBackgroundError,
)
from .modes import com_mode_deviation, diagonalize, mode_histogram, transverse_stiffness
from .plotdata import build_plot_rows, write_plot_csv, write_plot_svg
from .thermometry import fit_occupation

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NOT_PLANAR = 4
EXIT_FIT = 5
EXIT_IO = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drumhead", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    crystal = top.add_parser("crystal", help="equilibrium configurations")
    crystal_sub = crystal.add_subparsers(dest="command", required=True)
    solve = crystal_sub.add_parser("solve", help="relax n_ions to equilibrium")
    solve.add_argument("--config", required=True, type=Path)
    solve.add_argument("--out", required=True, type=Path)
    solve.add_argument("--seed", type=int, default=0, help="lattice seed (default 0)")
    solve.add_argument("--csv", type=Path, default=None, help="also write positions as CSV")
    solve.set_defaults(run=_cmd_crystal_solve)

    modes = top.add_parser("modes", help="transverse normal modes")
    modes_sub = modes.add_subparsers(dest="command", required=True)
    compute = modes_sub.add_parser("compute", help="diagonalize the stiffness of a lattice file")
    compute.add_argument("--lattice", required=True, type=Path)
    compute.add_argument("--out", required=True, type=Path, help="spectrum JSON path")
    compute.add_argument("--bin-hz", type=float, default=10e3)
    compute.add_argument("--histogram-out", type=Path, default=None,
                         help="histogram CSV path (default: <out stem>_histogram.csv)")
    compute.set_defaults(run=_cmd_modes_compute)

    spectrum = top.add_parser("spectrum", help="decoherence lineshapes")
    spectrum_sub = spectrum.add_subparsers(dest="command", required=True)
    simulate = spectrum_sub.add_parser("simulate", help="sweep the drive over a grid")
    simulate.add_argument("--config", required=True, type=Path)
    simulate.add_argument("--spectrum", required=True, type=Path)
    simulate.add_argument("--out", required=True, type=Path)
    simulate.add_argument("--per-ion", action="store_true")
    simulate.set_defaults(run=_cmd_spectrum_simulate)

    fit = top.add_parser("fit", help="thermometry fits")
    fit_sub = fit.add_subparsers(dest="command", required=True)
    temperature = fit_sub.add_parser("temperature", help="fit nbar for one mode")
    temperature.add_argument("--config", required=True, type=Path)
    temperature.add_argument("--data", required=True, type=Path)
    temperature.add_argument("--meta", type=Path, default=None)
    temperature.add_argument("--spectrum", required=True, type=Path)
    temperature.add_argument("--out", required=True, type=Path)
    temperature.add_argument("--mode", type=int, default=0)
    temperature.set_defaults(run=_cmd_fit_temperature)

    plot = top.add_parser("plot", help="plot-ready data from result tables")
    plot.add_argument("--in", dest="infile", required=True, type=Path)
    plot.add_argument("--out", required=True, type=Path)
    plot.add_argument("--overlay-histogram", type=Path, default=None)
    plot.add_argument("--svg", type=Path, default=None)
    plot.set_defaults(run=_cmd_plot)
    return parser


def _cmd_crystal_solve(args) -> int:
    config = load_config(args.config)
    try:
        lattice = solve_equilibrium(config.trap, config.n_ions, seed=args.seed)
    except EquilibriumNotConverged as exc:
        if exc.best is not None:
            iof.save_lattice(exc.best, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    iof.save_lattice(lattice, args.out)
    if args.csv is not None:
        iof.save_positions(lattice, args.csv)
    stats = lattice_stats(lattice)
    spacing = "n/a" if stats.mean_spacing is None else f"{stats.mean_spacing * 1e6:.2f} um"
    print(
        f"solved N={lattice.n_ions}: residual {lattice.residual_force_max:.3e} N, "
        f"spacing {spacing}, diameter {stats.diameter * 1e6:.2f} um, planar={lattice.planar}"
    )
    if not lattice.planar:
        print("lattice is not a single plane at these parameters", file=sys.stderr)
        return EXIT_NOT_PLANAR
    return EXIT_OK


def _cmd_modes_compute(args) -> int:
    lattice = iof.load_lattice(args.lattice)
    stiffness = transverse_stiffness(lattice)
    spectrum = diagonalize(stiffness)
    histogram = mode_histogram(spectrum, args.bin_hz)
    iof.save_spectrum(spectrum, args.out)
    hist_path = args.histogram_out
    if hist_path is None:
        hist_path = args.out.with_name(args.out.stem + "_histogram.csv")
    iof.save_histogram(histogram, hist_path)
    com_dev = com_mode_deviation(stiffness)
    omega_err = abs(spectrum.omega[0] / lattice.params.omega_1 - 1.0)
    print(
        f"modes: N={spectrum.n_modes}, COM eigenvector residual {com_dev:.3e}, "
        f"COM frequency deviation {omega_err:.3e}, stable={spectrum.stable}"
    )
    return EXIT_OK


def _check_provenance(config, spectrum) -> None:
    """Refuse a config that describes another crystal than the spectrum file."""
    if config.n_ions != spectrum.n_modes:
        raise ConfigError("n_ions", f"{config.n_ions} ions, but the spectrum has {spectrum.n_modes} modes")
    if config.trap.mass != spectrum.mass:
        raise ConfigError("trap.mass_kg", f"{config.trap.mass!r} kg, but the spectrum has {spectrum.mass!r} kg")


def _cmd_spectrum_simulate(args) -> int:
    config = load_config(args.config)
    if config.drive is None or config.sweep is None or config.thermal is None:
        raise ConfigError("$", "spectrum simulate needs drive, thermal, and sweep sections")
    spectrum = iof.load_spectrum(args.spectrum)
    _check_provenance(config, spectrum)
    thermal = config.thermal.realize(spectrum)
    trace = sweep_spectrum(
        config.drive, spectrum, thermal, config.sweep.points_rad_s(), per_ion=args.per_ion
    )
    iof.save_trace(trace, args.out)
    print(f"trace: {len(trace.mu_over_2pi)} points, min p_up {trace.p_up_mean.min():.4f}, "
          f"max p_up {trace.p_up_mean.max():.4f}")
    return EXIT_OK


def _cmd_fit_temperature(args) -> int:
    config = load_config(args.config)
    if config.drive is None:
        raise ConfigError("drive", "fit temperature needs the drive section")
    spectrum = iof.load_spectrum(args.spectrum)
    _check_provenance(config, spectrum)
    data = iof.load_observed(args.data, args.meta)
    background = config.thermal.realize(spectrum) if config.thermal is not None else None
    result = fit_occupation(data, spectrum, config.drive, target_mode=args.mode, background=background)
    iof.save_fit_result(result, args.out)
    print(
        f"fit: nbar = {result.nbar:.4g} +/- {result.nbar_err:.3g}, "
        f"T = {result.temperature * 1e3:.4g} +/- {result.temperature_err * 1e3:.3g} mK, "
        f"chi2/dof = {result.chi2_reduced:.3g}, status = {result.status}"
    )
    if result.systematic_note:
        print(f"systematics: {result.systematic_note}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    rows = build_plot_rows(args.infile, args.overlay_histogram)
    write_plot_csv(rows, args.out)
    if args.svg is not None:
        write_plot_svg(rows, args.svg)
    print(f"plot data: {len(rows)} rows -> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonPlanarLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PLANAR
    except EquilibriumNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (InsufficientSpanError, InsufficientDataError, UnphysicalBackgroundError,
            FitConvergenceError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (DrumheadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
