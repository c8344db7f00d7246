#!/usr/bin/env python3
"""Transverse mode density of a 345-ion crystal at two rotation frequencies.

The eigenfrequency distribution narrows at slower rotation (weaker radial
confinement, lower density, less screening). Writes a mode histogram and a
full spin-echo spectrum trace per rotation frequency.
"""

import argparse
import math
from pathlib import Path

import numpy as np

import drumhead as dh
from drumhead import io_formats as iof

TAU = 1e-3
T_PI = 65e-6


def run_one(rotation_hz: float, n_ions: int, out: Path, bin_hz: float) -> float:
    params = dh.TrapParams.from_hz(795e3, 7.6e6, rotation_hz)
    tag = f"{rotation_hz / 1e3:.1f}kHz"
    print(f"solving N={n_ions} at rotation {tag} (beta = {dh.beta(params):.5f}) ...")
    lattice = dh.solve_equilibrium(params, n_ions, seed=0)
    spectrum = dh.diagonalize(dh.transverse_stiffness(lattice))
    iof.save_lattice(lattice, out / f"lattice_{tag}.json")
    iof.save_spectrum(spectrum, out / f"spectrum_{tag}.json")
    iof.save_histogram(dh.mode_histogram(spectrum, bin_hz), out / f"histogram_{tag}.csv")

    gamma = -math.log(0.8) / (2 * TAU)
    drive = dh.DriveConfig(forces=1.5e-23, mu_r=None, gamma=gamma,
                           sequence=dh.SpinEcho(tau=TAU, t_pi=T_PI))
    thermal = dh.ThermalState.from_temperature(spectrum, 0.43e-3)
    grid = 2 * np.pi * np.arange(30e3, 800e3, 500.0)
    trace = dh.sweep_spectrum(drive, spectrum, thermal, grid)
    iof.save_trace(trace, out / f"trace_{tag}.csv")

    span = float(spectrum.omega[0] - spectrum.omega[-1]) / (2 * np.pi)
    stats = dh.lattice_stats(lattice)
    print(
        f"  span {span / 1e3:.1f} kHz, spacing {stats.mean_spacing * 1e6:.1f} um, "
        f"diameter {stats.diameter * 1e6:.0f} um"
    )
    return span


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("out/mode_density"))
    parser.add_argument("--n-ions", type=int, default=345)
    parser.add_argument("--bin-hz", type=float, default=10e3)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    spans = {hz: run_one(hz, args.n_ions, args.out, args.bin_hz)
             for hz in (43.2e3, 44.7e3)}
    assert spans[43.2e3] < spans[44.7e3], "expected narrowing at slower rotation"
    print(f"narrowing confirmed: {spans[43.2e3] / 1e3:.1f} kHz < {spans[44.7e3] / 1e3:.1f} kHz")


if __name__ == "__main__":
    main()
