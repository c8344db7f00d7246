"""The benchmark's workloads: seeded inputs, one timed request, its checks.

Every workload is a closed loop driven by one client in this process. A
request is the timed unit; its correctness checks run after the clock stops.
The workload seed draws the true COM occupations and the measurement noise;
the crystals relaxed are fixed (see CliWorkload and REFERENCE_LATTICE_SEED).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drumhead import cli, dynamics, thermometry
from drumhead import io_formats as iof
from drumhead.config import SweepGrid
from drumhead.crystal import solve_equilibrium
from drumhead.dynamics import ThermalState, alpha_spin_echo, sweep_spectrum
from drumhead.modes import diagonalize, transverse_stiffness
from drumhead.odf import DriveConfig, SpinEcho
from drumhead.thermometry import FitMetadata, ObservedSpectrum
from drumhead.trap import TrapParams

AXIAL_HZ = 795e3
CYCLOTRON_HZ = 7.6e6
PLANAR_ROTATION_HZ = 44.7e3
BUCKLED_ROTATION_HZ = 45.2e3   # just above the single-plane window at N = 345
SMOKE_N = 19
SMOKE_BUCKLED_ROTATION_HZ = 60e3  # N = 19 only leaves the plane at faster rotation

TAU_S = 500e-6
T_PI_S = 65e-6
GAMMA_PER_S = -math.log(0.8) / (2 * TAU_S)  # 0.1 flat background
BATH_K = 0.43e-3
NBAR_RANGE = (20.0, 100.0)
NBAR_CALIBRATION = 60.0
SIGMA = 0.02
WINDOW_POINTS = 241
WINDOW_LOOPS = 3.0
THETA_R_DEG = 4.8
THETA_R_REL_ERR = 0.05
SWEEP = {"start_hz": 30e3, "stop_hz": 800e3, "step_hz": 500.0}  # 1541 points
DATASETS = 8  # thermometry_n190 cycles through this many seeded datasets
# The crystal that stands for the experiment, solved at set-up. The top of the
# spectrum (COM at omega_1, the next modes 14 and 24 kHz below it at N = 345)
# agrees across lattice seeds to well below 1 Hz, so a COM dataset made from
# it fits the same for every request's crystal; a fixed seed keeps set-up
# cost steady.
REFERENCE_LATTICE_SEED = 0

RESIDUAL_MAX_N = 1e-14
COM_RTOL = 1e-12
NBAR_PULL_MAX = 5.0

EXIT_OK = cli.EXIT_OK
EXIT_NOT_PLANAR = cli.EXIT_NOT_PLANAR


@dataclass
class Outcome:
    """What one request produced, kept for the checks after the clock stops."""

    exit_codes: list[int] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    trace: object = None
    fit: object = None
    nbar_true: float = math.nan


# ---------------------------------------------------------------------------
# shared input generation


def _reference_spectrum(n_ions: int, lattice_path: Path):
    """Solve, store and reload the reference crystal as the CLI would, then diagonalize."""
    params = TrapParams.from_hz(AXIAL_HZ, CYCLOTRON_HZ, PLANAR_ROTATION_HZ)
    lattice = solve_equilibrium(params, n_ions, seed=REFERENCE_LATTICE_SEED)
    iof.save_lattice(lattice, lattice_path)
    return diagonalize(transverse_stiffness(iof.load_lattice(lattice_path)))


def _calibrated_drive(spectrum) -> DriveConfig:
    """Force giving a 20 % coherence loss 1.4 loops off the COM resonance."""
    sequence = SpinEcho(tau=TAU_S, t_pi=T_PI_S)
    weights = 2.0 * ThermalState.com_plus_bath(spectrum, NBAR_CALIBRATION, BATH_K).nbar + 1.0
    mu_cal = float(spectrum.omega[0]) + 1.4 * 2 * np.pi / TAU_S
    probe = DriveConfig(forces=1e-23, mu_r=mu_cal, gamma=GAMMA_PER_S, sequence=sequence)
    exponent = 2.0 * float(np.mean((np.abs(alpha_spin_echo(probe, spectrum).alpha) ** 2) @ weights))
    force = 1e-23 * math.sqrt(-math.log(0.8) / exponent)
    return DriveConfig(forces=force, mu_r=None, gamma=GAMMA_PER_S, sequence=sequence)


def _com_dataset(spectrum, drive, nbar_true: float, rng, n_ions: int) -> ObservedSpectrum:
    """241 noisy points across +/-3 loops of the COM resonance."""
    deltas = np.linspace(-WINDOW_LOOPS, WINDOW_LOOPS, WINDOW_POINTS) * 2 * np.pi / TAU_S
    grid = np.sort(spectrum.omega[0] + deltas)
    thermal = ThermalState.com_plus_bath(spectrum, nbar_true, BATH_K)
    clean = sweep_spectrum(drive, spectrum, thermal, grid).p_up_mean
    noisy = np.clip(clean + rng.normal(0.0, SIGMA, len(grid)), 1e-4, 1 - 1e-4)
    meta = FitMetadata(n_ions=n_ions, theta_r=math.radians(THETA_R_DEG), theta_r_rel_err=THETA_R_REL_ERR)
    return ObservedSpectrum(mu_hz=grid / (2 * np.pi), p_up=noisy, sigma=np.full(len(grid), SIGMA),
                            metadata=meta)


def _write_config(path: Path, rotation_hz: float, n_ions: int,
                  drive: DriveConfig | None = None, nbar_true: float | None = None) -> None:
    doc = {
        "trap": {"axial_com_hz": AXIAL_HZ, "cyclotron_hz": CYCLOTRON_HZ, "rotation_hz": rotation_hz},
        "n_ions": n_ions,
    }
    if drive is not None:
        doc["drive"] = {
            "force_n": float(drive.forces),
            "gamma_per_s": drive.gamma,
            "sequence": {"type": "spin_echo", "tau_s": TAU_S, "t_pi_s": T_PI_S},
        }
        doc["thermal"] = {"nbar_com": nbar_true, "bath_temperature_k": BATH_K}
        doc["sweep"] = SWEEP
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_dataset(data: ObservedSpectrum, path: Path) -> Path:
    iof.save_observed(data, path)
    meta_path = Path(str(path) + ".meta.json")
    meta_path.write_text(json.dumps({
        "n_ions": data.metadata.n_ions,
        "theta_r_deg": THETA_R_DEG,
        "theta_r_rel_err": THETA_R_REL_ERR,
    }) + "\n", encoding="utf-8")
    return meta_path


# ---------------------------------------------------------------------------
# checks shared by every workload


def _check_fit(nbar: float, nbar_err: float, status: str, nbar_true: float) -> list[str]:
    if status != "ok":
        return [f"fit status {status!r}"]
    if not abs(nbar - nbar_true) <= NBAR_PULL_MAX * nbar_err:
        return [f"fit nbar {nbar:.4g} +/- {nbar_err:.3g} misses true {nbar_true:.4g} by > 5 sigma"]
    return []


def _check_p_up(p_up: np.ndarray) -> list[str]:
    if p_up.size == 0 or not np.all((p_up >= 0.0) & (p_up <= 0.5)):
        return ["p_up outside [0, 0.5]"]
    return []


# ---------------------------------------------------------------------------
# CLI workloads: chain_n345, buckled_n345, downstream_n345


@dataclass
class CliPlan:
    """Commands of one request, their expected exit codes, and what to check."""

    commands: list[tuple[str, list[str], int]]
    outputs: dict[str, Path]
    planar: bool = True
    nbar_true: float = math.nan


class CliWorkload:
    """A request runs drumhead.cli.main in-process, one call per command.

    `crystal solve` relaxes request i from lattice seed i (`--seed i`), so a
    run covers several starting points of the minimizer, whose accepted-step
    counts differ by up to 30 %, and every run covers the same ones whatever
    the workload seed: otherwise that spread would swamp the timing bounds.
    """

    def __init__(self, n_ions: int, solve_in_request: bool, buckled: bool = False):
        self.n_ions = n_ions
        self.solve_in_request = solve_in_request
        self.buckled = buckled

    def setup(self, seed: int, workdir: Path, smoke: bool) -> CliPlan:
        n_ions = SMOKE_N if smoke else self.n_ions
        config = workdir / "run.json"
        lattice = workdir / "lattice.json"
        solve = ("crystal_solve", ["crystal", "solve", "--config", str(config), "--out", str(lattice)])
        if self.buckled:
            rotation = SMOKE_BUCKLED_ROTATION_HZ if smoke else BUCKLED_ROTATION_HZ
            _write_config(config, rotation, n_ions)
            modes = ("modes_compute", ["modes", "compute", "--lattice", str(lattice),
                                       "--out", str(workdir / "spectrum.json")])
            return CliPlan(commands=[(*solve, EXIT_NOT_PLANAR), (*modes, EXIT_NOT_PLANAR)],
                           outputs={"lattice": lattice}, planar=False)

        rng = np.random.default_rng(seed)
        nbar_true = float(rng.uniform(*NBAR_RANGE))
        reference = workdir / "reference_lattice.json"
        spectrum = _reference_spectrum(n_ions, reference)
        drive = _calibrated_drive(spectrum)
        data_path = workdir / "data.csv"
        meta_path = _write_dataset(_com_dataset(spectrum, drive, nbar_true, rng, n_ions), data_path)
        _write_config(config, PLANAR_ROTATION_HZ, n_ions, drive, nbar_true)
        outputs = {
            "spectrum": workdir / "spectrum.json",
            "histogram": workdir / "spectrum_histogram.csv",
            "trace": workdir / "trace.csv",
            "fit": workdir / "fit.json",
        }
        commands = [
            ("modes_compute", ["modes", "compute", "--lattice", str(lattice if self.solve_in_request else reference),
                               "--out", str(outputs["spectrum"])]),
            ("spectrum_simulate", ["spectrum", "simulate", "--config", str(config),
                                   "--spectrum", str(outputs["spectrum"]), "--out", str(outputs["trace"])]),
            ("fit_temperature", ["fit", "temperature", "--config", str(config), "--data", str(data_path),
                                 "--meta", str(meta_path), "--spectrum", str(outputs["spectrum"]),
                                 "--out", str(outputs["fit"])]),
        ]
        if self.solve_in_request:
            commands.insert(0, solve)
            outputs = {"lattice": lattice, **outputs}
        return CliPlan(commands=[(*c, EXIT_OK) for c in commands], outputs=outputs,
                       nbar_true=nbar_true)

    def request(self, plan: CliPlan, tracer, index: int) -> Outcome:
        outcome = Outcome()
        for command, argv, _ in plan.commands:
            if command == "crystal_solve":
                argv = [*argv, "--seed", str(index)]
            sink = io.StringIO()
            with tracer.span(f"cli.{command}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                outcome.exit_codes.append(cli.main(argv))
            outcome.messages.append(sink.getvalue())
        return outcome

    def check(self, plan: CliPlan, outcome: Outcome, wrong: bool) -> tuple[list[str], dict[str, str]]:
        failures = []
        for (command, _, expected), code, message in zip(plan.commands, outcome.exit_codes, outcome.messages):
            expected = expected + 1 if wrong else expected
            if code != expected:
                failures.append(f"{command} exited {code}, expected {expected}: {message.strip()[-200:]}")
        present = {label: path for label, path in plan.outputs.items() if path.is_file()}
        hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in present.values()}
        try:
            if len(present) < len(plan.outputs):
                failures.append(f"missing outputs: {', '.join(plan.outputs.keys() - present.keys())}")
            else:
                failures += self._check_outputs(plan, present, wrong)
        finally:
            for path in present.values():
                path.unlink()  # so that the next request is checked on files it wrote itself
        return failures, hashes

    def _check_outputs(self, plan: CliPlan, outputs: dict[str, Path], wrong: bool) -> list[str]:
        failures = []
        if "lattice" in outputs:
            doc = json.loads(outputs["lattice"].read_text(encoding="utf-8"))
            if not (doc["converged"] and doc["residual_force_max_N"] <= RESIDUAL_MAX_N):
                failures.append(f"lattice not converged: residual {doc['residual_force_max_N']:.3e} N")
            if doc["planar"] != plan.planar:
                failures.append(f"lattice planar={doc['planar']}, expected {plan.planar}")
        if "spectrum" in outputs:
            com_hz = json.loads(outputs["spectrum"].read_text(encoding="utf-8"))["frequencies_hz"][0]
            if not abs(com_hz / AXIAL_HZ - 1.0) <= COM_RTOL:
                failures.append(f"COM frequency {com_hz!r} Hz is not omega_1")
        if "trace" in outputs:
            table = np.loadtxt(outputs["trace"], delimiter=",", skiprows=1, ndmin=2)
            failures += _check_p_up(table[:, 1])
        if "fit" in outputs:
            doc = json.loads(outputs["fit"].read_text(encoding="utf-8"))
            nbar_true = plan.nbar_true + 1000.0 if wrong else plan.nbar_true
            failures += _check_fit(doc["nbar"], doc["nbar_err"], doc["status"], nbar_true)
        return failures


# ---------------------------------------------------------------------------
# thermometry_n190: library calls on a spectrum held in memory


@dataclass
class ThermometryInputs:
    spectrum: object
    drive: DriveConfig
    grid: np.ndarray
    background: ThermalState
    datasets: list[tuple[float, ThermalState, ObservedSpectrum]]


class ThermometryWorkload:
    """A request is a full-band sweep and a COM occupation fit."""

    def __init__(self, n_ions: int):
        self.n_ions = n_ions

    def setup(self, seed: int, workdir: Path, smoke: bool) -> ThermometryInputs:
        rng = np.random.default_rng(seed)
        n_ions = SMOKE_N if smoke else self.n_ions
        spectrum = _reference_spectrum(n_ions, workdir / "reference_lattice.json")
        drive = _calibrated_drive(spectrum)
        datasets = []
        for nbar_true in rng.uniform(*NBAR_RANGE, size=DATASETS):
            thermal = ThermalState.com_plus_bath(spectrum, float(nbar_true), BATH_K)
            datasets.append((float(nbar_true), thermal,
                             _com_dataset(spectrum, drive, float(nbar_true), rng, n_ions)))
        return ThermometryInputs(
            spectrum=spectrum,
            drive=drive,
            grid=SweepGrid(**SWEEP).points_rad_s(),
            background=ThermalState.com_plus_bath(spectrum, 0.0, BATH_K),
            datasets=datasets,
        )

    def request(self, inputs: ThermometryInputs, tracer, index: int) -> Outcome:
        nbar_true, thermal, data = inputs.datasets[index % len(inputs.datasets)]
        # looked up on the modules so that a traced run sees its wrappers
        trace = dynamics.sweep_spectrum(inputs.drive, inputs.spectrum, thermal, inputs.grid)
        fit = thermometry.fit_occupation(data, inputs.spectrum, inputs.drive, target_mode=0,
                                         background=inputs.background)
        return Outcome(trace=trace, fit=fit, nbar_true=nbar_true)

    def check(self, inputs: ThermometryInputs, outcome: Outcome, wrong: bool) -> tuple[list[str], dict[str, str]]:
        fit = outcome.fit
        nbar_true = outcome.nbar_true + 1000.0 if wrong else outcome.nbar_true
        failures = _check_p_up(outcome.trace.p_up_mean)
        failures += _check_fit(fit.nbar, fit.nbar_err, fit.status, nbar_true)
        return failures, {}


WORKLOADS = {
    "chain_n345": CliWorkload(345, solve_in_request=True),
    "thermometry_n190": ThermometryWorkload(190),
    "buckled_n345": CliWorkload(345, solve_in_request=True, buckled=True),
    "downstream_n345": CliWorkload(345, solve_in_request=False),
}
