"""Run configuration: one JSON document describing a whole pipeline run.

Boundary units are ordinary frequencies (Hz) and otherwise SI (kg, C, N, s);
everything is converted to internal SI/angular units when the typed
objects are built, and nothing else of the document is kept.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import BE9_ION_MASS, ELEMENTARY_CHARGE
from .dynamics import ThermalState
from .errors import ConfigError, DrumheadError
from .modes import ModeSpectrum
from .odf import DriveConfig, Ramsey, SpinEcho, force_from_intensity
from .trap import TWO_PI, TrapParams


def _expect(raw: dict, where: str, key: str, kind, required: bool = True, default=None):
    """raw[key] checked against `kind`: the one type check of every input document.

    `kind` is bool, int, float (a finite number), str or dict, or a tuple: the
    shape of a finite float array, returned as a numpy array (None in the
    shape allows any length). A missing key gives `default`, as does a null
    one when `default` is None and the key is optional. A missing required
    key or a value of another kind raises ConfigError at `where.key`.
    """
    if key not in raw or (raw[key] is None and not required and default is None):
        if required:
            raise ConfigError(f"{where}.{key}", "missing required field")
        return default
    value, path = raw[key], f"{where}.{key}"
    if isinstance(kind, tuple):
        return _finite_array(value, path, kind)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok = number and abs(value) <= sys.float_info.max  # refuses nan, inf and huge ints
    elif kind is int:
        ok = number and isinstance(value, int)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(path, f"expected {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", dict: "an object"}


def _finite_array(value, path: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    fits = arr.ndim == len(shape) and all(n is None or n == m for n, m in zip(shape, arr.shape))
    entries = value
    for _ in shape[1:]:
        entries = itertools.chain.from_iterable(entries)
    # numpy reads a boolean among numbers as 0 or 1, so look for one first
    numbers = fits and arr.dtype.kind in "iuf" and bool not in set(map(type, entries))
    if not (numbers and np.all(np.isfinite(arr))):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        raise ConfigError(path, f"expected finite numbers in shape ({dims})")
    return np.asarray(arr, dtype=float)


def _document(raw, where: str) -> dict:
    """`raw` itself if it is a JSON object, else ConfigError at `where`."""
    if not isinstance(raw, dict):
        raise ConfigError(where, "top level must be a JSON object")
    return raw


def _reject_unknown(raw: dict, where: str, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}", "unknown field")


@dataclass(frozen=True)
class SweepGrid:
    start_hz: float
    stop_hz: float
    step_hz: float

    def __post_init__(self):
        if self.step_hz <= 0.0:
            raise ConfigError("sweep.step_hz", "step must be positive")
        if self.stop_hz <= self.start_hz:
            raise ConfigError("sweep.stop_hz", "stop must exceed start")
        if not math.isfinite((self.stop_hz - self.start_hz) / self.step_hz):
            raise ConfigError("sweep.step_hz", "the number of sweep points overflows")

    def points_hz(self) -> np.ndarray:
        n = int(math.floor((self.stop_hz - self.start_hz) / self.step_hz + 1e-9)) + 1
        return self.start_hz + self.step_hz * np.arange(n)

    def points_rad_s(self) -> np.ndarray:
        return self.points_hz() * TWO_PI


@dataclass(frozen=True)
class ThermalSpec:
    """Declarative occupation assignment, realized once a spectrum exists."""

    kind: str
    nbar_per_mode: tuple | None = None
    nbar_uniform: float | None = None
    temperature_k: float | None = None
    nbar_com: float | None = None
    bath_temperature_k: float | None = None

    def realize(self, spectrum: ModeSpectrum) -> ThermalState:
        if self.kind == "per_mode":
            values = np.asarray(self.nbar_per_mode, dtype=float)
            if len(values) != spectrum.n_modes:
                raise DrumheadError(
                    f"thermal.nbar_per_mode has {len(values)} entries, spectrum has "
                    f"{spectrum.n_modes} modes"
                )
            return ThermalState(values)
        if self.kind == "uniform_nbar":
            return ThermalState.uniform(spectrum.n_modes, self.nbar_uniform)
        if self.kind == "temperature":
            return ThermalState.from_temperature(spectrum, self.temperature_k)
        if self.kind == "com_plus_bath":
            return ThermalState.com_plus_bath(spectrum, self.nbar_com, self.bath_temperature_k)
        raise AssertionError(self.kind)


@dataclass(frozen=True)
class RunConfig:
    trap: TrapParams
    n_ions: int
    drive: DriveConfig | None
    thermal: ThermalSpec | None
    sweep: SweepGrid | None
    lattice_seed: int = 0  # seeds.lattice


def _parse_trap(raw: dict) -> TrapParams:
    _reject_unknown(
        raw, "trap",
        {"axial_com_hz", "cyclotron_hz", "rotation_hz", "wall_delta", "mass_kg", "charge_c"},
    )
    try:
        return TrapParams.from_hz(
            axial_hz=_expect(raw, "trap", "axial_com_hz", float),
            cyclotron_hz=_expect(raw, "trap", "cyclotron_hz", float),
            rotation_hz=_expect(raw, "trap", "rotation_hz", float),
            delta_wall=_expect(raw, "trap", "wall_delta", float, required=False, default=0.0),
            mass=_expect(raw, "trap", "mass_kg", float, required=False, default=BE9_ION_MASS),
            charge=_expect(raw, "trap", "charge_c", float, required=False, default=ELEMENTARY_CHARGE),
        )
    except ConfigError:
        raise
    except DrumheadError as exc:
        raise ConfigError("trap", str(exc)) from exc


def _parse_sequence(raw: dict) -> Ramsey | SpinEcho:
    _reject_unknown(raw, "drive.sequence", {"type", "tau_s", "t_pi_s"})
    kind = _expect(raw, "drive.sequence", "type", str)
    tau = _expect(raw, "drive.sequence", "tau_s", float)
    try:
        if kind == "spin_echo":
            t_pi = _expect(raw, "drive.sequence", "t_pi_s", float, required=False, default=0.0)
            return SpinEcho(tau=tau, t_pi=t_pi)
        if kind == "ramsey":
            return Ramsey(tau=tau)
    except ValueError as exc:
        raise ConfigError("drive.sequence", str(exc)) from exc
    raise ConfigError("drive.sequence.type", f"expected 'spin_echo' or 'ramsey', got {kind!r}")


def _parse_drive(raw: dict, n_ions: int) -> DriveConfig:
    _reject_unknown(
        raw, "drive",
        {"force_n", "force_n_per_ion", "intensity_w_cm2", "gamma_per_s", "sequence"},
    )
    sources = [k for k in ("force_n", "force_n_per_ion", "intensity_w_cm2") if k in raw]
    if len(sources) != 1:
        raise ConfigError("drive", "give exactly one of force_n, force_n_per_ion, intensity_w_cm2")
    if sources[0] == "force_n":
        forces = _expect(raw, "drive", "force_n", float)
    elif sources[0] == "intensity_w_cm2":
        forces = force_from_intensity(_expect(raw, "drive", "intensity_w_cm2", float))
    else:
        forces = _expect(raw, "drive", "force_n_per_ion", (n_ions,))
    try:
        return DriveConfig(
            forces=forces,
            mu_r=None,
            gamma=_expect(raw, "drive", "gamma_per_s", float),
            sequence=_parse_sequence(_expect(raw, "drive", "sequence", dict)),
        )
    except ValueError as exc:
        raise ConfigError("drive", str(exc)) from exc


def _parse_thermal(raw: dict, n_ions: int) -> ThermalSpec:
    _reject_unknown(
        raw, "thermal",
        {"nbar_per_mode", "nbar_uniform", "temperature_k", "nbar_com", "bath_temperature_k"},
    )
    if "nbar_per_mode" in raw:
        values = _expect(raw, "thermal", "nbar_per_mode", (n_ions,))
        return ThermalSpec(kind="per_mode", nbar_per_mode=tuple(values.tolist()))
    if "nbar_uniform" in raw:
        return ThermalSpec(kind="uniform_nbar", nbar_uniform=_expect(raw, "thermal", "nbar_uniform", float))
    if "temperature_k" in raw:
        return ThermalSpec(kind="temperature", temperature_k=_expect(raw, "thermal", "temperature_k", float))
    if "nbar_com" in raw:
        return ThermalSpec(
            kind="com_plus_bath",
            nbar_com=_expect(raw, "thermal", "nbar_com", float),
            bath_temperature_k=_expect(raw, "thermal", "bath_temperature_k", float),
        )
    raise ConfigError("thermal", "no occupation specification recognized")


def from_dict(raw: dict) -> RunConfig:
    _reject_unknown(_document(raw, "$"), "$", {"trap", "n_ions", "drive", "thermal", "sweep", "seeds"})
    trap = _parse_trap(_expect(raw, "$", "trap", dict))
    n_ions = _expect(raw, "$", "n_ions", int)
    if n_ions < 1:
        raise ConfigError("n_ions", "must be >= 1")

    drive = thermal = sweep = None
    if "drive" in raw:
        drive = _parse_drive(_expect(raw, "$", "drive", dict), n_ions)
    if "thermal" in raw:
        thermal = _parse_thermal(_expect(raw, "$", "thermal", dict), n_ions)
    if "sweep" in raw:
        sraw = _expect(raw, "$", "sweep", dict)
        _reject_unknown(sraw, "sweep", {"start_hz", "stop_hz", "step_hz"})
        sweep = SweepGrid(
            start_hz=_expect(sraw, "sweep", "start_hz", float),
            stop_hz=_expect(sraw, "sweep", "stop_hz", float),
            step_hz=_expect(sraw, "sweep", "step_hz", float),
        )
    seeds = _expect(raw, "$", "seeds", dict, required=False, default={})
    _reject_unknown(seeds, "seeds", {"lattice"})
    return RunConfig(
        trap=trap, n_ions=n_ions, drive=drive, thermal=thermal, sweep=sweep,
        lattice_seed=_expect(seeds, "seeds", "lattice", int, required=False, default=0),
    )


def load_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$ (line {exc.lineno}, col {exc.colno})", exc.msg) from exc
    return from_dict(raw)
