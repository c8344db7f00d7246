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
from .crystal import MAX_IONS
from .dynamics import ThermalState
from .errors import ConfigError, DrumheadError
from .modes import ModeSpectrum
from .odf import DriveConfig, Ramsey, SpinEcho
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


def _read_document(text: str, where: str) -> dict:
    """The JSON object in `text`, else ConfigError at `where`: the reader of every input document.

    A syntax error names its line and column; a repeated key is refused at its object's path.
    """
    repeats = []

    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeats.append((doc, next(k for k in keys if keys.count(k) > 1)))
        return doc

    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} (line {exc.lineno}, col {exc.colno})", exc.msg) from exc
    except RecursionError:  # the parser recurses once per nested array or object
        raise ConfigError(where, "arrays and objects nested too deeply") from None
    if repeats:  # the hook sees each object before its parent, so find its path now
        raise ConfigError(_path_of(repeats[0][0], raw, where), f"repeated key {repeats[0][1]!r}")
    return _document(raw, where)


def _path_of(target, node, where: str) -> str | None:
    """The path of the object `target` within the parsed JSON `node` at `where`, else None.

    A walk over an explicit stack, so any depth the parser accepted is searched.
    """
    stack = [(node, where)]
    while stack:
        node, where = stack.pop()
        if node is target:
            return where
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        stack.extend((child, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")
                     for key, child in items)
    return None


def _one_of(raw: dict, where: str, kinds: dict) -> tuple[str, object]:
    """The one key of `kinds` that `raw` holds, and its value checked as `kinds[key]`.

    No such key, or several, raises ConfigError at `where`.
    """
    given = [key for key in kinds if key in raw]
    if len(given) != 1:
        raise ConfigError(where, f"give exactly one of {', '.join(kinds)}")
    return given[0], _expect(raw, where, given[0], kinds[given[0]])


def _reject_unknown(raw: dict, where: str, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}", "unknown field")


# Most n_ions x points of a sweep: the --per-ion table, its one (N, points) float64 array, is 0.8 GB here.
MAX_SWEEP_CELLS = 10**8


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

    @property
    def n_points(self) -> int:
        return int(math.floor((self.stop_hz - self.start_hz) / self.step_hz + 1e-9)) + 1

    def points_hz(self) -> np.ndarray:
        return self.start_hz + self.step_hz * np.arange(self.n_points)

    def points_rad_s(self) -> np.ndarray:
        return self.points_hz() * TWO_PI


@dataclass(frozen=True)
class ThermalSpec:
    """Declarative occupation assignment, realized once a spectrum exists.

    `kind` is the config key that set it and `value` that key's value:
    `nbar_per_mode` (a tuple), `nbar_uniform`, `temperature_k` (every mode),
    or `nbar_com` with every other mode at `bath_temperature_k`, which only
    this kind carries.
    """

    kind: str
    value: float | tuple
    bath_temperature_k: float | None = None

    def realize(self, spectrum: ModeSpectrum) -> ThermalState:
        if self.kind == "nbar_per_mode":
            if len(self.value) != spectrum.n_modes:
                raise DrumheadError(
                    f"thermal.nbar_per_mode has {len(self.value)} entries, spectrum has "
                    f"{spectrum.n_modes} modes"
                )
            return ThermalState(self.value)
        if self.kind == "nbar_uniform":
            return ThermalState.uniform(spectrum.n_modes, self.value)
        if self.kind == "temperature_k":
            return ThermalState.from_temperature(spectrum, self.value)
        return ThermalState.com_plus_bath(spectrum, self.value, self.bath_temperature_k)


@dataclass(frozen=True)
class RunConfig:
    trap: TrapParams
    n_ions: int
    drive: DriveConfig | None
    thermal: ThermalSpec | None
    sweep: SweepGrid | None


def _parse_trap(raw: dict) -> TrapParams:
    """The three frequencies are required; the wall, the mass and the charge default to 0, Be-9 and e."""
    _reject_unknown(raw, "trap", set(TrapParams._HZ_KEYS))
    defaults = (None, None, None, 0.0, BE9_ION_MASS, ELEMENTARY_CHARGE)
    values = [_expect(raw, "trap", key, float, required=default is None, default=default)
              for key, default in zip(TrapParams._HZ_KEYS, defaults)]
    try:
        return TrapParams.from_hz(*values)
    except DrumheadError as exc:
        raise ConfigError("trap", str(exc)) from exc


def _parse_sequence(raw: dict) -> Ramsey | SpinEcho:
    _reject_unknown(raw, "drive.sequence", {"type", "tau_s", "t_pi_s"})
    kind = _expect(raw, "drive.sequence", "type", str)
    if kind not in ("spin_echo", "ramsey"):
        raise ConfigError("drive.sequence.type", f"expected 'spin_echo' or 'ramsey', got {kind!r}")
    if kind == "ramsey" and "t_pi_s" in raw:
        raise ConfigError("drive.sequence.t_pi_s", "only a spin_echo sequence has a pi pulse")
    tau = _expect(raw, "drive.sequence", "tau_s", float)
    try:
        if kind == "spin_echo":
            t_pi = _expect(raw, "drive.sequence", "t_pi_s", float, required=False, default=0.0)
            return SpinEcho(tau=tau, t_pi=t_pi)
        return Ramsey(tau=tau)
    except ValueError as exc:
        raise ConfigError("drive.sequence", str(exc)) from exc


def _parse_drive(raw: dict, n_ions: int) -> DriveConfig:
    _reject_unknown(
        raw, "drive",
        {"force_n", "force_n_per_ion", "gamma_per_s", "sequence"},
    )
    _, forces = _one_of(raw, "drive", {"force_n": float, "force_n_per_ion": (n_ions,)})
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
    """Exactly one occupation kind; `bath_temperature_k` goes with `nbar_com` and only with it."""
    kinds = {"nbar_per_mode": (n_ions,), "nbar_uniform": float, "temperature_k": float, "nbar_com": float}
    _reject_unknown(raw, "thermal", {*kinds, "bath_temperature_k"})
    kind, value = _one_of(raw, "thermal", kinds)
    bath = None
    if kind == "nbar_com":
        bath = _expect(raw, "thermal", "bath_temperature_k", float)
    elif "bath_temperature_k" in raw:
        raise ConfigError("thermal.bath_temperature_k", "goes only with nbar_com")
    return ThermalSpec(kind, tuple(value.tolist()) if kind == "nbar_per_mode" else value, bath)


def from_dict(raw: dict) -> RunConfig:
    _reject_unknown(_document(raw, "$"), "$", {"trap", "n_ions", "drive", "thermal", "sweep"})
    trap = _parse_trap(_expect(raw, "$", "trap", dict))
    n_ions = _expect(raw, "$", "n_ions", int)
    if not 1 <= n_ions <= MAX_IONS:
        raise ConfigError("n_ions", f"must be between 1 and {MAX_IONS}, got {n_ions}")

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
        if n_ions * sweep.n_points > MAX_SWEEP_CELLS:
            raise ConfigError("sweep.step_hz",
                              f"{n_ions} ions x {sweep.n_points} points exceed {MAX_SWEEP_CELLS} cells")
    return RunConfig(trap=trap, n_ions=n_ions, drive=drive, thermal=thermal, sweep=sweep)


def load_config(path: str | Path) -> RunConfig:
    return from_dict(_read_document(Path(path).read_text(encoding="utf-8"), "$"))
