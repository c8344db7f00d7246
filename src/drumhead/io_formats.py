"""File persistence: JSON documents and CSV tables, written atomically.

Floats are serialized with shortest-round-trip repr, and the spectrum's
eigenvector matrix as the base64 of its little-endian float64 bytes, so
files are exact and byte-identical across runs.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .config import _document, _expect, _reject_unknown
from .crystal import FORCE_TOL, CrystalLattice, pair_separations
from .dynamics import SpectrumTrace, Trajectory
from .errors import CoincidentIonsError, ConfigError
from .modes import ModeHistogram, ModeSpectrum
from .thermometry import FitMetadata, FitResult, ObservedSpectrum
from .trap import TrapParams


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lattice


def lattice_to_json(lattice: CrystalLattice) -> str:
    return _dump_json(
        {
            "params": lattice.params.to_hz_dict(),
            "n_ions": lattice.n_ions,
            "positions_m": lattice.positions.tolist(),
            "converged": lattice.converged,
            "residual_force_max_N": lattice.residual_force_max,
            "planar": lattice.planar,
            "energy_J": lattice.energy,
            "seed": lattice.seed,
        }
    )


# in the order of TrapParams.from_hz's arguments
_TRAP_KEYS = ("axial_com_hz", "cyclotron_hz", "rotation_hz", "wall_delta", "mass_kg", "charge_c")


def lattice_from_json(text: str) -> CrystalLattice:
    """Rebuild a lattice from its file, refusing a malformed or inconsistent one.

    Every key `lattice_to_json` writes is required and read by the config
    reader (ConfigError); other keys are ignored. `planar: true` with an ion
    off z = 0, or `converged: true` with a residual above `FORCE_TOL`, raises
    ValueError; two ions at one position raise CoincidentIonsError.
    """
    doc = _document(json.loads(text), "lattice")
    p = _expect(doc, "lattice", "params", dict)
    n_ions = _expect(doc, "lattice", "n_ions", int)
    positions = _expect(doc, "lattice", "positions_m", (n_ions, 3))
    lattice = CrystalLattice(
        params=TrapParams.from_hz(*(_expect(p, "lattice.params", key, float) for key in _TRAP_KEYS)),
        positions=positions,
        converged=_expect(doc, "lattice", "converged", bool),
        residual_force_max=_expect(doc, "lattice", "residual_force_max_N", float),
        planar=_expect(doc, "lattice", "planar", bool),
        energy=_expect(doc, "lattice", "energy_J", float),
        seed=_expect(doc, "lattice", "seed", int),
    )
    if lattice.planar and np.any(positions[:, 2] != 0.0):
        raise ValueError("lattice file: planar is true, but an ion lies off z = 0")
    if lattice.converged and lattice.residual_force_max > FORCE_TOL:
        raise ValueError(
            f"lattice file: converged is true, but residual_force_max_N "
            f"{lattice.residual_force_max!r} exceeds {FORCE_TOL!r} N"
        )
    if np.min(pair_separations(positions)[1]) == 0.0:
        raise CoincidentIonsError("lattice file: two ions share a position")
    return lattice


def save_lattice(lattice: CrystalLattice, path: str | Path) -> None:
    atomic_write_text(path, lattice_to_json(lattice))


def load_lattice(path: str | Path) -> CrystalLattice:
    return lattice_from_json(Path(path).read_text(encoding="utf-8"))


def lattice_to_csv(lattice: CrystalLattice) -> str:
    return _csv(["x_m", "y_m", "z_m"], lattice.positions)


# ---------------------------------------------------------------------------
# mode spectrum and histogram


# the largest |B^T B - I| entry a spectrum file may carry
ORTHONORMALITY_TOL = 1e-10


def spectrum_to_json(spectrum: ModeSpectrum) -> str:
    block = np.ascontiguousarray(spectrum.b, dtype="<f8").tobytes()
    return _dump_json(
        {
            "frequencies_hz": spectrum.frequencies_hz.tolist(),
            "eigenvalues_rad2_per_s2": spectrum.eigenvalues.tolist(),
            "eigenvectors_f64le_b64": base64.b64encode(block).decode("ascii"),
            "mass_kg": spectrum.mass,
            "unstable_modes": list(spectrum.unstable_modes),
        }
    )


def _eigenvector_block(doc: dict, n: int) -> np.ndarray:
    """The (n, n) matrix in `eigenvectors_f64le_b64`: finite, with orthonormal columns."""
    path, text = "spectrum.eigenvectors_f64le_b64", _expect(doc, "spectrum", "eigenvectors_f64le_b64", str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ConfigError(path, f"not base64 ({exc})") from exc
    if len(raw) != 8 * n * n:
        raise ConfigError(path, f"expected {8 * n * n} bytes ({n} x {n} float64), got {len(raw)}")
    b = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    if not np.all(np.isfinite(b)):
        raise ConfigError(path, "expected finite numbers")
    residual = np.abs(b.T @ b - np.eye(n)).max(initial=0.0)
    if residual > ORTHONORMALITY_TOL:
        raise ConfigError(path, f"columns are not orthonormal (max |B^T B - I| = {residual:.3g})")
    return b


def spectrum_from_json(text: str) -> ModeSpectrum:
    """Rebuild a spectrum exactly: omega comes from the stored eigenvalues.

    The file needs n finite, non-increasing eigenvalues (index 0 = COM), the
    n x n eigenvector block with orthonormal columns (within
    `ORTHONORMALITY_TOL`), n finite frequencies and the mass; a violation
    raises ConfigError. Other keys are ignored, so a file from before the
    block, with the eigenvectors as a nested list, is refused as missing it.
    `frequencies_hz` is derived data; a file whose values disagree with the
    eigenvalues by more than 1e-12 relative is refused with ValueError.
    """
    doc = _document(json.loads(text), "spectrum")
    eigenvalues = _expect(doc, "spectrum", "eigenvalues_rad2_per_s2", (None,))
    if np.any(np.diff(eigenvalues) > 0.0):
        raise ConfigError("spectrum.eigenvalues_rad2_per_s2", "expected non-increasing values")
    n = len(eigenvalues)
    spectrum = ModeSpectrum(
        eigenvalues=eigenvalues,
        b=_eigenvector_block(doc, n),
        mass=_expect(doc, "spectrum", "mass_kg", float),
    )
    freqs = _expect(doc, "spectrum", "frequencies_hz", (n,))
    hz = spectrum.frequencies_hz
    if not np.all(np.abs(freqs - hz) <= 1e-12 * hz):
        raise ValueError("spectrum file: frequencies_hz disagree with eigenvalues_rad2_per_s2")
    return spectrum


def save_spectrum(spectrum: ModeSpectrum, path: str | Path) -> None:
    atomic_write_text(path, spectrum_to_json(spectrum))


def load_spectrum(path: str | Path) -> ModeSpectrum:
    return spectrum_from_json(Path(path).read_text(encoding="utf-8"))


def histogram_to_csv(histogram: ModeHistogram) -> str:
    rows = zip(histogram.bin_centers_hz, histogram.counts)
    return _csv(["bin_center_hz", "count"], rows)


def save_histogram(histogram: ModeHistogram, path: str | Path) -> None:
    atomic_write_text(path, histogram_to_csv(histogram))


# ---------------------------------------------------------------------------
# traces, trajectories, fits


def trace_to_csv(trace: SpectrumTrace) -> str:
    if trace.p_up_per_ion is None:
        header = ["mu_over_2pi_hz", "p_up_mean"]
        rows = zip(trace.mu_over_2pi, trace.p_up_mean)
    else:
        n = trace.p_up_per_ion.shape[0]
        header = ["mu_over_2pi_hz", "p_up_mean"] + [f"p_up_ion_{j}" for j in range(n)]
        rows = (
            [mu, pm, *col]
            for mu, pm, col in zip(trace.mu_over_2pi, trace.p_up_mean, trace.p_up_per_ion.T)
        )
    return _csv(header, rows)


def save_trace(trace: SpectrumTrace, path: str | Path) -> None:
    atomic_write_text(path, trace_to_csv(trace))


def _read_table(path: str | Path, columns: list[str], complaint: str) -> tuple[list[str], np.ndarray]:
    """Header and float cells of a CSV table whose header starts with `columns`.

    Blank lines are skipped. A missing or other header raises
    ValueError("<path>: <complaint>"). A data row whose cell count differs
    from the header's, or that holds a nan or infinite cell, raises
    ValueError naming its line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if header[: len(columns)] != columns:
        raise ValueError(f"{path}: {complaint}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number}: expected {len(header)} cells, got {len(cells)}")
        row = [float(c) for c in cells]
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {number}: non-finite cell in {line!r}")
        rows.append(row)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def load_trace(path: str | Path) -> SpectrumTrace:
    header, table = _read_table(path, ["mu_over_2pi_hz", "p_up_mean"], "not a spectrum trace file")
    return SpectrumTrace(
        mu_over_2pi=table[:, 0],
        p_up_mean=table[:, 1],
        p_up_per_ion=table[:, 2:].T if len(header) > 2 else None,
    )


def trajectory_to_csv(trajectory: Trajectory) -> str:
    rows = zip(trajectory.times, trajectory.alpha.real, trajectory.alpha.imag)
    return _csv(["t_s", "re_alpha", "im_alpha"], rows)


def save_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    atomic_write_text(path, trajectory_to_csv(trajectory))


def fit_result_to_json(result: FitResult) -> str:
    return _dump_json(
        {
            "nbar": result.nbar,
            "nbar_err": result.nbar_err,
            "temperature_k": result.temperature,
            "temperature_err_k": result.temperature_err,
            "gamma_used_per_s": result.gamma_used,
            "chi2_reduced": result.chi2_reduced,
            "status": result.status,
            "systematic_note": result.systematic_note,
        }
    )


def save_fit_result(result: FitResult, path: str | Path) -> None:
    atomic_write_text(path, fit_result_to_json(result))


# ---------------------------------------------------------------------------
# observed spectra (measurement ingest)


def observed_to_csv(data: ObservedSpectrum) -> str:
    return _csv(["mu_hz", "p_up", "sigma"], zip(data.mu_hz, data.p_up, data.sigma))


def save_observed(data: ObservedSpectrum, path: str | Path) -> None:
    atomic_write_text(path, observed_to_csv(data))


def load_observed(path: str | Path, metadata_path: str | Path | None = None) -> ObservedSpectrum:
    """Read (mu_hz, p_up, sigma) rows; metadata comes from a JSON sidecar.

    Every data row needs one finite cell per header column; any other row
    raises ValueError naming its line.

    The sidecar defaults to <path>.meta.json and is optional. It is a JSON
    object whose keys are all optional: `n_ions` (positive integer),
    `theta_r_deg` (beam crossing angle, in (0, 180)) and `theta_r_rel_err`
    (relative error of that angle, in [0, 1)). An unknown key or a value of
    the wrong type raises ConfigError; a value out of range, ValueError.
    """
    _, arr = _read_table(path, ["mu_hz", "p_up", "sigma"], "expected header mu_hz,p_up,sigma")

    if metadata_path is None:
        candidate = Path(str(path) + ".meta.json")
        metadata_path = candidate if candidate.exists() else None
    meta = FitMetadata()
    if metadata_path is not None:
        doc = _document(json.loads(Path(metadata_path).read_text(encoding="utf-8")), "sidecar")
        _reject_unknown(doc, "sidecar", {"n_ions", "theta_r_deg", "theta_r_rel_err"})
        theta_deg = _expect(doc, "sidecar", "theta_r_deg", float, required=False)
        meta = FitMetadata(
            n_ions=_expect(doc, "sidecar", "n_ions", int, required=False),
            theta_r=None if theta_deg is None else math.radians(theta_deg),
            theta_r_rel_err=_expect(doc, "sidecar", "theta_r_rel_err", float, required=False),
        )
    return ObservedSpectrum(mu_hz=arr[:, 0], p_up=arr[:, 1], sigma=arr[:, 2], metadata=meta)

