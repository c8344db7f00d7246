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
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

import numpy as np

from .config import _expect, _read_document, _reject_unknown
from .crystal import FORCE_TOL, MAX_IONS, CrystalLattice, require_distinct
from .dynamics import SpectrumTrace, Trajectory
from .errors import ConfigError
from .modes import ModeHistogram, ModeSpectrum
from .thermometry import FitMetadata, FitResult, ObservedSpectrum
from .trap import TrapParams


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text`, one string or a sequence of pieces, to <path>.tmp, then move it onto path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.writelines((text,) if isinstance(text, str) else text)
    os.replace(tmp, path)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The header of each CSV table: its writer writes it and `_read_table` takes
# only it. A trace with per-ion columns adds p_up_ion_0 ... p_up_ion_{n-1}.
_HEADERS = {
    "positions": ["x_m", "y_m", "z_m"],
    "histogram": ["bin_center_hz", "count"],
    "trace": ["mu_over_2pi_hz", "p_up_mean"],
    "trajectory": ["t_s", "re_alpha", "im_alpha"],
    "observed": ["mu_hz", "p_up", "sigma"],
}


def _header(table: str, n_per_ion: int = 0) -> list[str]:
    return _HEADERS[table] + [f"p_up_ion_{j}" for j in range(n_per_ion)]


def _csv(table: str, rows, n_per_ion: int = 0) -> str:
    lines = [",".join(_header(table, n_per_ion))]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lattice


def save_lattice(lattice: CrystalLattice, path: str | Path) -> None:
    atomic_write_text(path, _dump_json({
        "params": lattice.params.to_hz_dict(),
        "n_ions": lattice.n_ions,
        "positions_m": lattice.positions.tolist(),
        "converged": lattice.converged,
        "residual_force_max_N": lattice.residual_force_max,
        "planar": lattice.planar,
        "energy_J": lattice.energy,
        "seed": lattice.seed,
    }))


def load_lattice(path: str | Path) -> CrystalLattice:
    """Read a lattice file, refusing a malformed or inconsistent one.

    Every key `save_lattice` writes is required and read by the config
    reader (ConfigError), and `n_ions` must lie in [1, MAX_IONS], as for a
    solve; other keys are ignored. `planar: true` with an ion
    off z = 0, or `converged: true` with a residual above `FORCE_TOL`, raises
    ValueError; two ions at one position raise CoincidentIonsError.
    """
    doc = _read_document(Path(path).read_text(encoding="utf-8"), "lattice")
    p = _expect(doc, "lattice", "params", dict)
    n_ions = _expect(doc, "lattice", "n_ions", int)
    if not 1 <= n_ions <= MAX_IONS:
        raise ConfigError("lattice.n_ions", f"must be between 1 and {MAX_IONS}, got {n_ions}")
    positions = _expect(doc, "lattice", "positions_m", (n_ions, 3))
    lattice = CrystalLattice(
        params=TrapParams.from_hz(*(_expect(p, "lattice.params", key, float)
                                    for key in TrapParams._HZ_KEYS)),
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
    require_distinct(positions, "lattice file: two ions share a position")
    return lattice


def save_positions(lattice: CrystalLattice, path: str | Path) -> None:
    atomic_write_text(path, _csv("positions", lattice.positions))


# ---------------------------------------------------------------------------
# mode spectrum and histogram


# the largest |B^T B - I| entry a spectrum file may carry
ORTHONORMALITY_TOL = 1e-10
_BLOCK_KEY = "eigenvectors_f64le_b64"
# Bytes of the eigenvector block per base64 chunk (about: a save takes whole
# rows). A multiple of 3, so no chunk but the last pads and the chunks' base64
# joins into the whole block's.
_BLOCK_CHUNK_BYTES = 3 * 2**12
# Columns of B, so rows of B^T B, per block of the orthonormality check.
_CHECK_COLUMNS = 128


def _block_base64(b: np.ndarray):
    """The base64 of b's little-endian float64 bytes in row order, a chunk of rows at a time.

    Each chunk holds a multiple of 3 rows, so a multiple of 3 bytes, and
    only one chunk is copied at a time.
    """
    rows = 3 * max(1, _BLOCK_CHUNK_BYTES // (24 * max(len(b), 1)))
    for start in range(0, len(b), rows):
        yield base64.b64encode(np.ascontiguousarray(b[start:start + rows], dtype="<f8")).decode("ascii")


def _decode_block(text: str, n: int, path: str) -> np.ndarray:
    """The (n, n) float64 matrix whose little-endian bytes `text` holds in base64.

    Only a text of the block's base64 length, 4 ceil(8 n^2 / 3), is decoded, a
    chunk at a time into one array, so the array is never larger than the text.
    Any other text, or one the chunks refuse, is decoded whole, so the refusal
    names what a whole-string decode finds: the first fault, else the wrong
    byte count.
    """
    if len(text) == 4 * -(-8 * n * n // 3):
        b = np.empty((n, n), dtype="<f8")
        out, step, pos = memoryview(b.reshape(-1).view(np.uint8)), 4 * _BLOCK_CHUNK_BYTES // 3, 0
        try:
            for start in range(0, len(text), step):
                # each chunk fills its own slice: a padded chunk or an over-long last one fails here
                out[pos:pos + _BLOCK_CHUNK_BYTES] = base64.b64decode(text[start:start + step], validate=True)
                pos += _BLOCK_CHUNK_BYTES
            return b
        except ValueError:  # binascii.Error, a non-ASCII character or a chunk of the wrong size
            pass
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ConfigError(path, f"not base64 ({exc})") from exc
    raise ConfigError(path, f"expected {8 * n * n} bytes ({n} x {n} float64), got {len(raw)}")


def _orthonormality_residual(b: np.ndarray) -> float:
    """max |B^T B - I|, over rows of B^T B from the diagonal on, `_CHECK_COLUMNS` rows at a time."""
    residual = 0.0
    for start in range(0, len(b), _CHECK_COLUMNS):
        gram = b[:, start:start + _CHECK_COLUMNS].T @ b[:, start:]
        gram[np.diag_indices(len(gram))] -= 1.0
        residual = max(residual, gram.max(), -gram.min())
    return residual


def _eigenvector_block(doc: dict, n: int) -> np.ndarray:
    """The (n, n) matrix in `eigenvectors_f64le_b64`: finite, with orthonormal columns.

    The block's text is taken out of `doc`, so it is freed once decoded.
    """
    path = f"spectrum.{_BLOCK_KEY}"
    _expect(doc, "spectrum", _BLOCK_KEY, str)
    b = _decode_block(doc.pop(_BLOCK_KEY), n, path)
    if not np.all(np.isfinite(b)):
        raise ConfigError(path, "expected finite numbers")
    residual = _orthonormality_residual(b)
    if residual > ORTHONORMALITY_TOL:
        raise ConfigError(path, f"columns are not orthonormal (max |B^T B - I| = {residual:.3g})")
    return b


def save_spectrum(spectrum: ModeSpectrum, path: str | Path) -> None:
    """Write the JSON head, then the eigenvector block's base64 a chunk at a time, then the tail."""
    head, marker, tail = _dump_json({
        "frequencies_hz": spectrum.frequencies_hz.tolist(),
        "eigenvalues_rad2_per_s2": spectrum.eigenvalues.tolist(),
        _BLOCK_KEY: "",
        "mass_kg": spectrum.mass,
        "unstable_modes": list(spectrum.unstable_modes),
    }).partition(f'"{_BLOCK_KEY}": "')
    atomic_write_text(path, chain([head + marker], _block_base64(spectrum.b), [tail]))


def load_spectrum(path: str | Path) -> ModeSpectrum:
    """Read a spectrum file exactly: omega comes from the stored eigenvalues.

    The file needs n finite, non-increasing eigenvalues (index 0 = COM), the
    n x n eigenvector block with orthonormal columns (within
    `ORTHONORMALITY_TOL`), n finite frequencies and the mass; a violation
    raises ConfigError. Other keys are ignored, so a file from before the
    block, with the eigenvectors as a nested list, is refused as missing it.
    `frequencies_hz` is derived data; a file whose values disagree with the
    eigenvalues by more than 1e-12 relative is refused with ValueError.
    """
    # the file's text is freed once parsed: only the document reaches the reader
    doc = _read_document(Path(path).read_text(encoding="utf-8"), "spectrum")
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


def save_histogram(histogram: ModeHistogram, path: str | Path) -> None:
    rows = zip(histogram.bin_centers_hz, histogram.counts)
    atomic_write_text(path, _csv("histogram", rows))


# ---------------------------------------------------------------------------
# traces, trajectories, fits


def save_trace(trace: SpectrumTrace, path: str | Path) -> None:
    per_ion = np.empty((0, len(trace.mu_over_2pi))) if trace.p_up_per_ion is None else trace.p_up_per_ion
    rows = ([mu, pm, *col] for mu, pm, col in zip(trace.mu_over_2pi, trace.p_up_mean, per_ion.T))
    atomic_write_text(path, _csv("trace", rows, len(per_ion)))


def _read_table(path: str | Path, tables: tuple[str, ...]) -> tuple[str, np.ndarray]:
    """Which of `tables` a CSV file holds, and its float cells: the reader of every CSV table.

    The header must be the whole header that table's writer writes (a trace's
    with its per-ion columns or without); any other raises ValueError naming
    the file. Blank lines are skipped. A data row whose cell count differs
    from the header's, or that holds an empty, non-numeric, nan or infinite
    cell, raises ValueError naming its line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    n_per_ion = max(len(header) - len(_HEADERS["trace"]), 0)
    table = next((t for t in tables if header == _header(t, n_per_ion if t == "trace" else 0)), None)
    if table is None:
        expected = " or ".join(",".join(_HEADERS[t]) + ("[,p_up_ion_j...]" if t == "trace" else "")
                               for t in tables)
        raise ValueError(f"{path}: unrecognized table header {','.join(header)!r}; expected {expected}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number}: expected {len(header)} cells, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:  # float() names the cell but not the file or line
            raise ValueError(f"{path}: line {number}: non-numeric cell in {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {number}: non-finite cell in {line!r}")
        rows.append(row)
    return table, np.array(rows, dtype=float).reshape(len(rows), len(header))


def save_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    rows = zip(trajectory.times, trajectory.alpha.real, trajectory.alpha.imag)
    atomic_write_text(path, _csv("trajectory", rows))


def save_fit_result(result: FitResult, path: str | Path) -> None:
    fitted = {} if result.gamma_err is None else {"gamma_err_per_s": result.gamma_err}
    atomic_write_text(path, _dump_json({
        "nbar": result.nbar,
        "nbar_err": result.nbar_err,
        "temperature_k": result.temperature,
        "temperature_err_k": result.temperature_err,
        "gamma_used_per_s": result.gamma_used,
        "chi2_reduced": result.chi2_reduced,
        "status": result.status,
        "systematic_note": result.systematic_note,
        **fitted,
    }))


# ---------------------------------------------------------------------------
# observed spectra (measurement ingest)


def save_observed(data: ObservedSpectrum, path: str | Path) -> None:
    atomic_write_text(path, _csv("observed", zip(data.mu_hz, data.p_up, data.sigma)))


def load_observed(path: str | Path, metadata_path: str | Path | None = None) -> ObservedSpectrum:
    """Read (mu_hz, p_up, sigma) rows; metadata comes from a JSON sidecar.

    The header must be exactly mu_hz,p_up,sigma, and every data row needs
    three finite cells; any other header or row raises ValueError.

    The sidecar defaults to <path>.meta.json and is optional. It is a JSON
    object whose keys are all optional: `n_ions` (positive integer),
    `theta_r_deg` (beam crossing angle, in (0, 180)) and `theta_r_rel_err`
    (relative error of that angle, in [0, 1)). An unknown key or a value of
    the wrong type raises ConfigError; a value out of range, ValueError.
    """
    _, arr = _read_table(path, ("observed",))

    if metadata_path is None:
        candidate = Path(str(path) + ".meta.json")
        metadata_path = candidate if candidate.exists() else None
    meta = FitMetadata()
    if metadata_path is not None:
        doc = _read_document(Path(metadata_path).read_text(encoding="utf-8"), "sidecar")
        _reject_unknown(doc, "sidecar", {"n_ions", "theta_r_deg", "theta_r_rel_err"})
        theta_deg = _expect(doc, "sidecar", "theta_r_deg", float, required=False)
        meta = FitMetadata(
            n_ions=_expect(doc, "sidecar", "n_ions", int, required=False),
            theta_r=None if theta_deg is None else math.radians(theta_deg),
            theta_r_rel_err=_expect(doc, "sidecar", "theta_r_rel_err", float, required=False),
        )
    return ObservedSpectrum(mu_hz=arr[:, 0], p_up=arr[:, 1], sigma=arr[:, 2], metadata=meta)

