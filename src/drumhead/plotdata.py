"""Turn result tables into plot-ready (x, y, series) data and simple SVG.

Pure layout: no computation beyond reshaping, so plots regenerate
byte-identically from the same inputs.
"""

from __future__ import annotations

from pathlib import Path

from .io_formats import atomic_write_text

_KINDS = {
    ("mu_over_2pi_hz", "p_up_mean"): "trace",
    ("t_s", "re_alpha"): "trajectory",
    ("bin_center_hz", "count"): "histogram",
}


def detect_kind(path: str | Path) -> str:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    kind = _KINDS.get(tuple(header[:2]))
    if kind is None:
        raise ValueError(f"{path}: unrecognized table header {header[:2]}")
    return kind


def _read_rows(path: str | Path) -> list[list[float]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [[float(c) for c in line.split(",")] for line in lines[1:] if line.strip()]


def build_plot_rows(path: str | Path, overlay_histogram: str | Path | None = None):
    """Normalize a trace/trajectory/histogram table to (x, y, series) rows."""
    kind = detect_kind(path)
    rows = _read_rows(path)
    out: list[tuple[float, float, str]] = []
    if kind == "trace":
        out.extend((r[0], r[1], "p_up") for r in rows)
    elif kind == "histogram":
        out.extend((r[0], r[1], "mode_density") for r in rows)
    else:  # trajectory: phase-space path, x = Re alpha, y = Im alpha
        out.extend((r[1], r[2], "alpha") for r in rows)
    if overlay_histogram is not None:
        if kind != "trace":
            raise ValueError("histogram overlay only applies to a spectrum trace")
        if detect_kind(overlay_histogram) != "histogram":
            raise ValueError(f"{overlay_histogram}: not a histogram table")
        out.extend((r[0], r[1], "mode_density") for r in _read_rows(overlay_histogram))
    return out


def write_plot_csv(rows, path: str | Path) -> None:
    lines = ["x,y,series"]
    lines.extend(f"{x!r},{y!r},{series}" for x, y, series in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_plot_svg(rows, path: str | Path, width: int = 640, height: int = 420) -> None:
    """Minimal deterministic SVG: one polyline per series, linearly scaled."""
    pad = 40.0
    series_names = []
    for _, _, s in rows:
        if s not in series_names:
            series_names.append(s)
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    if xs:
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / dx * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / dy * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, name in enumerate(series_names):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y, s in rows if s == name
        )
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{pad + 4 + 120 * i:.1f}" y="{pad - 16:.1f}" fill="{color}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
