"""Turn result tables into plot-ready (x, y, series) data and simple SVG.

Pure layout: no computation beyond reshaping, so plots regenerate
byte-identically from the same inputs.
"""

from __future__ import annotations

from pathlib import Path

from .io_formats import _read_table, atomic_write_text

SVG_WIDTH = 640
SVG_HEIGHT = 420


# the series name and the (x, y) columns of each table plot reads; a trajectory
# plots its phase-space path, x = Re alpha and y = Im alpha
_LAYOUT = {"trace": ("p_up", slice(0, 2)), "histogram": ("mode_density", slice(0, 2)),
           "trajectory": ("alpha", slice(1, 3))}


def _read_plot_table(path: str | Path, tables=tuple(_LAYOUT)) -> tuple[str, list[list[float]]]:
    """Series name and (x, y) rows of one of `tables`, read under the full header its writer writes."""
    table, cells = _read_table(path, tables)
    series, columns = _LAYOUT[table]
    return series, cells[:, columns].tolist()


def build_plot_rows(path: str | Path, overlay_histogram: str | Path | None = None):
    """Normalize a trace/trajectory/histogram table to (x, y, series) rows."""
    series, xy = _read_plot_table(path)
    out = [(x, y, series) for x, y in xy]
    if overlay_histogram is not None:
        if series != "p_up":
            raise ValueError("histogram overlay only applies to a spectrum trace")
        overlay_series, overlay_xy = _read_plot_table(overlay_histogram, ("histogram",))
        out.extend((x, y, overlay_series) for x, y in overlay_xy)
    return out


def write_plot_csv(rows, path: str | Path) -> None:
    lines = ["x,y,series"]
    lines.extend(f"{x!r},{y!r},{series}" for x, y, series in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_plot_svg(rows, path: str | Path) -> None:
    """Minimal deterministic SVG: one polyline per series, linearly scaled."""
    width, height = SVG_WIDTH, SVG_HEIGHT
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
