"""In-memory spans around the benchmark's calls into drumhead's layers.

Spans are recorded only from the benchmark: `instrument` swaps the public
layer functions that `drumhead.cli` calls (and the `io_formats` functions it
reaches through the module) for timing wrappers, and restores them on exit.
Nothing under `src/` changes. A span holds a name, start, end, parent span
and request id; spans stay in memory until the run writes its record.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; records only while `request` is set to a request id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if self.request is None:
            yield None
            return
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), math.nan, parent, self.request)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args, result)` adds computed counts to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if record is not None and count is not None:
                record.counts.update(count(args, result))
            return result

        return traced


# computed counts: derived from arguments, results and file sizes, never timed


def _accepted_steps(args, lattice):
    return {"accepted_steps": len(lattice.energy_trace)}


def _sweep_cells(args, trace):
    _, spectrum, _, mu_grid = args[:4]
    return {"sweep_cells": spectrum.b.shape[0] * spectrum.n_modes * len(mu_grid)}


def _one_fit(args, result):
    return {"fits": 1}


def _bytes_written(args, result):
    return {"bytes_written": os.path.getsize(args[1])}


def _bytes_read(args, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _observed_bytes_read(args, result):
    meta = args[1] if len(args) > 1 and args[1] is not None else str(args[0]) + ".meta.json"
    meta_size = os.path.getsize(meta) if os.path.exists(meta) else 0
    return {"bytes_read": os.path.getsize(args[0]) + meta_size}


# (module attribute, span name, count) for the layer calls `drumhead.cli` makes
# on the benchmark's paths
CLI_LAYER_CALLS = (
    ("load_config", "config.load_config", None),
    ("solve_equilibrium", "crystal.solve_equilibrium", _accepted_steps),
    ("lattice_stats", "crystal.lattice_stats", None),
    ("transverse_stiffness", "modes.transverse_stiffness", None),
    ("diagonalize", "modes.diagonalize", None),
    ("mode_histogram", "modes.mode_histogram", None),
    ("com_mode_deviation", "modes.com_mode_deviation", None),
    ("sweep_spectrum", "dynamics.sweep_spectrum", _sweep_cells),
    ("fit_occupation", "thermometry.fit_occupation", _one_fit),
)
IO_CALLS = (
    ("save_lattice", _bytes_written),
    ("save_spectrum", _bytes_written),
    ("save_histogram", _bytes_written),
    ("save_trace", _bytes_written),
    ("save_fit_result", _bytes_written),
    ("load_lattice", _bytes_read),
    ("load_spectrum", _bytes_read),
    ("load_observed", _observed_bytes_read),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls of drumhead.cli and of the benchmark through `tracer`."""
    from drumhead import cli, dynamics, io_formats, thermometry

    patches = [(cli, attr, name, count) for attr, name, count in CLI_LAYER_CALLS]
    patches += [(io_formats, attr, f"io_formats.{attr}", count) for attr, count in IO_CALLS]
    patches += [
        (dynamics, "sweep_spectrum", "dynamics.sweep_spectrum", _sweep_cells),
        (thermometry, "fit_occupation", "thermometry.fit_occupation", _one_fit),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name, count in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


CLI_COMMANDS = ("crystal_solve", "modes_compute", "spectrum_simulate", "fit_temperature")
TIMED_SPANS = (
    "crystal.solve_equilibrium",
    "crystal.lattice_stats",
    "modes.transverse_stiffness",
    "modes.diagonalize",
    "modes.mode_histogram",
    "dynamics.sweep_spectrum",
    "thermometry.fit_occupation",
    "config.load_config",
)


def request_layer_metrics(spans: list[Span], request: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced request from the run's spans."""
    mine = {i: span for i, span in enumerate(spans) if span.request == request}
    totals: dict[str, float] = {}
    child_time = dict.fromkeys(mine, 0.0)
    counts: dict[str, float] = {}
    for span in mine.values():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        if span.parent is not None:
            child_time[span.parent] += span.duration
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value

    metrics = {f"{name}_s": totals.get(name, 0.0) for name in TIMED_SPANS}
    metrics["crystal.accepted_steps"] = counts.get("accepted_steps", 0)
    cells = counts.get("sweep_cells", 0)
    sweep_s = totals.get("dynamics.sweep_spectrum", 0.0)
    metrics["dynamics.sweep_cells"] = cells
    metrics["dynamics.sweep_cells_per_s"] = cells / sweep_s if sweep_s > 0.0 else 0.0
    metrics["thermometry.fits"] = counts.get("fits", 0)
    metrics["io_formats.save_s"] = sum(v for k, v in totals.items() if k.startswith("io_formats.save_"))
    metrics["io_formats.load_s"] = sum(v for k, v in totals.items() if k.startswith("io_formats.load_"))
    metrics["io_formats.bytes_written"] = counts.get("bytes_written", 0)
    metrics["io_formats.bytes_read"] = counts.get("bytes_read", 0)
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.self_s"] = sum(
            span.duration - child_time[i] for i, span in mine.items() if span.name == f"cli.{command}"
        )
    covered = sum(span.duration for span in mine.values() if span.parent is None)
    metrics["trace.coverage"] = covered / wall_s
    return metrics
