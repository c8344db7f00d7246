import base64
import copy
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumhead import (
    ConfigError,
    DriveConfig,
    DrumheadError,
    Ramsey,
    SpinEcho,
    ThermalState,
    from_dict,
    load_config,
    sweep_spectrum,
)
from drumhead import io_formats as iof
from drumhead.config import MAX_IONS, MAX_SWEEP_CELLS
from drumhead.dynamics import SpectrumTrace, Trajectory
from drumhead.modes import mode_histogram
from drumhead.plotdata import build_plot_rows
from drumhead.thermometry import FitResult, ObservedSpectrum
from conftest import solve_cached, spectrum_cached


def sample_config_dict():
    return {
        "trap": {"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 44.7e3},
        "n_ions": 2,
        "drive": {
            "force_n": 1.5e-23,
            "gamma_per_s": 223.14,
            "sequence": {"type": "spin_echo", "tau_s": 5e-4, "t_pi_s": 65e-6},
        },
        "thermal": {"nbar_com": 60.0, "bath_temperature_k": 4.3e-4},
        "sweep": {"start_hz": 780e3, "stop_hz": 800e3, "step_hz": 100.0},
    }


class TestRunConfig:
    def test_parses_typed_objects(self):
        cfg = from_dict(sample_config_dict())
        assert cfg.n_ions == 2
        assert cfg.trap.omega_1 == pytest.approx(2 * math.pi * 795e3)
        assert isinstance(cfg.drive.sequence, SpinEcho)
        assert cfg.drive.sequence.t_pi == 65e-6

    def test_repeated_nested_key_names_its_path(self, tmp_path):
        text = json.dumps(sample_config_dict()).replace(
            '"axial_com_hz": 795000.0', '"axial_com_hz": 795000.0, "axial_com_hz": 795000.0')
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^\$\.trap: repeated key 'axial_com_hz'$"):
            load_config(path)

    def test_deeply_nested_document_is_config_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"trap": ' + "[" * 5000 + "]" * 5000 + "}")
        with pytest.raises(ConfigError, match=r"^\$: arrays and objects nested too deeply$"):
            load_config(path)

    def test_repeated_key_deep_in_arrays_names_its_path(self, tmp_path):
        # 900 arrays parse, and the path of the repeated key is found at any depth
        path = tmp_path / "run.json"
        path.write_text('{"trap": ' + "[" * 900 + '{"k": 1, "k": 2}' + "]" * 900 + "}")
        with pytest.raises(ConfigError, match=r"^\$\.trap(\[0\]){900}: repeated key 'k'$"):
            load_config(path)

    def test_readme_config_schema_loads(self):
        # the schema the README documents is a config the reader accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        cfg = from_dict(json.loads(block))
        assert cfg.n_ions == 190
        assert cfg.drive is not None and cfg.thermal is not None and cfg.sweep is not None

    def test_sweep_grid_points(self):
        cfg = from_dict(sample_config_dict())
        pts = cfg.sweep.points_hz()
        assert pts[0] == 780e3 and pts[-1] == 800e3
        assert np.allclose(np.diff(pts), 100.0)

    def test_sweep_cells_are_bounded(self):
        # at N = 1000, 100,000 points (MAX_SWEEP_CELLS = 1e8 cells) load and 100,001 do not
        d = sample_config_dict()
        d["n_ions"] = 1000
        d["sweep"] = {"start_hz": 0.0, "stop_hz": 99_999.0, "step_hz": 1.0}
        assert from_dict(d).sweep.n_points == 100_000
        d["sweep"]["stop_hz"] = 100_000.0
        refused = f"sweep.step_hz: 1000 ions x 100001 points exceed {MAX_SWEEP_CELLS} cells"
        with pytest.raises(ConfigError, match=refused):
            from_dict(d)

    def test_thermal_realization(self):
        cfg = from_dict(sample_config_dict())
        spectrum = spectrum_cached(2, 44.7e3)
        thermal = cfg.thermal.realize(spectrum)
        assert thermal.nbar[0] == 60.0
        assert thermal.nbar[1] > 0.0

    def test_ramsey_sequence(self):
        d = sample_config_dict()
        d["drive"]["sequence"] = {"type": "ramsey", "tau_s": 1e-4}
        cfg = from_dict(d)
        assert isinstance(cfg.drive.sequence, Ramsey)

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda d: d.pop("trap"), "$.trap"),
            (lambda d: d["trap"].pop("axial_com_hz"), "trap.axial_com_hz"),
            (lambda d: d["trap"].__setitem__("rotation_hz", 5e3), "trap"),
            (lambda d: d.__setitem__("n_ions", 0), "n_ions"),
            (lambda d: d["drive"]["sequence"].__setitem__("type", "cpmg"), "drive.sequence.type"),
            (lambda d: d["sweep"].__setitem__("step_hz", -1.0), "sweep.step_hz"),
            (lambda d: d.__setitem__("unknown_key", 1), "$.unknown_key"),
            (lambda d: d["trap"].__setitem__("axial_com_hz", "fast"), "trap.axial_com_hz"),
            (lambda d: d.__setitem__("beam", {"crossing_angle_deg": 4.8}), "$.beam"),
            (lambda d: d.__setitem__("seeds", {"lattice": 1}), "$.seeds"),
            (lambda d: d["drive"].__setitem__("intensity_w_cm2", 2.0), "drive.intensity_w_cm2"),
            (lambda d: d["drive"].__setitem__("mu_r_hz", 795e3), "drive.mu_r_hz"),
            (lambda d: d["thermal"].__setitem__("temperature_k", 1e-3), "thermal"),
            (lambda d: d.__setitem__("thermal", {"nbar_uniform": 5.0, "bath_temperature_k": 1.0}),
             "thermal.bath_temperature_k"),
            (lambda d: d["drive"]["sequence"].__setitem__("type", "ramsey"), "drive.sequence.t_pi_s"),
            # an explicit id keeps the row above named [<lambda>-n_ions]
            pytest.param(lambda d: d.__setitem__("n_ions", MAX_IONS + 1), "n_ions", id="too_many_ions"),
        ],
    )
    def test_validation_errors_carry_paths(self, mutate, where):
        d = sample_config_dict()
        mutate(d)
        with pytest.raises(ConfigError) as info:
            from_dict(d)
        assert info.value.where == where

    def test_most_ions_load(self):
        d = sample_config_dict()
        d["n_ions"] = MAX_IONS
        assert from_dict(d).n_ions == MAX_IONS == 5000

    def test_per_ion_force_length_check(self):
        d = sample_config_dict()
        del d["drive"]["force_n"]
        d["drive"]["force_n_per_ion"] = [1e-23, 1e-23, 1e-23]
        with pytest.raises(ConfigError):
            from_dict(d)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "trap": ,\n}')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "line 2" in info.value.where


class TestLatticeFiles:
    def test_round_trip(self, tmp_path):
        lattice = solve_cached(7)
        path = tmp_path / "lattice.json"
        iof.save_lattice(lattice, path)
        loaded = iof.load_lattice(path)
        assert np.array_equal(loaded.positions, lattice.positions)
        assert loaded.converged == lattice.converged
        assert loaded.planar == lattice.planar
        assert loaded.residual_force_max == lattice.residual_force_max
        assert loaded.params.omega_1 == pytest.approx(lattice.params.omega_1, rel=1e-15)

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "lattice.json"
        iof.save_lattice(solve_cached(2), path)
        doc = json.loads(path.read_text())
        assert set(doc) >= {"params", "positions_m", "converged", "residual_force_max_N", "planar"}
        assert len(doc["positions_m"]) == 2 and len(doc["positions_m"][0]) == 3

    def test_csv_export(self, tmp_path):
        lattice = solve_cached(3)
        path = tmp_path / "positions.csv"
        iof.save_positions(lattice, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_m,y_m,z_m"
        assert len(lines) == 4
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert np.allclose(parsed, lattice.positions, rtol=1e-15, atol=0.0)


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path, spectrum_190):
        # omega must come back bit for bit: at N = 190, 2 pi * frequencies_hz
        # is one ulp off for 27 modes, and a sweep would show it
        for spectrum in (spectrum_cached(7), spectrum_190):
            path = tmp_path / "spectrum.json"
            iof.save_spectrum(spectrum, path)
            loaded = iof.load_spectrum(path)
            assert np.array_equal(loaded.omega, spectrum.omega)
            assert np.array_equal(loaded.eigenvalues, spectrum.eigenvalues)
            assert np.array_equal(loaded.b, spectrum.b)
            assert loaded.mass == spectrum.mass
            assert loaded.unstable_modes == spectrum.unstable_modes
        drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=223.0,
                            sequence=SpinEcho(tau=5e-4, t_pi=65e-6))
        thermal = ThermalState.from_temperature(spectrum_190, 0.43e-3)
        grid = 2 * np.pi * np.arange(30e3, 800e3 + 1.0, 500.0)
        in_memory = sweep_spectrum(drive, spectrum_190, thermal, grid)
        from_file = sweep_spectrum(drive, loaded, thermal, grid)  # loaded: the N = 190 file
        assert np.array_equal(from_file.p_up_mean, in_memory.p_up_mean)

    def test_save_is_deterministic(self, tmp_path, spectrum_190):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        iof.save_spectrum(spectrum_190, first)
        iof.save_spectrum(spectrum_190, second)
        assert first.read_bytes() == second.read_bytes()
        assert "eigenvectors_f64le_b64" in json.loads(first.read_text())

    def test_inconsistent_frequencies_rejected(self, tmp_path):
        path = tmp_path / "spectrum.json"
        iof.save_spectrum(spectrum_cached(7), path)
        doc = json.loads(path.read_text())
        doc["frequencies_hz"][3] *= 1.0 + 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="frequencies_hz"):
            iof.load_spectrum(path)

    @pytest.mark.parametrize("chunk_bytes", [None, 24])
    @pytest.mark.parametrize("n_ions", [1, 2, 7, 19, 150, 190])
    def test_chunks_join_into_the_whole_block_document(self, tmp_path, monkeypatch, n_ions, chunk_bytes):
        # the file equals the document with the block encoded whole and reads
        # back to the same matrix; the default chunks join from N = 40 on,
        # 24-byte chunks every 3 rows at every N
        if chunk_bytes is not None:
            monkeypatch.setattr(iof, "_BLOCK_CHUNK_BYTES", chunk_bytes)
        spectrum = spectrum_cached(n_ions, 44.7e3)
        path = tmp_path / "spectrum.json"
        iof.save_spectrum(spectrum, path)
        assert path.read_text(encoding="utf-8") == whole_block_document(spectrum)
        assert np.array_equal(iof.load_spectrum(path).b, spectrum.b)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[:100_000] + "!" + text[100_001:],
            lambda text: text[:100_000] + "=" + text[100_001:],
            lambda text: text[:100_000] + "==" + text[100_002:],
            lambda text: text[:100_000] + "é" + text[100_001:],
            lambda text: text[:-4],
            lambda text: text[:-1],
            lambda text: text + "AAAA",
            lambda text: text + "AAA=",
            lambda text: text + "A",
            lambda text: "",
        ],
        ids=["bad_character", "padding_inside", "two_paddings_inside", "non_ascii", "short", "short_by_one",
             "long", "long_padded", "long_by_one", "empty"],
    )
    def test_damaged_block_refused_as_a_whole_decode_refuses_it(self, tmp_path, edit):
        # the N = 150 block spans 15 chunks of 16384 characters; each damage
        # is refused with the message a decode of the whole string gives
        path = tmp_path / "spectrum.json"
        iof.save_spectrum(spectrum_cached(150, 44.7e3), path)
        doc = json.loads(path.read_text())
        text = doc["eigenvectors_f64le_b64"] = edit(doc["eigenvectors_f64le_b64"])
        path.write_text(json.dumps(doc))
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:
            message = f"not base64 ({exc})"
        else:
            message = f"expected 180000 bytes (150 x 150 float64), got {len(raw)}"
        with pytest.raises(ConfigError) as info:
            iof.load_spectrum(path)
        assert str(info.value) == f"spectrum.eigenvectors_f64le_b64: {message}"

    def test_padded_chunk_refused_though_the_last_chunk_makes_up_its_byte(self):
        # at n = 46 the block is 16928 bytes in two chunks, its base64 ending in one '='; a first
        # chunk that ends in padding (one byte short) and a last one without it (one byte over)
        # hold the right length and byte count between them, and a whole-string decode refuses them
        n, step = 46, 4 * iof._BLOCK_CHUNK_BYTES // 3
        text = base64.b64encode(np.eye(n).tobytes()).decode("ascii")
        assert text[-2:] != "==" and text[-1] == "=" and len(text) > step
        damaged = text[:step - 1] + "=" + text[step:-1] + "A"
        with pytest.raises(ConfigError, match="not base64"):
            iof._decode_block(damaged, n, "block")

    def test_save_and_load_hold_no_copy_of_the_block(self, tmp_path, spectrum_190):
        # beyond the spectrum, save holds under 1/4 and load under 3 copies
        # of the (N, N) float64 block; encoded or decoded whole, 5.2 and 4.7
        path, block = tmp_path / "spectrum.json", spectrum_190.b.nbytes
        iof.save_spectrum(spectrum_190, path)
        iof.load_spectrum(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            iof.save_spectrum(spectrum_190, path)
            save_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            loaded = iof.load_spectrum(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.b, spectrum_190.b)
        assert save_peak < 0.25 * block
        assert peak - current < 3 * block

    def test_histogram_csv(self, tmp_path):
        hist = mode_histogram(spectrum_cached(7), 10e3)
        path = tmp_path / "hist.csv"
        iof.save_histogram(hist, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_center_hz,count"
        counts = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 7


def whole_block_document(spectrum) -> str:
    """A spectrum file with its eigenvector block encoded in one piece."""
    block = np.ascontiguousarray(spectrum.b, dtype="<f8").tobytes()
    return json.dumps({
        "frequencies_hz": spectrum.frequencies_hz.tolist(),
        "eigenvalues_rad2_per_s2": spectrum.eigenvalues.tolist(),
        "eigenvectors_f64le_b64": base64.b64encode(block).decode("ascii"),
        "mass_kg": spectrum.mass,
        "unstable_modes": list(spectrum.unstable_modes),
    }, indent=2, sort_keys=True) + "\n"


def read_trace(path) -> SpectrumTrace:
    """A trace file read back through the one CSV reader."""
    _, cells = iof._read_table(path, ("trace",))
    return SpectrumTrace(mu_over_2pi=cells[:, 0], p_up_mean=cells[:, 1],
                         p_up_per_ion=cells[:, 2:].T if cells.shape[1] > 2 else None)


class TestTraceFiles:
    def test_round_trip_mean_only(self, tmp_path):
        trace = SpectrumTrace(mu_over_2pi=np.array([1.0, 2.0]), p_up_mean=np.array([0.1, 0.2]))
        path = tmp_path / "trace.csv"
        iof.save_trace(trace, path)
        loaded = read_trace(path)
        assert np.array_equal(loaded.mu_over_2pi, trace.mu_over_2pi)
        assert np.array_equal(loaded.p_up_mean, trace.p_up_mean)
        assert loaded.p_up_per_ion is None

    def test_round_trip_per_ion(self, tmp_path):
        trace = SpectrumTrace(
            mu_over_2pi=np.array([1.0, 2.0]),
            p_up_mean=np.array([0.15, 0.25]),
            p_up_per_ion=np.array([[0.1, 0.2], [0.2, 0.3]]),
        )
        path = tmp_path / "trace.csv"
        iof.save_trace(trace, path)
        loaded = read_trace(path)
        assert np.array_equal(loaded.p_up_per_ion, trace.p_up_per_ion)

    def test_full_precision_floats(self, tmp_path):
        value = 0.1234567890123456789
        trace = SpectrumTrace(mu_over_2pi=np.array([value]), p_up_mean=np.array([value]))
        path = tmp_path / "trace.csv"
        iof.save_trace(trace, path)
        assert read_trace(path).mu_over_2pi[0] == np.float64(value)

    @pytest.mark.parametrize("text", ["", "\n", "mu_hz,p_up,sigma\n1.0,0.1,0.02\n"],
                             ids=["empty", "blank_line", "other_header"])
    def test_not_a_trace_file(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="unrecognized table header"):
            read_trace(path)

    @pytest.mark.parametrize("header", [
        "mu_over_2pi_hz,p_up_mean,junk", "mu_over_2pi_hz,p_up_mean,p_up_ion_1",
        "mu_over_2pi_hz,p_up_mean,p_up_ion_0,p_up_ion_0", "mu_over_2pi_hz",
    ], ids=["junk", "ion_1_first", "ion_0_twice", "short"])
    def test_header_other_than_the_writers_refused(self, tmp_path, header):
        # the whole header, per-ion columns included, must be the one save_trace writes
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n" + ",".join(["1.0"] * len(header.split(","))) + "\n")
        with pytest.raises(ValueError, match=f"unrecognized table header '{header}'"):
            read_trace(path)
        with pytest.raises(ValueError, match="unrecognized table header"):
            build_plot_rows(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("mu_over_2pi_hz,p_up_mean,p_up_ion_0\n1.0,0.1,0.1\n2.0,0.2\n")
        with pytest.raises(ValueError, match="line 3: expected 3 cells, got 2"):
            read_trace(path)

    def test_each_table_read_under_its_writers_header(self, tmp_path):
        # every reader of a table takes the header its writer wrote, and names the table
        observed = ObservedSpectrum(mu_hz=np.array([1e5]), p_up=np.array([0.1]), sigma=np.array([0.01]))
        traj = Trajectory(times=np.array([0.0]), alpha=np.array([0.1 + 0.2j]), arm_boundary=None)
        hist = mode_histogram(spectrum_cached(7), 10e3)
        iof.save_observed(observed, tmp_path / "observed.csv")
        iof.save_trajectory(traj, tmp_path / "trajectory.csv")
        iof.save_histogram(hist, tmp_path / "histogram.csv")
        iof.save_positions(solve_cached(7), tmp_path / "positions.csv")
        tables = ("observed", "trajectory", "histogram", "positions")
        for table in tables:
            assert iof._read_table(tmp_path / f"{table}.csv", tables)[0] == table

    def test_trajectory_csv(self, tmp_path):
        traj = Trajectory(times=np.array([0.0, 1.0]), alpha=np.array([0.1 + 0.2j, 0.3 - 0.4j]),
                          arm_boundary=1)
        path = tmp_path / "traj.csv"
        iof.save_trajectory(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t_s,re_alpha,im_alpha"
        assert [float(x) for x in lines[2].split(",")] == [1.0, 0.3, -0.4]


class TestObservedAndFitFiles:
    def test_observed_round_trip_with_sidecar(self, tmp_path):
        data = ObservedSpectrum(mu_hz=np.array([1e5, 2e5, 3e5]),
                                p_up=np.array([0.1, 0.2, 0.3]),
                                sigma=np.array([0.01, 0.01, 0.02]))
        path = tmp_path / "data.csv"
        iof.save_observed(data, path)
        (tmp_path / "data.csv.meta.json").write_text(
            json.dumps({"n_ions": 190, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05})
        )
        loaded = iof.load_observed(path)
        assert np.array_equal(loaded.mu_hz, data.mu_hz)
        assert loaded.metadata.n_ions == 190
        assert loaded.metadata.theta_r == pytest.approx(math.radians(4.8))

    def test_sidecar_repeated_nested_key_names_its_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("mu_hz,p_up,sigma\n1e5,0.1,0.01\n")
        (tmp_path / "data.csv.meta.json").write_text(
            '{"n_ions": 2, "notes": [{"run": 1}, {"run": 2, "run": 3}]}')
        with pytest.raises(ConfigError, match=r"^sidecar\.notes\[1\]: repeated key 'run'$"):
            iof.load_observed(path)

    def test_observed_without_sidecar(self, tmp_path):
        data = ObservedSpectrum(mu_hz=np.array([1e5, 2e5, 3e5]),
                                p_up=np.array([0.1, 0.2, 0.3]),
                                sigma=np.array([0.01, 0.01, 0.02]))
        path = tmp_path / "data.csv"
        iof.save_observed(data, path)
        loaded = iof.load_observed(path)
        assert loaded.metadata.theta_r is None

    @pytest.mark.parametrize("rows, line", [("790000.0,0.1\n0.02,795000.0\n0.1,0.02\n", 2),
                                            ("790000.0,0.1,0.02\n795000.0,0.1,0.02,0.5\n", 3)],
                             ids=["short_rows", "long_row"])
    def test_observed_row_length_checked(self, tmp_path, rows, line):
        path = tmp_path / "data.csv"
        path.write_text("mu_hz,p_up,sigma\n" + rows)
        with pytest.raises(ValueError, match=f"line {line}: expected 3 cells"):
            iof.load_observed(path)

    def test_fit_result_json(self, tmp_path):
        result = FitResult(nbar=60.0, nbar_err=7.0, temperature=2.29e-3, temperature_err=2.7e-4,
                           gamma_used=223.1, chi2_reduced=1.1, status="ok",
                           systematic_note="beam-angle refit")
        path = tmp_path / "fit.json"
        iof.save_fit_result(result, path)
        doc = json.loads(path.read_text())
        assert doc["nbar"] == 60.0
        assert doc["status"] == "ok"
        assert "gamma_err_per_s" not in doc  # gamma was given
        iof.save_fit_result(replace(result, gamma_err=1.5), path)
        assert json.loads(path.read_text())["gamma_err_per_s"] == 1.5


class TestAtomicWrites:
    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "out.txt"
        iof.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "out.txt"
        iof.atomic_write_text(path, "one\n")
        iof.atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"


# ---------------------------------------------------------------------------
# damaged documents: every reader either reads a document or refuses it with
# an error the command line maps to exit 2 (ConfigError, ValueError or another
# DrumheadError), never with KeyError, TypeError or IndexError (exit 1)

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _slots(node, path=()):
    """(path, value) of every value in a JSON document, the root included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _slots(child, path + (key,))


@st.composite
def damaged(draw, valid):
    """`valid` with one to three values deleted, swapped for junk, or (lists) truncated."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["delete", "swap", "truncate"]))
        if not path:
            doc = draw(JSON_JUNK) if action == "swap" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        elif action == "swap":
            parent[path[-1]] = draw(JSON_JUNK)
        elif isinstance(value, list):
            parent[path[-1]] = value[: draw(st.integers(0, max(len(value) - 1, 0)))]
    return doc


def config_7():
    doc = sample_config_dict()
    del doc["drive"]["force_n"]
    doc.update(n_ions=7, thermal={"nbar_per_mode": [60.0] + [5.0] * 6})
    doc["drive"]["force_n_per_ion"] = [1.5e-23] * 7
    return doc


def read_or_refuse(read, doc):
    try:
        read(doc)
    except (ValueError, DrumheadError):
        pass


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "document.json"


def saved_document(save, value, path) -> dict:
    """The JSON document that `save` writes for `value` at `path`."""
    save(value, path)
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("sidecar") / "data.csv"
    iof.save_observed(ObservedSpectrum(mu_hz=np.array([1e5, 2e5]), p_up=np.array([0.1, 0.2]),
                                       sigma=np.array([0.01, 0.01])), path)
    return path


# cells that are numbers, not numbers, or several cells at once
CSV_JUNK = st.floats().map(repr) | st.text(alphabet="0123456789.e-+naif ,x", max_size=6)


@st.composite
def damaged_csv(draw, valid):
    """`valid` CSV text with one to three lines or cells deleted, added or swapped, maybe cut short."""
    rows = [line.split(",") for line in valid.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["delete_line", "delete_cell", "add_cell", "swap_cell"]))
        if action == "delete_line" or not row:
            rows.remove(row)
        elif action == "add_cell":
            row.insert(draw(st.integers(0, len(row))), draw(CSV_JUNK))
        elif action == "delete_cell":
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(CSV_JUNK)
    text = "".join(",".join(row) + "\n" for row in rows)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")  # holds no sidecar


class TestDamagedDocuments:
    def test_valid_documents_read(self, document_path, observed_path):
        assert from_dict(config_7()).n_ions == 7
        iof.save_lattice(solve_cached(7), document_path)
        assert iof.load_lattice(document_path).n_ions == 7
        iof.save_spectrum(spectrum_cached(7), document_path)
        assert iof.load_spectrum(document_path).n_modes == 7
        meta = observed_path.with_name("data.csv.meta.json")
        meta.write_text(json.dumps({"n_ions": 7, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05}))
        assert iof.load_observed(observed_path).metadata.n_ions == 7

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_config(self, data):
        read_or_refuse(from_dict, data.draw(damaged(config_7())))

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_lattice(self, document_path, data):
        valid = saved_document(iof.save_lattice, solve_cached(7), document_path)
        document_path.write_text(json.dumps(data.draw(damaged(valid))))
        read_or_refuse(iof.load_lattice, document_path)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_spectrum(self, document_path, data):
        valid = saved_document(iof.save_spectrum, spectrum_cached(7), document_path)
        document_path.write_text(json.dumps(data.draw(damaged(valid))))
        read_or_refuse(iof.load_spectrum, document_path)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_sidecar(self, observed_path, data):
        meta = observed_path.with_name("data.csv.meta.json")
        valid = {"n_ions": 7, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05}
        meta.write_text(json.dumps(data.draw(damaged(valid))))
        read_or_refuse(lambda _: iof.load_observed(observed_path), None)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_observed_rows(self, csv_dir, data):
        path = csv_dir / "data.csv"
        path.write_text(data.draw(damaged_csv("mu_hz,p_up,sigma\n790000.0,0.1,0.02\n795000.0,0.2,0.02\n")))
        read_or_refuse(iof.load_observed, path)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_trace(self, csv_dir, data):
        path = csv_dir / "trace.csv"
        valid = "mu_over_2pi_hz,p_up_mean,p_up_ion_0,p_up_ion_1\n1.0,0.15,0.1,0.2\n2.0,0.25,0.2,0.3\n"
        path.write_text(data.draw(damaged_csv(valid)))
        read_or_refuse(read_trace, path)

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_plot_rows(self, csv_dir, data):
        path, overlay = csv_dir / "table.csv", csv_dir / "overlay.csv"
        valid = data.draw(st.sampled_from([
            "mu_over_2pi_hz,p_up_mean,p_up_ion_0,p_up_ion_1\n1.0,0.15,0.1,0.2\n2.0,0.25,0.2,0.3\n",
            "bin_center_hz,count\n5000.0,3.0\n15000.0,4.0\n",
            "t_s,re_alpha,im_alpha\n0.0,0.0,0.0\n0.0001,0.5,-0.5\n",
        ]))
        path.write_text(data.draw(damaged_csv(valid)))
        overlay.write_text(data.draw(damaged_csv("bin_center_hz,count\n5000.0,3.0\n15000.0,4.0\n")))
        with_overlay = data.draw(st.booleans())
        read_or_refuse(lambda p: build_plot_rows(p, overlay if with_overlay else None), path)
