import copy
import json
import math

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
        "seeds": {"lattice": 1},
    }


class TestRunConfig:
    def test_parses_typed_objects(self):
        cfg = from_dict(sample_config_dict())
        assert cfg.n_ions == 2
        assert cfg.trap.omega_1 == pytest.approx(2 * math.pi * 795e3)
        assert isinstance(cfg.drive.sequence, SpinEcho)
        assert cfg.drive.sequence.t_pi == 65e-6
        assert cfg.lattice_seed == 1

    def test_sweep_grid_points(self):
        cfg = from_dict(sample_config_dict())
        pts = cfg.sweep.points_hz()
        assert pts[0] == 780e3 and pts[-1] == 800e3
        assert np.allclose(np.diff(pts), 100.0)

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

    def test_intensity_calibration_path(self):
        d = sample_config_dict()
        del d["drive"]["force_n"]
        d["drive"]["intensity_w_cm2"] = 2.0
        cfg = from_dict(d)
        assert cfg.drive.forces == pytest.approx(3.0e-23)

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
            (lambda d: d["seeds"].__setitem__("noise", 0), "seeds.noise"),
            (lambda d: d["drive"].__setitem__("mu_r_hz", 795e3), "drive.mu_r_hz"),
        ],
    )
    def test_validation_errors_carry_paths(self, mutate, where):
        d = sample_config_dict()
        mutate(d)
        with pytest.raises(ConfigError) as info:
            from_dict(d)
        assert info.value.where == where

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
        lattice = solve_cached(2)
        doc = json.loads(iof.lattice_to_json(lattice))
        assert set(doc) >= {"params", "positions_m", "converged", "residual_force_max_N", "planar"}
        assert len(doc["positions_m"]) == 2 and len(doc["positions_m"][0]) == 3

    def test_csv_export(self):
        lattice = solve_cached(3)
        text = iof.lattice_to_csv(lattice)
        lines = text.strip().split("\n")
        assert lines[0] == "x_m,y_m,z_m"
        assert len(lines) == 4
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert np.allclose(parsed, lattice.positions, rtol=1e-15)


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
        doc = json.loads(iof.spectrum_to_json(spectrum_cached(7)))
        doc["frequencies_hz"][3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="frequencies_hz"):
            iof.spectrum_from_json(json.dumps(doc))

    def test_histogram_csv(self, tmp_path):
        hist = mode_histogram(spectrum_cached(7), 10e3)
        path = tmp_path / "hist.csv"
        iof.save_histogram(hist, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_center_hz,count"
        counts = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 7


class TestTraceFiles:
    def test_round_trip_mean_only(self, tmp_path):
        trace = SpectrumTrace(mu_over_2pi=np.array([1.0, 2.0]), p_up_mean=np.array([0.1, 0.2]))
        path = tmp_path / "trace.csv"
        iof.save_trace(trace, path)
        loaded = iof.load_trace(path)
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
        loaded = iof.load_trace(path)
        assert np.array_equal(loaded.p_up_per_ion, trace.p_up_per_ion)

    def test_full_precision_floats(self, tmp_path):
        value = 0.1234567890123456789
        trace = SpectrumTrace(mu_over_2pi=np.array([value]), p_up_mean=np.array([value]))
        path = tmp_path / "trace.csv"
        iof.save_trace(trace, path)
        assert iof.load_trace(path).mu_over_2pi[0] == np.float64(value)

    @pytest.mark.parametrize("text", ["", "\n", "mu_hz,p_up,sigma\n1.0,0.1,0.02\n"],
                             ids=["empty", "blank_line", "other_header"])
    def test_not_a_trace_file(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a spectrum trace file"):
            iof.load_trace(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("mu_over_2pi_hz,p_up_mean,p_up_ion_0\n1.0,0.1,0.1\n2.0,0.2\n")
        with pytest.raises(ValueError, match="line 3: expected 3 cells, got 2"):
            iof.load_trace(path)

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
    def test_valid_documents_read(self, observed_path):
        assert from_dict(config_7()).n_ions == 7
        assert iof.lattice_from_json(iof.lattice_to_json(solve_cached(7))).n_ions == 7
        assert iof.spectrum_from_json(iof.spectrum_to_json(spectrum_cached(7))).n_modes == 7
        meta = observed_path.with_name("data.csv.meta.json")
        meta.write_text(json.dumps({"n_ions": 7, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05}))
        assert iof.load_observed(observed_path).metadata.n_ions == 7

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_config(self, data):
        read_or_refuse(from_dict, data.draw(damaged(config_7())))

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_lattice(self, data):
        valid = json.loads(iof.lattice_to_json(solve_cached(7)))
        read_or_refuse(lambda doc: iof.lattice_from_json(json.dumps(doc)), data.draw(damaged(valid)))

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)
    def test_spectrum(self, data):
        valid = json.loads(iof.spectrum_to_json(spectrum_cached(7)))
        read_or_refuse(lambda doc: iof.spectrum_from_json(json.dumps(doc)), data.draw(damaged(valid)))

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
        read_or_refuse(iof.load_trace, path)

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
