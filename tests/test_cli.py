"""End-to-end pipeline through the command-line interface."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drumhead
from drumhead import (
    BE9_ION_MASS,
    COULOMB_K,
    EquilibriumNotConverged,
    beta,
    solve_equilibrium,
)
from drumhead import crystal
from drumhead import io_formats as iof
from drumhead.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_NOT_CONVERGED,
    EXIT_NOT_PLANAR,
    EXIT_OK,
    main,
)
from conftest import flat_background, paper_trap, spectrum_cached


def write_config(path, **overrides):
    doc = {
        "trap": {"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 44.7e3},
        "n_ions": 2,
        "drive": {
            "force_n": 8e-24,
            "gamma_per_s": 200.0,
            "sequence": {"type": "spin_echo", "tau_s": 2.5e-4, "t_pi_s": 30e-6},
        },
        "thermal": {"nbar_uniform": 15.0},
        "sweep": {"start_hz": 700e3, "stop_hz": 810e3, "step_hz": 250.0},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return doc


@pytest.fixture()
def workspace(tmp_path):
    config = tmp_path / "run.json"
    write_config(config)
    return tmp_path, config


def run(*argv):
    return main([str(a) for a in argv])


class TestCrystalSolve:
    def test_two_ions_analytic_separation(self, workspace):
        tmp, config = workspace
        out = tmp / "lattice.json"
        assert run("crystal", "solve", "--config", config, "--out", out) == EXIT_OK
        lattice = iof.load_lattice(out)
        params = paper_trap(44.7e3)
        d_exact = (
            2 * COULOMB_K * params.charge**2 / (params.mass * params.omega_1**2 * beta(params))
        ) ** (1 / 3)
        d = np.linalg.norm(lattice.positions[0] - lattice.positions[1])
        assert d == pytest.approx(d_exact, rel=1e-8, abs=0.0)

    def test_single_ion(self, tmp_path):
        config = tmp_path / "one.json"
        write_config(config, n_ions=1)
        out = tmp_path / "one_lattice.json"
        assert run("crystal", "solve", "--config", config, "--out", out) == EXIT_OK
        lattice = iof.load_lattice(out)
        assert lattice.n_ions == 1
        assert np.all(lattice.positions == 0.0)

    def test_nonplanar_exit_code(self, tmp_path):
        config = tmp_path / "squeezed.json"
        write_config(
            config,
            trap={"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 300e3},
            n_ions=50,
        )
        out = tmp_path / "lat.json"
        assert run("crystal", "solve", "--config", config, "--out", out) == EXIT_NOT_PLANAR
        # the file is still written so the caller can inspect the 3D structure
        assert not iof.load_lattice(out).planar

    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "bad.json"
        write_config(config, trap={"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 5e3})
        assert run("crystal", "solve", "--config", config, "--out", tmp_path / "x.json") == EXIT_CONFIG

    def test_infinite_beta_is_trap_error(self, tmp_path, capsys):
        # omega_r (Omega_c - omega_r) overflows, so beta is inf
        config = tmp_path / "huge.json"
        write_config(config, trap={"axial_com_hz": 795e3, "cyclotron_hz": 1e300, "rotation_hz": 1e150})
        assert run("crystal", "solve", "--config", config, "--out", tmp_path / "x.json") == EXIT_CONFIG
        assert "trap: beta = inf is not finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_oversized_crystal_is_config_error(self, tmp_path, capsys):
        # refused before the seed lattice is allocated
        config = tmp_path / "huge.json"
        write_config(config, n_ions=10**9)
        assert run("crystal", "solve", "--config", config, "--out", tmp_path / "x.json") == EXIT_CONFIG
        assert "n_ions: must be between 1 and 5000" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # the JSON parser recurses once per array; 5000 levels pass the interpreter's limit
        config = tmp_path / "deep.json"
        config.write_text('{"trap": ' + "[" * 5000 + "]" * 5000 + "}")
        assert run("crystal", "solve", "--config", config, "--out", tmp_path / "x.json") == EXIT_CONFIG
        assert "$: arrays and objects nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_csv_side_output(self, workspace):
        tmp, config = workspace
        out = tmp / "lattice.json"
        csv = tmp / "lattice.csv"
        assert run("crystal", "solve", "--config", config, "--out", out, "--csv", csv) == EXIT_OK
        assert csv.read_text().startswith("x_m,y_m,z_m")

    def test_byte_identical_reruns(self, workspace):
        tmp, config = workspace
        a, b = tmp / "a.json", tmp / "b.json"
        assert run("crystal", "solve", "--config", config, "--out", a) == EXIT_OK
        assert run("crystal", "solve", "--config", config, "--out", b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestModesCompute:
    def test_spectrum_and_histogram(self, workspace):
        tmp, config = workspace
        lattice_path = tmp / "lattice.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        spec_path = tmp / "spectrum.json"
        hist_path = tmp / "hist.csv"
        code = run("modes", "compute", "--lattice", lattice_path, "--out", spec_path,
                   "--histogram-out", hist_path, "--bin-hz", 1000.0)
        assert code == EXIT_OK
        spectrum = iof.load_spectrum(spec_path)
        params = paper_trap(44.7e3)
        assert spectrum.omega[0] == pytest.approx(params.omega_1, rel=1e-9)
        assert spectrum.omega[1] == pytest.approx(
            params.omega_1 * np.sqrt(1 - beta(params)), rel=1e-9
        )
        lines = hist_path.read_text().strip().split("\n")
        assert lines[0] == "bin_center_hz,count"
        assert sum(float(l.split(",")[1]) for l in lines[1:]) == 2

    def test_default_histogram_path(self, workspace):
        tmp, config = workspace
        lattice_path = tmp / "lattice.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        spec_path = tmp / "spectrum.json"
        assert run("modes", "compute", "--lattice", lattice_path, "--out", spec_path) == EXIT_OK
        assert (tmp / "spectrum_histogram.csv").exists()

    @pytest.mark.parametrize("width", ["nan", "inf", "-1", "1e-300"])
    def test_bad_bin_width_is_config_error(self, workspace, capsys, width):
        tmp, config = workspace
        lattice_path, spec_path = tmp / "lattice.json", tmp / "spectrum.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        assert run("modes", "compute", "--lattice", lattice_path, "--out", spec_path,
                   "--bin-hz", width) == EXIT_CONFIG
        assert "bin width must be finite and positive" in capsys.readouterr().err
        assert not spec_path.exists() and not (tmp / "spectrum_histogram.csv").exists()

    def test_nonplanar_lattice_rejected(self, tmp_path):
        config = tmp_path / "squeezed.json"
        write_config(
            config,
            trap={"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 300e3},
            n_ions=50,
        )
        lattice_path = tmp_path / "lat.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        code = run("modes", "compute", "--lattice", lattice_path, "--out", tmp_path / "s.json")
        assert code == EXIT_NOT_PLANAR


    def test_unconverged_lattice_rejected(self, tmp_path, monkeypatch):
        # not converging is the reason to refuse a best-effort lattice
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        monkeypatch.setattr(crystal, "_MAX_POLISH_STEPS", 0)
        with pytest.raises(EquilibriumNotConverged) as info:
            solve_equilibrium(paper_trap(44.7e3), 30)
        lattice_path = tmp_path / "best.json"
        iof.save_lattice(info.value.best, lattice_path)
        assert json.loads(lattice_path.read_text())["converged"] is False
        code = run("modes", "compute", "--lattice", lattice_path, "--out", tmp_path / "s.json")
        assert code == EXIT_NOT_CONVERGED


class TestLatticeFile:
    """modes compute refuses a malformed or inconsistent lattice file with exit 2."""

    @pytest.fixture(scope="class")
    def lattice_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("lattice") / "lattice.json"
        iof.save_lattice(solve_equilibrium(paper_trap(44.7e3), 19), path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "planar": "false"}, "lattice.planar: expected a boolean"),
            (lambda doc: {**doc, "converged": "yes"}, "lattice.converged: expected a boolean"),
            (lambda doc: {**doc, "n_ions": 20},
             "lattice.positions_m: expected finite numbers in shape (20, 3)"),
            (lambda doc: {**doc, "positions_m": doc["positions_m"][:1] + doc["positions_m"][:18]},
             "two ions share a position"),
            (lambda doc: {k: v for k, v in doc.items() if k != "params"},
             "lattice.params: missing required field"),
            (lambda doc: [1, 2], "JSON object"),
            (lambda doc: {**doc, "positions_m": [[float("nan"), 0.0, 0.0]] + doc["positions_m"][1:]},
             "lattice.positions_m: expected finite numbers in shape (19, 3)"),
            (lambda doc: {**doc, "positions_m": [doc["positions_m"][0][:2] + [1e-9]] + doc["positions_m"][1:]},
             "planar is true, but an ion lies off z = 0"),
            (lambda doc: {**doc, "residual_force_max_N": 1e-6},
             "converged is true, but residual_force_max_N 1e-06 exceeds 1e-14 N"),
            (lambda doc: {**doc, "residual_force_max_N": float("nan")},
             "lattice.residual_force_max_N: expected a finite number"),
            # refused before the positions are read, so no O(N^2) pass or N x N stiffness runs
            (lambda doc: {**doc, "n_ions": crystal.MAX_IONS + 1},
             f"lattice.n_ions: must be between 1 and {crystal.MAX_IONS}, got {crystal.MAX_IONS + 1}"),
            (lambda doc: {**doc, "n_ions": 0, "positions_m": []},
             f"lattice.n_ions: must be between 1 and {crystal.MAX_IONS}, got 0"),
        ],
        ids=["planar_string", "converged_string", "count_mismatch", "coincident", "no_params",
             "not_object", "nan_position", "planar_off_plane", "converged_large_residual",
             "nan_residual", "too_many_ions", "no_ions"],
    )
    def test_malformed_lattice_is_config_error(self, lattice_doc, tmp_path, capsys, edit, message):
        lattice_path = tmp_path / "lattice.json"
        lattice_path.write_text(json.dumps(edit(lattice_doc)))
        code = run("modes", "compute", "--lattice", lattice_path, "--out", tmp_path / "s.json")
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_unedited_lattice_is_accepted(self, lattice_doc, tmp_path):
        lattice_path = tmp_path / "lattice.json"
        lattice_path.write_text(json.dumps(lattice_doc))
        assert run("modes", "compute", "--lattice", lattice_path, "--out", tmp_path / "s.json") == EXIT_OK


class TestSpectrumSimulate:
    def test_trace_shows_modes_and_background(self, workspace):
        tmp, config = workspace
        lattice_path = tmp / "lattice.json"
        spec_path = tmp / "spectrum.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        run("modes", "compute", "--lattice", lattice_path, "--out", spec_path)
        trace_path = tmp / "trace.csv"
        code = run("spectrum", "simulate", "--config", config, "--spectrum", spec_path,
                   "--out", trace_path)
        assert code == EXIT_OK
        mu_hz, p_up = iof._read_table(trace_path, ("trace",))[1].T
        spectrum = iof.load_spectrum(spec_path)
        bg = flat_background(200.0, 2 * 2.5e-4)
        tau = 2.5e-4
        for f in spectrum.frequencies_hz:
            near = np.abs(mu_hz - f) < 1.2 / tau
            assert p_up[near].max() > bg + 0.05
        far = mu_hz < spectrum.frequencies_hz.min() - 10 / tau
        assert np.max(np.abs(p_up[far] - bg)) < 0.01

    def test_per_ion_columns(self, workspace):
        tmp, config = workspace
        lattice_path, spec_path = tmp / "l.json", tmp / "s.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        run("modes", "compute", "--lattice", lattice_path, "--out", spec_path)
        trace_path = tmp / "per_ion.csv"
        run("spectrum", "simulate", "--config", config, "--spectrum", spec_path,
            "--out", trace_path, "--per-ion")
        header = trace_path.read_text().split("\n")[0]
        assert header == "mu_over_2pi_hz,p_up_mean,p_up_ion_0,p_up_ion_1"

    @pytest.mark.parametrize(
        "section, key, value",
        [("trap", "axial_com_hz", float("nan")), ("drive", "force_n", float("nan")),
         ("thermal", "nbar_uniform", float("inf"))],
    )
    def test_nonfinite_config_number_is_config_error(self, fit_inputs, tmp_path, capsys,
                                                     section, key, value):
        config = tmp_path / "run.json"
        doc = write_config(config)
        doc[section][key] = value
        config.write_text(json.dumps(doc))
        assert run("spectrum", "simulate", "--config", config, "--spectrum", fit_inputs[1],
                   "--out", tmp_path / "t.csv") == EXIT_CONFIG
        assert f"{section}.{key}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_missing_sections_rejected(self, tmp_path):
        config = tmp_path / "nodrive.json"
        doc = write_config(config)
        del doc["drive"]
        config.write_text(json.dumps(doc))
        assert run("spectrum", "simulate", "--config", config, "--spectrum", tmp_path / "s.json",
                   "--out", tmp_path / "t.csv") == EXIT_CONFIG

    def test_overflowing_point_count_is_config_error(self, fit_inputs, tmp_path, capsys):
        config = tmp_path / "run.json"
        write_config(config, sweep={"start_hz": 0.0, "stop_hz": 1e308, "step_hz": 1e-10})
        assert run("spectrum", "simulate", "--config", config, "--spectrum", fit_inputs[1],
                   "--out", tmp_path / "t.csv") == EXIT_CONFIG
        assert "sweep.step_hz: the number of sweep points overflows" in capsys.readouterr().err

    def test_oversized_sweep_is_config_error(self, tmp_path, capsys):
        # 19 ions x (1e12 + 1) points would need terabytes: refused by the config
        # reader with exit 2, before any array is allocated or file written
        spectrum = tmp_path / "spectrum.json"
        iof.save_spectrum(spectrum_cached(19, 44.7e3), spectrum)
        config = tmp_path / "run.json"
        write_config(config, n_ions=19, sweep={"start_hz": 0.0, "stop_hz": 1e6, "step_hz": 1e-6})
        assert run("spectrum", "simulate", "--config", config, "--spectrum", spectrum,
                   "--out", tmp_path / "t.csv") == EXIT_CONFIG
        assert "sweep.step_hz: 19 ions x 1000000000001 points exceed" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


def eigenvector_block(b):
    """The file form of an eigenvector matrix: base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(b, dtype="<f8").tobytes()).decode("ascii")


def with_eigenvectors(doc, edit):
    """`doc` with its eigenvector block decoded, passed through `edit` and encoded again."""
    n = len(doc["eigenvalues_rad2_per_s2"])
    b = np.frombuffer(base64.b64decode(doc["eigenvectors_f64le_b64"]), dtype="<f8").reshape(n, n)
    return {**doc, "eigenvectors_f64le_b64": eigenvector_block(edit(b.copy()))}


def scale_column(b, m, factor):
    b[:, m] *= factor
    return b


def reorder_modes(doc, order):
    """`doc` with its modes listed in `order`: eigenvalues, frequencies and columns alike."""
    doc = with_eigenvectors(doc, lambda b: b[:, order])
    return {**doc, **{key: [doc[key][m] for m in order]
                      for key in ("eigenvalues_rad2_per_s2", "frequencies_hz")}}


class TestSpectrumFile:
    """spectrum simulate refuses a malformed spectrum file with exit 2."""

    @pytest.fixture(scope="class")
    def spectrum_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("spectrum") / "spectrum.json"
        iof.save_spectrum(spectrum_cached(7, 44.7e3), path)
        return json.loads(path.read_text())

    def simulate(self, tmp_path, doc):
        config, spec_path = tmp_path / "run.json", tmp_path / "s.json"
        write_config(config, n_ions=7)
        spec_path.write_text(json.dumps(doc))
        return run("spectrum", "simulate", "--config", config, "--spectrum", spec_path,
                   "--out", tmp_path / "t.csv")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "mass_kg"},
             "spectrum.mass_kg: missing required field"),
            (lambda doc: [1, 2], "JSON object"),
            (lambda doc: with_eigenvectors(doc, lambda b: scale_column(b, 0, np.nan)),
             "spectrum.eigenvectors_f64le_b64: expected finite numbers"),
            (lambda doc: with_eigenvectors(doc, lambda b: b[:3]),
             "spectrum.eigenvectors_f64le_b64: expected 392 bytes (7 x 7 float64), got 168"),
            (lambda doc: {**doc, "eigenvectors_f64le_b64": True},
             "spectrum.eigenvectors_f64le_b64: expected a string"),
            (lambda doc: {**doc, "eigenvectors_f64le_b64": "not base64!"},
             "spectrum.eigenvectors_f64le_b64: not base64"),
            (lambda doc: {**{k: v for k, v in doc.items() if k != "eigenvectors_f64le_b64"},
                          "eigenvectors_row_major": np.eye(7).tolist()},
             "spectrum.eigenvectors_f64le_b64: missing required field"),
            (lambda doc: with_eigenvectors(doc, lambda b: scale_column(b, 2, 1.001)),
             "spectrum.eigenvectors_f64le_b64: columns are not orthonormal"),
            (lambda doc: reorder_modes(doc, [1, 0, 2, 3, 4, 5, 6]),
             "spectrum.eigenvalues_rad2_per_s2: expected non-increasing values"),
            # the 32 TB block is never allocated for a 12-character text
            (lambda doc: {**doc, "eigenvalues_rad2_per_s2": [0.0] * 2_000_000,
                          "eigenvectors_f64le_b64": "AAAAAAAAAAA="},
             "spectrum.eigenvectors_f64le_b64: expected 32000000000000 bytes (2000000 x 2000000 float64), got 8"),
        ],
        ids=["no_mass", "not_object", "nan_eigenvector", "three_rows", "boolean_eigenvector",
             "not_base64", "old_nested_list", "not_orthonormal", "swapped_eigenvalues",
             "two_million_modes_eight_bytes"],
    )
    def test_malformed_spectrum_is_config_error(self, spectrum_doc, tmp_path, capsys, edit, message):
        assert self.simulate(tmp_path, edit(spectrum_doc)) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_extra_keys_are_ignored(self, spectrum_doc, tmp_path):
        # a file written before degenerate_clusters or source_lattice_hash was dropped still loads
        old = {**spectrum_doc, "degenerate_clusters": list(range(7)),
               "source_lattice_hash": "0123456789abcdef"}
        assert self.simulate(tmp_path, old) == EXIT_OK

    def test_reencoded_block_is_accepted(self, spectrum_doc, tmp_path):
        # the test helpers alone change nothing the loader checks
        assert self.simulate(tmp_path, with_eigenvectors(spectrum_doc, lambda b: b)) == EXIT_OK
        assert self.simulate(tmp_path, reorder_modes(spectrum_doc, list(range(7)))) == EXIT_OK


class TestFitTemperature:
    def make_pipeline(self, tmp, config):
        lattice_path, spec_path = tmp / "l.json", tmp / "s.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        run("modes", "compute", "--lattice", lattice_path, "--out", spec_path)
        return spec_path

    def simulate_data(self, tmp, config, spec_path):
        """Forward-model trace written as measured data with sigma = 0.02."""
        trace_path = tmp / "trace.csv"
        run("spectrum", "simulate", "--config", config, "--spectrum", spec_path, "--out", trace_path)
        mu_hz, p_up = iof._read_table(trace_path, ("trace",))[1].T
        data_path = tmp / "data.csv"
        rows = ["mu_hz,p_up,sigma"]
        rows += [f"{float(mu)!r},{float(p)!r},0.02" for mu, p in zip(mu_hz, p_up)]
        data_path.write_text("\n".join(rows) + "\n")
        return data_path

    def test_fit_recovers_generating_occupation(self, tmp_path):
        # synthesize data from the forward model at nbar = 25 and fit it back
        config = tmp_path / "run.json"
        write_config(
            config,
            thermal={"nbar_per_mode": [25.0, 0.5]},
            sweep={"start_hz": 789e3, "stop_hz": 801e3, "step_hz": 100.0},
        )
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = self.simulate_data(tmp_path, config, spec_path)

        fit_config = tmp_path / "fit.json"
        write_config(
            fit_config,
            thermal={"nbar_per_mode": [0.0, 0.5]},  # freeze the non-target mode
            sweep={"start_hz": 789e3, "stop_hz": 801e3, "step_hz": 100.0},
        )
        out = tmp_path / "fit_result.json"
        code = run("fit", "temperature", "--config", fit_config, "--data", data_path,
                   "--spectrum", spec_path, "--out", out, "--mode", 0)
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["nbar"] == pytest.approx(25.0, rel=1e-5)
        assert doc["status"] == "ok"

    def test_insufficient_span_exit_code(self, tmp_path):
        config = tmp_path / "run.json"
        write_config(config)
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = tmp_path / "data.csv"
        data_path.write_text(
            "mu_hz,p_up,sigma\n600000.0,0.1,0.02\n610000.0,0.1,0.02\n620000.0,0.1,0.02\n"
        )
        code = run("fit", "temperature", "--config", config, "--data", data_path,
                   "--spectrum", spec_path, "--out", tmp_path / "f.json")
        assert code == EXIT_FIT

    def test_nonfinite_data_cell_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        write_config(config)
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = tmp_path / "data.csv"
        for bad in ("nan", "inf", "abc", ""):
            data_path.write_text(
                f"mu_hz,p_up,sigma\n790000.0,{bad},0.02\n795000.0,0.1,0.02\n800000.0,0.1,{bad}\n"
            )
            capsys.readouterr()
            code = run("fit", "temperature", "--config", config, "--data", data_path,
                       "--spectrum", spec_path, "--out", tmp_path / "f.json")
            assert code == EXIT_CONFIG
            assert f"{data_path}: line 2: " in capsys.readouterr().err

    def test_ragged_data_row_is_config_error(self, tmp_path, capsys):
        # the cells of three short rows must not be regrouped into two points
        config = tmp_path / "run.json"
        write_config(config)
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = tmp_path / "data.csv"
        data_path.write_text("mu_hz,p_up,sigma\n790000.0,0.1\n0.02,795000.0\n0.1,0.02\n")
        code = run("fit", "temperature", "--config", config, "--data", data_path,
                   "--spectrum", spec_path, "--out", tmp_path / "f.json")
        assert code == EXIT_CONFIG
        assert "line 2: expected 3 cells, got 2" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_extra_data_column_is_config_error(self, tmp_path, capsys):
        # a fourth column is not dropped: the header must be the writer's whole header
        config = tmp_path / "run.json"
        write_config(config)
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = self.simulate_data(tmp_path, config, spec_path)
        header, *rows = data_path.read_text().splitlines()
        data_path.write_text("\n".join([header + ",note", *(row + ",1.0" for row in rows)]) + "\n")
        code = run("fit", "temperature", "--config", config, "--data", data_path,
                   "--spectrum", spec_path, "--out", tmp_path / "f.json")
        assert code == EXIT_CONFIG
        assert f"{data_path}: unrecognized table header" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_ramsey_background_gamma_estimated_from_data(self, tmp_path):
        # with gamma_per_s = 0 the rate is fitted with the occupation; a Ramsey
        # sequence drives for T = tau, so the estimate is not halved
        ramsey = {"force_n": 8e-24, "gamma_per_s": 223.14,
                  "sequence": {"type": "ramsey", "tau_s": 2.5e-4}}
        config = tmp_path / "run.json"
        write_config(config, drive=ramsey, thermal={"nbar_per_mode": [25.0, 0.5]})
        spec_path = self.make_pipeline(tmp_path, config)
        data_path = self.simulate_data(tmp_path, config, spec_path)
        fit_config = tmp_path / "fit.json"
        write_config(fit_config, drive={**ramsey, "gamma_per_s": 0.0},
                     thermal={"nbar_per_mode": [0.0, 0.5]})
        out = tmp_path / "fit_result.json"
        assert run("fit", "temperature", "--config", fit_config, "--data", data_path,
                   "--spectrum", spec_path, "--out", out) == EXIT_OK
        fit = json.loads(out.read_text())
        assert fit["gamma_used_per_s"] == pytest.approx(223.14, rel=1e-9)
        assert fit["nbar"] == pytest.approx(25.0, rel=1e-9)
        assert 0.0 < fit["gamma_err_per_s"] < np.inf


class TestProvenance:
    """spectrum simulate and fit temperature refuse a config for another crystal."""

    def check_both_commands(self, tmp_path, **mismatch):
        config = tmp_path / "run.json"
        write_config(config)
        spec_path = TestFitTemperature().make_pipeline(tmp_path, config)
        data_path = tmp_path / "data.csv"
        data_path.write_text(
            "mu_hz,p_up,sigma\n790000.0,0.1,0.02\n795000.0,0.1,0.02\n800000.0,0.1,0.02\n"
        )
        other = tmp_path / "other.json"
        write_config(other, **mismatch)
        assert run("spectrum", "simulate", "--config", other, "--spectrum", spec_path,
                   "--out", tmp_path / "t.csv") == EXIT_CONFIG
        assert run("fit", "temperature", "--config", other, "--data", data_path,
                   "--spectrum", spec_path, "--out", tmp_path / "f.json") == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists() and not (tmp_path / "f.json").exists()

    def test_ion_count_mismatch(self, tmp_path):
        self.check_both_commands(tmp_path, n_ions=3)

    def test_mass_mismatch(self, tmp_path):
        trap = {"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 44.7e3,
                "mass_kg": 2 * BE9_ION_MASS}
        self.check_both_commands(tmp_path, trap=trap)


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """Config, spectrum and forward-model data (N = 2, true COM nbar 25) for sidecar tests."""
    tmp = tmp_path_factory.mktemp("fit_inputs")
    config = tmp / "run.json"
    write_config(config, thermal={"nbar_per_mode": [25.0, 0.5]},
                 sweep={"start_hz": 789e3, "stop_hz": 801e3, "step_hz": 100.0})
    pipeline = TestFitTemperature()
    spec_path = pipeline.make_pipeline(tmp, config)
    return config, spec_path, pipeline.simulate_data(tmp, config, spec_path)


class TestSidecar:
    """fit temperature refuses a malformed or mismatched data sidecar with exit 2."""

    def fit_with_sidecar(self, fit_inputs, tmp_path, sidecar):
        config, spec_path, data_path = fit_inputs
        meta = tmp_path / "data.meta.json"
        meta.write_text(json.dumps(sidecar))
        return run("fit", "temperature", "--config", config, "--data", data_path, "--meta", meta,
                   "--spectrum", spec_path, "--out", tmp_path / "f.json")

    @pytest.mark.parametrize(
        "sidecar",
        [
            {"theta_r_deg": "4.8", "theta_r_rel_err": 0.05},
            {"theta_r_deg": 0, "theta_r_rel_err": 0.05},
            {"theta_r_deg": float("nan"), "theta_r_rel_err": 0.05},
            {"theta_r_deg": 4.8, "theta_r_rel_err": "0.05"},
            {"theta_r_deg": 4.8, "theta_r_rel_err": -3},
            [1, 2],
            {"theta_r_degs": 4.8, "theta_r_rel_err": 0.05},
        ],
        ids=["theta_string", "theta_zero", "theta_nan", "err_string", "err_negative", "not_object",
             "unknown_key"],
    )
    def test_malformed_sidecar_is_config_error(self, fit_inputs, tmp_path, sidecar):
        assert self.fit_with_sidecar(fit_inputs, tmp_path, sidecar) == EXIT_CONFIG
        assert not (tmp_path / "f.json").exists()

    def test_ion_count_must_match_spectrum(self, fit_inputs, tmp_path):
        sidecar = {"n_ions": 2, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05}
        assert self.fit_with_sidecar(fit_inputs, tmp_path, sidecar) == EXIT_OK
        assert self.fit_with_sidecar(fit_inputs, tmp_path, {**sidecar, "n_ions": 3}) == EXIT_CONFIG


@pytest.mark.parametrize("document, where", [("config", "$"), ("lattice", "lattice"),
                                             ("spectrum", "spectrum"), ("sidecar", "sidecar")])
def test_repeated_key_is_config_error(fit_inputs, tmp_path, capsys, document, where):
    config, spec_path, data_path = fit_inputs
    meta = tmp_path / "data.meta.json"
    meta.write_text(json.dumps({"n_ions": 2, "theta_r_deg": 4.8, "theta_r_rel_err": 0.05}))
    paths = {"config": config, "lattice": spec_path.with_name("l.json"), "spectrum": spec_path,
             "sidecar": meta}
    text = paths[document].read_text()
    key, value = next(iter(json.loads(text).items()))
    paths[document] = tmp_path / "repeated.json"
    paths[document].write_text("{" + json.dumps(key) + ": " + json.dumps(value) + ", " + text.lstrip()[1:])
    out = tmp_path / "out"
    if document == "lattice":
        code = run("modes", "compute", "--lattice", paths["lattice"], "--out", out)
    else:
        code = run("fit", "temperature", "--config", paths["config"], "--data", data_path,
                   "--meta", paths["sidecar"], "--spectrum", paths["spectrum"], "--out", out)
    assert code == EXIT_CONFIG
    assert f"{where}: repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


class TestPlot:
    def test_trace_plot_data(self, workspace):
        tmp, config = workspace
        lattice_path, spec_path = tmp / "l.json", tmp / "s.json"
        run("crystal", "solve", "--config", config, "--out", lattice_path)
        run("modes", "compute", "--lattice", lattice_path, "--out", spec_path,
            "--histogram-out", tmp / "hist.csv", "--bin-hz", 1000.0)
        trace_path = tmp / "trace.csv"
        run("spectrum", "simulate", "--config", config, "--spectrum", spec_path, "--out", trace_path)
        out = tmp / "plot.csv"
        assert run("plot", "--in", trace_path, "--out", out,
                   "--overlay-histogram", tmp / "hist.csv") == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y,series"
        series = {line.split(",")[2] for line in lines[1:]}
        assert series == {"p_up", "mode_density"}
        # overlay bin centers land on the trace frequency axis
        hist_x = [float(l.split(",")[0]) for l in lines[1:] if l.endswith("mode_density")]
        trace_x = [float(l.split(",")[0]) for l in lines[1:] if l.endswith("p_up")]
        assert min(hist_x) >= min(trace_x) - 1e3 and max(hist_x) <= max(trace_x) + 1e3

    def test_empty_trace_gives_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("mu_over_2pi_hz,p_up_mean\n")
        out = tmp_path / "plot.csv"
        assert run("plot", "--in", empty, "--out", out) == EXIT_OK
        assert out.read_text() == "x,y,series\n"

    def test_trajectory_loop_closes(self, tmp_path):
        # one-cycle detuned echo: the sampled loop closes to < 2% of its radius
        from drumhead import DriveConfig, SpinEcho, phase_space_trajectory
        from conftest import spectrum_cached

        spectrum = spectrum_cached(2, 44.7e3)
        tau = 2.5e-4
        mu = float(spectrum.omega[0]) + 2 * np.pi / tau
        drive = DriveConfig(forces=8e-24, mu_r=mu, gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=0.0))
        traj = phase_space_trajectory(drive, spectrum, 0, n_samples=300)
        traj_path = tmp_path / "traj.csv"
        iof.save_trajectory(traj, traj_path)
        out = tmp_path / "plot.csv"
        assert run("plot", "--in", traj_path, "--out", out) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        xy = np.array([[float(r[0]), float(r[1])] for r in rows])
        radius = np.max(np.hypot(xy[:, 0], xy[:, 1]))
        first_arm_end = xy[299]
        assert np.hypot(*first_arm_end) < 0.02 * radius

    def test_svg_output(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("mu_over_2pi_hz,p_up_mean\n1.0,0.1\n2.0,0.2\n3.0,0.1\n")
        svg = tmp_path / "plot.svg"
        assert run("plot", "--in", trace, "--out", tmp_path / "p.csv", "--svg", svg) == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("plot", "--in", empty, "--out", tmp_path / "out.csv") == EXIT_CONFIG

    def test_unknown_table_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert run("plot", "--in", bad, "--out", tmp_path / "out.csv") == EXIT_CONFIG

    def test_ragged_row_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("mu_over_2pi_hz,p_up_mean\n1.0,0.1\n2.0\n")
        assert run("plot", "--in", trace, "--out", tmp_path / "out.csv") == EXIT_CONFIG
        assert "line 3: expected 2 cells, got 1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("bad, complaint", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("abc", "non-numeric"), ("", "non-numeric"),
    ], ids=["nan", "inf", "-inf", "abc", "empty"])
    @pytest.mark.parametrize("table", [
        "mu_over_2pi_hz,p_up_mean\n1.0,0.1\n2.0,0.2\n3.0,{bad}\n",
        "bin_center_hz,count\n5000.0,3.0\n15000.0,4.0\n{bad},1.0\n",
        "t_s,re_alpha,im_alpha\n0.0,0.0,0.0\n0.0001,0.5,-0.5\n0.0002,{bad},0.1\n",
    ], ids=["trace", "histogram", "trajectory"])
    def test_nonfinite_cell_is_config_error(self, tmp_path, capsys, table, bad, complaint):
        path = tmp_path / "table.csv"
        path.write_text(table.format(bad=bad))
        out = tmp_path / "out.csv"
        assert run("plot", "--in", path, "--out", out, "--svg", tmp_path / "p.svg") == EXIT_CONFIG
        assert f"line 4: {complaint} cell" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_trajectory_header_rejected(self, tmp_path, capsys):
        # the trajectory writer's header has three columns; the first two are not enough
        bad = tmp_path / "traj.csv"
        bad.write_text("t_s,re_alpha\n0.0,0.1\n")
        assert run("plot", "--in", bad, "--out", tmp_path / "out.csv") == EXIT_CONFIG
        assert "unrecognized table header" in capsys.readouterr().err


def run_python(*argv, blas_threads=None, exit_code=0):
    """`python argv` in a child process that must exit with `exit_code`; returns its stdout."""
    # the child process finds drumhead where this process imported it from
    src = str(Path(drumhead.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env)
    assert proc.returncode == exit_code, proc.stderr
    return proc.stdout


def run_module(*argv, blas_threads=None, exit_code=0):
    """`python -m drumhead argv` in a child process; returns its stdout."""
    return run_python("-m", "drumhead", *argv, blas_threads=blas_threads, exit_code=exit_code)


class TestProcessInvocation:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only: the commands run on numpy alone
        code = "import sys, drumhead.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert run_python("-c", code).strip() == "[]"

    def test_module_entry_point(self, tmp_path):
        config = tmp_path / "run.json"
        write_config(config, n_ions=1)
        out = tmp_path / "lattice.json"
        assert "solved N=1" in run_module("crystal", "solve", "--config", config, "--out", out)
        assert out.exists()

    def test_output_bytes_under_blas_thread_counts(self, tmp_path):
        # the README's byte-identity claim at N = 190: one thread count gives the
        # same bytes through solve, modes and sweep, and lattice bytes do not
        # depend on the thread count, planar or buckled (N = 190 with seed 1 and
        # N = 345 with seed 0 differed between 1 and 2 threads while the polish
        # diagonalized with BLAS, and N = 345 at 45.2 kHz, seeds 0 and 1, while
        # the buckle pushed along an `eigh` eigenvector)
        config = tmp_path / "run.json"
        write_config(config, n_ions=190, sweep={"start_hz": 780e3, "stop_hz": 800e3, "step_hz": 100.0})

        def chain(name, threads):
            out = tmp_path / name
            out.mkdir()
            run_module("crystal", "solve", "--config", config, "--out", out / "lattice.json",
                       blas_threads=threads)
            run_module("modes", "compute", "--lattice", out / "lattice.json",
                       "--out", out / "spectrum.json", blas_threads=threads)
            run_module("spectrum", "simulate", "--config", config, "--spectrum", out / "spectrum.json",
                       "--out", out / "trace.csv", "--per-ion", blas_threads=threads)
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        first, again = chain("first", 2), chain("again", 2)
        assert sorted(first) == ["lattice.json", "spectrum.json", "spectrum_histogram.csv", "trace.csv"]
        assert first == again
        run_module("crystal", "solve", "--config", config, "--out", tmp_path / "lattice_1.json",
                   blas_threads=1)
        assert (tmp_path / "lattice_1.json").read_bytes() == first["lattice.json"]
        cases = [(190, 44.7e3, 1, EXIT_OK), (345, 44.7e3, 0, EXIT_OK),
                 (345, 45.2e3, 0, EXIT_NOT_PLANAR), (345, 45.2e3, 1, EXIT_NOT_PLANAR)]
        for n_ions, rotation_hz, seed, exit_code in cases:
            write_config(config, n_ions=n_ions,
                         trap={"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": rotation_hz})
            lattices = []
            for threads in (1, 2):
                out = tmp_path / f"lattice_{n_ions}_{rotation_hz:.0f}_{seed}_{threads}.json"
                run_module("crystal", "solve", "--config", config, "--out", out, "--seed", seed,
                           blas_threads=threads, exit_code=exit_code)
                lattices.append(out.read_bytes())
            assert lattices[0] == lattices[1], (n_ions, rotation_hz, seed)
