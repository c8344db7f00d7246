import numpy as np
import pytest

from drumhead import (
    EquilibriumNotConverged,
    BE9_ION_MASS,
    CrystalLattice,
    ModeSpectrum,
    NonPlanarLatticeError,
    StiffnessMatrix,
    beta,
    com_mode_deviation,
    diagonalize,
    lattice_stats,
    mode_histogram,
    total_potential,
    transverse_stiffness,
)
from drumhead.modes import MAX_HISTOGRAM_BINS
from conftest import paper_trap, solve_cached, spectrum_cached


def finite_difference_z_hessian(lattice, h_rel=5e-3):
    """Independent oracle: Richardson-extrapolated central differences of the
    potential energy over the z coordinates, mass-normalized."""
    params = lattice.params
    pos = lattice.positions
    n = len(pos)
    base = h_rel * (lattice_stats(lattice).mean_spacing or 1e-5)

    def v(j, dj, k, dk):
        q = pos.copy()
        q[j, 2] += dj
        q[k, 2] += dk
        return total_potential(q, params)

    def diag_entry(j, h):
        return (v(j, h, j, 0.0) - 2.0 * v(j, 0.0, j, 0.0) + v(j, -h, j, 0.0)) / h**2

    def cross_entry(j, k, h):
        return (v(j, h, k, h) - v(j, h, k, -h) - v(j, -h, k, h) + v(j, -h, k, -h)) / (4.0 * h**2)

    out = np.empty((n, n))
    for j in range(n):
        out[j, j] = (4.0 * diag_entry(j, base) - diag_entry(j, 2.0 * base)) / 3.0
        for k in range(j + 1, n):
            val = (4.0 * cross_entry(j, k, base) - cross_entry(j, k, 2.0 * base)) / 3.0
            out[j, k] = out[k, j] = val
    return out / params.mass


class TestTransverseStiffness:
    def test_single_ion(self):
        stiff = transverse_stiffness(solve_cached(1))
        assert stiff.entries.shape == (1, 1)
        assert stiff.entries[0, 0] == pytest.approx(paper_trap().omega_1 ** 2, rel=1e-15)

    def test_pair_closed_form(self):
        params = paper_trap()
        stiff = transverse_stiffness(solve_cached(2))
        b = beta(params)
        coupling = params.omega_1**2 * b / 2.0  # k q^2/(M d^3) at the analytic separation
        assert stiff.entries[0, 1] == pytest.approx(coupling, rel=1e-8)
        assert stiff.entries[0, 0] == pytest.approx(params.omega_1**2 - coupling, rel=1e-9)

    def test_row_sums_equal_omega1_squared(self):
        for n in (3, 12, 50):
            stiff = transverse_stiffness(solve_cached(n))
            target = stiff.omega_1**2
            assert np.max(np.abs(stiff.entries.sum(axis=1) - target)) <= 1e-9 * target

    def test_matches_finite_difference_hessian(self):
        for n in (3, 7, 12, 20):
            lattice = solve_cached(n)
            analytic = transverse_stiffness(lattice).entries
            oracle = finite_difference_z_hessian(lattice)
            scale = np.max(np.abs(analytic))
            mask = np.abs(analytic) > 1e-12 * scale
            rel = np.abs((oracle - analytic)[mask] / analytic[mask])
            assert rel.max() <= 1e-6

    def test_rejects_non_planar(self):
        buckled = solve_cached(50, 300e3)
        assert not buckled.planar
        with pytest.raises(NonPlanarLatticeError):
            transverse_stiffness(buckled)

    def test_rejects_unconverged(self):
        lattice = solve_cached(3)
        fake = CrystalLattice(
            params=lattice.params,
            positions=lattice.positions,
            converged=False,
            residual_force_max=1.0,
            planar=True,
            energy=lattice.energy,
        )
        with pytest.raises(EquilibriumNotConverged):
            transverse_stiffness(fake)


class TestDiagonalize:
    def test_single_ion_single_mode(self):
        spectrum = spectrum_cached(1)
        assert spectrum.n_modes == 1
        assert spectrum.omega[0] == pytest.approx(paper_trap().omega_1, rel=1e-12)

    def test_pair_com_and_tilt(self):
        params = paper_trap()
        spectrum = spectrum_cached(2)
        assert spectrum.omega[0] == pytest.approx(params.omega_1, rel=1e-9)
        assert spectrum.omega[1] == pytest.approx(params.omega_1 * np.sqrt(1 - beta(params)), rel=1e-9)
        assert np.allclose(np.abs(spectrum.b[:, 0]), 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(np.sort(spectrum.b[:, 1]), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_com_is_highest_and_uniform(self):
        for n in (7, 50):
            spectrum = spectrum_cached(n)
            assert np.all(spectrum.omega[1:] <= spectrum.omega[0])
            assert np.allclose(spectrum.b[:, 0], 1 / np.sqrt(n), atol=1e-9 / np.sqrt(n))

    def test_orthonormality_and_completeness(self):
        spectrum = spectrum_cached(50)
        gram = spectrum.b.T @ spectrum.b
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-9
        assert np.max(np.abs((spectrum.b**2).sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs((spectrum.b**2).sum(axis=0) - 1.0)) <= 1e-9

    def test_tilt_modes_exact_without_wall(self):
        # in-plane force balance makes x and y exact eigenvectors of the
        # transverse stiffness with squared frequency omega_1^2 (1 - beta)
        params = paper_trap()
        spectrum = spectrum_cached(30)
        expected = params.omega_1 * np.sqrt(1 - beta(params))
        assert spectrum.omega[1] == pytest.approx(expected, rel=1e-9)
        assert spectrum.omega[2] == pytest.approx(expected, rel=1e-9)

    def test_wall_splits_tilt_modes(self):
        wall = 0.004
        params = paper_trap(44.7e3, wall=wall)
        spectrum = spectrum_cached(30, 44.7e3, wall=wall)
        b = beta(params)
        soft = params.omega_1 * np.sqrt(1 - b - wall)
        stiffened = params.omega_1 * np.sqrt(1 - b + wall)
        assert spectrum.omega[1] == pytest.approx(stiffened, rel=1e-9)
        assert spectrum.omega[2] == pytest.approx(soft, rel=1e-9)
        # without the wall the two tilt modes are degenerate
        no_wall = spectrum_cached(30, 44.7e3)
        assert abs(no_wall.omega[1] - no_wall.omega[2]) <= 1e-10 * no_wall.omega[1]
        assert abs(spectrum.omega[1] - spectrum.omega[2]) > 1e-10 * spectrum.omega[1]

    def test_sign_convention_deterministic(self):
        a = diagonalize(transverse_stiffness(solve_cached(12)))
        b = diagonalize(transverse_stiffness(solve_cached(12)))
        assert np.array_equal(a.b, b.b)
        for m in range(a.n_modes):
            col = a.b[:, m]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_lowest_modes_alternate_between_neighbors(self):
        # short-wavelength character: in each of the ~50 lowest modes of a
        # mesoscopic crystal, well over half the nearest-neighbor pairs
        # oscillate out of phase, while the COM mode has no sign flips
        lattice = solve_cached(331)
        spectrum = spectrum_cached(331)
        from drumhead import lattice_stats

        pos = lattice.positions
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        cutoff = 1.35 * lattice_stats(lattice).mean_spacing
        jj, kk = np.nonzero(np.triu(d < cutoff))
        n = spectrum.n_modes
        for m in range(n - 50, n):
            b = spectrum.b[:, m]
            flips = int(np.count_nonzero(b[jj] * b[kk] < 0))
            assert flips > n // 2
        com = spectrum.b[:, 0]
        assert np.count_nonzero(com[jj] * com[kk] < 0) == 0

    def test_softer_confinement_raises_every_frequency(self):
        # lower rotation -> smaller beta -> weaker screening -> higher modes
        for n in (10, 50):
            soft = spectrum_cached(n, 43.2e3)
            stiff = spectrum_cached(n, 44.7e3)
            assert np.all(soft.omega >= stiff.omega - 1e-6)

    def test_unstable_plane_flagged_not_raised(self):
        entries = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        spectrum = diagonalize(StiffnessMatrix(entries=entries, omega_1=2.0, mass=BE9_ION_MASS))
        assert not spectrum.stable
        assert spectrum.unstable_modes == (1,)
        assert spectrum.omega[1] == 0.0
        assert spectrum.eigenvalues[1] == pytest.approx(-1.0)

    def test_asymmetric_matrix_rejected(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            diagonalize(StiffnessMatrix(entries=bad, omega_1=1.0, mass=BE9_ION_MASS))

    def test_com_deviation_metric(self):
        assert com_mode_deviation(transverse_stiffness(solve_cached(26))) <= 1e-12


class TestModeHistogram:
    def test_single_ion_single_bin(self):
        hist = mode_histogram(spectrum_cached(1), 10e3)
        assert hist.counts.sum() == 1
        freq = spectrum_cached(1).frequencies_hz[0]
        idx = np.flatnonzero(hist.counts)[0]
        assert hist.bin_edges_hz[idx] <= freq < hist.bin_edges_hz[idx + 1]

    def test_pair_occupies_two_bins_when_resolved(self):
        spectrum = spectrum_cached(2, 44.7e3)
        gap_hz = spectrum.frequencies_hz[0] - spectrum.frequencies_hz[1]
        hist = mode_histogram(spectrum, 0.4 * gap_hz)
        assert hist.counts.sum() == 2
        assert np.count_nonzero(hist.counts) == 2
        coarse = mode_histogram(spectrum, 4 * gap_hz)
        assert np.count_nonzero(coarse.counts) == 1

    def test_counts_sum_to_n(self):
        hist = mode_histogram(spectrum_cached(50), 10e3)
        assert hist.counts.sum() == 50

    def test_bins_anchored_at_zero(self):
        hist = mode_histogram(spectrum_cached(7), 10e3)
        assert np.allclose(hist.bin_edges_hz % 10e3, 0.0, atol=1e-6)

    def test_bad_width_rejected(self):
        # 1e-300 Hz: the pair needs over 10^6 bins; the single ion one bin, at an index
        # (8e305) that neither a float nor an int64 counts exactly
        for n_ions in (1, 2):
            for width in (0.0, -1.0, np.nan, np.inf, 1e-300):
                with pytest.raises(ValueError, match="finite and positive"):
                    mode_histogram(spectrum_cached(n_ions), width)

    def test_bin_count_limit(self):
        # lowest mode at 0 Hz in bin 0, highest in bin MAX - 1 (accepted) or bin MAX (refused)
        def spread(top_hz):
            eigenvalues = np.array([(2 * np.pi * top_hz) ** 2, 0.0])
            return ModeSpectrum(eigenvalues=eigenvalues, b=np.eye(2), mass=BE9_ION_MASS)

        hist = mode_histogram(spread(MAX_HISTOGRAM_BINS - 0.5), 1.0)
        assert len(hist.counts) == MAX_HISTOGRAM_BINS and hist.counts.sum() == 2
        with pytest.raises(ValueError, match=f"at most {MAX_HISTOGRAM_BINS} bins"):
            mode_histogram(spread(MAX_HISTOGRAM_BINS + 0.5), 1.0)


class TestSpectrumProvenance:
    def test_ground_state_lengths(self):
        spectrum = spectrum_cached(2)
        z0 = spectrum.ground_state_lengths()
        from drumhead import HBAR

        expected = np.sqrt(HBAR / (2 * BE9_ION_MASS * spectrum.omega))
        assert np.allclose(z0, expected, rtol=1e-12)
