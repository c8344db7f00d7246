import numpy as np
import pytest

from drumhead import (
    DriveConfig,
    FitMetadata,
    InsufficientDataError,
    InsufficientSpanError,
    ObservedSpectrum,
    Ramsey,
    SpinEcho,
    ThermalState,
    UnphysicalBackgroundError,
    background_probability,
    fit_background_gamma,
    fit_occupation,
    occupation_to_temperature,
    sweep_spectrum,
    temperature_to_occupation,
)
from drumhead import thermometry
from drumhead.dynamics import bright_fraction
from drumhead.thermometry import _NBAR_MAX, _chi2, _lineshape
from conftest import spectrum_cached

TWO_PI = 2 * np.pi
TAU = 500e-6
T_PI = 65e-6
ECHO = SpinEcho(tau=TAU, t_pi=T_PI)


def com_lineshape_setup(nbar_com=60.0, force=1.58e-23, gamma=None):
    """N=190 crystal, spin-echo drive, COM occupation nbar_com, Doppler bath."""
    spectrum = spectrum_cached(190, 44.7e3)
    if gamma is None:
        gamma = -np.log(0.8) / (2 * TAU)  # 0.1 background
    drive = DriveConfig(forces=force, mu_r=None, gamma=gamma,
                        sequence=SpinEcho(tau=TAU, t_pi=T_PI))
    thermal = ThermalState.com_plus_bath(spectrum, nbar_com, 0.43e-3)
    return spectrum, drive, thermal


def synthetic_observation(nbar_com=60.0, sigma=0.02, noise_seed=None, metadata=FitMetadata()):
    spectrum, drive, thermal = com_lineshape_setup(nbar_com)
    deltas = np.linspace(-3.0, 3.0, 81) * TWO_PI / TAU
    grid = np.sort(spectrum.omega[0] + deltas)
    trace = sweep_spectrum(drive, spectrum, thermal, grid)
    p = trace.p_up_mean
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        p = np.clip(p + rng.normal(0.0, sigma, len(p)), 1e-4, 1.0 - 1e-4)
    data = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=p,
                            sigma=np.full(len(p), sigma), metadata=metadata)
    bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
    return data, spectrum, drive, bath


def assert_systematic_is_force_scaled_refit(result, data, spectrum, drive, bath):
    """The beam-angle refits on f^2 (c0, c1) shift nbar as far as full fits at the scaled forces."""
    theta, rel = data.metadata.theta_r, data.metadata.theta_r_rel_err
    plain = ObservedSpectrum(mu_hz=data.mu_hz, p_up=data.p_up, sigma=data.sigma)
    base = fit_occupation(plain, spectrum, drive, target_mode=0, background=bath)
    assert base.nbar == result.nbar
    shifts = []
    for sign in (+1.0, -1.0):
        factor = np.sin(theta * (1.0 + sign * rel) / 2.0) / np.sin(theta / 2.0)
        scaled = DriveConfig(forces=drive.forces * factor, mu_r=None, gamma=drive.gamma,
                             sequence=drive.sequence)
        refit = fit_occupation(plain, spectrum, scaled, target_mode=0, background=bath)
        shifts.append(abs(refit.nbar - base.nbar))
    sys_err = np.sqrt(result.nbar_err**2 - base.nbar_err**2)
    # each search ends on a Newton step of at most 1e-10 max(1, nbar), and
    # Newton converges quadratically, so the two agree far below that
    assert sys_err == pytest.approx(max(shifts), rel=1e-12)


class TestConversions:
    def test_paper_com_occupation(self):
        # nbar = 60 at 795 kHz -> 2.29 mK, consistent with the reported 2.3 mK
        t = occupation_to_temperature(60.0, TWO_PI * 795e3)
        assert t == pytest.approx(2.29e-3, rel=1e-3)
        assert t == pytest.approx(2.3e-3, rel=0.05)

    def test_doppler_limit_occupation(self):
        assert temperature_to_occupation(0.43e-3, TWO_PI * 795e3) == pytest.approx(11.3, rel=5e-3)

    def test_zero(self):
        assert occupation_to_temperature(0.0, TWO_PI * 795e3) == 0.0
        assert temperature_to_occupation(0.0, TWO_PI * 795e3) == 0.0

    def test_exact_inverses(self):
        for nbar in (0.5, 10.0, 60.0, 300.0):
            omega = TWO_PI * 777e3
            assert temperature_to_occupation(
                occupation_to_temperature(nbar, omega), omega
            ) == pytest.approx(nbar, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            occupation_to_temperature(-1.0, 1.0)
        with pytest.raises(ValueError):
            temperature_to_occupation(1.0, 0.0)


class TestFitOccupation:
    def test_noiseless_round_trip_exact(self):
        data, spectrum, drive, bath = synthetic_observation()
        result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        assert result.nbar == pytest.approx(60.0, rel=1e-6)
        assert result.status == "ok"
        assert result.chi2_reduced < 1e-12
        assert result.temperature == pytest.approx(
            occupation_to_temperature(result.nbar, spectrum.omega[0]), rel=1e-9
        )

    @pytest.mark.parametrize("nbar", [0.5, 10.0, 300.0])
    def test_round_trip_other_occupations(self, nbar):
        data, spectrum, drive, bath = synthetic_observation(nbar_com=nbar)
        result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        assert result.nbar == pytest.approx(nbar, rel=1e-5)

    def test_noisy_median_recovery(self):
        recovered = []
        for seed in range(15):
            data, spectrum, drive, bath = synthetic_observation(noise_seed=seed)
            result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
            recovered.append(result.nbar)
        assert abs(np.median(recovered) / 60.0 - 1.0) < 0.10

    def test_point_order_irrelevant(self):
        data, spectrum, drive, bath = synthetic_observation(noise_seed=1)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(data))
        shuffled = ObservedSpectrum(mu_hz=data.mu_hz[perm], p_up=data.p_up[perm],
                                    sigma=data.sigma[perm])
        a = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        b = fit_occupation(shuffled, spectrum, drive, target_mode=0, background=bath)
        assert a.nbar == pytest.approx(b.nbar, rel=1e-6)

    def test_deeper_dips_fit_hotter(self):
        # monotonicity of the estimator: generate at several nbar, fit each
        fits = []
        for nbar in (10.0, 60.0, 200.0):
            data, spectrum, drive, bath = synthetic_observation(nbar_com=nbar)
            fits.append(fit_occupation(data, spectrum, drive, target_mode=0, background=bath).nbar)
        assert fits[0] < fits[1] < fits[2]

    def test_flat_background_hits_zero_boundary(self):
        data, spectrum, drive, bath = synthetic_observation()
        bg = background_probability(drive.gamma, 2 * TAU)
        flat = ObservedSpectrum(mu_hz=data.mu_hz, p_up=np.full(len(data), bg),
                                sigma=data.sigma)
        result = fit_occupation(flat, spectrum, drive, target_mode=0, background=bath)
        assert result.status == "boundary_nbar_zero"
        assert result.nbar == 0.0

    def test_falling_chi2_hits_upper_boundary(self):
        # fully decohered data: chi^2 falls all the way to _NBAR_MAX
        data, spectrum, drive, bath = synthetic_observation()
        half = ObservedSpectrum(mu_hz=data.mu_hz, p_up=np.full(len(data), 0.5), sigma=data.sigma)
        model = _lineshape(half, spectrum, drive, 0, bath)
        chi2 = [_chi2(model, half, nbar)[0] for nbar in np.geomspace(1.0, _NBAR_MAX, 25)]
        assert np.all(np.diff(chi2) < 0.0)
        result = fit_occupation(half, spectrum, drive, target_mode=0, background=bath)
        assert result.status == "boundary_nbar_max"
        assert result.nbar == _NBAR_MAX

    def test_boundary_error_matches_chi2_curvature(self):
        # the error bar must be sqrt(2 / chi^2'') at the fitted nbar, both at
        # the nbar = 0 boundary (not a stencil clamped onto it, which picks up
        # the slope) and in the interior
        data, spectrum, drive, bath = synthetic_observation()
        bg = background_probability(drive.gamma, 2 * TAU)
        flat = ObservedSpectrum(mu_hz=data.mu_hz, p_up=np.full(len(data), bg),
                                sigma=data.sigma)
        noisy = synthetic_observation(noise_seed=3)[0]
        for observed, status, half_width in ((flat, "boundary_nbar_zero", None), (noisy, "ok", 0.1)):
            result = fit_occupation(observed, spectrum, drive, target_mode=0, background=bath)
            assert result.status == status
            model = _lineshape(observed, spectrum, drive, 0, bath)
            if half_width is None:
                grid = np.linspace(0.0, 0.01, 201)
            else:
                grid = result.nbar + np.linspace(-half_width, half_width, 201)
            chi2 = [_chi2(model, observed, nbar)[0] for nbar in grid]
            curvature = 2.0 * np.polyfit(grid, chi2, 2)[0]
            assert result.nbar_err == pytest.approx(np.sqrt(2.0 / curvature), rel=1e-3)

    def test_model_matches_sweep(self):
        # the fit's c0 + c1 nbar model and the forward sweep share one kernel
        data, spectrum, drive, bath = synthetic_observation()
        model = _lineshape(data, spectrum, drive, 0, bath)
        for nbar in (0.0, 60.0, 300.0):
            nbar_modes = bath.nbar.copy()
            nbar_modes[0] = nbar
            trace = sweep_spectrum(drive, spectrum, ThermalState(nbar_modes), data.mu_hz * TWO_PI)
            np.testing.assert_allclose(model.moments(nbar)[0], trace.p_up_mean, rtol=1e-12, atol=0.0)

    def test_span_requirement(self):
        data, spectrum, drive, bath = synthetic_observation()
        # keep only points far from resonance
        far = np.abs(data.mu_hz * TWO_PI - spectrum.omega[0]) * TAU / TWO_PI > 1.5
        clipped = ObservedSpectrum(mu_hz=data.mu_hz[far], p_up=data.p_up[far],
                                   sigma=data.sigma[far])
        with pytest.raises(InsufficientSpanError):
            fit_occupation(clipped, spectrum, drive, target_mode=0, background=bath)

    def test_too_few_points(self):
        data, spectrum, drive, bath = synthetic_observation()
        tiny = ObservedSpectrum(mu_hz=data.mu_hz[:2], p_up=data.p_up[:2], sigma=data.sigma[:2])
        with pytest.raises(InsufficientDataError):
            fit_occupation(tiny, spectrum, drive, target_mode=0, background=bath)

    def test_beam_angle_systematic_added(self):
        meta = FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05)
        data, spectrum, drive, bath = synthetic_observation(noise_seed=2, metadata=meta)
        with_sys = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        plain_data = ObservedSpectrum(mu_hz=data.mu_hz, p_up=data.p_up, sigma=data.sigma)
        without = fit_occupation(plain_data, spectrum, drive, target_mode=0, background=bath)
        assert with_sys.systematic_note is not None
        assert without.systematic_note is None
        assert with_sys.nbar_err > without.nbar_err

    def test_beam_angle_systematic_equals_force_scaled_refit(self):
        data, spectrum, drive, bath = synthetic_observation(
            noise_seed=2, metadata=FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05))
        result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        assert_systematic_is_force_scaled_refit(result, data, spectrum, drive, bath)

    def test_statistical_error_sane(self):
        data, spectrum, drive, bath = synthetic_observation(noise_seed=3)
        result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        # error should be a few occupation quanta at sigma_p = 0.02
        assert 0.5 < result.nbar_err < 20.0


@pytest.mark.parametrize("noise_seed", [1, 2, 3])
@pytest.mark.parametrize("nbar_true", [0.5, 10.0, 60.0, 300.0])
def test_fit_is_the_chi2_minimum(nbar_true, noise_seed, monkeypatch):
    data, spectrum, drive, bath = synthetic_observation(
        nbar_com=nbar_true, noise_seed=noise_seed,
        metadata=FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05))
    evaluations = []
    chi2 = thermometry._chi2

    def counted(model, observed, nbar):
        evaluations.append(nbar)
        return chi2(model, observed, nbar)

    monkeypatch.setattr(thermometry, "_chi2", counted)
    result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
    monkeypatch.undo()
    # the main fit and both beam-angle refits together, with one evaluation
    # at the fitted nbar (measured: 15 at nbar 0.5 up to 25 at nbar 300)
    assert len(evaluations) <= 25

    model = _lineshape(data, spectrum, drive, 0, bath)
    grid = np.linspace(max(result.nbar - 1.0, 0.0), result.nbar + 1.0, 2001)
    assert _chi2(model, data, result.nbar)[0] <= min(_chi2(model, data, nbar)[0] for nbar in grid)

    assert_systematic_is_force_scaled_refit(result, data, spectrum, drive, bath)


@pytest.mark.parametrize("nbar", [0.0, 10.0, 60.0, 300.0])
def test_fit_moments_match_per_ion_model(nbar):
    # m against the per-ion bright_fraction form, and m', m'' against
    # five-point central differences of that form in extended precision
    data, spectrum, drive, bath = synthetic_observation(noise_seed=1)
    model = _lineshape(data, spectrum, drive, 0, bath)
    total_time = drive.sequence.total_odf_time
    c1 = np.outer(model.u, model.v)
    m, slope, bend = model.moments(nbar)
    per_ion = bright_fraction(model.c0 + nbar * c1, drive.gamma, total_time)
    assert np.max(np.abs(m - per_ion.mean(axis=0))) <= 1e-14

    decay = np.longdouble(drive.gamma * total_time)
    c0, c1 = model.c0.astype(np.longdouble), c1.astype(np.longdouble)
    h = np.longdouble(0.01)
    f = {k: (-0.5 * np.expm1(-(decay + c0 + (nbar + k * h) * c1))).mean(axis=0) for k in (-2, -1, 0, 1, 2)}
    d1 = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h)
    d2 = (-f[-2] + 16.0 * f[-1] - 30.0 * f[0] + 16.0 * f[1] - f[2]) / (12.0 * h * h)
    assert np.max(np.abs(slope - d1)) <= 1e-14
    assert np.max(np.abs(bend - d2)) <= 1e-14


class TestFitBackgroundGamma:
    def test_zero_background(self):
        spectrum = spectrum_cached(7)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3, 920e3]),
                                p_up=np.zeros(3), sigma=np.full(3, 0.01))
        assert fit_background_gamma(data, spectrum, ECHO) == 0.0

    def test_typical_background_level(self):
        # pbar = 0.1 at tau = 500 us -> Gamma ~ 223 / s
        spectrum = spectrum_cached(7)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3, 920e3]),
                                p_up=np.full(3, 0.1), sigma=np.full(3, 0.01))
        assert fit_background_gamma(data, spectrum, ECHO) == pytest.approx(223.14, rel=1e-4)

    def test_ramsey_background_uses_single_arm_time(self):
        # a Ramsey sequence drives for T = tau only, not 2 tau
        spectrum = spectrum_cached(7)
        bg = background_probability(223.14, TAU)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3, 920e3]),
                                p_up=np.full(3, bg), sigma=np.full(3, 0.01))
        assert fit_background_gamma(data, spectrum, Ramsey(tau=TAU)) == pytest.approx(223.14, rel=1e-12)

    def test_saturated_background_rejected(self):
        spectrum = spectrum_cached(7)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3, 920e3]),
                                p_up=np.full(3, 0.5), sigma=np.full(3, 0.01))
        with pytest.raises(UnphysicalBackgroundError):
            fit_background_gamma(data, spectrum, ECHO)

    def test_points_near_modes_rejected(self):
        spectrum = spectrum_cached(7)
        near = spectrum.frequencies_hz[0] + 1.0 / TAU  # one lineshape width away
        data = ObservedSpectrum(mu_hz=np.array([near, 900e3, 910e3]),
                                p_up=np.full(3, 0.1), sigma=np.full(3, 0.01))
        with pytest.raises(InsufficientDataError):
            fit_background_gamma(data, spectrum, ECHO)

    def test_too_few_points(self):
        spectrum = spectrum_cached(7)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3]),
                                p_up=np.full(2, 0.1), sigma=np.full(2, 0.01))
        with pytest.raises(InsufficientDataError):
            fit_background_gamma(data, spectrum, ECHO)

    def test_weighted_mean_uses_sigmas(self):
        spectrum = spectrum_cached(7)
        data = ObservedSpectrum(mu_hz=np.array([900e3, 910e3, 920e3]),
                                p_up=np.array([0.1, 0.2, 0.1]),
                                sigma=np.array([1e-4, 1.0, 1e-4]))
        # the noisy middle point barely moves the weighted mean
        assert fit_background_gamma(data, spectrum, ECHO) == pytest.approx(223.14, rel=1e-3)


class TestObservedSpectrumValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            ObservedSpectrum(mu_hz=np.array([1.0]), p_up=np.array([1.5]), sigma=np.array([0.1]))

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            ObservedSpectrum(mu_hz=np.array([1.0]), p_up=np.array([0.5]), sigma=np.array([0.0]))

    @pytest.mark.parametrize("field", ["mu_hz", "p_up", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, field, bad):
        arrays = {"mu_hz": np.array([1.0, 2.0]), "p_up": np.array([0.5, 0.5]),
                  "sigma": np.array([0.1, 0.1])}
        arrays[field][1] = bad
        with pytest.raises(ValueError):
            ObservedSpectrum(**arrays)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ObservedSpectrum(mu_hz=np.array([1.0, 2.0]), p_up=np.array([0.5]), sigma=np.array([0.1]))
