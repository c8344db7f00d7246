import math

import numpy as np
import pytest

from drumhead import (
    DriveConfig,
    FitConvergenceError,
    FitMetadata,
    InsufficientDataError,
    InsufficientSpanError,
    ObservedSpectrum,
    Ramsey,
    SpinEcho,
    ThermalState,
    UnphysicalBackgroundError,
    fit_occupation,
    occupation_to_temperature,
    sweep_spectrum,
)
from drumhead import thermometry
from drumhead.dynamics import _coefficients, _gain_blocks, bright_fraction, decoherence_exponent
from drumhead.errors import DrumheadError
from drumhead.thermometry import _BOUNDARY_NBAR, _NBAR_MAX, _NEWTON_XTOL, _lineshape, _log_linear_nbar, _terms
from conftest import (
    flat_background,
    one_mode_spectrum,
    reference_minimize_nbar,
    spectrum_cached,
    whole_gain,
)

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
        # the Doppler limit, 0.43 mK, puts nbar ~ 11.3 in the 795 kHz COM mode
        thermal = ThermalState.from_temperature(one_mode_spectrum(TWO_PI * 795e3), 0.43e-3)
        assert thermal.nbar[0] == pytest.approx(11.3, rel=5e-3)

    def test_zero(self):
        assert occupation_to_temperature(0.0, TWO_PI * 795e3) == 0.0
        assert ThermalState.from_temperature(one_mode_spectrum(TWO_PI * 795e3), 0.0).nbar[0] == 0.0

    def test_exact_inverses(self):
        spectrum = one_mode_spectrum(TWO_PI * 777e3)
        for nbar in (0.5, 10.0, 60.0, 300.0):
            kelvin = occupation_to_temperature(nbar, spectrum.omega[0])
            assert ThermalState.from_temperature(spectrum, kelvin).nbar[0] == pytest.approx(nbar, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            occupation_to_temperature(-1.0, 1.0)
        with pytest.raises(ValueError):
            occupation_to_temperature(1.0, 0.0)
        with pytest.raises(ValueError):
            ThermalState.from_temperature(one_mode_spectrum(1.0), -1.0)


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
        bg = flat_background(drive.gamma, 2 * TAU)
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
        chi2 = [_terms(model, half, nbar)[0] for nbar in np.geomspace(1.0, _NBAR_MAX, 25)]
        assert np.all(np.diff(chi2) < 0.0)
        result = fit_occupation(half, spectrum, drive, target_mode=0, background=bath)
        assert result.status == "boundary_nbar_max"
        assert result.nbar == _NBAR_MAX

    def test_boundary_error_matches_chi2_curvature(self):
        # the error bar must be sqrt(2 / chi^2'') at the fitted nbar, both at
        # the nbar = 0 boundary (not a stencil clamped onto it, which picks up
        # the slope) and in the interior
        data, spectrum, drive, bath = synthetic_observation()
        bg = flat_background(drive.gamma, 2 * TAU)
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
            chi2 = [_terms(model, observed, nbar)[0] for nbar in grid]
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


@pytest.mark.parametrize("n_points, blocks", [(241, 1), (1541, 6)])
def test_lineshape_is_the_joined_gain(n_points, blocks):
    # the model takes c0 and v block by block from `_gain_blocks`: v is the joined gain's
    # target row bit for bit, and c0 the whole-gain exponent, bit for bit on one block and
    # up to the matrix product's rounding on several
    spectrum, drive, _ = com_lineshape_setup()
    mu_hz = np.linspace(30e3, 800e3, n_points)
    data = ObservedSpectrum(mu_hz=mu_hz, p_up=np.full(n_points, 0.1), sigma=np.full(n_points, 0.02))
    bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)  # the target's nbar is 0, as in the model
    mu = data.mu_hz * TWO_PI
    assert sum(1 for _ in _gain_blocks(drive, spectrum, mu)) == blocks
    model = _lineshape(data, spectrum, drive, 0, bath)
    gain = whole_gain(drive, spectrum, mu)
    c0 = decoherence_exponent(_coefficients(drive, spectrum) ** 2, gain, bath.nbar)
    assert np.array_equal(model.v, gain[0])
    if blocks == 1:
        assert np.array_equal(model.c0, c0)
    np.testing.assert_allclose(model.c0, c0, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("noise_seed", [1, 2, 3])
@pytest.mark.parametrize("nbar_true", [0.5, 10.0, 60.0, 300.0])
def test_fit_is_the_chi2_minimum(nbar_true, noise_seed, monkeypatch):
    data, spectrum, drive, bath = synthetic_observation(
        nbar_com=nbar_true, noise_seed=noise_seed,
        metadata=FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05))
    evaluations = []
    moments = thermometry._Lineshape.moments

    def counted(model, nbar):
        evaluations.append(nbar)
        return moments(model, nbar)

    monkeypatch.setattr(thermometry._Lineshape, "moments", counted)
    result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
    monkeypatch.undo()
    # model evaluations, the cost: the searches of the main fit and both beam-angle refits,
    # and the report's one at the fitted nbar (measured: 14 to 16)
    assert len(evaluations) <= 16

    model = _lineshape(data, spectrum, drive, 0, bath)
    grid = np.linspace(max(result.nbar - 1.0, 0.0), result.nbar + 1.0, 2001)
    assert _terms(model, data, result.nbar)[0] <= min(_terms(model, data, nbar)[0] for nbar in grid)

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


@pytest.mark.parametrize("nbar", [0.0, 10.0, 60.0, 300.0])
@pytest.mark.parametrize("gamma", [None, 0.0], ids=["gamma_given", "gamma_fitted"])
def test_moments_bit_equal_to_outer_product_form(nbar, gamma):
    # the einsum outer product against np.multiply.outer, the rest written out as before
    spectrum, drive, _ = com_lineshape_setup(gamma=gamma)
    data, *_ = synthetic_observation(noise_seed=1)
    model = _lineshape(data, spectrum, drive, 0, ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3))
    e = np.multiply.outer(-nbar * model.u, model.v)
    e -= model.c0
    scale = 0.5 * math.exp(-(model.decay or 0.0)) / len(model.u)
    sums = np.einsum("kj,jg->kg", np.vander(model.u, 3, increasing=True).T * scale, np.exp(e))
    reference = np.array([0.5 - sums[0], model.v * sums[1], -(model.v**2) * sums[2]])
    assert np.array_equal(model.moments(nbar).view(np.uint64), reference.view(np.uint64))


def fitted_gamma(drive):
    """The drive with gamma_per_s = 0: the data supply Gamma."""
    return DriveConfig(forces=drive.forces, mu_r=None, gamma=0.0, sequence=drive.sequence)


def profile_chi2(model, data, nbar, k):
    """chi^2 at (nbar, k = e^{-Gamma T}) from the k = 1 model, written out from m = 1/2 - k (1/2 - m_1)."""
    m = 0.5 - k * (0.5 - model.moments(nbar)[0])
    return float(np.sum(((data.p_up - m) / data.sigma) ** 2))


def reference_fit(monkeypatch, data, spectrum, drive, target_mode, bath):
    """`fit_occupation` with `reference_minimize_nbar` as its search: the fit from 0, each refit
    from the fitted nbar. Returns the result, or the type of the error it raised."""
    fitted = []

    def search(model, observed, start=None):
        if start is None:
            nbar = reference_minimize_nbar(model, observed)
            fitted.append(nbar if nbar >= _BOUNDARY_NBAR else 0.0)
            return nbar
        return reference_minimize_nbar(model, observed, start=fitted[0])

    monkeypatch.setattr(thermometry, "_minimize_nbar", search)
    try:
        return fit_occupation(data, spectrum, drive, target_mode=target_mode, background=bath)
    except DrumheadError as error:
        return type(error)
    finally:
        monkeypatch.undo()


def assert_fit_matches_reference(monkeypatch, data, spectrum, drive, target_mode, bath):
    reference = reference_fit(monkeypatch, data, spectrum, drive, target_mode, bath)
    try:
        result = fit_occupation(data, spectrum, drive, target_mode=target_mode, background=bath)
    except DrumheadError as error:
        assert type(error) is reference
        return
    assert not isinstance(reference, type), reference
    assert result.status == reference.status
    for field in ("nbar", "nbar_err", "chi2_reduced", "gamma_used"):
        assert getattr(result, field) == pytest.approx(getattr(reference, field), rel=1e-12, abs=0.0), field


@pytest.mark.parametrize("reverse", [False, True], ids=["rows", "reversed"])
@pytest.mark.parametrize("noise_seed", [1, 2])
@pytest.mark.parametrize("target_mode", [0, 1])
@pytest.mark.parametrize("gamma", ["given", "fitted"])
@pytest.mark.parametrize("nbar_true", [0.0, 0.5, 10.0, 60.0, 300.0, 3000.0])
def test_search_matches_reference(nbar_true, gamma, target_mode, noise_seed, reverse, monkeypatch):
    # the search from the log-linear estimate, and each refit from nbar / f^2 with its lazy
    # boundary test, find the roots that the search from 0 and the refits from nbar find
    spectrum, drive, _ = com_lineshape_setup()
    bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
    nbar = bath.nbar.copy()
    nbar[target_mode] = nbar_true
    grid = np.sort(spectrum.omega[target_mode] + np.linspace(-3.0, 3.0, 81) * TWO_PI / TAU)
    p = sweep_spectrum(drive, spectrum, ThermalState(nbar), grid).p_up_mean
    p = np.clip(p + np.random.default_rng(noise_seed).normal(0.0, 0.02, len(p)), 1e-4, 1.0 - 1e-4)
    rows = slice(None, None, -1 if reverse else 1)
    data = ObservedSpectrum(mu_hz=grid[rows] / TWO_PI, p_up=p[rows], sigma=np.full(len(p), 0.02),
                            metadata=FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05))
    if gamma == "fitted":
        drive = fitted_gamma(drive)
    assert_fit_matches_reference(monkeypatch, data, spectrum, drive, target_mode, bath)


def test_search_without_estimate_points_starts_at_zero(monkeypatch):
    # no point has 1 - 2p > 0, so the log-linear estimate has nothing to fit and the
    # search starts at 0; it still ends where the reference search does
    data, spectrum, drive, bath = synthetic_observation()
    p = np.where(np.arange(len(data)) % 2, 0.5, 0.53)
    high = ObservedSpectrum(mu_hz=data.mu_hz, p_up=p, sigma=data.sigma,
                            metadata=FitMetadata(theta_r=np.radians(4.8), theta_r_rel_err=0.05))
    model = _lineshape(high, spectrum, drive, 0, bath)
    assert _log_linear_nbar(model, high, model.moments(0.0)[0]) == 0.0
    assert_fit_matches_reference(monkeypatch, high, spectrum, drive, 0, bath)


def test_log_linear_estimate_is_exact_for_the_com_mode():
    # the COM mode drives every ion alike (u is one value), so the log-linear model is the
    # lineshape itself and, on noiseless data, the estimate is the true nbar
    for nbar_true in (10.0, 60.0, 300.0):
        data, spectrum, drive, bath = synthetic_observation(nbar_com=nbar_true)
        for fit_drive in (drive, fitted_gamma(drive)):
            model = _lineshape(data, spectrum, fit_drive, 0, bath)
            estimate = _log_linear_nbar(model, data, model.moments(0.0)[0])
            assert estimate == pytest.approx(nbar_true, rel=1e-9)


def arctan_slope(monkeypatch) -> list:
    """Replace `_terms` by chi^2' = arctan(nbar - 50) and chi^2'' its derivative, which flattens away
    from the root at 50, so Newton overshoots; returns the list of the nbar it is evaluated at."""
    visited = []

    def terms(model, data, nbar, moments=None):
        visited.append(nbar)
        return 0.0, math.atan(nbar - 50.0), 1.0 / (1.0 + (nbar - 50.0) ** 2), 1.0, None

    monkeypatch.setattr(thermometry, "_terms", terms)
    return visited


def test_overshooting_newton_step_bisects_the_bracket(monkeypatch):
    visited = arctan_slope(monkeypatch)
    nbar = thermometry._minimize_nbar(None, None, start=0.0)
    # Newton from 0 lands far beyond the root, where the next Newton step leaves the bracket
    # [0, that point]: the bracket is halved instead
    assert visited[1] > 1e3 and visited[2] == visited[1] / 2
    assert abs(nbar - 50.0) <= _NEWTON_XTOL * 50.0


def test_search_out_of_steps_raises(monkeypatch):
    arctan_slope(monkeypatch)
    monkeypatch.setattr(thermometry, "_MAX_NEWTON_STEPS", 5)
    with pytest.raises(FitConvergenceError, match="did not converge in 5 steps"):
        thermometry._minimize_nbar(None, None, start=0.0)


class TestFitBackgroundGamma:
    """With drive.gamma == 0 the background e^{-Gamma T} is fitted with nbar."""

    def test_zero_background(self):
        # data a little below a Gamma = 0 lineshape want k > 1: k stays on its bound 1
        spectrum, drive, thermal = com_lineshape_setup(gamma=0.0)
        data = synthetic_observation()[0]
        trace = sweep_spectrum(drive, spectrum, thermal, data.mu_hz * TWO_PI)
        low = ObservedSpectrum(mu_hz=data.mu_hz, p_up=np.clip(trace.p_up_mean - 1e-3, 0.0, 1.0),
                               sigma=data.sigma)
        bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
        result = fit_occupation(low, spectrum, drive, target_mode=0, background=bath)
        assert result.gamma_used == 0.0 and str(result.gamma_used) == "0.0"
        assert result.status == "ok"
        # on the bound the error is the unprofiled sqrt(2 / chi^2_nn)
        model = _lineshape(low, spectrum, drive, 0, bath)
        grid = result.nbar + np.linspace(-0.1, 0.1, 201)
        curvature = 2.0 * np.polyfit(grid, [profile_chi2(model, low, n, 1.0) for n in grid], 2)[0]
        assert result.nbar_err == pytest.approx(np.sqrt(2.0 / curvature), rel=1e-3)

    def test_typical_background_level(self):
        # pbar = 0.1 at tau = 500 us -> Gamma ~ 223 / s
        data, spectrum, drive, bath = synthetic_observation()
        result = fit_occupation(data, spectrum, fitted_gamma(drive), target_mode=0, background=bath)
        assert result.gamma_used == pytest.approx(drive.gamma, rel=1e-9)
        assert result.nbar == pytest.approx(60.0, rel=1e-9)
        assert result.status == "ok"
        given = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
        assert given.gamma_err is None
        # freeing Gamma widens the occupation's error
        assert result.nbar_err > given.nbar_err

    def test_ramsey_background_uses_single_arm_time(self):
        # a Ramsey sequence drives for T = tau only, not 2 tau
        spectrum = spectrum_cached(19, 44.7e3, seed=1)
        drive = DriveConfig(forces=8e-24, mu_r=None, gamma=223.14, sequence=Ramsey(tau=TAU))
        thermal = ThermalState.com_plus_bath(spectrum, 60.0, 0.43e-3)
        grid = spectrum.omega[0] + np.linspace(-3.0, 3.0, 81) * TWO_PI / TAU
        trace = sweep_spectrum(drive, spectrum, thermal, grid)
        data = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=trace.p_up_mean,
                                sigma=np.full(len(grid), 0.02))
        bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
        result = fit_occupation(data, spectrum, fitted_gamma(drive), target_mode=0, background=bath)
        assert result.gamma_used == pytest.approx(223.14, rel=1e-9)
        assert result.nbar == pytest.approx(60.0, rel=1e-9)

    def test_saturated_background_rejected(self):
        data, spectrum, drive, bath = synthetic_observation()
        for level in (0.5, 0.6):
            flat = ObservedSpectrum(mu_hz=data.mu_hz, p_up=np.full(len(data), level), sigma=data.sigma)
            with pytest.raises(UnphysicalBackgroundError):
                fit_occupation(flat, spectrum, fitted_gamma(drive), target_mode=0, background=bath)

    def test_too_few_points(self):
        data, spectrum, drive, bath = synthetic_observation()
        tiny = ObservedSpectrum(mu_hz=data.mu_hz[:2], p_up=data.p_up[:2], sigma=data.sigma[:2])
        with pytest.raises(InsufficientDataError):
            fit_occupation(tiny, spectrum, fitted_gamma(drive), target_mode=0, background=bath)

    def test_weighted_mean_uses_sigmas(self):
        # a far point moved by 0.3 but given sigma = 100 barely moves the fit
        data, spectrum, drive, bath = synthetic_observation()
        p, sigma = data.p_up.copy(), data.sigma.copy()
        p[0] += 0.3
        sigma[0] = 100.0
        moved = ObservedSpectrum(mu_hz=data.mu_hz, p_up=p, sigma=sigma)
        result = fit_occupation(moved, spectrum, fitted_gamma(drive), target_mode=0, background=bath)
        assert result.gamma_used == pytest.approx(drive.gamma, rel=1e-5)
        assert result.nbar == pytest.approx(60.0, rel=1e-5)
        assert result.chi2_reduced == pytest.approx((0.3 / 100.0) ** 2 / (len(data) - 2), rel=1e-3)

    def test_errors_match_chi2_curvature(self):
        # nbar_err is the Delta chi^2 = 1 marginal: sqrt(2 / profile chi^2''), and gamma_err
        # propagates sqrt(2 (H^-1)_kk) of the (nbar, k) Hessian through Gamma = -ln k / T
        data, spectrum, drive, bath = synthetic_observation(noise_seed=3)
        free = fitted_gamma(drive)
        result = fit_occupation(data, spectrum, free, target_mode=0, background=bath)
        assert result.status == "ok"
        model = _lineshape(data, spectrum, free, 0, bath)
        grid = result.nbar + np.linspace(-0.1, 0.1, 201)
        profile = [_terms(model, data, nbar)[0] for nbar in grid]
        curvature = 2.0 * np.polyfit(grid, profile, 2)[0]
        assert result.nbar_err == pytest.approx(np.sqrt(2.0 / curvature), rel=1e-3)
        assert profile[100] <= min(profile)

        total_time = drive.sequence.total_odf_time
        k = np.exp(-result.gamma_used * total_time)
        dn, dk = 1e-2, 1e-5
        f = {(a, b): profile_chi2(model, data, result.nbar + a * dn, k + b * dk)
             for a in (-1, 0, 1) for b in (-1, 0, 1)}
        h_nn = (f[1, 0] - 2.0 * f[0, 0] + f[-1, 0]) / dn**2
        h_kk = (f[0, 1] - 2.0 * f[0, 0] + f[0, -1]) / dk**2
        h_nk = (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (4.0 * dn * dk)
        k_err = np.sqrt(2.0 * h_nn / (h_nn * h_kk - h_nk**2))
        assert result.gamma_err == pytest.approx(k_err / (k * total_time), rel=1e-4)
        assert result.chi2_reduced == pytest.approx(f[0, 0] / (len(data) - 2), rel=1e-9)

    def test_full_band_recovers_occupation(self):
        # N = 190 over 641-795 kHz: no point lies 4 widths from every mode, and the
        # fit must still find nbar = 60 and the generating Gamma
        spectrum, drive, thermal = com_lineshape_setup(force=1.5e-23, gamma=223.14)
        grid = TWO_PI * np.arange(641e3, 795e3 + 50.0, 100.0)
        trace = sweep_spectrum(drive, spectrum, thermal, grid)
        data = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=trace.p_up_mean,
                                sigma=np.full(len(grid), 0.02))
        bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
        result = fit_occupation(data, spectrum, fitted_gamma(drive), target_mode=0, background=bath)
        assert result.status == "ok"
        assert result.nbar == pytest.approx(60.0, rel=1e-9)
        assert result.gamma_used == pytest.approx(223.14, rel=1e-9)


@pytest.mark.parametrize("nbar_true", [60.0, 2.0])
def test_pulls_are_unit_normal(nbar_true):
    # 400 noisy draws at N = 19: (nbar - truth) / nbar_err, and for a fitted Gamma
    # also (Gamma - truth) / gamma_err, must have mean ~0 and standard deviation ~1
    spectrum = spectrum_cached(19, 44.7e3, seed=1)
    given = DriveConfig(forces=1.5e-23, mu_r=None, gamma=223.14, sequence=ECHO)
    grid = spectrum.omega[0] + TWO_PI * 250.0 * (np.arange(120) - 59.5)
    trace = sweep_spectrum(given, spectrum, ThermalState.com_plus_bath(spectrum, nbar_true, 0.43e-3), grid)
    bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)
    sigma = np.full(len(grid), 0.02)
    rng = np.random.default_rng(0)
    for drive in (given, fitted_gamma(given)):
        pulls = []
        for _ in range(400):
            p = np.clip(trace.p_up_mean + rng.normal(0.0, 0.02, len(grid)), 0.0, 1.0)
            data = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=p, sigma=sigma)
            result = fit_occupation(data, spectrum, drive, target_mode=0, background=bath)
            assert result.status == "ok"
            pulls.append([(result.nbar - nbar_true) / result.nbar_err,
                          (result.gamma_used - 223.14) / (result.gamma_err or 1.0)])
        for pull in np.transpose(pulls)[: 1 if drive is given else 2]:
            assert abs(np.mean(pull)) <= 0.2
            assert 0.85 <= np.std(pull, ddof=1) <= 1.2


class TestObservedSpectrumValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            ObservedSpectrum(mu_hz=np.array([1.0]), p_up=np.array([1.5]), sigma=np.array([0.1]))

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            ObservedSpectrum(mu_hz=np.array([1.0]), p_up=np.array([0.5]), sigma=np.array([0.0]))

    @pytest.mark.parametrize("sigma", [[1e-160], [1e-200, 0.02], [1e-154, 1e-154]],
                             ids=["weight_overflows", "tiny_beside_normal", "sum_overflows"])
    def test_weights_must_be_finite(self, sigma):
        # 1/sigma^2 overflows below about 7.5e-155, and two weights of 1e308 sum past the largest float
        with pytest.raises(ValueError, match="weights 1/sigma"):
            ObservedSpectrum(mu_hz=np.arange(len(sigma)), p_up=np.full(len(sigma), 0.5), sigma=np.array(sigma))
        ObservedSpectrum(mu_hz=np.array([1.0]), p_up=np.array([0.5]), sigma=np.array([1e-154]))

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
