"""Kernel values, the amplitude march, calibration and signed inversion."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from heattrack import plasmonic
from heattrack.errors import RankDeficiencyError
from heattrack.plasmonic import (
    PlasmonicConfig,
    calibrate_k0,
    invert_actuation,
    realize_profile,
    unit_response,
    volterra_solve,
)
from heattrack.rng import stream

import manufactured as mms
from particles import (coupling_forcing_steps, free_space_kernel,
                       kernel_time_derivative, run_pipeline, volterra_steps)
from streams import PURPOSE_TEST

KAPPA = 1.0
DELTA = 0.05


def _config(**overrides):
    base = dict(centers=np.array([[0.3], [0.7]]),
                contrasts=np.array([1.0, 1.0]), c_m=1.0, kappa=KAPPA,
                coupling=0.05 * (np.ones((2, 2)) - np.eye(2)),
                dictionary=np.eye(2), mu=1.0, seed=7)
    base.update(overrides)
    return PlasmonicConfig(**base)


def _calibrate(config, times, profile, delta=DELTA):
    return calibrate_k0(config, unit_response(config, times, profile), delta)


def _realize(config, times, profile, coeffs, delta=DELTA):
    """``realize_profile`` through this config's map at ``delta``."""
    return realize_profile(config, times,
                           _calibrate(config, times, profile, delta), coeffs)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_value_and_normalization():
    # closed form at zero separation
    assert_allclose(free_space_kernel([0.2], 1.3, [0.2], 0.3, 2.0),
                    (4 * np.pi * 2.0) ** -0.5, rtol=1e-14)
    assert free_space_kernel([0.2], 1.0, [0.5], 1.0, 1.0) == 0.0
    # unit mass along one axis; the 3D kernel is the product of axis factors
    nodes, weights = leggauss(200)
    half = 40.0
    x = half * nodes
    w = half * weights
    vals = np.array([free_space_kernel([xi], 1.0, [0.0], 0.0, KAPPA)
                     for xi in x])
    assert_allclose(np.sum(w * vals), 1.0, rtol=1e-10)
    k3 = free_space_kernel([0.1, 0.2, 0.3], 1.0, [0.0, 0.0, 0.0], 0.0, KAPPA)
    prod = np.prod([free_space_kernel([c], 1.0, [0.0], 0.0, KAPPA)
                    for c in (0.1, 0.2, 0.3)])
    assert_allclose(k3, prod, rtol=1e-13)


def test_kernel_time_derivative_against_finite_differences():
    args = ([0.3], [0.7], 0.0, KAPPA)
    t = 0.4
    h = 1e-6
    fd = (free_space_kernel([0.3], t + h, [0.7], 0.0, KAPPA)
          - free_space_kernel([0.3], t - h, [0.7], 0.0, KAPPA)) / (2 * h)
    assert_allclose(kernel_time_derivative([0.3], t, [0.7], 0.0, KAPPA),
                    fd, rtol=1e-8)
    assert kernel_time_derivative([0.3], 0.0, [0.7], 0.1, KAPPA) == 0.0
    with pytest.raises(ValueError):
        kernel_time_derivative([0.3], 0.4, [0.3], 0.0, KAPPA)
    # separated points: the derivative vanishes as tau -> t (no singularity)
    assert kernel_time_derivative([0.3], 1e-12, [0.7], 0.0, KAPPA) == 0.0


# ---------------------------------------------------------------------------
# amplitude march


def test_single_particle_has_no_memory():
    """With M = 1 the coupling sum is empty, so sigma equals the forcing."""
    times = np.linspace(0.0, 0.5, 33)
    forcing = (np.sin(2 * np.pi * times) + 1.5)[:, None]
    sigma = volterra_solve(np.array([[0.4]]), np.zeros((1, 1)), KAPPA, times,
                           forcing)
    assert_allclose(sigma, forcing, atol=1e-14)


def test_zero_coupling_decouples_every_particle():
    times = np.linspace(0.0, 0.5, 33)
    rng = stream(7, PURPOSE_TEST, 3)
    forcing = rng.standard_normal((33, 3))
    centers = np.array([[0.2], [0.5], [0.8]])
    sigma = volterra_solve(centers, np.zeros((3, 3)), KAPPA, times, forcing)
    assert_allclose(sigma, forcing, atol=1e-14)


def test_batched_forcing_matches_single_column_marches():
    times = np.linspace(0.0, 0.5, 65)
    centers = np.array([[0.2], [0.5], [0.8]])
    coupling = 0.5 * (np.ones((3, 3)) - np.eye(3))
    forcing = stream(7, PURPOSE_TEST, 5).standard_normal((65, 3, 4))
    batch = volterra_solve(centers, coupling, KAPPA, times, forcing)
    assert batch.shape == forcing.shape
    for r in range(4):
        single = volterra_solve(centers, coupling, KAPPA, times,
                                forcing[:, :, r])
        assert_allclose(batch[:, :, r], single, rtol=0,
                        atol=1e-14 * np.max(np.abs(single)))
    with pytest.raises(ValueError):
        volterra_solve(centers, coupling, KAPPA, times, forcing[:, :2])


def test_march_ignores_the_memory_layout_of_the_forcing():
    times = np.linspace(0.0, 0.5, 65)
    centers = np.array([[0.2], [0.5], [0.8]])
    coupling = 0.5 * (np.ones((3, 3)) - np.eye(3))
    forcing = stream(7, PURPOSE_TEST, 7).standard_normal((65, 3, 2))
    want = volterra_solve(centers, coupling, KAPPA, times, forcing)
    fortran = np.asfortranarray(forcing)
    assert not fortran.flags.c_contiguous
    got = volterra_solve(centers, coupling, KAPPA, times, fortran)
    assert np.array_equal(got, want)
    columns = np.array([forcing[:, :, 0].T, forcing[:, :, 1].T]).T
    assert not columns.flags.c_contiguous
    got = volterra_solve(centers, coupling, KAPPA, times, columns)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q_steps", [1, 2, 3, 500, 4000])
@pytest.mark.parametrize("columns", ["one", "per-particle"])
@pytest.mark.parametrize("centers", [
    np.array([[0.125], [0.375], [0.625], [0.875]]),
    np.array([[x, y, 0.3] for x in (0.25, 0.75) for y in (0.2, 0.6)]),
], ids=["interval", "box3"])
def test_series_solve_matches_the_step_loop(centers, columns, q_steps):
    """The power-series solve against the explicit step-by-step march.

    Cosine-node centers at ten times the packaged coupling scale: a
    strong memory whose amplitudes stay bounded, so that roundoff, not
    growth, sets the gap.
    """
    m = centers.shape[0]
    times = np.linspace(0.0, 1.0, q_steps + 1)
    coupling = 0.5 * (np.ones((m, m)) - np.eye(m))
    rng = stream(7, PURPOSE_TEST, 8)
    shape = (q_steps + 1, m) if columns == "one" else (q_steps + 1, m, m)
    # a forcing nonzero at t = 0, so the trapezoid's end weight enters
    forcing = 1.0 + rng.standard_normal(shape)
    want = volterra_steps(centers, coupling, KAPPA, times, forcing)
    got = volterra_solve(centers, coupling, KAPPA, times, forcing)
    assert got.shape == forcing.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_march_rejects_coincident_centers():
    times = np.linspace(0.0, 0.5, 9)
    centers = np.array([[0.2], [0.5], [0.2]])
    with pytest.raises(ValueError, match="separated"):
        volterra_solve(centers, np.ones((3, 3)), KAPPA, times,
                       np.ones((9, 3)))


@pytest.mark.parametrize("centers, dt", [
    (np.array([[0.3], [0.7]]), 1e-5),
    (np.array([[0.3, 0.1, 0.0], [0.7, 0.2, 0.1], [0.1, 0.9, 0.4]]), 2e-5),
])
def test_kernel_table_matches_the_scalar_kernel(centers, dt):
    """Same values as the scalar kernel, cut-off and zero lag included."""
    q_steps = 400
    table = plasmonic._kernel_table(centers, KAPPA, dt, q_steps)
    m = centers.shape[0]
    scalar = np.zeros_like(table)
    for i in range(m):
        for j in range(m):
            if i != j:
                scalar[:, i, j] = [kernel_time_derivative(
                    centers[i], s * dt, centers[j], 0.0, KAPPA)
                    for s in range(q_steps + 1)]
    assert not np.any(table[0])
    # the exp floor cuts the first lags of every pair, and only those
    cut = scalar == 0.0
    assert np.array_equal(table == 0.0, cut)
    assert np.all(cut[1, ~np.eye(m, dtype=bool)])
    assert not np.all(cut[-1, ~np.eye(m, dtype=bool)])
    eps = np.finfo(float).eps
    assert np.all(np.abs(table - scalar) <= 4 * eps * np.abs(scalar))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.integers(1, 48))
def test_march_is_linear_in_the_forcing(seed, a, b, q_steps):
    times = np.linspace(0.0, 0.3, q_steps + 1)
    centers = np.array([[0.2], [0.45], [0.8]])
    coupling = 0.5 * (np.ones((3, 3)) - np.eye(3))
    f1, f2 = stream(seed, PURPOSE_TEST, 6).standard_normal(
        (2, q_steps + 1, 3))
    combined = volterra_solve(centers, coupling, KAPPA, times,
                              a * f1 + b * f2)
    parts = (a * volterra_solve(centers, coupling, KAPPA, times, f1)
             + b * volterra_solve(centers, coupling, KAPPA, times, f2))
    scale = (abs(a) + abs(b)) * max(np.max(np.abs(f1)), np.max(np.abs(f2)))
    assert_allclose(combined, parts, rtol=0, atol=1e-13 * max(scale, 1.0))


def test_volterra_grid_validation():
    with pytest.raises(ValueError):
        volterra_solve(np.array([[0.4]]), np.zeros((1, 1)), KAPPA,
                       np.array([0.0]), np.zeros((1, 1)))
    bad_times = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        volterra_solve(np.array([[0.4]]), np.zeros((1, 1)), KAPPA, bad_times,
                       np.zeros((3, 1)))


def test_manufactured_forcing_oracle_matches_a_40_digit_reference():
    """The oracle's spot values against 40-digit adaptive quadrature.

    The composite Gauss-Legendre oracle is accurate to about 5e-12
    relative at these samples, so 1e-10 still catches a wrong oracle.
    """
    times = np.linspace(0.0, mms.HORIZON, 65)
    forcing = mms.forcing(times)
    with mpmath.workdps(40):
        t = mpmath.mpf(float(times[32]))
        horizon = mpmath.mpf(mms.HORIZON)
        r2 = (mpmath.mpf(float(mms.CENTERS[1, 0]))
              - mpmath.mpf(float(mms.CENTERS[0, 0]))) ** 2

        def sigma(tau):
            s = tau / horizon
            return (mpmath.cos(mpmath.pi * s) + s / 2,
                    mpmath.exp(-s) * (1 + 2 * s))

        def kernel_derivative(s):
            phi = mpmath.exp(-r2 / (4 * s)) / mpmath.sqrt(4 * mpmath.pi * s)
            return phi * (-1 / (2 * s) + r2 / (4 * s * s))

        for i in (0, 1):
            memory = mpmath.quad(
                lambda tau: kernel_derivative(t - tau) * sigma(tau)[1 - i],
                [0, t])
            want = float(sigma(t)[i] + mpmath.mpf(mms.BETA) * memory)
            assert_allclose(forcing[32, i], want, rtol=1e-10)


def test_lag_products_pad_to_the_smallest_2_3_smooth_length(monkeypatch):
    """FFT lag products pad 2n lags to the smallest 2^a 3^b at or above.
    Every length a 500-step march asks for is still the power of two of
    the earlier padding, so those marches keep their arithmetic; at
    32,768 steps (n = 32,769) the two longest products drop from 4Q =
    131,072 to 2^5 3^7 = 69,984."""
    smooth = sorted(2 ** a * 3 ** b for a in range(14) for b in range(9))
    for n in range(1, 4097):
        assert plasmonic._fft_length(n) == next(v for v in smooth if v >= n)
    assert plasmonic._fft_length(2 * 32769) == 2 ** 5 * 3 ** 7

    asked = []
    length = plasmonic._fft_length
    monkeypatch.setattr(plasmonic, "_fft_length",
                        lambda n: asked.append(n) or length(n))
    times = np.linspace(0.0, 1.0, 501)
    centers = np.array([[0.125], [0.375], [0.625], [0.875]])
    volterra_solve(centers, 0.05 * (np.ones((4, 4)) - np.eye(4)), KAPPA,
                   times, np.ones((501, 4, 4)))
    assert max(asked) == 2 * 501
    for n in asked:
        assert length(n) == 1 << (n - 1).bit_length()


def test_volterra_march_is_second_order():
    coupling = mms.BETA * (np.ones((2, 2)) - np.eye(2))
    errs = []
    for q in (64, 128, 256):
        times = np.linspace(0.0, mms.HORIZON, q + 1)
        sigma = volterra_solve(mms.CENTERS, coupling, mms.KAPPA, times,
                               mms.forcing(times))
        diff = sigma - mms.sigma(times)
        errs.append(float(np.sqrt(np.sum(diff ** 2) * (mms.HORIZON / q))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)


# ---------------------------------------------------------------------------
# dictionary perturbation and the pipeline


def test_effective_dictionary_at_zero_contrast_scale():
    config = _config()
    perturbed = config.dictionary + plasmonic._perturbation(config, 0.0, 0)
    assert_allclose(perturbed, np.eye(2), rtol=0, atol=0.0)


def test_dictionary_perturbation_scales_as_delta_to_mu():
    for delta, mu in [(0.2, 1.0), (0.1, 1.0), (0.04, 1.5)]:
        gap = plasmonic._perturbation(_config(mu=mu), delta, 0)
        assert_allclose(np.linalg.norm(gap, 2), delta ** mu, rtol=1e-12)
    # the perturbation direction is seeded, hence replayable
    a = plasmonic._perturbation(_config(), 0.1, 0)
    b = plasmonic._perturbation(_config(), 0.1, 0)
    assert np.array_equal(a, b)
    c = plasmonic._perturbation(_config(seed=8), 0.1, 0)
    assert not np.array_equal(a, c)


def test_pipeline_is_linear_in_the_intensities():
    config = _config()
    times = np.linspace(0.0, 0.4, 41)
    rng = stream(7, PURPOSE_TEST, 4)
    p1 = rng.standard_normal((41, 2))
    p2 = rng.standard_normal((41, 2))
    out = run_pipeline(config, DELTA, times, 2.0 * p1 - 0.5 * p2)
    parts = (2.0 * run_pipeline(config, DELTA, times, p1)
             - 0.5 * run_pipeline(config, DELTA, times, p2))
    assert_allclose(out, parts, atol=1e-12)


@pytest.mark.parametrize("perturb", [False, True])
def test_direct_remainder_matches_the_difference_of_pipelines(perturb):
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     dictionary=np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.5]]),
                     perturb_interaction=perturb)
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    coeffs = np.array([0.7, -0.4, 0.25])
    _, rho, norm = _realize(config, times, profile, coeffs)
    intensities = profile[:, None] * coeffs[None, :]
    full = run_pipeline(config, DELTA, times, intensities)
    leading = run_pipeline(config, 0.0, times, intensities)
    # the difference carries roundoff of the outputs, not of the remainder
    tol = 64 * np.finfo(float).eps * np.max(np.abs(full))
    assert np.max(np.abs(rho - (full - leading))) <= tol
    assert norm > 1e-3
    if perturb:   # the coupling term is really there
        plain = dataclasses.replace(config, perturb_interaction=False)
        _, rho_plain, _ = _realize(plain, times, profile, coeffs)
        assert np.max(np.abs(rho - rho_plain)) > 1e3 * tol
    _, rho0, norm0 = _realize(config, times, profile, coeffs, delta=0.0)
    assert norm0 == 0.0
    assert not np.any(rho0)


@pytest.mark.parametrize("centers,samples", [
    (np.array([[0.3], [0.7]]), 81),
    (np.array([[0.2], [0.45], [0.8]]), 501),
    (np.array([[0.3, 0.4, 0.3], [0.6, 0.4, 0.3], [0.5, 0.2, 0.1]]), 201),
])
def test_coupling_forcing_matches_the_step_loop(centers, samples):
    m = centers.shape[0]
    config = _config(centers=centers, contrasts=np.ones(m),
                     coupling=0.5 * (np.ones((m, m)) - np.eye(m)),
                     dictionary=np.eye(m), perturb_interaction=True)
    times = np.linspace(0.0, 0.4, samples)
    sigma = unit_response(config, times,
                          np.sin(np.pi * times / 0.4) ** 2).sigma
    d_coupling = plasmonic._perturbation(config, 0.1, 1)
    want = coupling_forcing_steps(config, d_coupling, times, sigma)
    got = plasmonic._coupling_forcing(config, d_coupling, times, sigma)
    assert np.max(np.abs(want)) > 0.0
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("perturb", [False, True])
def test_profile_realization_superposes_the_unit_inputs(perturb):
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     dictionary=np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.5]]),
                     perturb_interaction=perturb)
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    coeffs = np.array([0.7, -0.4, 0.25])
    amap = _calibrate(config, times, profile)
    g, g_c = amap.units, amap.coupling_units
    assert g.shape == (81, 2, 2)
    assert (g_c is None) == (not perturb)
    # the unit inputs are those of the effective coupling, marched directly
    coupling = config.coupling
    if perturb:
        coupling = coupling + plasmonic._perturbation(config, DELTA, 1)
    direct = volterra_solve(config.centers, coupling, KAPPA, times,
                            profile[:, None, None] * np.eye(2)[None])
    assert_allclose(g, direct, rtol=0, atol=1e-14 * np.max(np.abs(direct)))
    g_real, rho, norm = realize_profile(config, times, amap, coeffs)
    full = run_pipeline(config, DELTA, times,
                        profile[:, None] * coeffs[None, :])
    assert_allclose(g_real, full, rtol=0,
                    atol=1e-14 * np.max(np.abs(full)))
    want = np.sqrt(np.sum(np.trapezoid(rho * rho, times, axis=0)))
    assert norm == pytest.approx(want, rel=1e-13)


def test_heat_inputs_scale_by_contrast_over_heat_capacity():
    config = _config(contrasts=np.array([2.0, 3.0]), c_m=4.0)
    times = np.linspace(0.0, 0.2, 21)
    profile = np.ones(21)
    sigma = volterra_solve(config.centers, config.coupling, KAPPA, times,
                           profile[:, None, None] * np.eye(2)[None])
    response = unit_response(config, times, profile)
    assert_allclose(response.sigma, sigma, rtol=1e-14)
    amap = calibrate_k0(config, response, DELTA)
    assert_allclose(amap.units, sigma * np.array([0.5, 0.75])[None, :, None],
                    rtol=1e-14)
    assert amap.coupling_units is None


def test_remainder_vanishes_at_zero_contrast_scale():
    config = _config()
    times = np.linspace(0.0, 0.4, 41)
    profile = np.sin(np.pi * times / 0.4) ** 2
    _, rho, norm = _realize(config, times, profile, np.ones(2), delta=0.0)
    assert norm == 0.0
    assert np.max(np.abs(rho)) == 0.0


def test_remainder_formula_without_interaction():
    """beta = 0 makes the remainder the perturbed-dictionary response."""
    config = _config(coupling=np.zeros((2, 2)), mu=1.0)
    times = np.linspace(0.0, 0.4, 41)
    profile = np.sin(np.pi * times / 0.4) ** 2
    coeffs = np.array([1.0, 0.5])
    _, rho, _ = _realize(config, times, profile, coeffs, delta=0.1)
    gap = plasmonic._perturbation(config, 0.1, 0)
    intensities = profile[:, None] * coeffs[None, :]
    expected = intensities @ gap.T  # contrasts = c_m = 1
    assert_allclose(rho, expected, atol=1e-12)


def test_remainder_scales_like_delta_to_mu():
    times = np.linspace(0.0, 0.4, 41)
    profile = np.sin(np.pi * times / 0.4) ** 2
    deltas = np.array([0.2, 0.1, 0.05, 0.025])
    norms = [_realize(_config(), times, profile, np.ones(2), delta=d)[2]
             for d in deltas]
    design = np.stack([np.log(deltas), np.ones(4)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    assert coef[0] == pytest.approx(1.0, abs=0.1)


def _remainder_per_scale(perturb, deltas):
    """``norm / delta**mu`` of the fixture's remainder at each scale, all
    from one unit response."""
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     dictionary=np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.5]]),
                     perturb_interaction=perturb)
    times = np.linspace(0.0, 0.4, 81)
    response = unit_response(config, times, np.sin(np.pi * times / 0.4) ** 2)
    coeffs = np.array([0.7, -0.4, 0.25])
    return np.array([
        realize_profile(config, times, calibrate_k0(config, response, d),
                        coeffs)[2] / d ** config.mu for d in deltas])


DEEP_DELTAS = 10.0 ** -np.arange(2, 14, 2)     # 1e-2, 1e-4, ..., 1e-12


def test_unperturbed_remainder_is_linear_in_delta_to_mu_down_to_1e_12():
    """Without a coupling perturbation the remainder is ``g @ (dD p)`` with
    ``dD = delta**mu E``: exactly linear, to roundoff, at every scale."""
    scaled = _remainder_per_scale(False, DEEP_DELTAS)
    assert scaled[0] > 1e-3
    assert np.max(np.abs(scaled / scaled[0] - 1.0)) <= 1e-13


def test_perturbed_remainder_has_a_first_order_correction_down_to_1e_12():
    """A perturbed coupling adds a term quadratic in ``delta**mu``, so
    ``norm / delta**mu`` approaches its limit with gaps that shrink with
    every 100x step in delta by 100x, down to delta = 1e-12."""
    gaps = np.abs(np.diff(_remainder_per_scale(True, DEEP_DELTAS)))
    assert gaps[-1] > 0.0
    assert_allclose(gaps[:-1] / gaps[1:], 100.0, rtol=0.01)


def test_unit_response_checks_the_profile_and_is_shared_read_only():
    config = _config()
    times = np.linspace(0.0, 0.4, 41)
    with pytest.raises(ValueError, match="time grid"):
        unit_response(config, times, np.ones(40))
    with pytest.raises(ValueError, match="nonzero"):
        unit_response(config, times, np.zeros(41))
    response = unit_response(config, times, np.sin(np.pi * times / 0.4) ** 2)
    assert not response.units.flags.writeable
    assert not response.sigma.flags.writeable
    for delta in (0.0, 0.1):
        assert calibrate_k0(config, response, delta).units is response.units
    perturbed = calibrate_k0(
        dataclasses.replace(config, perturb_interaction=True), response, 0.1)
    assert perturbed.units is not response.units
    assert perturbed.coupling_units is not None


def test_config_validation():
    with pytest.raises(ValueError):
        _config(centers=np.array([[0.3], [0.3]]))
    with pytest.raises(ValueError):
        _config(contrasts=np.array([1.0]))
    with pytest.raises(ValueError):
        _calibrate(_config(), np.linspace(0.0, 0.4, 41), np.ones(41),
                   delta=-0.1)
    with pytest.raises(RankDeficiencyError):
        _config(dictionary=np.array([[1.0], [1.0]]))  # 1 column, 2 rows
    with pytest.raises(RankDeficiencyError):
        _config(dictionary=np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# calibration and inversion


def test_calibration_without_interaction_recovers_the_dictionary():
    """With beta = 0 and delta = 0 each probe returns a profile multiple."""
    config = _config(coupling=np.zeros((2, 2)),
                     contrasts=np.array([2.0, 1.0]), c_m=4.0,
                     dictionary=np.array([[1.0, 0.3], [0.0, 1.0]]))
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = _calibrate(config, times, profile, delta=0.0)
    expected = config.dictionary * (config.contrasts / config.c_m)[:, None]
    assert_allclose(amap.k0, expected, atol=1e-12)
    assert_allclose(amap.residuals, np.zeros(2), atol=1e-12)
    assert amap.sigma_min > 0.0


def test_calibration_equals_the_per_column_probes():
    """k0 and residuals match P pipeline runs, one per dictionary column."""
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     contrasts=np.array([2.0, 1.0]), c_m=4.0,
                     dictionary=np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.5]]))
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = _calibrate(config, times, profile)
    denom = np.trapezoid(profile * profile, times)
    for col in range(3):
        intensities = np.zeros((81, 3))
        intensities[:, col] = profile
        outputs = run_pipeline(config, DELTA, times, intensities)
        k0 = np.trapezoid(outputs * profile[:, None], times, axis=0) / denom
        tail = outputs - k0[None, :] * profile[:, None]
        residual = np.sqrt(np.sum(np.trapezoid(tail * tail, times, axis=0)))
        assert_allclose(amap.k0[:, col], k0, rtol=1e-13)
        assert amap.residuals[col] == pytest.approx(residual, rel=1e-13)


def test_calibration_with_interaction_leaves_residual_mass():
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)))
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = _calibrate(config, times, profile)
    assert np.all(amap.residuals > 1e-8)


def test_signed_inversion_consistency():
    config = _config()
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = _calibrate(config, times, profile)
    u_des = np.array([0.4, -0.2])
    p, residual = invert_actuation(amap, u_des)
    assert residual <= 1e-9
    assert_allclose(amap.k0 @ p, u_des, atol=1e-9)
    with pytest.raises(ValueError):
        invert_actuation(amap, np.ones(3))
