"""Kernel values, the amplitude march, calibration and nonnegative solves."""

import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from heattrack import plasmonic
from heattrack.errors import NonConvergenceError, RankDeficiencyError
from heattrack.plasmonic import (
    PlasmonicConfig,
    calibrate_k0,
    effective_dictionary,
    free_space_kernel,
    heat_inputs_from_sigma,
    invert_actuation,
    kernel_time_derivative,
    nnls_active_set,
    realize_profile,
    realized_remainder,
    resonance_gain,
    run_pipeline,
    unit_heat_inputs,
    volterra_solve,
)
from heattrack.rng import PURPOSE_TEST, stream

import manufactured as mms

KAPPA = 1.0


def _config(**overrides):
    base = dict(centers=np.array([[0.3], [0.7]]),
                contrasts=np.array([1.0, 1.0]), c_m=1.0, kappa=KAPPA,
                coupling=0.05 * (np.ones((2, 2)) - np.eye(2)),
                dictionary=np.eye(2), delta=0.05, mu=1.0, seed=7)
    base.update(overrides)
    return PlasmonicConfig(**base)


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
    sol = volterra_solve(np.array([[0.4]]), np.zeros((1, 1)), KAPPA, times,
                         forcing)
    assert_allclose(sol.sigma, forcing, atol=1e-14)


def test_zero_coupling_decouples_every_particle():
    times = np.linspace(0.0, 0.5, 33)
    rng = stream(7, PURPOSE_TEST, 3)
    forcing = rng.standard_normal((33, 3))
    centers = np.array([[0.2], [0.5], [0.8]])
    sol = volterra_solve(centers, np.zeros((3, 3)), KAPPA, times, forcing)
    assert_allclose(sol.sigma, forcing, atol=1e-14)


def test_batched_forcing_matches_single_column_marches():
    times = np.linspace(0.0, 0.5, 65)
    centers = np.array([[0.2], [0.5], [0.8]])
    coupling = 0.5 * (np.ones((3, 3)) - np.eye(3))
    forcing = stream(7, PURPOSE_TEST, 5).standard_normal((65, 3, 4))
    batch = volterra_solve(centers, coupling, KAPPA, times, forcing)
    assert batch.sigma.shape == forcing.shape
    for r in range(4):
        single = volterra_solve(centers, coupling, KAPPA, times,
                                forcing[:, :, r])
        assert_allclose(batch.sigma[:, :, r], single.sigma, rtol=0,
                        atol=1e-14 * np.max(np.abs(single.sigma)))
    with pytest.raises(ValueError):
        volterra_solve(centers, coupling, KAPPA, times, forcing[:, :2])


def test_march_ignores_the_memory_layout_of_the_forcing():
    times = np.linspace(0.0, 0.5, 65)
    centers = np.array([[0.2], [0.5], [0.8]])
    coupling = 0.5 * (np.ones((3, 3)) - np.eye(3))
    forcing = stream(7, PURPOSE_TEST, 7).standard_normal((65, 3, 2))
    want = volterra_solve(centers, coupling, KAPPA, times, forcing).sigma
    fortran = np.asfortranarray(forcing)
    assert not fortran.flags.c_contiguous
    got = volterra_solve(centers, coupling, KAPPA, times, fortran).sigma
    assert np.array_equal(got, want)
    columns = np.array([forcing[:, :, 0].T, forcing[:, :, 1].T]).T
    assert not columns.flags.c_contiguous
    got = volterra_solve(centers, coupling, KAPPA, times, columns).sigma
    assert np.array_equal(got, want)


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
                              a * f1 + b * f2).sigma
    parts = (a * volterra_solve(centers, coupling, KAPPA, times, f1).sigma
             + b * volterra_solve(centers, coupling, KAPPA, times, f2).sigma)
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


def test_volterra_march_is_second_order():
    coupling = mms.BETA * (np.ones((2, 2)) - np.eye(2))
    errs = []
    for q in (64, 128, 256):
        times = np.linspace(0.0, mms.HORIZON, q + 1)
        sol = volterra_solve(mms.CENTERS, coupling, mms.KAPPA, times,
                             mms.forcing(times))
        diff = sol.sigma - mms.sigma(times)
        errs.append(float(np.sqrt(np.sum(diff ** 2) * (mms.HORIZON / q))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)


# ---------------------------------------------------------------------------
# dictionary perturbation and the pipeline


def test_effective_dictionary_at_zero_contrast_scale():
    config = _config(delta=0.0)
    assert_allclose(effective_dictionary(config), np.eye(2), rtol=0,
                    atol=0.0)


def test_dictionary_perturbation_scales_as_delta_to_mu():
    for delta, mu in [(0.2, 1.0), (0.1, 1.0), (0.04, 1.5)]:
        config = _config(delta=delta, mu=mu)
        gap = effective_dictionary(config) - np.eye(2)
        assert_allclose(np.linalg.norm(gap, 2), delta ** mu, rtol=1e-12)
    # the perturbation direction is seeded, hence replayable
    a = effective_dictionary(_config(delta=0.1))
    b = effective_dictionary(_config(delta=0.1))
    assert np.array_equal(a, b)
    c = effective_dictionary(_config(delta=0.1, seed=8))
    assert not np.array_equal(a, c)


def test_pipeline_is_linear_in_the_intensities():
    config = _config()
    times = np.linspace(0.0, 0.4, 41)
    rng = stream(7, PURPOSE_TEST, 4)
    p1 = rng.standard_normal((41, 2))
    p2 = rng.standard_normal((41, 2))
    out = run_pipeline(config, times, 2.0 * p1 - 0.5 * p2)
    parts = (2.0 * run_pipeline(config, times, p1)
             - 0.5 * run_pipeline(config, times, p2))
    assert_allclose(out, parts, atol=1e-12)


@pytest.mark.parametrize("perturb", [False, True])
def test_direct_remainder_matches_the_difference_of_pipelines(perturb):
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     perturb_interaction=perturb)
    times = np.linspace(0.0, 0.4, 81)
    intensities = np.stack([np.sin(np.pi * times / 0.4) ** 2,
                            0.5 * np.cos(np.pi * times / 0.4) + 0.5], axis=1)
    rho, norm = realized_remainder(config, times, intensities)
    full = run_pipeline(config, times, intensities)
    leading = run_pipeline(dataclasses.replace(config, delta=0.0), times,
                           intensities)
    # the difference carries roundoff of the outputs, not of the remainder
    tol = 64 * np.finfo(float).eps * np.max(np.abs(full))
    assert np.max(np.abs(rho - (full - leading))) <= tol
    assert norm > 1e-3
    if perturb:   # the coupling term is really there
        plain = dataclasses.replace(config, perturb_interaction=False)
        rho_plain, _ = realized_remainder(plain, times, intensities)
        assert np.max(np.abs(rho - rho_plain)) > 1e3 * tol
    rho0, norm0 = realized_remainder(dataclasses.replace(config, delta=0.0),
                                     times, intensities)
    assert norm0 == 0.0
    assert not np.any(rho0)


@pytest.mark.parametrize("perturb", [False, True])
def test_profile_realization_superposes_the_unit_inputs(perturb):
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)),
                     dictionary=np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.5]]),
                     perturb_interaction=perturb)
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    coeffs = np.array([0.7, -0.4, 0.25])
    units = unit_heat_inputs(config, times, profile)
    assert units.shape == (81, 2, 2)
    g_real, norm = realize_profile(config, times, profile, units, coeffs)
    intensities = profile[:, None] * coeffs[None, :]
    full = run_pipeline(config, times, intensities)
    assert_allclose(g_real, full, rtol=0,
                    atol=1e-14 * np.max(np.abs(full)))
    _, want_norm = realized_remainder(config, times, intensities)
    assert norm == pytest.approx(want_norm, rel=1e-13)


def test_heat_inputs_scale_by_contrast_over_heat_capacity():
    config = _config(contrasts=np.array([2.0, 3.0]), c_m=4.0)
    times = np.linspace(0.0, 0.2, 21)
    forcing = np.ones((21, 2))
    sol = volterra_solve(config.centers, config.coupling, KAPPA, times,
                         forcing)
    inputs = heat_inputs_from_sigma(config, sol)
    assert_allclose(inputs, sol.sigma * np.array([0.5, 0.75])[None, :],
                    rtol=1e-14)


def test_remainder_vanishes_at_zero_contrast_scale():
    config = _config(delta=0.0)
    times = np.linspace(0.0, 0.4, 41)
    intensities = np.sin(np.pi * times / 0.4)[:, None] ** 2 * np.ones((1, 2))
    rho, norm = realized_remainder(config, times, intensities)
    assert norm == 0.0
    assert np.max(np.abs(rho)) == 0.0


def test_remainder_formula_without_interaction():
    """beta = 0 makes the remainder the perturbed-dictionary response."""
    config = _config(coupling=np.zeros((2, 2)), delta=0.1, mu=1.0)
    times = np.linspace(0.0, 0.4, 41)
    intensities = np.stack([np.sin(np.pi * times / 0.4) ** 2,
                            0.5 * np.cos(np.pi * times / 0.4) + 0.5], axis=1)
    rho, _ = realized_remainder(config, times, intensities)
    gap = effective_dictionary(config) - config.dictionary
    expected = intensities @ gap.T  # contrasts = c_m = 1
    assert_allclose(rho, expected, atol=1e-12)


def test_remainder_scales_like_delta_to_mu():
    times = np.linspace(0.0, 0.4, 41)
    intensities = np.sin(np.pi * times / 0.4)[:, None] ** 2 * np.ones((1, 2))
    deltas = np.array([0.2, 0.1, 0.05, 0.025])
    norms = []
    for d in deltas:
        _, n = realized_remainder(_config(delta=d), times, intensities)
        norms.append(n)
    design = np.stack([np.log(deltas), np.ones(4)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
    assert coef[0] == pytest.approx(1.0, abs=0.1)


def test_resonance_gain_scaling_and_domain():
    gain = resonance_gain(0.5, 1.0, 2.0, np.array([1.0, 3.0]), 1.5)
    assert_allclose(gain, 2.0 * 0.5 * np.array([1.0, 3.0]) * 1.5, rtol=1e-14)
    # smaller particles always force less in the admissible shape range
    g1 = resonance_gain(0.2, 1.2, 1.0, np.array([1.0]), 1.0)
    g2 = resonance_gain(0.1, 1.2, 1.0, np.array([1.0]), 1.0)
    assert g2 < g1
    with pytest.raises(ValueError):
        resonance_gain(0.5, 1.5, 1.0, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        resonance_gain(0.0, 1.0, 1.0, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        resonance_gain(1.2, 1.0, 1.0, np.array([1.0]), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(centers=np.array([[0.3], [0.3]]))
    with pytest.raises(ValueError):
        _config(contrasts=np.array([1.0]))
    with pytest.raises(ValueError):
        _config(delta=-0.1)
    with pytest.raises(RankDeficiencyError):
        _config(dictionary=np.array([[1.0], [1.0]]))  # 1 column, 2 rows
    with pytest.raises(RankDeficiencyError):
        _config(dictionary=np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# calibration and inversion


def test_calibration_without_interaction_recovers_the_dictionary():
    """With beta = 0 and delta = 0 each probe returns a profile multiple."""
    config = _config(coupling=np.zeros((2, 2)), delta=0.0,
                     contrasts=np.array([2.0, 1.0]), c_m=4.0,
                     dictionary=np.array([[1.0, 0.3], [0.0, 1.0]]))
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = calibrate_k0(config, times, profile)
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
    amap = calibrate_k0(config, times, profile)
    denom = np.trapezoid(profile * profile, times)
    for col in range(3):
        intensities = np.zeros((81, 3))
        intensities[:, col] = profile
        outputs = run_pipeline(config, times, intensities)
        k0 = np.trapezoid(outputs * profile[:, None], times, axis=0) / denom
        tail = outputs - k0[None, :] * profile[:, None]
        residual = np.sqrt(np.sum(np.trapezoid(tail * tail, times, axis=0)))
        assert_allclose(amap.k0[:, col], k0, rtol=1e-13)
        assert amap.residuals[col] == pytest.approx(residual, rel=1e-13)
    units = unit_heat_inputs(config, times, profile)
    again = calibrate_k0(config, times, profile, units)
    assert np.array_equal(again.k0, amap.k0)


def test_calibration_with_interaction_leaves_residual_mass():
    config = _config(coupling=0.5 * (np.ones((2, 2)) - np.eye(2)))
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = calibrate_k0(config, times, profile)
    assert np.all(amap.residuals > 1e-8)


def test_signed_inversion_consistency():
    config = _config()
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = calibrate_k0(config, times, profile)
    u_des = np.array([0.4, -0.2])
    p, residual = invert_actuation(amap, u_des)
    assert residual <= 1e-9
    assert_allclose(amap.k0 @ p, u_des, atol=1e-9)
    with pytest.raises(ValueError):
        invert_actuation(amap, np.ones(3))


def test_nonnegative_inversion_route():
    config = _config()
    times = np.linspace(0.0, 0.4, 81)
    profile = np.sin(np.pi * times / 0.4) ** 2
    amap = calibrate_k0(config, times, profile)
    p, residual = invert_actuation(amap, np.array([0.4, 0.2]),
                                   nonnegative=True)
    assert np.all(p >= 0.0)
    ref, ref_res = scipy.optimize.nnls(amap.k0, np.array([0.4, 0.2]))
    assert_allclose(p, ref, atol=1e-10)
    assert residual == pytest.approx(ref_res, abs=1e-10)


# ---------------------------------------------------------------------------
# nonnegative least squares


def test_nnls_matches_scipy_on_random_problems():
    worst_x = worst_r = 0.0
    for trial in range(30):
        rng = stream(7, PURPOSE_TEST, 100 + trial)
        a = rng.standard_normal((12, 7))
        b = rng.standard_normal(12)
        x_ours, r_ours = nnls_active_set(a, b)
        x_ref, r_ref = scipy.optimize.nnls(a, b)
        worst_x = max(worst_x, float(np.max(np.abs(x_ours - x_ref))))
        worst_r = max(worst_r, abs(r_ours - r_ref))
    assert worst_x < 1e-8
    assert worst_r < 1e-10


def test_nnls_first_order_optimality():
    """Gradient must vanish on active coordinates and push out elsewhere."""
    rng = stream(7, PURPOSE_TEST, 200)
    a = rng.standard_normal((15, 8))
    b = rng.standard_normal(15)
    x, _ = nnls_active_set(a, b)
    grad = a.T @ (a @ x - b)  # gradient of 0.5|ax-b|^2
    scale = np.linalg.norm(a, 2) * np.linalg.norm(b)
    for i in range(8):
        if x[i] > 0:
            assert abs(grad[i]) <= 1e-10 * scale
        else:
            assert grad[i] >= -1e-10 * scale
    assert np.all(x >= 0.0)


def test_nnls_exact_on_nonnegative_consistent_systems():
    rng = stream(7, PURPOSE_TEST, 201)
    a = np.abs(rng.standard_normal((10, 4))) + 0.1
    x_true = np.array([0.5, 0.0, 2.0, 0.0])
    x, residual = nnls_active_set(a, a @ x_true)
    assert_allclose(x, x_true, atol=1e-10)
    assert residual < 1e-10


def test_nnls_iteration_cap_carries_the_best_iterate():
    rng = stream(7, PURPOSE_TEST, 202)
    a = rng.standard_normal((12, 6))
    b = rng.standard_normal(12)
    with pytest.raises(NonConvergenceError) as err:
        nnls_active_set(a, b, max_iter=0)
    assert err.value.best is not None
    assert err.value.best.shape == (6,)


def test_nnls_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nnls_active_set(np.ones((3, 2)), np.ones(4))
