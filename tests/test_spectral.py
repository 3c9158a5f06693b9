"""Mode enumeration, norms, projection and the exact forced march."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import solve_ivp

from heattrack.control import assemble_closed_loop, simulate_closed_loop
from heattrack.placement import ActuatorSet, sampling_matrix
from heattrack.rng import stream
from heattrack.spectral import (
    DomainSpec,
    as_points,
    enumerate_modes,
    eval_modes,
    line_fit,
    march_forced,
    phi1,
    phi2,
)

from quadrature import gauss_legendre_grid
from stepping import semigroup_apply, step_march
from streams import PURPOSE_TEST


# ---------------------------------------------------------------------------
# enumeration


def test_interval_eigenvalues_follow_the_cosine_formula():
    domain = DomainSpec.interval(1.7, kappa=2.3)
    table = enumerate_modes(domain, 8)
    expected = 2.3 * (np.arange(8) * np.pi / 1.7) ** 2
    assert_allclose(table.eigenvalues, expected, rtol=0, atol=1e-12)
    assert table.eigenvalues[0] == 0.0
    assert np.all(np.diff(table.eigenvalues) > 0)


def test_unit_interval_eigenvalues_spot_values():
    table = enumerate_modes(DomainSpec.interval(1.0), 4)
    assert_allclose(table.eigenvalues,
                    [0.0, np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2],
                    rtol=1e-15)


def test_unit_box_tie_break_orders_axes_first():
    # the three first excited modes are degenerate; the agreed order is
    # (1,0,0), (0,1,0), (0,0,1) after the constant mode
    table = enumerate_modes(DomainSpec.box((1.0, 1.0, 1.0)), 4)
    assert table.indices.tolist() == [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert_allclose(table.eigenvalues, [0.0] + [np.pi ** 2] * 3, rtol=1e-15)


def test_box_enumeration_matches_brute_force():
    domain = DomainSpec.box((1.0, 1.3, 0.8), kappa=0.7)
    table = enumerate_modes(domain, 25)
    # recompute eigenvalues from the returned indices and verify the sort
    recomputed = 0.7 * np.sum(
        (table.indices * np.pi / np.array([1.0, 1.3, 0.8])) ** 2, axis=1)
    assert_allclose(table.eigenvalues, recomputed, rtol=1e-14)
    assert np.all(np.diff(table.eigenvalues) >= -1e-12)
    # brute force over a generous index cube: the K smallest must agree
    grid = np.stack(np.meshgrid(*(np.arange(9),) * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    lam = 0.7 * np.sum((grid * np.pi / np.array([1.0, 1.3, 0.8])) ** 2, axis=1)
    assert_allclose(table.eigenvalues, np.sort(lam)[:25], rtol=1e-12)


def test_mode_table_size_and_matches(table32):
    assert table32.size == 32


def test_enumerate_modes_rejects_bad_count(unit_interval):
    with pytest.raises(ValueError):
        enumerate_modes(unit_interval, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_domain_rejects_nonpositive_or_nonfinite_sizes(bad):
    with pytest.raises(ValueError, match="kappa"):
        DomainSpec.interval(1.0, kappa=bad)
    with pytest.raises(ValueError, match="lengths"):
        DomainSpec.box((1.0, bad, 1.0))


@pytest.mark.parametrize("lengths,count", [
    ((1.0, 1.0, 1.0), 60), ((1.0, 0.8, 0.6), 128), ((1.0, 0.1, 0.1), 32),
    ((1.0, 0.01, 0.01), 32), ((2.0, 1.0, 1.0), 100)])
def test_enumeration_orders_by_eigenvalue_then_reversed_index(lengths, count):
    # elongated boxes need two to four doublings of the starting cube
    table = enumerate_modes(DomainSpec.box(lengths), count)
    keys = [(lam, tuple(idx[::-1]))
            for lam, idx in zip(table.eigenvalues, table.indices)]
    assert keys == sorted(keys)
    # nothing left out lies below the largest eigenvalue kept
    side = int(np.max(table.indices)) + 2
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    kept = {tuple(idx) for idx in table.indices}
    rest = [idx for idx in grid if tuple(idx) not in kept]
    lam_rest = np.sum((np.asarray(rest) * np.pi / np.asarray(lengths)) ** 2,
                      axis=1)
    assert np.min(lam_rest) >= table.eigenvalues[-1]


@pytest.mark.parametrize("domain", [DomainSpec.interval(1e-160),
                                    DomainSpec.box((1e-160,) * 3)])
def test_enumeration_stops_when_eigenvalues_overflow(domain):
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="overflow"):
        enumerate_modes(domain, 8)


# ---------------------------------------------------------------------------
# quadrature and projection


@pytest.mark.parametrize("domain,order,k", [
    (DomainSpec.interval(1.0), 48, 16),
    (DomainSpec.interval(2.5, kappa=0.3), 48, 12),
    (DomainSpec.box((1.0, 1.0, 1.0)), 16, 20),
])
def test_quadrature_orthonormality(domain, order, k):
    table = enumerate_modes(domain, k)
    pts, w = gauss_legendre_grid(domain, order)
    p = eval_modes(table, pts)
    gram = p.T @ (w[:, None] * p)
    assert_allclose(gram, np.eye(k), atol=1e-10)


def _project(f, table, quad_order):
    """L2 projection of f onto the table's modes by Gauss quadrature."""
    pts, w = gauss_legendre_grid(table.domain, quad_order)
    return eval_modes(table, pts).T @ (w * f(pts))


def test_project_linear_profile_matches_hand_integrals():
    """f(x) = x on [0,1] has a cosine series computable in closed form."""
    table = enumerate_modes(DomainSpec.interval(1.0), 8)
    coeffs = _project(lambda p: p[:, 0], table, quad_order=64)
    expected = np.zeros(8)
    expected[0] = 0.5  # <x, 1> on [0,1]
    for k in range(1, 8):
        n = k
        expected[k] = np.sqrt(2.0) * ((-1.0) ** n - 1.0) / (n * np.pi) ** 2
    assert_allclose(coeffs, expected, atol=1e-13)


def test_projection_roundtrip_recovers_band_limited_fields(table32):
    rng = np.random.default_rng(5)
    coeffs = np.zeros(32)
    coeffs[:10] = rng.standard_normal(10)
    back = _project(lambda p: eval_modes(table32, p) @ coeffs, table32,
                    quad_order=64)
    assert_allclose(back, coeffs, atol=1e-12)


def test_gauss_grid_integrates_the_constant(unit_interval):
    pts, w = gauss_legendre_grid(unit_interval, 8)
    assert_allclose(np.sum(w), 1.0, rtol=1e-14)
    box = DomainSpec.box((1.0, 2.0, 0.5))
    _, w3 = gauss_legendre_grid(box, 6)
    assert_allclose(np.sum(w3), 1.0 * 2.0 * 0.5, rtol=1e-14)


# ---------------------------------------------------------------------------
# norms: the H and Vdual sizes that a trajectory record reports


def _free_record(table, coeffs):
    """Norm samples of the uncontrolled, unforced flow from ``coeffs``."""
    acts = ActuatorSet(table.domain, [[0.3]])
    system = assemble_closed_loop(sampling_matrix(acts, table, 1), 0.0,
                                  np.zeros(1))
    return simulate_closed_loop(system, coeffs, 0.01, 0.01)


def test_norm_values_single_mode(table32):
    coeffs = np.zeros(32)
    coeffs[5] = -3.0
    lam = table32.eigenvalues[5]
    record = _free_record(table32, coeffs)
    assert_allclose(record.norms_h[0], 3.0, rtol=1e-15)
    assert_allclose(record.norms_vdual[0], 3.0 / (1.0 + lam), rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                max_size=12))
def test_norm_ordering_holds_for_any_coefficients(vals):
    table = enumerate_modes(DomainSpec.interval(1.0), 12)
    coeffs = np.zeros(12)
    coeffs[:len(vals)] = vals
    record = _free_record(table, coeffs)
    # resolvent weight <= 1 on every mode
    assert np.all(record.norms_vdual <= record.norms_h * (1.0 + 1e-9))


def test_as_points_coercion_rules():
    assert as_points([0.2, 0.7], 1).shape == (2, 1)
    assert as_points([0.2, 0.7, 0.4], 3).shape == (1, 3)
    assert as_points([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], 3).shape == (2, 3)
    with pytest.raises(ValueError):
        as_points([[0.1, 0.2]], 3)


# ---------------------------------------------------------------------------
# step propagators


def _phi1_reference(lam, dt):
    lam = np.asarray(lam, dtype=float)
    x = lam * dt
    out = np.empty_like(x)
    for i, xi in np.ndenumerate(x):
        if xi < 1e-4:
            # independent Taylor expansion, one more term than the code
            out[i] = dt * (1 - xi / 2 + xi ** 2 / 6 - xi ** 3 / 24)
        else:
            out[i] = -np.expm1(-xi) / lam[i]
    return out


def _phi2_reference(lam, dt):
    lam = np.asarray(lam, dtype=float)
    x = lam * dt
    out = np.empty_like(x)
    for i, xi in np.ndenumerate(x):
        if xi < 1e-2:
            out[i] = dt * (0.5 - xi / 6 + xi ** 2 / 24 - xi ** 3 / 120
                           + xi ** 4 / 720)
        else:
            out[i] = dt * (np.exp(-xi) - 1.0 + xi) / xi ** 2
    return out


def test_phi_functions_across_both_branches():
    # the branch thresholds cap the worst cancellation at ~2e-10 relative,
    # so 1e-9 is the honest accuracy contract across the whole range
    dt = 0.37
    lam = np.array([0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 40.0, 400.0])
    assert_allclose(phi1(lam, dt), _phi1_reference(lam, dt), rtol=1e-9)
    assert_allclose(phi2(lam, dt), _phi2_reference(lam, dt), rtol=1e-9)
    # limits at lam = 0 are exact
    assert phi1(np.array([0.0]), dt)[0] == dt
    assert phi2(np.array([0.0]), dt)[0] == dt / 2


def test_forced_step_matches_ode_oracle(unit_interval):
    """Held-input step against a tight adaptive integration of a' = -la+b:
    two equal samples interpolate to the held input."""
    table = enumerate_modes(unit_interval, 8)
    actuators = np.array([[0.3], [0.8]])
    u = np.array([1.3, -0.7])
    b = eval_modes(table, actuators).T @ u
    lam = table.eigenvalues
    z0 = np.arange(1.0, 9.0) / 10.0
    sol = solve_ivp(lambda s, y: -lam * y + b, (0.0, 0.05), z0,
                    rtol=1e-12, atol=1e-14)
    stepped = march_forced(table, eval_modes(table, actuators), z0,
                           np.stack([u, u]), 0.05)
    assert_allclose(stepped[0], z0, rtol=0, atol=0)
    assert_allclose(stepped[1], sol.y[:, -1], atol=1e-12)


def test_linear_input_step_matches_ode_oracle(unit_interval):
    table = enumerate_modes(unit_interval, 8)
    actuators = np.array([[0.3], [0.8]])
    u0 = np.array([1.3, -0.7])
    u1 = np.array([0.4, 1.1])
    b0 = eval_modes(table, actuators).T @ u0
    b1 = eval_modes(table, actuators).T @ u1
    lam = table.eigenvalues
    z0 = np.arange(1.0, 9.0) / 10.0
    sol = solve_ivp(lambda s, y: -lam * y + b0 + (b1 - b0) * (s / 0.05),
                    (0.0, 0.05), z0, rtol=1e-12, atol=1e-14)
    stepped = march_forced(table, eval_modes(table, actuators), z0,
                           np.stack([u0, u1]), 0.05)
    assert_allclose(stepped[1], sol.y[:, -1], atol=1e-12)


def test_zero_input_step_is_the_semigroup(table32):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(32)
    stepped = march_forced(table32, eval_modes(table32, [[0.5]]), z,
                           np.zeros((6, 1)), 0.02)
    # rows 0 and 1 are z and exp(-lam*dt)*z, formed as semigroup_apply
    # forms them
    for q in (0, 1):
        assert_array_equal(stepped[q], semigroup_apply(table32, z, 0.02 * q))
    # later rows are powers of exp(-lam*dt), not exp(-lam*q*dt): exp
    # carries ~ulp(lam*t) relative error, and lam*t reaches about 950
    # on the last step of the stiffest mode
    for q in range(2, 6):
        assert_allclose(stepped[q], semigroup_apply(table32, z, 0.02 * q),
                        rtol=1e-12)


_MARCH_CASES = {
    "interval-8": (DomainSpec.interval(1.0), 8, [[0.3], [0.8]]),
    "interval-32": (DomainSpec.interval(1.0), 32,
                    [[0.125], [0.375], [0.625], [0.875]]),
    "box3-128": (DomainSpec.box((1.0, 0.8, 0.6)), 128,
                 [[0.5, 0.4, 0.3], [0.2, 0.7, 0.1]]),
}


# "linear" inputs draw every sample and are checked against the step loop.
# "constant" ones hold the first sample over the grid, on which every slope
# term is zero; they are checked against the closed form
# exp(-lam t) y0 + phi1(lam, t) b, because the step loop's running sum of
# the forced mean drifts by about one rounding per step (1.4e-13 of the
# column maximum after 4000 steps).
@pytest.mark.parametrize("inputs", ["linear", "constant"])
@pytest.mark.parametrize("samples", [2, 6, 501, 4001])
@pytest.mark.parametrize("case", sorted(_MARCH_CASES))
def test_march_matches_the_step_loop(case, samples, inputs):
    domain, count, points = _MARCH_CASES[case]
    table = enumerate_modes(domain, count)
    points = np.asarray(points)
    rng = stream(7, PURPOSE_TEST, 400 + samples)
    y0 = rng.standard_normal(count)
    u = rng.standard_normal((samples, points.shape[0]))
    dt = 0.5 / (samples - 1)
    if inputs == "linear":
        want = step_march(table, points, y0, u, dt)
    else:
        u[1:] = u[0]
        lam = table.eigenvalues
        b = u[0] @ eval_modes(table, points)
        want = np.stack([semigroup_apply(table, y0, q * dt)
                         + phi1(lam, q * dt) * b for q in range(samples)])
    got = march_forced(table, eval_modes(table, points), y0, u, dt)
    assert got.shape == want.shape
    column_max = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * column_max)


# Subnormal coefficients are left out: their products underflow, so the
# march of a*y1 + b*y2 is then off by about 6e-12 of the scale (seen at
# b = 2.2e-313), while the smallest normal b stays within 1e-15 of it.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), st.floats(-4.0, 4.0, allow_subnormal=False),
       st.floats(-4.0, 4.0, allow_subnormal=False),
       st.integers(1, 70))
def test_march_is_linear_in_the_state_and_the_inputs(seed, a, b, samples):
    table = enumerate_modes(DomainSpec.interval(1.0), 16)
    values = eval_modes(table, [[0.2], [0.45], [0.8]])
    rng = stream(seed, PURPOSE_TEST, 8)
    y1, y2 = rng.standard_normal((2, 16))
    u1, u2 = rng.standard_normal((2, samples, 3))
    dt = 0.01

    def march(y0, inputs):
        return march_forced(table, values, y0, inputs, dt)

    one, two = march(y1, u1), march(y2, u2)
    combined = march(a * y1 + b * y2, a * u1 + b * u2)
    scale = (abs(a) + abs(b)) * max(np.max(np.abs(one)),
                                    np.max(np.abs(two)), 1.0)
    assert_allclose(combined, a * one + b * two, rtol=0, atol=1e-13 * scale)


def test_semigroup_is_a_flow(table32):
    rng = np.random.default_rng(4)
    z = rng.standard_normal(32)
    once = semigroup_apply(table32, z, 0.07)
    twice = semigroup_apply(table32, semigroup_apply(table32, z, 0.03), 0.04)
    # rounding of lam*t in the exponent costs ~ulp(lam*t) relative accuracy
    assert_allclose(once, twice, rtol=1e-11)
    with pytest.raises(ValueError):
        semigroup_apply(table32, z, -0.1)


def test_step_rejects_bad_arguments(table32):
    values = eval_modes(table32, [[0.5]])
    y0 = np.zeros(32)
    for dt in (0.0, -0.01, np.nan):
        with pytest.raises(ValueError, match="dt"):
            march_forced(table32, values, y0, np.ones((3, 1)), dt)
    with pytest.raises(ValueError, match="one column per actuator"):
        march_forced(table32, values, y0, np.ones((3, 2)), 0.01)
    with pytest.raises(ValueError, match="one column per actuator"):
        march_forced(table32, values, y0, np.ones(3), 0.01)
    with pytest.raises(ValueError, match="table size"):
        march_forced(table32, values, np.zeros(31), np.ones((3, 1)), 0.01)
    # mode values over another table, or of points rather than modes
    for bad in (values[:, :31], values[0], np.array([[0.5]])):
        with pytest.raises(ValueError, match="one column per mode"):
            march_forced(table32, bad, y0, np.ones((3, 1)), 0.01)


# ---------------------------------------------------------------------------
# line fit


def test_line_fit_recovers_a_planted_line():
    x = np.linspace(-2.0, 3.0, 11)
    slope, intercept, rms, r_squared = line_fit(x, 1.75 * x - 0.4)
    assert_allclose([slope, intercept], [1.75, -0.4], rtol=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-14)
    assert r_squared == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("value", [0.1, 0.3, -2.7, np.log(7.0)])
@pytest.mark.parametrize("count", [3, 7, 13])
def test_line_fit_of_a_constant_is_exact(value, count):
    # np.mean of these samples is off by an ulp, so their spread about the
    # mean is roundoff that no line explains
    slope, intercept, rms, r_squared = line_fit(np.arange(count, dtype=float),
                                                np.full(count, value))
    assert slope == pytest.approx(0.0, abs=1e-15)
    assert intercept == pytest.approx(value, rel=1e-14)
    assert rms == pytest.approx(0.0, abs=1e-15)
    assert r_squared == 1.0
