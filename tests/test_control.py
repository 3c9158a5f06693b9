"""Closed-loop assembly, decay fits, bias fixed points and tail bounds."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from heattrack import control
from heattrack.control import (
    ClosedLoopSystem,
    TrajectoryRecord,
    assemble_bias_matrix,
    assemble_closed_loop,
    contraction_diagnostics,
    cross_integrator_check,
    decay_rate_fit,
    doubling_gain_search,
    equilibrium,
    fixed_point_reference,
    simulate_closed_loop,
    tail_mismatch_report,
    time_grid,
)
from heattrack.errors import InsufficientSignalError, NonConvergenceError
from heattrack.placement import (ActuatorSet, dct_grid_box,
                                  dct_nodes_interval, sampling_matrix)
from heattrack.spectral import (DomainSpec, enumerate_modes, eval_modes,
                                march_forced)

from blocks import bias_matrix_lu, contraction_bounds
from stepping import expm_march, fitted_slowest_decay

GAIN = 8.0
REFERENCE = np.array([0.3, 0.2, -0.1, 0.1])


def _skewed_matrices(length, points, n_modes=4, k=32):
    domain = DomainSpec.interval(length)
    table = enumerate_modes(domain, k)
    acts = ActuatorSet(domain, np.asarray(points)[:, None])
    return sampling_matrix(acts, table, n_modes)


def _with_feedforward(mats, gain, reference, u_ff):
    """The loop on ``reference`` driven by an arbitrary constant input
    ``u_ff``, whose controlled-mode forcing need not cancel."""
    ref_full = np.zeros(mats.table.size)
    ref_full[:mats.n_modes] = reference
    forcing = -mats.table.eigenvalues * ref_full + mats.values.T @ u_ff
    return ClosedLoopSystem(mats, float(gain), ref_full, u_ff,
                            control._generator(mats, gain), forcing)


def _bias(mats, gain):
    """The bias matrix of the loop at ``gain``; it does not depend on the
    loop's reference."""
    return assemble_bias_matrix(
        assemble_closed_loop(mats, gain, np.zeros(mats.n_modes)))


def _box3_matrices():
    """128 modes of a 1 x 0.8 x 0.6 box, 8 actuators on the cosine grid."""
    domain = DomainSpec.box([1.0, 0.8, 0.6])
    table = enumerate_modes(domain, 128)
    return sampling_matrix(dct_grid_box((1, 1, 1), domain), table, 4)


# ---------------------------------------------------------------------------
# observation


def test_observe_is_the_resolvent_smoothed_point_value(matrices4, table32):
    """The loop feeds back the pointwise value of the resolvent-smoothed
    error field: u = u_ff - gain * (z / (1 + lambda))(x_j)."""
    rng = np.random.default_rng(2)
    system = assemble_closed_loop(matrices4, GAIN, REFERENCE)
    z0 = rng.standard_normal(32)
    record = simulate_closed_loop(system, z0, 0.01, 0.002)
    smoothed = record.states / (1.0 + table32.eigenvalues)
    direct = smoothed @ eval_modes(table32, matrices4.actuators.points).T
    assert_allclose(record.inputs, system.u_ff - GAIN * direct, rtol=1e-12,
                    atol=1e-12 * np.max(np.abs(record.inputs)))
    other = np.zeros(16)  # a 16-mode state
    with pytest.raises(ValueError):
        simulate_closed_loop(system, other, 0.01, 0.002)


# ---------------------------------------------------------------------------
# assembly and simulation


def test_scalar_loop_decays_at_exactly_the_gain():
    """K = N = M = 1: the generator is the scalar -gain/L."""
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 1)
    acts = ActuatorSet(domain, [[0.4]])
    mats = sampling_matrix(acts, table, 1)
    system = assemble_closed_loop(mats, 3.0, np.zeros(1))
    assert_allclose(system.a_cl, [[-3.0]], rtol=1e-14)
    record = simulate_closed_loop(system, np.ones(1), 1.0, 0.01)
    mu_hat, residual = decay_rate_fit(record)
    assert_allclose(mu_hat, 3.0, rtol=1e-10)
    assert residual < 1e-10


def test_closed_loop_generator_shape_and_forcing_cancellation(matrices4):
    system = assemble_closed_loop(matrices4, GAIN, REFERENCE)
    assert system.a_cl.shape == (32, 32)
    # the controlled-mode forcing must vanish once the feedforward is added
    assert np.max(np.abs(system.forcing[:4])) < 1e-10
    with pytest.raises(ValueError):
        assemble_closed_loop(matrices4, -1.0, REFERENCE)


def test_equilibrium_solves_the_generator(matrices4):
    system = assemble_closed_loop(matrices4, GAIN, REFERENCE)
    z_inf = equilibrium(system)
    assert_allclose(system.a_cl @ z_inf, -system.forcing, atol=1e-10)


def test_simulation_grid_validation(matrices4, table32):
    system = assemble_closed_loop(matrices4, GAIN, REFERENCE)
    z0 = np.zeros(32)
    with pytest.raises(ValueError):
        simulate_closed_loop(system, z0, 1.0, -0.1)
    with pytest.raises(ValueError):
        simulate_closed_loop(system, z0, 1.0, 0.3)  # not a whole step count


def test_time_grid_accepts_only_whole_step_counts():
    assert_array_equal(time_grid(1.0, 0.002), np.arange(501) * 0.002)
    assert_array_equal(time_grid(0.5, 0.5), [0.0, 0.5])
    # 3 * 0.1 misses 0.3 by one ulp, within the 1e-9 tolerance
    assert_array_equal(time_grid(0.3, 0.1), np.arange(4) * 0.1)
    for horizon, dt in [(1.0, 0.003), (1.0, 0.0), (0.0, 0.1), (1.0, 2.0),
                        (float("nan"), 0.1), (1.0, float("nan"))]:
        with pytest.raises(ValueError):
            time_grid(horizon, dt)


def test_decay_fit_recovers_a_synthetic_rate():
    times = np.linspace(0.0, 2.0, 101)
    norms = 3.0 * np.exp(-2.0 * times)
    record = TrajectoryRecord(times, None, None, norms, norms, None)
    mu_hat, residual = decay_rate_fit(record)
    assert_allclose(mu_hat, 2.0, rtol=1e-12)
    assert residual < 1e-12


def test_decay_fit_needs_enough_signal():
    times = np.linspace(0.0, 1.0, 11)
    norms = np.full(11, 1e-15)
    record = TrajectoryRecord(times, None, None, norms, norms, None)
    with pytest.raises(InsufficientSignalError):
        decay_rate_fit(record)


@pytest.mark.parametrize("geometry", ["interval", "box3"])
def test_generator_is_self_adjoint_in_the_resolvent_frame(matrices4,
                                                          geometry):
    """W^(1/2) a_cl W^(-1/2) is symmetric, W = diag(1/(1 + lambda))."""
    mats = matrices4 if geometry == "interval" else _box3_matrices()
    system = assemble_closed_loop(mats, GAIN, REFERENCE)
    root_w = 1.0 / np.sqrt(1.0 + mats.table.eigenvalues)
    s = root_w[:, None] * system.a_cl / root_w[None, :]
    assert np.max(np.abs(s - s.T)) <= 1e-14 * np.max(np.abs(s))


@pytest.mark.parametrize("geometry,gain", [
    ("interval", GAIN), ("box3", GAIN), ("interval", 0.0)])
def test_eigen_solution_matches_the_expm_step_march(matrices4, geometry,
                                                    gain):
    """The loop-free closed form agrees with a dense matrix-exponential
    march; at zero gain the generator is singular (mu = 0) and the
    constant mode grows linearly under its forcing."""
    mats = matrices4 if geometry == "interval" else _box3_matrices()
    rng = np.random.default_rng(11)
    k, m = mats.table.size, mats.actuators.count
    system = _with_feedforward(mats, gain, REFERENCE, rng.standard_normal(m))
    z0 = rng.standard_normal(k)
    record = simulate_closed_loop(system, z0, 1.0, 0.002)
    oracle = expm_march(system.a_cl, system.forcing, z0, 0.002, 500)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(record.states - oracle)) <= 1e-12 * scale
    assert (record.z_inf is None) == (gain == 0.0)


@settings(max_examples=25, deadline=None)
@given(gain=st.one_of(st.just(0.0), st.floats(0.0, 64.0)),
       points=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4,
                       unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
# a subnormal gain gives a subnormal mu whose mu * t underflows to zero
@example(gain=5e-324, points=[0.5], seed=0)
# a nearly singular loop, whose states z_inf + offset would cancel
@example(gain=1e-9, points=[0.5], seed=0)
def test_open_loop_replay_of_the_recorded_inputs_tracks_the_loop(gain, points,
                                                                  seed):
    """The replay of the linearly interpolated inputs deviates from the
    loop by at most its interpolation error.  The replay error e obeys
    e' = -Lambda e + E (u_lin - u), and the open flow is an H contraction,
    so ||e(T)|| <= ||E|| * T * max ||u_lin - u||, and linear interpolation
    misses u by at most dt^2 / 8 * max ||u''||.  With u = u_ff - gain *
    E^T W z, u'' = -gain * E^T W z'', and z'' obeys the homogeneous loop,
    a W-frame contraction, so ||u''|| <= gain * ||W^(1/2) E|| *
    ||z''(0)||_W with z''(0) = a_cl (a_cl z0 + forcing)."""
    table = enumerate_modes(DomainSpec.interval(1.0), 12)
    acts = ActuatorSet(table.domain, np.asarray(points)[:, None])
    mats = sampling_matrix(acts, table, len(points))
    rng = np.random.default_rng(seed)
    system = _with_feedforward(mats, gain, rng.standard_normal(len(points)),
                               rng.standard_normal(len(points)))
    z0 = rng.standard_normal(table.size)
    steps, dt = 100, 1e-7
    record = simulate_closed_loop(system, z0, steps * dt, dt)
    ref = system.reference
    replay = march_forced(table, mats.values, ref + z0, record.inputs, dt)
    dev = np.max(np.linalg.norm(replay - (ref + record.states), axis=1))

    root_w = 1.0 / np.sqrt(1.0 + table.eigenvalues)
    e_mat = eval_modes(table, acts.points).T
    curve0 = np.linalg.norm(
        root_w * (system.a_cl @ (system.a_cl @ z0 + system.forcing)))
    bound = (np.linalg.norm(e_mat, 2) * gain
             * np.linalg.norm(root_w[:, None] * e_mat, 2)
             * steps * dt ** 3 / 8.0 * curve0)
    scale = np.max(np.linalg.norm(ref + record.states, axis=1))
    assert dev <= bound + 1e-12 * scale


def test_closed_loop_spectrum_is_real_with_dct_nodes(matrices4):
    # E D is similar to a symmetric matrix here, so no oscillatory modes
    system = assemble_closed_loop(matrices4, GAIN, np.zeros(4))
    eigvals = np.linalg.eigvals(system.a_cl)
    assert np.max(np.abs(eigvals.imag)) < 1e-8
    assert np.max(eigvals.real) < 0.0


# ---------------------------------------------------------------------------
# bias matrix and fixed point


def test_bias_columns_match_per_reference_equilibria(matrices4):
    # column k = stationary low-mode error when tracking eigenfunction k,
    # so the reached low modes equal (I + T) a for any reference a
    bias = _bias(matrices4, GAIN)
    for k in range(4):
        unit = np.zeros(4)
        unit[k] = 1.0
        system = assemble_closed_loop(matrices4, GAIN, unit)
        z_inf = equilibrium(system)
        assert_allclose(bias.matrix[:, k], z_inf[:4], atol=1e-12)
    assert bias.norm == pytest.approx(np.linalg.norm(bias.matrix, 2))


def _assert_inverse_blocks_match_the_oracles(mats, gain):
    """T_N, bound_a and bound_c from the loop spectrum agree with the LU
    solve and the explicit Schur blocks to 1e-10 relative."""
    system = assemble_closed_loop(mats, gain, np.zeros(mats.n_modes))
    t_mat = assemble_bias_matrix(system).matrix
    want = bias_matrix_lu(mats, gain)
    assert np.max(np.abs(t_mat - want)) <= 1e-10 * np.max(np.abs(want))
    diag = contraction_diagnostics(system)
    bound_a, bound_c = contraction_bounds(mats, gain)
    assert diag.bound_a == pytest.approx(bound_a, rel=1e-10, abs=0.0)
    assert diag.bound_c == pytest.approx(bound_c, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("geometry", ["interval", "box3"])
def test_spectral_inverse_blocks_match_the_dense_oracles(matrices4,
                                                         geometry):
    """Rows of a_cl^-1, not columns: a_cl is self-adjoint in the W frame
    only, and its first columns would move bound_c many times over."""
    mats = matrices4 if geometry == "interval" else _box3_matrices()
    _assert_inverse_blocks_match_the_oracles(mats, GAIN)


@settings(max_examples=25, deadline=None)
@given(gain=st.floats(0.5, 64.0),
       points=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6,
                       unique=True),
       n_modes=st.integers(1, 4))
def test_spectral_inverse_blocks_match_the_oracles_on_drawn_loops(
        gain, points, n_modes):
    assume(n_modes <= len(points))
    mats = _skewed_matrices(1.0, points, n_modes, k=16)
    assume(mats.sigma_min > 1e-3)
    _assert_inverse_blocks_match_the_oracles(mats, gain)


def test_dct_placement_keeps_the_bias_tiny(matrices4):
    assert _bias(matrices4, GAIN).norm < 1e-3


def test_fixed_point_direct_solve(matrices4):
    bias = _bias(matrices4, GAIN)
    res = fixed_point_reference(bias, REFERENCE)
    assert not res.used_picard
    expected = np.linalg.solve(np.eye(4) + bias.matrix, REFERENCE)
    assert_allclose(res.a_star, expected, rtol=1e-12)


def test_picard_contracts_at_the_operator_norm_rate():
    """Skewed actuators on a long interval leave a measurable contraction."""
    mats = _skewed_matrices(4.0, [0.2, 0.5, 0.9, 1.4])
    bias = _bias(mats, 4.0)
    assert 0.4 < bias.norm < 0.7  # measured 0.5367
    a_target = np.array([0.3, -0.2, 0.15, 0.1])
    res = fixed_point_reference(bias, a_target, picard=True)
    assert res.used_picard
    errs = res.picard_errors
    usable = errs[errs > 1e-12]
    ratios = usable[1:] / usable[:-1]
    assert np.all(ratios <= bias.norm + 0.05)
    direct = fixed_point_reference(bias, a_target)
    assert np.linalg.norm(res.a_star - direct.a_star) <= 1e-9


def test_picard_downgrades_on_expansive_bias():
    mats = _skewed_matrices(6.0, [0.3, 0.8, 1.5, 2.4])
    bias = _bias(mats, 6.0)
    assert bias.norm > 1.0  # measured 1.62
    with pytest.warns(RuntimeWarning):
        res = fixed_point_reference(bias, np.array([0.3, -0.2, 0.15, 0.1]),
                                    picard=True)
    assert not res.used_picard
    # the direct answer still solves the corrected system
    assert_allclose((np.eye(4) + bias.matrix) @ res.a_star,
                    [0.3, -0.2, 0.15, 0.1], atol=1e-12)


def test_fixed_point_validates_target_length(matrices4):
    bias = _bias(matrices4, GAIN)
    with pytest.raises(ValueError):
        fixed_point_reference(bias, np.ones(3))


# ---------------------------------------------------------------------------
# stationary tail report


def test_tail_report_on_the_corrected_loop(matrices4):
    bias = _bias(matrices4, GAIN)
    a_star = fixed_point_reference(bias, REFERENCE).a_star
    system = assemble_closed_loop(matrices4, GAIN, a_star)
    report = tail_mismatch_report(system, bias, REFERENCE)
    # the fixed point kills the low-mode mismatch entirely
    assert report.low_mode_mismatch_h < 1e-12
    assert report.tail_vdual <= report.bound
    assert report.satisfied
    assert set(report.factors) == {
        "proj_norm", "c_cl", "tail_input_norm", "u_n_norm",
        "inverse_norm", "reference_vdual"}


def test_uncorrected_reference_shows_the_bias(matrices4):
    bias = _bias(matrices4, GAIN)
    system = assemble_closed_loop(matrices4, GAIN, REFERENCE)
    report = tail_mismatch_report(system, bias, REFERENCE)
    # without the fixed-point correction the mismatch is the bias response
    assert report.low_mode_mismatch_h > 1e-6
    assert_allclose(report.low_mode_mismatch_h,
                    np.linalg.norm(bias.matrix @ REFERENCE), rtol=1e-6)


# ---------------------------------------------------------------------------
# diagnostics and the cross check


def test_contraction_diagnostics_certify_the_default_loop(matrices4):
    system = assemble_closed_loop(matrices4, GAIN, np.zeros(4))
    diag = contraction_diagnostics(system)
    assert diag.bound_a < 1.0
    assert diag.bound_c < 1.0
    assert not diag.inconclusive


def test_zero_gain_decouples_the_tail(matrices4):
    system = assemble_closed_loop(matrices4, 0.0, np.zeros(4))
    diag = contraction_diagnostics(system)
    assert diag.bound_a == 0.0


@pytest.mark.parametrize("geometry,gain", [
    ("interval", GAIN), ("box3", GAIN), ("interval", 0.0), ("wide", GAIN)])
def test_tail_coupling_norm_matches_the_dense_block(matrices4, geometry,
                                                    gain):
    """beta, the norm of the tail feedback block, from its rank-M factors
    equals the dense 2-norm of that block, also with as many actuators as
    tail modes (six actuators, eight modes, four controlled), and is
    exactly zero at gain zero."""
    mats = {"interval": matrices4, "box3": _box3_matrices(),
            "wide": _skewed_matrices(1.0, dct_nodes_interval(6, 1.0)[:, 0],
                                     k=8)}[geometry]
    n = mats.n_modes
    if geometry == "wide":
        assert mats.values.shape[0] >= mats.table.size - n
    coupling = (control._generator(mats, gain)
                + np.diag(mats.table.eigenvalues))
    dense = np.linalg.norm(coupling[n:, n:], 2)
    beta = control._tail_coupling_norm(mats, gain)
    if gain == 0.0:
        assert beta == 0.0 == dense
    else:
        assert beta == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_cross_integrator_agreement_small_loop():
    """Replaying recorded inputs through the one-step integrator agrees
    to roundoff: the linear interpolation error is second order in the
    1e-7 step."""
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 8)
    acts = ActuatorSet(domain, dct_nodes_interval(2, 1.0))
    mats = sampling_matrix(acts, table, 2)
    system = assemble_closed_loop(mats, 0.5, np.zeros(2))
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal(8)
    dev = cross_integrator_check(system, z0)
    assert dev <= 1e-12


def test_doubling_search_reaches_a_high_target(matrices4):
    gain, rate, trace = doubling_gain_search(matrices4, 50.0)
    assert rate >= 50.0
    assert gain > 1.0  # must actually have doubled
    gains = [g for g, _ in trace]
    assert_allclose(gains, [2.0 ** i for i in range(len(gains))])
    assert trace[-1] == (gain, rate)
    assert all(r < 50.0 for _, r in trace[:-1])
    # the rate is the spectrum of the homogeneous loop at that gain
    system = assemble_closed_loop(matrices4, gain, np.zeros(4))
    assert -system._spectrum.mu[-1] == rate


def test_doubling_search_raises_at_the_cap(matrices4, monkeypatch):
    # the reachable rate saturates near the first uncontrollable mode
    monkeypatch.setattr(control, "GAIN_CAP", 64.0)
    with pytest.raises(NonConvergenceError) as err:
        doubling_gain_search(matrices4, 1e6)
    # the trace travels with the error, one probe per gain up to the cap
    assert [g for g, _ in err.value.best] == [2.0 ** i for i in range(7)]


@pytest.mark.parametrize("geometry", ["interval", "box3"])
@pytest.mark.parametrize("target", [0.5, 5.0, 30.0])
def test_search_rate_is_the_fitted_decay_of_the_slowest_mode(matrices4,
                                                            geometry, target):
    """The rate read off the loop spectrum is the decay rate that a
    simulation started on the slowest mode measures."""
    mats = matrices4 if geometry == "interval" else _box3_matrices()
    gain, rate, _ = doubling_gain_search(mats, target)
    system = assemble_closed_loop(mats, gain, np.zeros(mats.n_modes))
    mu_hat, residual = fitted_slowest_decay(system)
    assert abs(mu_hat - rate) <= 1e-10 * rate
    assert residual <= 1e-10


def _collocated_and_input_norm(domain, points, counts):
    """Per truncation: max_j sum_k phi_k(x_j)^2 / (1 + lambda_k), the
    collocated term the feedback puts in a_cl, and ||W E||_2^2."""
    out = []
    for count in counts:
        table = enumerate_modes(domain, count)
        w = 1.0 / (1.0 + table.eigenvalues)
        e_mat = eval_modes(table, points)              # (M, K)
        out.append((float(np.max(np.sum(e_mat ** 2 * w, axis=1))),
                    float(np.linalg.norm(w[:, None] * e_mat.T, 2) ** 2)))
    return np.array(out).T


def test_collocated_term_grows_in_3d_and_converges_in_1d(dct4):
    """The feedback samples W z at the actuators, so the loop holds the
    resolvent's Green function at its own pole.  On a box that sum grows
    like K^(1/3) (each doubling adds 2^(1/3) times the last increment)
    while ||W E|| converges; on the interval the sum converges, its
    increments halving."""
    counts = [64, 128, 256, 512, 1024, 2048]
    box = DomainSpec.box((1.0, 0.8, 0.6))
    actuators = dct_grid_box((1, 1, 1), box)
    assert actuators.count == 8
    colloc, input_norm = _collocated_and_input_norm(box, actuators.points,
                                                    counts)
    assert colloc[0] == pytest.approx(3.0391, abs=1e-4)
    assert colloc[-1] == pytest.approx(5.2130, abs=1e-4)
    growth = np.diff(colloc)[1:] / np.diff(colloc)[:-1]
    assert_allclose(growth, 2.0 ** (1.0 / 3.0), atol=0.05)
    steps = np.diff(input_norm)
    assert np.all(steps > 0.0)
    assert np.all(steps < 5e-5 * input_norm[1:])
    assert steps[-1] < steps[0]
    assert input_norm[-1] == pytest.approx(16.6705, abs=1e-4)

    line, _ = _collocated_and_input_norm(dct4.domain, dct4.points, counts)
    assert line[0] == pytest.approx(1.20574, abs=1e-5)
    assert line[-1] == pytest.approx(1.20730, abs=1e-5)
    halving = np.diff(line)[1:] / np.diff(line)[:-1]
    assert_allclose(halving, 0.5, atol=0.01)
