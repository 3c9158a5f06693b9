"""Cosine-node placement, sampling matrices and their conditioning."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heattrack.errors import RankDeficiencyError
from heattrack.placement import (
    GENERICITY_THRESHOLD,
    ActuatorSet,
    dct_grid_box,
    dct_nodes_interval,
    genericity_monte_carlo,
    greedy_placement,
    min_norm_feedforward,
    sampling_matrix,
    uniform_candidates,
)
from heattrack.rng import PURPOSE_GENERICITY, stream
from heattrack.spectral import (DomainSpec, ModeTable, enumerate_modes,
                                eval_modes)

from streams import PURPOSE_TEST


def test_dct_nodes_are_shifted_midpoints():
    assert_allclose(dct_nodes_interval(4, 1.0)[:, 0],
                    [0.125, 0.375, 0.625, 0.875], rtol=1e-15)
    assert_allclose(dct_nodes_interval(3, 2.0)[:, 0], [1 / 3, 1.0, 5 / 3],
                    rtol=1e-14)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_raw_cosine_matrix_orthogonality(m):
    """C[k,j] = cos(k pi (2j-1) / (2M)) satisfies C C^T = diag(M, M/2, ...)."""
    length = 1.0
    nodes = dct_nodes_interval(m, length)[:, 0]
    c = np.stack([np.cos(k * np.pi * nodes / length) for k in range(m)])
    gram = c @ c.T
    expected = np.diag([m] + [m / 2.0] * (m - 1)).astype(float)
    assert_allclose(gram, expected, atol=1e-10)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_normalized_sampling_matrix_is_orthogonal_row_scaled(m):
    # with K = N = M the matrix of normalized modes obeys Phi Phi^T = (M/L) I
    length = 1.5
    domain = DomainSpec.interval(length)
    table = enumerate_modes(domain, m)
    acts = ActuatorSet(domain, dct_nodes_interval(m, length))
    mats = sampling_matrix(acts, table, m)
    assert_allclose(mats.phi @ mats.phi.T, (m / length) * np.eye(m),
                    atol=1e-10)
    assert_allclose(mats.sigma_min, np.sqrt(m / length), rtol=1e-12)


def test_box_grid_is_the_kronecker_of_axis_grids():
    """The (1,1,1) tensor grid sampling matrix factors axis by axis."""
    domain = DomainSpec.box((1.0, 1.0, 1.0))
    acts = dct_grid_box((1, 1, 1), domain)
    assert acts.count == 8
    table = enumerate_modes(domain, 8)
    # the 8 smallest modes are exactly the tensor modes with indices in {0,1}
    assert np.all(table.indices < 2)
    # rows ordered like the kron convention: first axis index slowest
    order = np.argsort(table.indices @ np.array([4, 2, 1]))
    phi = eval_modes(table, acts.points).T[order, :]
    axis_table = enumerate_modes(DomainSpec.interval(1.0), 2)
    a_axis = eval_modes(axis_table, dct_nodes_interval(2, 1.0)).T  # (k, j)
    kron = np.kron(np.kron(a_axis, a_axis), a_axis)
    assert_allclose(phi, kron, atol=1e-10)


def test_box_grid_sampling_matrix_full_rank():
    domain = DomainSpec.box((1.0, 1.0, 1.0))
    acts = dct_grid_box((1, 1, 1), domain)
    table = enumerate_modes(domain, 64)
    mats = sampling_matrix(acts, table, 8)
    assert mats.sigma_min > 0.1


def test_sampling_matrices_shapes(matrices4, table32):
    assert matrices4.phi.shape == (4, 4)
    assert matrices4.d_matrix.shape == (4, 32)
    # d rows are mode values damped by the resolvent weight
    expected = eval_modes(table32, matrices4.actuators.points) / (
        1.0 + table32.eigenvalues[None, :])
    assert_allclose(matrices4.d_matrix, expected, rtol=1e-14)


def test_min_norm_feedforward_square_case(matrices4, table32):
    a_ref = np.array([0.3, 0.2, -0.1, 0.1])
    u = min_norm_feedforward(a_ref, matrices4)
    rhs = table32.eigenvalues[:4] * a_ref
    assert_allclose(matrices4.phi @ u, rhs, atol=1e-12)


def test_min_norm_feedforward_small_exact_cases():
    """Constant mode needs no input; a custom two-mode table solves 2x2."""
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 2)
    acts = ActuatorSet(domain, [[0.3]])
    mats = sampling_matrix(acts, table, 1)
    u = min_norm_feedforward(np.array([0.7]), mats)
    assert_allclose(u, [0.0], atol=1e-15)
    # two selected modes, two actuators: the square system is explicit
    custom = ModeTable.from_indices(domain, [[0], [2]])
    acts2 = ActuatorSet(domain, [[0.2], [0.6]])
    mats2 = sampling_matrix(acts2, custom, 2)
    a_ref = np.array([0.0, 0.4])
    u2 = min_norm_feedforward(a_ref, mats2)
    lam2 = custom.eigenvalues[1]
    phi = eval_modes(custom, acts2.points).T  # (modes, actuators)
    assert_allclose(phi @ u2, [0.0, lam2 * 0.4], atol=1e-12)
    assert_allclose(u2, np.linalg.solve(phi, np.array([0.0, lam2 * 0.4])),
                    rtol=1e-11)
    # a single actuator cannot control two modes
    with pytest.raises(ValueError):
        min_norm_feedforward(np.array([0.1, 0.2]),
                             sampling_matrix(acts, table, 2))


def test_min_norm_feedforward_prefers_small_solutions(matrices4):
    a_ref = np.array([0.0, 0.5, 0.0, 0.0])
    u = min_norm_feedforward(a_ref, matrices4)
    # any other solution of the underdetermined-free square system is unique
    # here; check the residual path instead with an extra actuator
    domain = matrices4.table.domain
    acts5 = ActuatorSet(domain, np.array(
        [0.125, 0.375, 0.625, 0.875, 0.5])[:, None])
    mats5 = sampling_matrix(acts5, matrices4.table, 4)
    u5 = min_norm_feedforward(a_ref, mats5)
    rhs = matrices4.table.eigenvalues[:4] * a_ref
    assert_allclose(mats5.phi @ u5, rhs, atol=1e-12)
    assert np.linalg.norm(u5) <= np.linalg.norm(
        np.concatenate([u, [0.0]])) + 1e-12


def test_rank_deficiency_on_a_nodal_plane():
    """Points on x1 = L/2 cannot excite the (1,0,0) mode."""
    domain = DomainSpec.box((1.0, 1.0, 1.0))
    table = enumerate_modes(domain, 8)
    pts = np.array([[0.5, 0.2, 0.3], [0.5, 0.6, 0.7],
                    [0.5, 0.8, 0.2], [0.5, 0.4, 0.9]])
    acts = ActuatorSet(domain, pts)
    mats = sampling_matrix(acts, table, 4)
    # mode (1,0,0) is second in the table; its row vanishes on the plane
    assert np.max(np.abs(mats.phi[1])) < 1e-12
    assert mats.sigma_min < 1e-12
    with pytest.raises(RankDeficiencyError):
        min_norm_feedforward(np.array([0.0, 0.4, 0.0, 0.0]), mats)


def test_greedy_placement_never_loses_to_the_prefix():
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 16)
    rng = stream(11, PURPOSE_TEST, 0)
    candidates = np.sort(rng.uniform(0.02, 0.98, size=24))[:, None]
    chosen = greedy_placement(candidates, table, 4, 4)
    mats_greedy = sampling_matrix(chosen, table, 4)
    prefix = ActuatorSet(domain, candidates[:4])
    mats_prefix = sampling_matrix(prefix, table, 4)
    assert mats_greedy.sigma_min >= mats_prefix.sigma_min - 1e-12


def test_greedy_placement_ranks_the_steps_before_full_rank():
    """With fewer columns than controlled modes the rows-th singular value
    is 0 for every candidate; the smallest of the min(rows, cols) singular
    values still ranks them, so the first picks are not the list prefix."""
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 32)
    chosen = greedy_placement(uniform_candidates(domain, 64), table, 4, 4)
    assert_allclose(chosen.points[:, 0],
                    [0.0078125, 0.3671875, 0.6640625, 0.9921875], rtol=0)
    assert sampling_matrix(chosen, table, 4).sigma_min > 1.8


def test_greedy_placement_validates_arguments():
    domain = DomainSpec.interval(1.0)
    table = enumerate_modes(domain, 8)
    candidates = uniform_candidates(domain, 8)
    with pytest.raises(ValueError):
        greedy_placement(candidates, table, 4, 0)
    with pytest.raises(ValueError):
        greedy_placement(candidates, table, 9, 4)


def test_uniform_candidates_cover_the_box():
    domain = DomainSpec.box((1.0, 2.0, 1.0))
    pts = uniform_candidates(domain, 3)
    assert pts.shape == (27, 3)
    assert np.all(domain.contains(pts))


def test_genericity_monte_carlo_sees_no_failures(unit_interval, table32):
    report = genericity_monte_carlo(unit_interval, table32, 4, trials=200,
                                    seed=7)
    assert report.trials == 200
    assert report.failures == 0
    assert report.min_sigma > GENERICITY_THRESHOLD


def test_genericity_replays_bit_exactly(unit_interval, table32):
    a = genericity_monte_carlo(unit_interval, table32, 3, trials=50, seed=12)
    b = genericity_monte_carlo(unit_interval, table32, 3, trials=50, seed=12)
    assert a.min_sigma == b.min_sigma
    assert a.failures == b.failures


@pytest.mark.parametrize("domain,modes,trial0,min_sigma", [
    (DomainSpec.interval(1.0), 32, 0.05846478547974719,
     5.543575725742823e-06),
    (DomainSpec.box([1.0, 0.8, 0.6]), 128, 0.3136384409693757,
     1.4722982230603754e-03)], ids=["default", "box3"])
def test_genericity_trials_read_one_stream(domain, modes, trial0, min_sigma):
    """The layouts of the packaged config and of box3 (four controlled
    modes, seed 7).  All trials read one stream in trial order, so a
    single trial is the first four points of stream index 0, and the
    200-trial minimum ``place`` reports is pinned."""
    table = enumerate_modes(domain, modes)
    one = genericity_monte_carlo(domain, table, 4, trials=1, seed=7)
    pts = stream(7, PURPOSE_GENERICITY).uniform(size=(4, domain.dim))
    phi = eval_modes(table, pts * np.asarray(domain.lengths))[:, :4].T
    # stacked as the Monte-Carlo stacks its trials, for the same SVD path
    assert one.min_sigma == np.linalg.svd(phi[None], compute_uv=False)[0, 3]
    assert one.min_sigma == pytest.approx(trial0, rel=1e-12)
    full = genericity_monte_carlo(domain, table, 4, trials=200, seed=7)
    assert full.failures == 0
    assert full.min_sigma == pytest.approx(min_sigma, rel=1e-12)


def test_actuator_set_validation(unit_interval):
    with pytest.raises(ValueError):
        ActuatorSet(unit_interval, np.empty((0, 1)))
    with pytest.raises(ValueError):
        ActuatorSet(unit_interval, np.array([[0.3], [0.3]]))
    with pytest.raises(ValueError):
        ActuatorSet(unit_interval, np.array([[1.4]]))


def test_oversampling_never_hurts_conditioning(table32, unit_interval):
    """Adding an actuator cannot shrink sigma_min of the wide matrix."""
    rng = stream(23, PURPOSE_TEST, 1)
    pts = np.sort(rng.uniform(0.05, 0.95, size=8))
    sigmas = []
    for m in range(4, 9):
        acts = ActuatorSet(unit_interval, pts[:m][:, None])
        sigmas.append(sampling_matrix(acts, table32, 4).sigma_min)
    assert np.all(np.diff(sigmas) >= -1e-12)
