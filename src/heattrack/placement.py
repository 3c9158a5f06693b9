"""Actuator placement and the sampling matrices it induces.

The controller sees the plant only through eigenfunction values at the
actuator locations, so placement quality is exactly the conditioning of
the mode-sampling matrix.  Cosine-transform node families make that matrix
orthogonal up to scaling; a greedy search handles irregular candidate sets;
a seeded Monte-Carlo probes how rare rank deficiency is for random points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import RankDeficiencyError
from .spectral import DomainSpec, ModeTable, as_points, eval_modes

__all__ = [
    "ActuatorSet",
    "SamplingMatrices",
    "dct_nodes_interval",
    "dct_grid_box",
    "uniform_candidates",
    "sampling_matrix",
    "min_norm_feedforward",
    "greedy_placement",
    "genericity_monte_carlo",
]


@dataclass(frozen=True)
class ActuatorSet:
    """Finitely many distinct point actuators inside the domain closure."""

    domain: DomainSpec
    points: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points, self.domain.dim)
        if pts.shape[0] == 0:
            raise ValueError("at least one actuator is required")
        if not np.all(self.domain.contains(pts)):
            raise ValueError("actuator points must lie in the domain closure")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2))
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) <= 0.0:
            raise ValueError("actuator points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def dct_nodes_interval(count: int, length: float) -> np.ndarray:
    """Nodes x_j = (2j - 1) * L / (2M), j = 1..M, as a (M, 1) array."""
    if count < 1:
        raise ValueError("node count must be positive")
    j = np.arange(1, count + 1)
    return ((2 * j - 1) * length / (2 * count))[:, None]


def dct_grid_box(counts, domain: DomainSpec) -> ActuatorSet:
    """Tensor grid of per-axis cosine nodes on a box.

    ``counts = (N1, N2, N3)`` places ``N_l + 1`` nodes on axis l at
    ``x = (2j - 1) * L_l / (2 (N_l + 1))``, giving ``prod(N_l + 1)`` points.
    The grid is enumerated with the first axis varying slowest.
    """
    counts = tuple(int(n) for n in counts)
    if domain.dim != len(counts):
        raise ValueError("one count per axis is required")
    if any(n < 0 for n in counts):
        raise ValueError("counts must be nonnegative")
    axes = [dct_nodes_interval(n + 1, L)[:, 0]
            for n, L in zip(counts, domain.lengths)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return ActuatorSet(domain, pts)


def uniform_candidates(domain: DomainSpec, per_axis: int) -> np.ndarray:
    """Cell-centered uniform candidate grid, (per_axis**dim, dim)."""
    if per_axis < 1:
        raise ValueError("per_axis must be positive")
    axes = [(np.arange(per_axis) + 0.5) * L / per_axis for L in domain.lengths]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _row_sigma_min(mat: np.ndarray) -> float:
    """The rows-th singular value, the distance to row-rank deficiency.

    A matrix with fewer columns than rows cannot have full row rank and
    gets 0.
    """
    rows = mat.shape[0]
    if mat.shape[1] < rows:
        return 0.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[rows - 1])


class SamplingMatrices(NamedTuple):
    """Sampling data tying a mode table to an actuator set.

    ``values`` holds the mode values phi_k(x_j) at every actuator (rows)
    over every table mode (columns), shape (M, K): the actuators enter the
    loop through nothing else.  ``phi`` is its transposed head over the
    first ``n_modes`` modes.  ``d_matrix`` is the observation matrix
    phi_k(x_j) / (1 + lambda_k), shape (M, K).
    ``sigma_min`` is the smallest singular value of ``phi``; zero signals
    that full row rank is impossible.
    """

    table: ModeTable
    actuators: ActuatorSet
    n_modes: int
    values: np.ndarray
    phi: np.ndarray
    d_matrix: np.ndarray
    sigma_min: float


def sampling_matrix(actuators: ActuatorSet, table: ModeTable,
                    n_modes: int) -> SamplingMatrices:
    """Assemble the sampling and observation matrices for a placement."""
    if not (1 <= n_modes <= table.size):
        raise ValueError("n_modes must lie in [1, table.size]")
    values = eval_modes(table, actuators.points)  # (M, K)
    phi = values[:, :n_modes].T.copy()
    d_matrix = values / (1.0 + table.eigenvalues[None, :])
    return SamplingMatrices(table, actuators, n_modes, values, phi, d_matrix,
                            _row_sigma_min(phi))


def min_norm_feedforward(y_ref, matrices: SamplingMatrices) -> np.ndarray:
    """Smallest input vector whose stationary low modes match a reference.

    Solves ``sum_j u_j phi_k(x_j) = lambda_k * a_k`` for the first
    ``n_modes`` reference coefficients ``a_k``; among all solutions the
    minimum Euclidean norm one is returned.  An (n_modes, R) reference
    holds R references as columns and gets their R inputs as columns, from
    one solve.  The sampling matrix must have full row rank, and each
    solved column is re-checked to 1e-10 relative.
    """
    coeffs = np.asarray(y_ref, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[0] != matrices.n_modes:
        raise ValueError("reference coefficients must have length n_modes")
    if matrices.sigma_min <= 1e-12 * max(1.0, np.linalg.norm(matrices.phi, 2)):
        raise RankDeficiencyError("sampling matrix is not full row rank",
                                  matrices.sigma_min)
    lam = matrices.table.eigenvalues[:matrices.n_modes]
    rhs = (lam * coeffs.T).T
    u, *_ = np.linalg.lstsq(matrices.phi, rhs, rcond=None)
    residual = np.linalg.norm(matrices.phi @ u - rhs, axis=0)
    if np.any(residual > 1e-10 * np.maximum(1.0, np.linalg.norm(rhs, axis=0))):
        raise RankDeficiencyError(
            f"feedforward residual {np.max(residual):.3e} exceeds tolerance",
            matrices.sigma_min)
    return u


def greedy_placement(candidates, table: ModeTable, n_modes: int,
                     count: int) -> ActuatorSet:
    """Pick ``count`` actuators from candidates by greedy sigma_min growth.

    At each step the candidate that maximizes the smallest of the
    min(rows, cols) singular values of the grown sampling matrix is added,
    so steps before the matrix has a column per controlled mode are ranked
    too; ties go to the lowest candidate index, so the selection is
    deterministic for a fixed candidate order.
    If the plain prefix of the candidate list happens to beat the greedy
    choice it is returned instead, so the result never loses to the naive
    placement on the same pool.
    """
    pts = as_points(candidates, table.domain.dim)
    n_cand = pts.shape[0]
    if count < 1 or count > n_cand:
        raise ValueError("count must lie in [1, number of candidates]")
    if n_modes > table.size:
        raise ValueError("n_modes exceeds the mode table")
    sampled = eval_modes(table, pts)[:, :n_modes]  # (C, N)
    chosen: list[int] = []
    free = list(range(n_cand))
    for _ in range(count):
        best_idx, best_val = -1, -np.inf
        for c in free:
            trial = sampled[chosen + [c], :].T  # (N, m+1)
            val = np.linalg.svd(trial, compute_uv=False)[-1]
            if val > best_val:
                best_idx, best_val = c, val
        chosen.append(best_idx)
        free.remove(best_idx)
    greedy_sigma = _row_sigma_min(sampled[chosen, :].T)
    naive_sigma = _row_sigma_min(sampled[:count, :].T)
    if naive_sigma > greedy_sigma:
        chosen = list(range(count))
    return ActuatorSet(table.domain, pts[sorted(chosen)])


class GenericityReport(NamedTuple):
    trials: int
    failures: int
    min_sigma: float


# sigma_min below which a random sampling matrix counts as rank deficient.
GENERICITY_THRESHOLD = 1e-10


def genericity_monte_carlo(domain: DomainSpec, table: ModeTable, count: int,
                           trials: int, seed: int) -> GenericityReport:
    """Sample random point sets and count rank-deficient sampling matrices.

    Each trial draws ``count`` independent uniform points and checks
    sigma_min of the square sampling matrix against
    ``GENERICITY_THRESHOLD``.  All trials read one seeded stream: trial t
    takes rows t * count to (t + 1) * count - 1 of a single
    (trials * count, dim) draw, so a run replays bit-exactly and its first
    trials do not depend on how many follow.  All trials share one mode
    evaluation and one stacked SVD.
    """
    if count < 1 or count > table.size:
        raise ValueError("count must lie in [1, table.size]")
    if trials < 1:
        raise ValueError("at least one trial is required")
    pts = rng.stream(seed, rng.PURPOSE_GENERICITY).uniform(
        size=(trials * count, domain.dim)) * np.asarray(domain.lengths)
    head = ModeTable.from_indices(table.domain, table.indices[:count])
    # phi[t] is trial t's (modes x points) square sampling matrix
    phi = eval_modes(head, pts).reshape(trials, count, count).transpose(
        0, 2, 1)
    sigma = np.linalg.svd(phi, compute_uv=False)[:, count - 1]
    return GenericityReport(trials,
                            int(np.sum(sigma < GENERICITY_THRESHOLD)),
                            float(np.min(sigma)))
