"""Scalar and unbatched references for the particle model.

The free-space heat kernel and its time derivative at one pair of points
and two times, the intensities -> forcing -> amplitudes -> heat inputs
pipeline marched once per call, and the amplitude march and the
coupling-correction forcing summed step by step: the forms that the
library's kernel table, batched unit-forcing march and causal convolutions
replace, kept here as their oracles.
"""

import numpy as np

from heattrack import plasmonic
from heattrack.spectral import EXP_FLOOR


def _pair_geometry(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("points must share a dimension")
    return x.shape[0], float(np.sum((x - y) ** 2))


def free_space_kernel(x, t: float, y, tau: float, kappa: float) -> float:
    """Whole-space heat kernel between two points and two times.

    Value ``(4 pi kappa (t - tau))**(-d/2) * exp(-|x - y|^2 / (4 kappa
    (t - tau)))`` for ``t > tau`` and zero otherwise; the dimension d is
    taken from the points.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    d, r2 = _pair_geometry(x, y)
    s = t - tau
    if s <= 0.0:
        return 0.0
    expo = -r2 / (4.0 * kappa * s)
    if expo < -EXP_FLOOR:
        return 0.0
    return (4.0 * np.pi * kappa * s) ** (-0.5 * d) * np.exp(expo)


def kernel_time_derivative(x, t: float, y, tau: float, kappa: float) -> float:
    """Time derivative of the free-space kernel at separated points.

    The library's kernel derivative at one pair of points and one lag
    ``s = t - tau``; an exact zero for ``s <= 0``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    d, r2 = _pair_geometry(x, y)
    if r2 == 0.0:
        raise ValueError("kernel time derivative requires separated points")
    return float(plasmonic._kernel_derivative(r2, d, kappa, t - tau))


def forcing_from_intensities(config, delta: float,
                             intensities: np.ndarray) -> np.ndarray:
    """Per-particle forcing samples from illumination intensity samples,
    through the dictionary perturbed at contrast scale ``delta``."""
    dictionary = config.dictionary + plasmonic._perturbation(config, delta, 0)
    return np.asarray(intensities) @ dictionary.T


def run_pipeline(config, delta: float, times,
                 intensities: np.ndarray) -> np.ndarray:
    """Intensities -> forcing -> amplitudes -> heat inputs, on one grid, at
    contrast scale ``delta``."""
    forcing = forcing_from_intensities(config, delta, intensities)
    coupling = config.coupling
    if config.perturb_interaction:
        coupling = coupling + plasmonic._perturbation(config, delta, 1)
    sigma = plasmonic.volterra_solve(config.centers, coupling, config.kappa,
                                     times, forcing)
    return sigma * (config.contrasts / config.c_m)[None, :]


def _memory_sum(flat: np.ndarray, stacked: np.ndarray, q: int) -> np.ndarray:
    """Trapezoid memory sum ``sum_{s<q} w_s table[q - s] @ values[s]``.

    ``flat`` is the lag-reversed table (``_lag_reversed``) and
    ``stacked`` holds the values as ((Q + 1) * m, R) rows.  The weights are 1/2 at s = 0 and 1 after it; ``table[0]`` is
    zero, so the s = q end of the rule does not enter.
    """
    m = flat.shape[0]
    end = flat.shape[1] - m
    start = end - q * m
    return (flat[:, start:end] @ stacked[:q * m]
            - 0.5 * flat[:, start:start + m] @ stacked[:m])


def _lag_reversed(table: np.ndarray) -> np.ndarray:
    """``flat[i, k * m + j] = table[Q - k, i, j]`` for a (Q + 1, m, m) table."""
    lags, m, _ = table.shape
    return np.ascontiguousarray(table[::-1].transpose(1, 0, 2)).reshape(
        m, lags * m)


def volterra_steps(centers, coupling, kappa: float, times,
                   forcing) -> np.ndarray:
    """The amplitude march one explicit step at a time.

    ``sigma[q] = forcing[q] - dt * sum_{s<q} w_s K[q - s] sigma[s]``, one
    history sum per step over the lag-reversed table: the O(Q^2) form the
    library's power-series solve replaces.  Shapes as ``volterra_solve``.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    forcing = np.asarray(forcing, dtype=float)
    dt = times[1] - times[0]
    q_steps = times.shape[0] - 1
    flat = _lag_reversed(plasmonic._memory_table(centers, coupling, kappa,
                                                 dt, q_steps))
    rhs = forcing.reshape(q_steps + 1, centers.shape[0], -1)
    sigma = np.empty(rhs.shape)
    stacked = sigma.reshape(-1, rhs.shape[2])
    sigma[0] = rhs[0]
    for q in range(1, q_steps + 1):
        sigma[q] = rhs[q] - dt * _memory_sum(flat, stacked, q)
    return sigma.reshape(forcing.shape)


def coupling_forcing_steps(config, d_coupling: np.ndarray, times,
                           sigma: np.ndarray) -> np.ndarray:
    """The coupling-correction forcing summed step by step.

    ``h[q] = -dt * sum_{s<q} w_s d_coupling[q-s] sigma[s]`` with the
    base-coupling amplitudes ``sigma`` (shape (Q + 1, M, R)), one history
    sum per step: the form the library's FFT convolution replaces.
    """
    dt = times[1] - times[0]
    q_steps = times.shape[0] - 1
    flat = _lag_reversed(plasmonic._memory_table(
        config.centers, d_coupling, config.kappa, dt, q_steps))
    stacked = sigma.reshape(-1, sigma.shape[2])
    h = np.zeros_like(sigma)
    for q in range(1, q_steps + 1):
        h[q] = -dt * _memory_sum(flat, stacked, q)
    return h
