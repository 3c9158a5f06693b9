"""Point-heater realization through interacting resonant particles.

Each particle converts illumination intensities into a heat amplitude; the
amplitudes couple through free-space heat propagation between the particle
centers, which yields a Volterra system in time.  Calibration compresses
the full pipeline into one matrix acting on illumination coefficients, and
the remainder quantifies everything the compression drops.

The particle array (``PlasmonicConfig``) is free of the contrast scale
``delta`` and the pipeline is linear, so one batched march of the M unit
forcings ``profile * e_j`` at the base coupling (``unit_response``: the
amplitudes ``sigma[t, i, j]`` and unit heat inputs ``g = (alpha / c_m)
sigma``) serves every contrast scale.  ``calibrate_k0`` takes ``delta``
and adds only what it changes, each formed directly rather than as a
difference of perturbed and base data: the dictionary perturbation
``dD = delta**mu E_0`` and, with a perturbed coupling, the correction
``g_c = (alpha / c_m) dsigma``, one march of the coupling perturbation's
history of ``sigma``.  The ``ActuationMap`` keeps them for every consumer:

- calibration: ``k0 = K_unit @ (D + dD)``, with ``K_unit`` the profile
  coefficients of ``g`` (``g + g_c`` with a perturbed coupling);
- realization: ``g_real = g @ ((D + dD) p)``;
- remainder: ``g @ (dD p) + g_c @ (D p)``, every term of order
  ``delta**mu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import RankDeficiencyError
from .spectral import EXP_FLOOR, uniform_step

__all__ = [
    "PlasmonicConfig",
    "volterra_solve",
    "unit_response",
    "calibrate_k0",
    "invert_actuation",
    "realize_profile",
]

def _kernel_derivative(r2, d: int, kappa: float, s):
    """Time derivative of the free-space heat kernel at separated points.

    Equals ``Phi * (-d/(2 s) + r2 / (4 kappa s^2))``, with ``Phi`` the
    d-dimensional kernel at squared distance ``r2`` and lag ``s``; ``r2``
    and ``s`` broadcast.  Lags ``s <= 0`` and lags whose exponent falls
    below ``-EXP_FLOOR`` give an exact zero, so the value tends to zero as
    the lag closes.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = -r2 / (4.0 * kappa * s)
        phi = (4.0 * np.pi * kappa * s) ** (-0.5 * d) * np.exp(expo)
        value = phi * (-0.5 * d / s + r2 / (4.0 * kappa * s * s))
    return np.where((s > 0.0) & (expo >= -EXP_FLOOR), value, 0.0)


def _kernel_table(centers: np.ndarray, kappa: float, dt: float,
                  q_steps: int) -> np.ndarray:
    """``kern[s, i, j]``: kernel derivative between centers i, j at lag s*dt.

    The diagonal (a particle's own center) is excluded from the memory and
    set to zero; the lag-0 slice is zero by construction, which is what
    makes the march explicit.
    """
    m, d = centers.shape
    r2 = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    if np.any(r2[~np.eye(m, dtype=bool)] == 0.0):
        raise ValueError("kernel time derivative requires separated points")
    lags = (np.arange(q_steps + 1) * dt)[:, None, None]
    kern = _kernel_derivative(r2[None], d, kappa, lags)
    kern[:, np.arange(m), np.arange(m)] = 0.0
    assert not np.any(kern[0]), "the memory kernel must vanish at lag 0"
    return kern


@dataclass(frozen=True)
class PlasmonicConfig:
    """Geometry, material and dictionary data of one particle array.

    ``dictionary`` (shape M x P, full row rank) maps P illumination
    intensities to per-particle forcing; ``coupling`` holds the pairwise
    interaction weights with an ignored diagonal.  A contrast scale
    ``delta`` (an argument of ``calibrate_k0``) perturbs the dictionary by
    ``delta**mu`` times a seeded unit matrix and, when
    ``perturb_interaction`` is set, the coupling too.
    """

    centers: np.ndarray
    contrasts: np.ndarray
    c_m: float
    kappa: float
    coupling: np.ndarray
    dictionary: np.ndarray
    mu: float
    seed: int
    perturb_interaction: bool = False

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        m = centers.shape[0]
        if m < 1:
            raise ValueError("at least one particle is required")
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2))
        np.fill_diagonal(dist, np.inf)
        if m > 1 and np.min(dist) <= 0.0:
            raise ValueError("particle centers must be pairwise separated")
        contrasts = np.asarray(self.contrasts, dtype=float).reshape(-1)
        if contrasts.shape != (m,):
            raise ValueError("one contrast per particle is required")
        if self.c_m <= 0:
            raise ValueError("c_m must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (m, m):
            raise ValueError("coupling must be M x M")
        dictionary = np.atleast_2d(np.asarray(self.dictionary, dtype=float))
        if dictionary.shape[0] != m:
            raise ValueError("dictionary must have one row per particle")
        if dictionary.shape[1] < m:
            raise RankDeficiencyError(
                "dictionary has fewer columns than particles", 0.0)
        s = np.linalg.svd(dictionary, compute_uv=False)
        if s[m - 1] <= 1e-12 * max(s[0], 1.0):
            raise RankDeficiencyError("dictionary is not full row rank",
                                      float(s[m - 1]))
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        for name, arr in (("centers", centers), ("contrasts", contrasts),
                          ("coupling", coupling), ("dictionary", dictionary)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def _perturbation(config: PlasmonicConfig, delta: float,
                  index: int) -> np.ndarray:
    """``delta**mu`` times the seeded unit-norm perturbation of the
    dictionary (``index`` 0) or of the coupling (``index`` 1)."""
    shape = (config.dictionary, config.coupling)[index].shape
    raw = rng.stream(config.seed, rng.PURPOSE_PERTURBATION,
                     index).standard_normal(shape)
    return delta ** config.mu * (raw / np.linalg.norm(raw, 2))


def _memory_table(centers, coupling, kappa: float, dt: float,
                  q_steps: int) -> np.ndarray:
    """Coupling-weighted kernel table; the coupling diagonal is ignored."""
    weights = np.asarray(coupling, dtype=float).copy()
    np.fill_diagonal(weights, 0.0)
    return weights[None] * _kernel_table(centers, kappa, dt, q_steps)


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b at or above n, the least over b of 3^b times
    the power of two at or above ceil(n / 3^b).  A length with a large
    prime factor is slow, and a power of two alone can nearly double n."""
    return min(3 ** b << (-(-n // 3 ** b) - 1).bit_length()
               for b in range(n.bit_length()))


def _causal_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n lags ``c[q] = sum_{s<=q} a[q - s] @ b[s]`` of the causal
    convolution of two matrix sequences of at most n lags, by FFT over the
    lags zero-padded to ``_fft_length(2 n)``, so that no lag below n wraps
    around."""
    size = _fft_length(2 * n)
    spectrum = np.fft.rfft(a, size, axis=0) @ np.fft.rfft(b, size, axis=0)
    return np.fft.irfft(spectrum, size, axis=0)[:n]


def volterra_solve(centers, coupling, kappa: float, times,
                   forcing) -> np.ndarray:
    """March the coupled amplitude system by product trapezoid rule.

    The memory integral of each pair uses the time derivative ``K`` of the
    free-space kernel between the two centers; the rule is second order
    for smooth forcing.  ``K`` depends only on the lag and vanishes at lag
    zero, so the march ``sigma[q] = f[q] - dt sum_{s<q} w_s K[q - s]
    sigma[s]`` (``w_0 = 1/2``, then 1) is the power-series solve
    ``(I + dt K(z)) sigma(z) = f(z) + (dt/2) K(z) f[0]`` modulo
    ``z**(Q + 1)``: the inverse series of ``I + dt K``, built by Newton
    doubling, applied to every right-hand side as one causal convolution.

    ``forcing`` is ``(Q + 1, M)``, or ``(Q + 1, M, R)`` to march R
    right-hand sides at once; the returned amplitudes ``sigma`` have the
    same shape.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = centers.shape[0]
    times = np.asarray(times, dtype=float)
    forcing = np.asarray(forcing, dtype=float)
    dt = uniform_step(times)
    n = times.shape[0]
    if forcing.ndim not in (2, 3) or forcing.shape[:2] != (n, m):
        raise ValueError("forcing must be sampled on the grid, per particle")

    series = dt * _memory_table(centers, coupling, kappa, dt, n - 1)
    rhs = forcing.reshape(n, m, -1)
    rhs = rhs + 0.5 * series @ rhs[0]
    series[0] = np.eye(m)       # now I + dt K, as K vanishes at lag 0
    inverse = np.eye(m)[None]
    while len(inverse) < n:
        # Newton's B (2I - A B) keeps the lags of B, already exact, and
        # takes the next ones up to k from -B A B
        k = min(2 * len(inverse), n)
        bab = _causal_product(inverse, _causal_product(series[:k], inverse,
                                                       k), k)
        inverse = np.concatenate([inverse, -bab[len(inverse):]])
    return _causal_product(inverse, rhs, n).reshape(forcing.shape)


def _l2_inner(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trapezoid(a * b, times))


class UnitResponse(NamedTuple):
    """The particle array's response to the unit forcings of one profile.

    ``sigma[t, i, j]`` is the amplitude of particle i when only particle j
    is forced with ``profile`` at the base coupling, and ``units`` the
    heat inputs ``(alpha_i / c_m) sigma``; both are read-only, since every
    unperturbed ``ActuationMap`` shares them.
    """

    times: np.ndarray
    profile: np.ndarray
    sigma: np.ndarray
    units: np.ndarray


def unit_response(config: PlasmonicConfig, times,
                  profile: np.ndarray) -> UnitResponse:
    """Amplitudes and heat inputs under the unit forcings, one march.

    It involves neither the dictionary nor the contrast scale, so one
    march serves every ``delta`` (see ``calibrate_k0``).
    """
    times = np.asarray(times, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if profile.shape != times.shape:
        raise ValueError("profile must be sampled on the time grid")
    if _l2_inner(times, profile, profile) <= 0.0:
        raise ValueError("profile must be nonzero")
    forcing = profile[:, None, None] * np.eye(config.count)[None]
    sigma = volterra_solve(config.centers, config.coupling, config.kappa,
                           times, forcing)
    units = sigma * (config.contrasts / config.c_m)[:, None]
    for arr in (sigma, units):
        arr.setflags(write=False)
    return UnitResponse(times, profile, sigma, units)


def _coupling_forcing(config: PlasmonicConfig, d_coupling: np.ndarray,
                      times: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Forcing whose effective-coupling march is the coupling correction.

    The amplitudes of a forcing at the coupling ``W + d_coupling`` exceed
    its base-coupling amplitudes ``sigma`` (shape (Q + 1, M, R)) by the
    effective-coupling march of
    ``h[q] = -dt * sum_{s<q} w_s d_coupling[q-s] sigma[s]``, the trapezoid
    history of the coupling perturbation; this returns h.  ``sigma`` is
    known in full, so h is one causal convolution over the lags.
    """
    dt = uniform_step(times)
    samples = times.shape[0]
    table = _memory_table(config.centers, d_coupling, config.kappa, dt,
                          samples - 1)
    weighted = np.concatenate([0.5 * sigma[:1], sigma[1:]])
    return -dt * _causal_product(table, weighted, samples)


class ActuationMap(NamedTuple):
    """Calibrated linear compression of the pipeline onto one profile.

    ``k0[i, l]`` is the profile coefficient of heat input i when the
    dictionary is probed with unit intensity l; ``residuals[l]`` is the
    L2 mass the probe left outside the profile span.  The unit heat
    inputs ``g`` and ``g_c`` it was calibrated from (``units`` and
    ``coupling_units``) and the dictionary perturbation ``d_pert`` realize
    any intensities.
    """

    k0: np.ndarray
    pinv: np.ndarray
    sigma_min: float
    residuals: np.ndarray
    units: np.ndarray
    coupling_units: np.ndarray | None
    d_pert: np.ndarray


def calibrate_k0(config: PlasmonicConfig, response: UnitResponse,
                 delta: float) -> ActuationMap:
    """Probe every dictionary column and project outputs on the profile.

    ``response`` is the ``unit_response`` of this particle array.  The
    probes at contrast scale ``delta`` are superposed from the unit heat
    inputs ``g`` at that scale, which are ``response.units`` itself
    unless the coupling is perturbed: the output of column l is
    ``g @ (D + dD)[:, l]``, so ``k0 = K_unit @ (D + dD)`` with ``K_unit``
    the profile coefficients of ``g``.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    times, profile = response.times, response.profile
    units, coupling_units = response.units, None
    if config.perturb_interaction and delta != 0.0:
        d_coupling = _perturbation(config, delta, 1)
        dsigma = volterra_solve(
            config.centers, config.coupling + d_coupling, config.kappa,
            times, _coupling_forcing(config, d_coupling, times,
                                     response.sigma))
        scale = (config.contrasts / config.c_m)[:, None]
        units = (response.sigma + dsigma) * scale
        coupling_units = dsigma * scale
    d_pert = _perturbation(config, delta, 0)
    denom = _l2_inner(times, profile, profile)
    k_unit = np.trapezoid(units * profile[:, None, None], times,
                          axis=0) / denom
    d_eff = config.dictionary + d_pert
    k0 = k_unit @ d_eff
    tails = units @ d_eff - k0[None] * profile[:, None, None]
    residuals = np.sqrt(np.sum(np.trapezoid(tails * tails, times, axis=0),
                               axis=0))
    m = config.count
    s = np.linalg.svd(k0, compute_uv=False)
    sigma_min = float(s[m - 1]) if len(s) >= m else 0.0
    if sigma_min <= 1e-12 * max(float(s[0]), 1.0):
        raise RankDeficiencyError("calibrated map is rank deficient",
                                  sigma_min)
    return ActuationMap(k0, np.linalg.pinv(k0), sigma_min, residuals,
                        units, coupling_units, d_pert)


def invert_actuation(amap: ActuationMap, u_des: np.ndarray):
    """Recover intensity coefficients realizing desired profile weights.

    Returns the minimum-norm solution of ``k0 p = u_des`` and its residual
    norm, after verifying the reconstruction to 1e-9 relative.
    """
    u_des = np.asarray(u_des, dtype=float).reshape(-1)
    if u_des.shape[0] != amap.k0.shape[0]:
        raise ValueError("one desired weight per particle is required")
    p = amap.pinv @ u_des
    residual = float(np.linalg.norm(amap.k0 @ p - u_des))
    if residual > 1e-9 * max(1.0, float(np.linalg.norm(u_des))):
        raise RankDeficiencyError(
            f"signed inversion inconsistent (residual {residual:.3e})",
            amap.sigma_min)
    return p, residual


def realize_profile(config: PlasmonicConfig, times, amap: ActuationMap,
                    coeffs: np.ndarray):
    """Heat inputs and remainder of the intensities ``profile * coeffs``.

    Superposed from the unit heat inputs ``g = amap.units`` and
    ``g_c = amap.coupling_units`` and the dictionary perturbation
    ``dD = amap.d_pert`` of this config's calibrated map:
    ``g_real = g @ ((D + dD) p)`` and the remainder, the output minus its
    leading (``delta = 0``) prediction, ``rho = g @ (dD p) + g_c @ (D p)``.

    Returns ``(g_real, rho, norm)`` with norm the remainder's aggregate
    L2 size over all particles.
    """
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    g_real = amap.units @ ((config.dictionary + amap.d_pert) @ coeffs)
    rho = amap.units @ (amap.d_pert @ coeffs)
    if amap.coupling_units is not None:
        rho = rho + amap.coupling_units @ (config.dictionary @ coeffs)
    norm2 = sum(_l2_inner(times, rho[:, i], rho[:, i])
                for i in range(rho.shape[1]))
    return g_real, rho, float(np.sqrt(max(norm2, 0.0)))
