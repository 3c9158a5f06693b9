"""Point-heater realization through interacting resonant particles.

Each particle converts illumination intensities into a heat amplitude; the
amplitudes couple through free-space heat propagation between the particle
centers, which yields a Volterra system in time.  Calibration compresses
the full pipeline into one matrix acting on illumination coefficients, and
the remainder quantifies everything the compression drops.

The pipeline is linear, so one batched march of the M unit forcings
``profile * e_j`` (``unit_heat_inputs``, giving ``g[t, i, j]``) serves
every consumer that drives the particles with one temporal profile:

- calibration: ``k0 = K_unit @ D_eff``, with ``K_unit`` the profile
  coefficients of ``g``, and the probe of column l is ``g @ D_eff[:, l]``;
- realization: ``g_real = g @ (D_eff p)``;
- remainder: ``g @ ((D_eff - D) p)``, formed directly rather than as the
  difference of two nearly equal pipeline outputs.

Only the seeded dictionary depends on the contrast scale ``delta``; the
unit response does too only when ``perturb_interaction`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NonConvergenceError, RankDeficiencyError

__all__ = [
    "PlasmonicConfig",
    "VolterraSolution",
    "ActuationMap",
    "free_space_kernel",
    "kernel_time_derivative",
    "volterra_solve",
    "effective_dictionary",
    "forcing_from_intensities",
    "heat_inputs_from_sigma",
    "run_pipeline",
    "unit_heat_inputs",
    "resonance_gain",
    "calibrate_k0",
    "invert_actuation",
    "nnls_active_set",
    "realized_remainder",
    "realize_profile",
]

_EXP_FLOOR = -700.0  # exp underflows to an exact 0 below this


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
    if expo < _EXP_FLOOR:
        return 0.0
    return (4.0 * np.pi * kappa * s) ** (-0.5 * d) * np.exp(expo)


def kernel_time_derivative(x, t: float, y, tau: float, kappa: float) -> float:
    """Time derivative of the free-space kernel at separated points.

    Equals ``Phi * (-d/(2 s) + r^2 / (4 kappa s^2))`` with ``s = t - tau``.
    For separated points the value tends to zero as ``tau`` approaches
    ``t``, and the function returns an exact zero for ``s <= 0``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    d, r2 = _pair_geometry(x, y)
    if r2 == 0.0:
        raise ValueError("kernel time derivative requires separated points")
    return float(_kernel_derivative(r2, d, kappa, t - tau))


def _kernel_derivative(r2, d: int, kappa: float, s):
    """Array form of ``kernel_time_derivative``; ``r2`` and ``s`` broadcast.

    Lags ``s <= 0`` and lags whose exponent falls below ``_EXP_FLOOR``
    give an exact zero.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = -r2 / (4.0 * kappa * s)
        phi = (4.0 * np.pi * kappa * s) ** (-0.5 * d) * np.exp(expo)
        value = phi * (-0.5 * d / s + r2 / (4.0 * kappa * s * s))
    return np.where((s > 0.0) & (expo >= _EXP_FLOOR), value, 0.0)


def _kernel_table(centers: np.ndarray, kappa: float, dt: float,
                  q_steps: int) -> np.ndarray:
    """``kern[s, i, j]``: kernel derivative between centers i, j at lag s*dt.

    The diagonal (a particle's own center) is excluded from the memory and
    set to zero; the lag-0 slice is zero by construction, which is what
    makes every step of the march explicit.
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
    interaction weights with an ignored diagonal.  ``delta`` scales the
    seeded dictionary perturbation by ``delta**mu`` and, when
    ``perturb_interaction`` is set, the coupling perturbation too.
    """

    centers: np.ndarray
    contrasts: np.ndarray
    c_m: float
    kappa: float
    coupling: np.ndarray
    dictionary: np.ndarray
    delta: float
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
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        for name, arr in (("centers", centers), ("contrasts", contrasts),
                          ("coupling", coupling), ("dictionary", dictionary)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def n_intensities(self) -> int:
        return self.dictionary.shape[1]


def _seeded_unit(shape, seed: int, index: int) -> np.ndarray:
    gen = rng.stream(seed, rng.PURPOSE_PERTURBATION, index)
    raw = gen.standard_normal(shape)
    return raw / np.linalg.norm(raw, 2)


def effective_dictionary(config: PlasmonicConfig) -> np.ndarray:
    """Dictionary with the seeded O(delta**mu) perturbation applied."""
    if config.delta == 0.0:
        return config.dictionary.copy()
    pert = _seeded_unit(config.dictionary.shape, config.seed, 0)
    return config.dictionary + config.delta ** config.mu * pert


def _effective_coupling(config: PlasmonicConfig) -> np.ndarray:
    if not config.perturb_interaction or config.delta == 0.0:
        return config.coupling.copy()
    pert = _seeded_unit(config.coupling.shape, config.seed, 1)
    return config.coupling + config.delta ** config.mu * pert


@dataclass
class VolterraSolution:
    times: np.ndarray
    sigma: np.ndarray    # (Q + 1, M) or (Q + 1, M, R) amplitudes
    forcing: np.ndarray  # right-hand side samples, shaped like sigma


def _grid_step(times: np.ndarray) -> float:
    if times.shape[0] < 2:
        raise ValueError("at least two time samples are required")
    dt = times[1] - times[0]
    if dt <= 0 or np.max(np.abs(np.diff(times) - dt)) > 1e-12 * max(dt, 1.0):
        raise ValueError("time samples must form a uniform increasing grid")
    return float(dt)


def _memory_table(centers, coupling, kappa: float, dt: float,
                  q_steps: int) -> np.ndarray:
    """Coupling-weighted kernel table; the coupling diagonal is ignored."""
    weights = np.asarray(coupling, dtype=float).copy()
    np.fill_diagonal(weights, 0.0)
    return weights[None] * _kernel_table(centers, kappa, dt, q_steps)


def _lag_reversed(table: np.ndarray) -> np.ndarray:
    """``flat[i, k * m + j] = table[Q - k, i, j]`` for a (Q + 1, m, m) table."""
    lags, m, _ = table.shape
    return np.ascontiguousarray(table[::-1].transpose(1, 0, 2)).reshape(
        m, lags * m)


def _history(flat: np.ndarray, amplitudes: np.ndarray, q: int) -> np.ndarray:
    """Trapezoid memory sum ``sum_{s<q} w_s table[q - s] @ sigma[s]``.

    ``flat`` is the lag-reversed table (``_lag_reversed``) and
    ``amplitudes`` holds ``sigma[0..q-1]`` stacked as ((Q + 1) * m, R)
    rows.  The weights are 1/2 at s = 0 and 1 after it; ``table[0]`` is
    zero, so the s = q end of the rule does not enter.
    """
    m = flat.shape[0]
    end = flat.shape[1] - m
    start = end - q * m
    return (flat[:, start:end] @ amplitudes[:q * m]
            - 0.5 * flat[:, start:start + m] @ amplitudes[:m])


def volterra_solve(centers, coupling, kappa: float, times,
                   forcing) -> VolterraSolution:
    """March the coupled amplitude system by product trapezoid rule.

    The memory integral of each pair uses the time derivative of the
    free-space kernel between the two centers; the rule is second order
    for smooth forcing.  That kernel vanishes at lag zero, so every step
    is explicit: the new amplitudes are the forcing minus the history sum,
    which is one matrix product per step over the lag-reversed table.

    ``forcing`` is ``(Q + 1, M)``, or ``(Q + 1, M, R)`` to march R
    right-hand sides at once; ``sigma`` has the same shape.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = centers.shape[0]
    times = np.asarray(times, dtype=float)
    forcing = np.asarray(forcing, dtype=float)
    dt = _grid_step(times)
    q_steps = times.shape[0] - 1
    if forcing.ndim not in (2, 3) or forcing.shape[:2] != (q_steps + 1, m):
        raise ValueError("forcing must be sampled on the grid, per particle")

    flat = _lag_reversed(_memory_table(centers, coupling, kappa, dt, q_steps))
    rhs = forcing.reshape(q_steps + 1, m, -1)
    # C order whatever the forcing's layout, so ``stacked`` is a view.
    sigma = np.empty(rhs.shape)
    stacked = sigma.reshape((q_steps + 1) * m, -1)
    sigma[0] = rhs[0]
    for q in range(1, q_steps + 1):
        sigma[q] = rhs[q] - dt * _history(flat, stacked, q)
    return VolterraSolution(times.copy(), sigma.reshape(forcing.shape),
                            forcing.copy())


def forcing_from_intensities(config: PlasmonicConfig,
                             intensities: np.ndarray) -> np.ndarray:
    """Per-particle forcing samples from illumination intensity samples."""
    return _dictionary_forcing(config, intensities,
                               effective_dictionary(config))


def _dictionary_forcing(config: PlasmonicConfig, intensities,
                        dictionary: np.ndarray) -> np.ndarray:
    intensities = np.asarray(intensities, dtype=float)
    if intensities.ndim != 2 or intensities.shape[1] != config.n_intensities:
        raise ValueError("intensities must have shape (samples, P)")
    return intensities @ dictionary.T


def heat_inputs_from_sigma(config: PlasmonicConfig,
                           solution: VolterraSolution) -> np.ndarray:
    """Heat inputs G_i = (alpha_i / c_m) * sigma_i, sampled on the grid."""
    sigma = solution.sigma
    scale = config.contrasts / config.c_m
    return sigma * scale.reshape((-1,) + (1,) * (sigma.ndim - 2))


def run_pipeline(config: PlasmonicConfig, times,
                 intensities: np.ndarray) -> np.ndarray:
    """Intensities -> forcing -> amplitudes -> heat inputs, on one grid."""
    forcing = forcing_from_intensities(config, intensities)
    sol = volterra_solve(config.centers, _effective_coupling(config),
                         config.kappa, times, forcing)
    return heat_inputs_from_sigma(config, sol)


def unit_heat_inputs(config: PlasmonicConfig, times,
                     profile: np.ndarray) -> np.ndarray:
    """Heat inputs under the unit forcings ``profile * e_j``, one march.

    Returns ``g[t, i, j]``, the heat input of particle i when only
    particle j is forced, with the profile.  It does not involve the
    dictionary, so it depends on ``delta`` only through the coupling, that
    is only when ``perturb_interaction`` is set.
    """
    times = np.asarray(times, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if profile.shape != times.shape:
        raise ValueError("profile must be sampled on the time grid")
    forcing = profile[:, None, None] * np.eye(config.count)[None]
    sol = volterra_solve(config.centers, _effective_coupling(config),
                         config.kappa, times, forcing)
    return heat_inputs_from_sigma(config, sol)


def resonance_gain(delta: float, shape_exponent: float, im_eps: float,
                   enhancement, intensity: float) -> np.ndarray:
    """Per-particle gain ``im_eps * delta**(3 - 2h) * A_i * intensity``.

    The scaling exponent 3 - 2h must stay positive-definite in the model
    sense: shape exponents h >= 1.5 break the smallness regime and raise.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if shape_exponent >= 1.5:
        raise ValueError("shape exponent must be below 3/2 for the model")
    if im_eps < 0 or intensity < 0:
        raise ValueError("im_eps and intensity must be nonnegative")
    enhancement = np.asarray(enhancement, dtype=float)
    if np.any(enhancement < 0):
        raise ValueError("enhancement factors must be nonnegative")
    return im_eps * delta ** (3.0 - 2.0 * shape_exponent) * enhancement * intensity


def _l2_inner(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trapezoid(a * b, times))


@dataclass(frozen=True)
class ActuationMap:
    """Calibrated linear compression of the pipeline onto one profile.

    ``k0[i, l]`` is the profile coefficient of heat input i when the
    dictionary is probed with unit intensity l; ``residuals[l]`` is the
    L2 mass the probe left outside the profile span.
    """

    k0: np.ndarray
    pinv: np.ndarray
    sigma_min: float
    residuals: np.ndarray
    profile: np.ndarray
    times: np.ndarray


def calibrate_k0(config: PlasmonicConfig, times, profile: np.ndarray,
                 units: np.ndarray | None = None) -> ActuationMap:
    """Probe every dictionary column and project outputs on the profile.

    The probes are superposed from the unit heat inputs ``units`` (built
    here when not given): the output of column l is ``g @ D_eff[:, l]``,
    so ``k0 = K_unit @ D_eff`` with ``K_unit`` the profile coefficients
    of ``g``.
    """
    times = np.asarray(times, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if profile.shape != times.shape:
        raise ValueError("profile must be sampled on the time grid")
    denom = _l2_inner(times, profile, profile)
    if denom <= 0.0:
        raise ValueError("profile must be nonzero")
    if units is None:
        units = unit_heat_inputs(config, times, profile)
    d_eff = effective_dictionary(config)
    k_unit = np.trapezoid(units * profile[:, None, None], times,
                          axis=0) / denom
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
                        profile.copy(), times.copy())


def nnls_active_set(a: np.ndarray, b: np.ndarray, max_iter: int | None = None,
                    tol: float | None = None):
    """Nonnegative least squares by the classic active-set iteration.

    Returns ``(x, residual_norm)`` with x >= 0 minimizing ``|a x - b|``.
    At the solution the gradient is nonnegative on the active (zero)
    coordinates, which is the first-order optimality the tests probe.
    Exceeding the iteration cap raises, carrying the best iterate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("right-hand side length must match the rows of a")
    if max_iter is None:
        max_iter = 3 * n + 30
    if tol is None:
        tol = 10 * max(m, n) * np.finfo(float).eps * np.linalg.norm(a, 2)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iterations = 0
    while True:
        grad = a.T @ (b - a @ x)
        candidates = np.where(~passive)[0]
        if candidates.size == 0 or np.max(grad[candidates]) <= tol:
            return x, float(np.linalg.norm(a @ x - b))
        iterations += 1
        if iterations > max_iter:
            raise NonConvergenceError(
                "active-set iteration cap exceeded", best=x)
        passive[candidates[np.argmax(grad[candidates])]] = True
        while True:
            s = np.zeros(n)
            cols = np.where(passive)[0]
            s[cols], *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if np.all(s[cols] > 0.0):
                x = s
                break
            # Step to the boundary of the feasible cone and drop a column.
            blocking = cols[s[cols] <= 0.0]
            alpha = np.min(x[blocking] / (x[blocking] - s[blocking]))
            x = x + alpha * (s - x)
            tiny = np.finfo(float).eps * max(1.0, float(np.max(np.abs(x))))
            drop = passive & (x <= tiny)
            x[drop] = 0.0
            passive[drop] = False


def invert_actuation(amap: ActuationMap, u_des: np.ndarray,
                     nonnegative: bool = False,
                     consistency_tol: float = 1e-9):
    """Recover intensity coefficients realizing desired profile weights.

    Signed mode returns the minimum-norm solution of ``k0 p = u_des`` and
    verifies the reconstruction to ``consistency_tol``.  Nonnegative mode
    solves the same system in the least-squares sense over p >= 0 and
    returns the residual norm alongside the coefficients.
    """
    u_des = np.asarray(u_des, dtype=float).reshape(-1)
    if u_des.shape[0] != amap.k0.shape[0]:
        raise ValueError("one desired weight per particle is required")
    if nonnegative:
        return nnls_active_set(amap.k0, u_des)
    p = amap.pinv @ u_des
    residual = float(np.linalg.norm(amap.k0 @ p - u_des))
    if residual > consistency_tol * max(1.0, float(np.linalg.norm(u_des))):
        raise RankDeficiencyError(
            f"signed inversion inconsistent (residual {residual:.3e})",
            amap.sigma_min)
    return p, residual


def _coupling_forcing(config: PlasmonicConfig, times: np.ndarray,
                      intensities: np.ndarray) -> np.ndarray:
    """Forcing whose effective-coupling march is the coupling remainder.

    With ``sigma`` the leading amplitudes (base coupling and dictionary),
    the effective-coupling amplitudes of the same forcing exceed them by
    the effective-coupling march of
    ``h[q] = -dt * sum_{s<q} w_s (W_eff - W)[q-s] sigma[s]``, the
    trapezoid history of the coupling perturbation; this returns h.
    """
    leading = volterra_solve(
        config.centers, config.coupling, config.kappa, times,
        _dictionary_forcing(config, intensities, config.dictionary)).sigma
    dt = _grid_step(times)
    q_steps = times.shape[0] - 1
    flat = _lag_reversed(_memory_table(
        config.centers, _effective_coupling(config) - config.coupling,
        config.kappa, dt, q_steps))
    stacked = leading.reshape(-1, 1)
    h = np.zeros_like(leading)
    for q in range(1, q_steps + 1):
        h[q] = -dt * _history(flat, stacked, q)[:, 0]
    return h


def _series_norm(times: np.ndarray, series: np.ndarray) -> float:
    norm2 = sum(_l2_inner(times, series[:, i], series[:, i])
                for i in range(series.shape[1]))
    return float(np.sqrt(max(norm2, 0.0)))


def realized_remainder(config: PlasmonicConfig, times,
                       intensities: np.ndarray):
    """Pipeline output minus its leading (delta = 0) model prediction.

    Formed directly, as one effective-coupling march of the forcing
    ``I (D_eff - D)^T``, never as the difference of two nearly equal
    pipeline outputs.  With ``perturb_interaction`` set, the forcing also
    carries the coupling term (``_coupling_forcing``).  At ``delta = 0``
    the forcing, hence the remainder, is exactly zero.

    Returns ``(rho, norm)`` where rho is the per-particle time series of
    the mismatch and norm is its aggregate L2 size over all particles.
    """
    times = np.asarray(times, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    gap = effective_dictionary(config) - config.dictionary
    forcing = _dictionary_forcing(config, intensities, gap)
    if config.perturb_interaction:
        forcing = forcing + _coupling_forcing(config, times, intensities)
    sol = volterra_solve(config.centers, _effective_coupling(config),
                         config.kappa, times, forcing)
    rho = heat_inputs_from_sigma(config, sol)
    return rho, _series_norm(times, rho)


def realize_profile(config: PlasmonicConfig, times, profile: np.ndarray,
                    units: np.ndarray, coeffs: np.ndarray):
    """Heat inputs and remainder of the intensities ``profile * coeffs``.

    Superposed from the unit heat inputs ``units`` of this config:
    ``g_real = g @ (D_eff p)`` and the remainder ``g @ ((D_eff - D) p)``.
    With ``perturb_interaction`` set the remainder also has a coupling
    term, so it comes from ``realized_remainder`` instead.

    Returns ``(g_real, norm)`` with norm the remainder's aggregate L2 size.
    """
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    d_eff = effective_dictionary(config)
    g_real = units @ (d_eff @ coeffs)
    if config.perturb_interaction:
        intensities = np.asarray(profile, dtype=float)[:, None] * coeffs[None]
        _, norm = realized_remainder(config, times, intensities)
    else:
        norm = _series_norm(
            times, units @ ((d_eff - config.dictionary) @ coeffs))
    return g_real, norm
