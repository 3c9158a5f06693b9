"""Closed-loop tracking in the truncated mode space.

The loop couples the diagonal heat generator to output feedback through
point samples smoothed by one resolvent power.  State vectors here are the
error coordinates z = y - y_star; all operators are dense K x K matrices
over the mode table carried by the sampling data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (InsufficientSignalError, NonConvergenceError,
                     SingularSystemError)
from .placement import SamplingMatrices, min_norm_feedforward
from .spectral import line_fit, march_forced

__all__ = [
    "ClosedLoopSystem",
    "assemble_closed_loop",
    "grid_steps",
    "time_grid",
    "simulate_closed_loop",
    "decay_rate_fit",
    "assemble_bias_matrix",
    "fixed_point_reference",
    "tail_mismatch_report",
    "contraction_diagnostics",
    "cross_integrator_check",
    "doubling_gain_search",
]

# Largest feedback gain the doubling search probes.
GAIN_CAP = 2 ** 16


class _Spectrum(NamedTuple):
    """Eigen-decomposition a_cl = diag(1/root_w) @ vecs @ diag(mu) @ vecs.T
    @ diag(root_w), with mu ascending and vecs orthogonal."""

    mu: np.ndarray
    vecs: np.ndarray
    root_w: np.ndarray      # W^(1/2) = (1 + lambda)^(-1/2)
    singular: bool          # smallest |mu| at roundoff of the largest

    def to_w(self, z: np.ndarray) -> np.ndarray:
        """Eigen-coordinates vecs.T @ W^(1/2) z of states on the last axis."""
        return (z * self.root_w) @ self.vecs

    def from_w(self, w: np.ndarray) -> np.ndarray:
        return (w @ self.vecs.T) / self.root_w

    def inverse_head(self, n: int) -> np.ndarray:
        """The first n rows (not columns: a_cl is not symmetric) of a_cl^-1."""
        return ((self.vecs[:n] / self.mu) @ self.vecs.T
                * (self.root_w / self.root_w[:n, None]))


def _w_eigh(a_cl: np.ndarray, lam: np.ndarray) -> _Spectrum:
    """Spectrum of the loop generator in the resolvent frame.

    The feedback samples W z at the actuators, W = diag(1/(1 + lambda)),
    so a_cl = -Lambda - gain * E E^T W and S = W^(1/2) a_cl W^(-1/2) is
    symmetric: the loop is self-adjoint in <x, y>_W = x^T W y.  S is
    symmetrised against roundoff before one ``eigh``; every eigenvalue is
    real and, for a nonnegative gain, nonpositive.
    """
    root_w = 1.0 / np.sqrt(1.0 + lam)
    s = root_w[:, None] * a_cl / root_w[None, :]
    mu, vecs = np.linalg.eigh(0.5 * (s + s.T))
    scale = np.abs(mu)
    singular = bool(np.min(scale) <= 1e-13 * max(np.max(scale), 1.0))
    return _Spectrum(mu, vecs, root_w, singular)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Assembled error dynamics dz/dt = a_cl @ z + forcing."""

    matrices: SamplingMatrices
    gain: float
    reference: np.ndarray       # (K,) target coefficients, zero past N
    u_ff: np.ndarray
    a_cl: np.ndarray
    forcing: np.ndarray

    @property
    def table(self):
        return self.matrices.table

    @cached_property
    def _spectrum(self) -> _Spectrum:
        # The loop's one factorization: the march, the equilibrium, T_N
        # and the contraction certificates read it; retarget keeps it.
        return _w_eigh(self.a_cl, self.table.eigenvalues)

    def _inverse(self) -> _Spectrum:
        """The spectrum, to invert a_cl with; raises when it is singular."""
        spec = self._spectrum
        if spec.singular:
            raise SingularSystemError("closed-loop generator is singular",
                                      float(np.min(np.abs(spec.mu))))
        return spec

    def _equilibrium_w(self) -> np.ndarray:
        """Eigen-coordinates of the stationary state; raises when singular."""
        spec = self._inverse()
        return -spec.to_w(self.forcing) / spec.mu

    def retarget(self, reference) -> ClosedLoopSystem:
        """The same loop, spectrum kept, driven toward another reference."""
        system = _driven(self.matrices, self.gain, self.a_cl, reference)
        system.__dict__["_spectrum"] = self._spectrum  # the cached eigh
        return system


def _generator(matrices: SamplingMatrices, gain: float) -> np.ndarray:
    """The loop generator -Lambda - gain * E D: E = values.T injects the
    inputs at the actuators, D samples the resolvent-smoothed state."""
    if not (np.isfinite(gain) and gain >= 0):
        raise ValueError("feedback gain must be finite and nonnegative")
    return (-np.diag(matrices.table.eigenvalues)
            - gain * (matrices.values.T @ matrices.d_matrix))


def assemble_closed_loop(matrices: SamplingMatrices, gain: float,
                         reference) -> ClosedLoopSystem:
    """Build the closed-loop generator and its constant forcing.

    ``reference`` gives the first N coefficients of the stationary target.
    The minimum-norm feedforward for that reference must cancel the first
    N forcing entries; that cancellation is checked to 1e-10.
    """
    a_cl = _generator(matrices, gain)
    return _driven(matrices, float(gain), a_cl, reference)


def _driven(matrices: SamplingMatrices, gain: float, a_cl: np.ndarray,
            reference) -> ClosedLoopSystem:
    """The loop ``a_cl`` with the feedforward and forcing of a reference."""
    table = matrices.table
    lam = table.eigenvalues
    n = matrices.n_modes
    a_ref = np.asarray(reference, dtype=float)
    if a_ref.shape != (n,):
        raise ValueError("reference coefficients must have length n_modes")

    u_ff = min_norm_feedforward(a_ref, matrices)
    ref_full = np.zeros(table.size)
    ref_full[:n] = a_ref
    forcing = -lam * ref_full + matrices.values.T @ u_ff
    scale = max(1.0, float(np.linalg.norm(forcing)))
    if np.max(np.abs(forcing[:n])) > 1e-10 * scale:
        raise SingularSystemError(
            "feedforward failed to cancel the controlled-mode forcing")
    return ClosedLoopSystem(matrices, gain, ref_full, u_ff, a_cl, forcing)


def _solve_square(a: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= 1e-13 * max(s[0], 1.0):
        raise SingularSystemError(f"{what} is singular", float(s[-1]))
    return np.linalg.solve(a, rhs)


def equilibrium(system: ClosedLoopSystem) -> np.ndarray:
    """Stationary error state, the solution of a_cl z = -forcing."""
    return system._spectrum.from_w(system._equilibrium_w())


class TrajectoryRecord(NamedTuple):
    """Uniform-grid trajectory of the error state and the applied inputs."""

    times: np.ndarray
    states: np.ndarray          # (steps + 1, K) error coefficients
    inputs: np.ndarray          # (steps + 1, M) u = u_ff - gain * obs
    norms_h: np.ndarray         # H norm of z - z_inf per sample
    norms_vdual: np.ndarray     # Vdual norm of z - z_inf per sample
    z_inf: np.ndarray | None    # None when the generator is singular


def grid_steps(horizon: float, dt: float) -> int:
    """Steps of ``time_grid``, checked without forming the grid."""
    if not (dt > 0 and horizon > 0):
        raise ValueError("horizon and dt must be positive")
    if not np.isfinite(horizon / dt):
        raise ValueError("horizon / dt must be finite")
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    return steps


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Sample times 0, dt, ..., horizon; ValueError unless dt divides it."""
    return np.arange(grid_steps(horizon, dt) + 1) * dt


def simulate_closed_loop(system: ClosedLoopSystem, z0: np.ndarray,
                         horizon: float, dt: float) -> TrajectoryRecord:
    """Sample the closed loop exactly on a uniform grid.

    In the eigen-coordinates w of the self-adjoint loop every mode obeys
    w' = mu w + f, so ``w(t) = exp(mu t) w0 + expm1(mu t) / mu * f`` (with
    ``t f`` where mu t underflows to 0), evaluated at every grid time at
    once.  With mu <= 0 nothing overflows.  The offset from the stationary
    state, whose norms the record keeps, is formed directly as
    ``exp(mu t) (w0 - w_inf)``.  The states keep the ``expm1`` form, of
    size ``t f``: on a nearly singular loop w_inf = -f / mu is huge, and
    ``z_inf + offset`` would cancel it.
    """
    times = time_grid(horizon, dt)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.table.size,):
        raise ValueError("initial state must have one coefficient per mode")
    spec = system._spectrum
    w0 = spec.to_w(z0)
    f = spec.to_w(system.forcing)
    mu_t = np.outer(times, spec.mu)
    decay = np.exp(mu_t)
    # A subnormal mu lets mu t underflow, and expm1(mu t) / mu read 0, not
    # t.  Two comparisons, not abs(): no (Q+1, K) float temporary.
    tiny = np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_t = np.where((-tiny < mu_t) & (mu_t < tiny), times[:, None],
                         np.expm1(mu_t) / spec.mu)
    states = spec.from_w(decay * w0 + phi_t * f)
    if spec.singular:
        z_inf, offset = None, states
    else:
        w_inf = system._equilibrium_w()
        z_inf = spec.from_w(w_inf)
        offset = spec.from_w(decay * (w0 - w_inf))
    lam = system.table.eigenvalues
    norms_h = np.linalg.norm(offset, axis=1)
    norms_vdual = np.linalg.norm(offset / (1.0 + lam)[None, :], axis=1)
    inputs = system.u_ff[None, :] - system.gain * (states @ system.matrices.d_matrix.T)
    return TrajectoryRecord(times, states, inputs, norms_h, norms_vdual,
                            z_inf)


def decay_rate_fit(record: TrajectoryRecord):
    """Least-squares exponential rate of the recorded Vdual norm decay.

    Returns ``(mu_hat, residual)`` where ``mu_hat`` is the negated slope of
    log-norm against time over the samples above 1e-12 and ``residual``
    is the rms misfit of that line.  Fewer than 10 usable samples raise an
    insufficient-signal error.
    """
    values = record.norms_vdual
    mask = values > 1e-12
    if int(np.sum(mask)) < 10:
        raise InsufficientSignalError(
            f"only {int(np.sum(mask))} samples above 1e-12")
    slope, _, residual, _ = line_fit(record.times[mask],
                                     np.log(values[mask]))
    return -slope, residual


class BiasMatrix(NamedTuple):
    """Low-mode stationary bias operator of the truncated loop.

    Column k holds the first N coefficients of the stationary error
    reached when the reference is the k-th controlled eigenfunction.
    ``norm`` is the spectral norm, the Picard contraction factor.
    """

    matrix: np.ndarray
    norm: float


def assemble_bias_matrix(system: ClosedLoopSystem) -> BiasMatrix:
    """Stationary low modes of the loop on each controlled eigenfunction:
    the first N rows of -a_cl^-1 F, F's column k the forcing -lambda_k e_k
    + E u_k of mode k with its feedforward u_k.  One feedforward solve
    gives every u_k, and the loop spectrum the rows of a_cl^-1; T_N does
    not depend on the system's reference."""
    matrices = system.matrices
    n = matrices.n_modes
    spec = system._inverse()
    forcing = matrices.values.T @ min_norm_feedforward(np.eye(n), matrices)
    forcing[:n] -= np.diag(matrices.table.eigenvalues[:n])
    t_mat = -(spec.inverse_head(n) @ forcing)
    return BiasMatrix(t_mat, float(np.linalg.norm(t_mat, 2)))


class FixedPointResult(NamedTuple):
    a_star: np.ndarray
    used_picard: bool
    picard_errors: np.ndarray  # distance of each iterate to the direct solve


def fixed_point_reference(bias: BiasMatrix, a_target,
                          picard: bool = False) -> FixedPointResult:
    """Solve (I + T_N) a_star = a_target, optionally tracing Picard.

    The direct solve is always performed.  With ``picard=True`` and a
    contractive bias matrix the iterates a -> a_target - T_N a are run, to
    1e-14 relative in at most 200 steps, and their distances to the direct
    solution recorded; a non-contractive bias matrix downgrades to the
    direct result with a warning.
    """
    a_target = np.asarray(a_target, dtype=float)
    n = bias.matrix.shape[0]
    if a_target.shape != (n,):
        raise ValueError("target coefficients must have length N")
    a_star = _solve_square(np.eye(n) + bias.matrix, a_target,
                           "I + bias matrix")
    if not picard:
        return FixedPointResult(a_star, False, np.empty(0))
    if bias.norm >= 1.0:
        warnings.warn("bias matrix norm >= 1; Picard skipped, direct solve "
                      "returned", RuntimeWarning, stacklevel=2)
        return FixedPointResult(a_star, False, np.empty(0))
    errors = []
    y = a_target.copy()
    for _ in range(200):
        errors.append(float(np.linalg.norm(y - a_star)))
        if errors[-1] <= 1e-14 * max(1.0, float(np.linalg.norm(a_target))):
            break
        y = a_target - bias.matrix @ y
    else:
        raise NonConvergenceError("Picard iteration hit the iteration cap",
                                  best=y)
    return FixedPointResult(a_star, True, np.asarray(errors))


class TailReport(NamedTuple):
    """Measured stationary mismatch versus the assembled tail bound.

    All norms are taken in the frame where the resolvent weight
    1/(1 + lambda_k) is the natural metric, which makes every factor of
    the bound an exact finite-dimensional operator norm.
    """

    low_mode_mismatch_h: float
    tail_vdual: float
    bound: float
    factors: dict
    satisfied: bool


def tail_mismatch_report(system: ClosedLoopSystem, bias: BiasMatrix,
                         a_target) -> TailReport:
    """Compare the achieved stationary state against the target and bound."""
    a_target = np.asarray(a_target, dtype=float)
    n = system.matrices.n_modes
    lam = system.table.eigenvalues
    y_inf = system.reference + equilibrium(system)

    low_mismatch = float(np.linalg.norm(y_inf[:n] - a_target))
    tail_vdual = float(np.linalg.norm(y_inf[n:] / (1.0 + lam[n:])))

    w = 1.0 / (1.0 + lam)
    a_inv = system._spectrum.inverse_head(lam.size)
    c_cl = float(np.linalg.norm(w[:, None] * a_inv / w[None, :], 2))
    e_mat = system.matrices.values.T
    tail_b = float(np.linalg.norm(w[n:, None] * e_mat[n:, :], 2))
    u_n = min_norm_feedforward(np.eye(n), system.matrices)
    u_n_norm = float(np.linalg.norm(u_n / w[None, :n], 2))
    inv_tn = np.linalg.inv(np.eye(n) + bias.matrix)
    inv_norm = float(np.linalg.norm((w[:n, None] * inv_tn) / w[None, :n], 2))
    y_ref_vdual = float(np.linalg.norm(w[:n] * a_target))
    factors = {
        "proj_norm": 1.0,
        "c_cl": c_cl,
        "tail_input_norm": tail_b,
        "u_n_norm": u_n_norm,
        "inverse_norm": inv_norm,
        "reference_vdual": y_ref_vdual,
    }
    bound = c_cl * tail_b * u_n_norm * inv_norm * y_ref_vdual
    return TailReport(low_mismatch, tail_vdual, bound, factors,
                      tail_vdual <= bound + 1e-12)


class ContractionDiagnostics(NamedTuple):
    """Block-level certificates that the stationary bias is a contraction.

    ``inconclusive`` names the steps that could not be evaluated.
    """

    bound_a: float
    bound_b: float
    bound_c: float
    inconclusive: tuple


def _tail_coupling_norm(matrices: SamplingMatrices, gain: float) -> float:
    """||gain * E_t D_t||_2, the feedback block among the tail modes.

    The block has rank at most M: with thin QR factors E_t = Q_E R_E and
    D_t^T = Q_D R_D its norm is gain * ||R_E R_D^T||_2, an SVD of order at
    most M instead of K - n.
    """
    n = matrices.n_modes
    r_e = np.linalg.qr(matrices.values[:, n:].T, mode="r")
    r_d = np.linalg.qr(matrices.d_matrix[:, n:].T, mode="r")
    return gain * float(np.linalg.norm(r_e @ r_d.T, 2))


def contraction_diagnostics(system: ClosedLoopSystem) -> ContractionDiagnostics:
    """Evaluate the three sufficient contraction mechanisms on one loop.

    Mechanism A bounds the inverse cross block through the tail resolvent
    margin and the Schur complement; mechanism B uses the semigroup bound
    M/alpha; mechanism C trades the input conditioning sigma_min against
    the measured cross block.  Each bound multiplies the input and
    feedforward norms into a bias-matrix estimate; the mechanism holds
    when that estimate is below one.

    The first n rows of a_cl^-1 are [S^-1, -S^-1 a12 a22^-1], S the Schur
    complement of a22, so the loop spectrum gives ||S^-1||_2 and l_n =
    ||S^-1 a12 a22^-1||_2.  a22 is W-negative definite, so S exists
    exactly when a_cl is nonsingular (see the README).

    Mechanism B works in the W frame, <x, y>_W = x^T W y, in which the loop
    is self-adjoint: ||exp(a_cl t)||_W = exp(-alpha t), so M = 1 exactly and
    ||a_cl^-1||_W = 1/alpha.  Its input norm is ||W^(1/2) E||_2, and its
    feedforward norm u_n_norm * sqrt(1 + lambda) at the largest controlled
    lambda bounds the map from the reference in the W norm of the
    controlled modes, so bound_b certifies the bias matrix in that norm.
    """
    n = system.matrices.n_modes
    k = system.table.size
    if n >= k:
        raise ValueError("diagnostics need at least one tail mode")
    lam = system.table.eigenvalues
    spec = system._spectrum
    beta = _tail_coupling_norm(system.matrices, system.gain)
    lam_next = float(lam[n])
    a12_norm = float(np.linalg.norm(system.a_cl[:n, n:], 2))

    if spec.singular:
        schur_norm, l_n = np.inf, (0.0 if a12_norm == 0.0 else np.inf)
        inconclusive = ["schur", "resolvent"]
    else:
        head = spec.inverse_head(n)
        schur_norm = float(np.linalg.norm(head[:, :n], 2))
        l_n = float(np.linalg.norm(head[:, n:], 2))
        inconclusive = []

    e_mat = system.matrices.values.T
    b_norm = float(np.linalg.norm(e_mat, 2))
    lam_low_max = float(np.max(lam[:n]))
    sigma_min = system.matrices.sigma_min
    u_n_norm = (lam_low_max / sigma_min) if sigma_min > 0 else np.inf

    alpha = float(-spec.mu[-1])
    m_est = 1.0 if alpha > 0 else np.inf
    if alpha <= 0:
        inconclusive.append("abscissa")

    margin = lam_next - beta
    if a12_norm == 0.0:
        bound_a = 0.0
    elif margin > 0 and np.isfinite(schur_norm):
        bound_a = schur_norm * a12_norm / margin * b_norm * u_n_norm
    else:
        bound_a = np.inf
        if "schur" not in inconclusive:
            inconclusive.append("tail-margin")
    b_norm_w = float(np.linalg.norm(spec.root_w[:, None] * e_mat, 2))
    bound_b = ((m_est / alpha) * b_norm_w * u_n_norm
               * np.sqrt(1.0 + lam_low_max) if alpha > 0 else np.inf)
    bound_c = l_n * b_norm * u_n_norm if np.isfinite(l_n) else np.inf

    return ContractionDiagnostics(bound_a, bound_b, bound_c,
                                  tuple(inconclusive))


def cross_integrator_check(system: ClosedLoopSystem, z0: np.ndarray) -> float:
    """Replay recorded inputs through the open-loop marcher.

    The closed-loop trajectory over 100 steps of 1e-7 is reconstructed in
    absolute coordinates by the exact Duhamel march of the recorded
    inputs, interpolated linearly between samples.  Both integrators agree
    to that interpolation error, second order in the step, which this
    check returns as the maximum H-norm deviation over the horizon.
    """
    steps, dt = 100, 1e-7
    record = simulate_closed_loop(system, z0, steps * dt, dt)
    ref = system.reference
    replay = march_forced(system.table, system.matrices.values, ref + z0,
                          record.inputs, dt)
    dev = np.linalg.norm(replay[1:] - (ref + record.states[1:]), axis=1)
    return float(np.max(dev))


def doubling_gain_search(matrices: SamplingMatrices, target_mu: float):
    """Double the feedback gain until the loop's decay rate reaches target.

    Each probe, at gain 1, 2, 4, ... up to ``GAIN_CAP``, forms the loop
    generator.  The loop is self-adjoint in the resolvent frame, so its
    decay rate is read off the generator's spectrum: the slowest mode
    decays at exactly ``-mu[-1]``.  Returns ``(gain, rate, trace)`` with the
    ``(gain, rate)`` history.  Passing the cap raises a non-convergence
    error carrying the trace.
    """
    if target_mu <= 0:
        raise ValueError("target rate must be positive")
    lam = matrices.table.eigenvalues
    gain = 1.0
    trace = []
    while gain <= GAIN_CAP:
        rate = -float(_w_eigh(_generator(matrices, gain), lam).mu[-1])
        trace.append((gain, rate))
        if rate >= target_mu:
            return gain, rate, trace
        gain *= 2.0
    raise NonConvergenceError(
        f"gain doubling hit the cap {GAIN_CAP:g} before reaching rate "
        f"{target_mu:g}", best=trace)
