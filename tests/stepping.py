"""Per-step references for the exact forced-heat and closed-loop marches.

One exact step at a time, each sample's modal forcing formed on its own:
the loop that ``heattrack.spectral.march_forced`` replaces with a prefix
scan, kept here as its oracle, together with the unforced flow it reduces
to without inputs.  ``expm_march`` steps a dense affine system with one
matrix exponential, the oracle of the closed-loop eigen-solution, and
``fitted_slowest_decay`` measures the loop's decay rate by simulating it,
the oracle of the rate the gain search reads off the spectrum.
"""

import numpy as np
import scipy.linalg

from heattrack.control import decay_rate_fit, simulate_closed_loop
from heattrack.spectral import eval_modes, phi1, phi2


def step_march(table, points, y0, inputs, dt):
    lam = table.eigenvalues
    e_mat = eval_modes(table, points).T  # (K, M)
    decay = np.exp(-lam * dt)
    f1 = phi1(lam, dt)
    f2 = phi2(lam, dt)
    inputs = np.asarray(inputs, dtype=float)
    states = np.empty((inputs.shape[0], table.size))
    c = np.asarray(y0, dtype=float).copy()
    states[0] = c
    for q in range(inputs.shape[0] - 1):
        b0 = e_mat @ inputs[q]
        b1 = e_mat @ inputs[q + 1]
        c = c * decay + b0 * f1 + (b1 - b0) * f2
        states[q + 1] = c
    return states


def semigroup_apply(table, z, t):
    """Run the unforced heat flow on coefficients z for time t >= 0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return z * np.exp(-table.eigenvalues * t)


def expm_march(a, forcing, z0, dt, steps):
    """March dz/dt = a @ z + forcing by its exact step propagator.

    The propagator and the step integral of the constant forcing are the
    blocks of one augmented exponential, which needs no inverse of ``a``,
    so singular generators march too.
    """
    k = len(forcing)
    aug = np.zeros((k + 1, k + 1))
    aug[:k, :k] = a * dt
    aug[:k, k] = forcing * dt
    step = scipy.linalg.expm(aug)
    propagator, affine = step[:k, :k], step[:k, k]
    states = np.empty((steps + 1, k))
    states[0] = z0
    for i in range(steps):
        states[i + 1] = propagator @ states[i] + affine
    return states


def fitted_slowest_decay(system):
    """``(mu_hat, residual)`` of the loop started on its slowest mode.

    The loop's slowest eigenvector, W^(-1/2) times that of its resolvent
    frame matrix and scaled to unit Vdual norm, is marched exactly over 80
    steps to twice its decay time, and the Vdual log-norm slope fitted:
    the simulate-and-fit measurement of the decay rate that the loop
    spectrum gives directly.
    """
    spec = system._spectrum
    rate = -float(spec.mu[-1])
    z0 = spec.vecs[:, -1] / spec.root_w
    z0 = z0 / np.linalg.norm(z0 / (1.0 + system.table.eigenvalues))
    horizon = 2.0 / rate
    record = simulate_closed_loop(system, z0, horizon, horizon / 80)
    return decay_rate_fit(record)
