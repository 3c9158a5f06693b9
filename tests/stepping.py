"""Per-step reference for the exact forced-heat march.

One exact step at a time, each sample's modal forcing formed on its own:
the loop that ``heattrack.spectral.march_forced`` replaces with a prefix
scan, kept here as its oracle, together with the unforced flow it reduces
to without inputs.
"""

import numpy as np

from heattrack.spectral import SpectralField, eval_modes, phi1, phi2


def step_march(table, points, y0, inputs, dt, hold):
    lam = table.eigenvalues
    e_mat = eval_modes(table, points).T  # (K, M)
    decay = np.exp(-lam * dt)
    f1 = phi1(lam, dt)
    f2 = phi2(lam, dt) if hold == "linear" else np.zeros_like(lam)
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


def semigroup_apply(z, t):
    """Run the unforced heat flow for time t >= 0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return SpectralField(z.table, z.coeffs * np.exp(-z.table.eigenvalues * t))
