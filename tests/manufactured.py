"""Manufactured solution of the two-particle amplitude march.

The amplitudes have generic endpoint behaviour, so the trapezoid memory
rule shows its true second order.  The forcing that produces them adds
the coupled memory integrals, each summed by composite Gauss-Legendre
quadrature over tau (8 panels of order 40), vectorised over every sample
time and node at once.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

CENTERS = np.array([[0.3], [0.7]])
BETA = 0.5
HORIZON = 0.5
KAPPA = 1.0
R2 = float(np.sum((CENTERS[0] - CENTERS[1]) ** 2))


def sigma(t):
    s = np.asarray(t, dtype=float) / HORIZON
    return np.stack([np.cos(np.pi * s) + 0.5 * s,
                     np.exp(-s) * (1.0 + 2.0 * s)], axis=-1)


def kernel_derivative(s):
    """Time derivative of the 1-D free-space kernel between the centers."""
    phi = (4.0 * np.pi * KAPPA * s) ** -0.5 * np.exp(-R2 / (4.0 * KAPPA * s))
    return phi * (-0.5 / s + R2 / (4.0 * KAPPA * s * s))


def forcing(times, order=40, panels=8):
    """Forcing whose coupled march (coupling BETA) has amplitudes sigma."""
    times = np.asarray(times, dtype=float)
    nodes, weights = leggauss(order)
    edges = np.linspace(0.0, times, panels + 1, axis=-1)
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    taus = 0.5 * (hi - lo) * (nodes + 1) + lo        # (T, panels, order)
    lags = times[:, None, None] - taus
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.where(lags > 0.0, kernel_derivative(lags), 0.0)
    w = 0.5 * (hi - lo) * weights * kern
    # particle i remembers particle j = 1 - i through the same kernel
    memory = np.einsum("tpn,tpnj->tj", w, sigma(taus))[:, ::-1]
    return sigma(times) + BETA * memory
