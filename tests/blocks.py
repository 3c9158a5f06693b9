"""Dense oracles for the inverse blocks of the closed-loop generator.

The library reads the bias matrix T_N and the Schur blocks of the
contraction certificates off the loop's one eigen-decomposition.  These
are the direct formulas it replaced: an LU solve of the generator against
the per-mode feedforward forcings for T_N, and the explicit inverse of the
tail block a22 with the Schur complement S = a11 - a12 a22^-1 a21 for
``schur_norm`` = ||S^-1||_2 and ``l_n`` = ||S^-1 a12 a22^-1||_2.
"""

import numpy as np

from heattrack import control
from heattrack.placement import min_norm_feedforward


def bias_matrix_lu(matrices, gain):
    """T_N by one LU solve: probe each controlled mode with its own
    feedforward and keep the stationary low modes."""
    n = matrices.n_modes
    eye = np.eye(n)
    u_cols = np.stack([min_norm_feedforward(eye[k], matrices)
                       for k in range(n)], axis=1)
    forcing = matrices.values.T @ u_cols
    forcing[:n] -= np.diag(matrices.table.eigenvalues[:n])
    return np.linalg.solve(control._generator(matrices, gain), -forcing)[:n]


def schur_norms(a_cl, n):
    """``(schur_norm, l_n)`` from the explicit block inverse."""
    a11, a12 = a_cl[:n, :n], a_cl[:n, n:]
    a21, a22 = a_cl[n:, :n], a_cl[n:, n:]
    a22_inv = np.linalg.inv(a22)
    schur = a11 - a12 @ a22_inv @ a21
    return (1.0 / np.linalg.svd(schur, compute_uv=False)[-1],
            np.linalg.norm(np.linalg.inv(schur) @ a12 @ a22_inv, 2))


def contraction_bounds(matrices, gain):
    """Mechanisms A and C of ``contraction_diagnostics`` from the dense
    blocks: the Schur norms above, the dense tail feedback block for beta
    and the assembled generator for ||a12||."""
    n = matrices.n_modes
    lam = matrices.table.eigenvalues
    a_cl = control._generator(matrices, gain)
    schur_norm, l_n = schur_norms(a_cl, n)
    beta = np.linalg.norm(a_cl[n:, n:] + np.diag(lam[n:]), 2)
    scale = (np.linalg.norm(matrices.values, 2) * np.max(lam[:n])
             / matrices.sigma_min)
    margin = lam[n] - beta
    bound_a = (schur_norm * np.linalg.norm(a_cl[:n, n:], 2) / margin * scale
               if margin > 0 else np.inf)
    return bound_a, l_n * scale
