"""Tensor Gauss-Legendre quadrature on a domain, for projection checks."""

import numpy as np


def gauss_legendre_grid(domain, order: int):
    """Tensor Gauss-Legendre nodes and weights covering the domain."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
    axes, weights = [], []
    for L in domain.lengths:
        axes.append(0.5 * L * (nodes_1d + 1.0))
        weights.append(0.5 * L * weights_1d)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*weights, indexing="ij")
    w = np.ones(pts.shape[0])
    for wg in wgrids:
        w = w * wg.ravel()
    return pts, w
