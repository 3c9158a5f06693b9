"""Neumann eigenbasis tools on an interval or a rectangular box.

Everything downstream works in coefficient space: a field is the (K,)
coefficient array of a cosine-series truncation over a ModeTable, the
heat semigroup is diagonal on it, and point forcing enters through
eigenfunction values at the forcing locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "ModeTable",
    "enumerate_modes",
    "eval_modes",
    "uniform_step",
    "march_forced",
    "line_fit",
    "as_points",
    "EXP_FLOOR",
]

# Heat kernels treat exp(x) as an exact 0 for exponents x below -EXP_FLOOR.
EXP_FLOOR = 700.0


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular domain with an isotropic diffusivity.

    Parameters
    ----------
    kind : str
        Either ``"interval"`` or ``"box3"``.
    lengths : tuple of float
        Side lengths, one entry for an interval and three for a box.
    kappa : float
        Diffusivity, strictly positive.
    """

    kind: str
    lengths: tuple
    kappa: float

    def __post_init__(self):
        if self.kind not in ("interval", "box3"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        lengths = tuple(float(L) for L in self.lengths)
        expected = 1 if self.kind == "interval" else 3
        if len(lengths) != expected:
            raise ValueError(
                f"{self.kind} needs {expected} length(s), got {len(lengths)}")
        if not all(L > 0 and math.isfinite(L) for L in lengths):
            raise ValueError("side lengths must be positive and finite")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @staticmethod
    def interval(length: float, kappa: float = 1.0) -> "DomainSpec":
        return DomainSpec("interval", (length,), kappa)

    @staticmethod
    def box(lengths, kappa: float = 1.0) -> "DomainSpec":
        return DomainSpec("box3", tuple(lengths), kappa)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Which points lie in the closure, up to 1e-12 of roundoff."""
        pts = as_points(points, self.dim)
        lo = pts >= -1e-12
        hi = pts <= np.asarray(self.lengths) + 1e-12
        return np.all(lo & hi, axis=1)


def as_points(points, dim: int) -> np.ndarray:
    """Coerce point data to a (P, dim) float array."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim == 1:
        if dim == 1:
            pts = pts[:, None]
        elif pts.shape[0] == dim:
            pts = pts[None, :]
        else:
            raise ValueError(f"cannot interpret shape {pts.shape} as points in R^{dim}")
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (P, {dim}), got {pts.shape}")
    return pts


@dataclass(frozen=True)
class ModeTable:
    """First K Neumann modes of -kappa*Laplace, sorted by eigenvalue.

    Each row holds a multi-index n, the eigenvalue
    ``kappa * sum((n_l * pi / L_l)**2)`` and the L2 normalization constant
    ``prod(sqrt(1/L_l) if n_l == 0 else sqrt(2/L_l))``.  Ties in the
    eigenvalue are broken by comparing the reversed multi-index, which for
    the unit box orders (1,0,0) before (0,1,0) before (0,0,1).  The first
    row is always the constant mode with eigenvalue zero.
    """

    domain: DomainSpec
    indices: np.ndarray
    eigenvalues: np.ndarray
    norm_constants: np.ndarray

    def __post_init__(self):
        for name in ("indices", "eigenvalues", "norm_constants"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        if self.indices.shape != (self.size, self.domain.dim):
            raise ValueError("index table shape mismatch")

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @staticmethod
    def from_indices(domain: DomainSpec, indices) -> "ModeTable":
        """Build a table from explicit multi-indices, kept in given order."""
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        if idx.shape[1] != domain.dim:
            raise ValueError("multi-index width must equal the domain dimension")
        if np.any(idx < 0):
            raise ValueError("multi-indices must be nonnegative")
        lengths = np.asarray(domain.lengths)
        lam = domain.kappa * np.sum((idx * np.pi / lengths) ** 2, axis=1)
        const = np.where(idx == 0, 1.0 / np.sqrt(lengths), np.sqrt(2.0 / lengths))
        return ModeTable(domain, idx, lam, np.prod(const, axis=1))


def enumerate_modes(domain: DomainSpec, count: int) -> ModeTable:
    """Return the table of the ``count`` smallest Neumann modes.

    Candidate multi-indices are enumerated on a growing cube until the
    cube provably contains the ``count`` smallest eigenvalues, then sorted
    by (eigenvalue, reversed multi-index).  A side of ``count`` always
    does unless eigenvalues over- or underflow, which raises ValueError.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError("mode count must be a positive integer")
    d = domain.dim
    lengths = np.asarray(domain.lengths)
    side = count if d == 1 else int(math.ceil(count ** (1.0 / d))) + 2
    while True:
        axes = [np.arange(side + 1)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        lam = domain.kappa * np.sum((grid * np.pi / lengths) ** 2, axis=1)
        # Smallest eigenvalue outside the cube: one axis at side+1, rest 0.
        frontier = domain.kappa * np.min(((side + 1) * np.pi / lengths) ** 2)
        # lexsort's last key leads: eigenvalue, then the reversed index
        order = np.lexsort((*grid.T, lam))
        if grid.shape[0] >= count and lam[order[count - 1]] < frontier:
            return ModeTable.from_indices(domain, grid[order[:count]])
        if side >= count:
            raise ValueError(f"eigenvalues of {domain} overflow or underflow")
        side *= 2


def eval_modes(table: ModeTable, points) -> np.ndarray:
    """Evaluate all modes at the given points; result has shape (P, K)."""
    pts = as_points(points, table.domain.dim)
    lengths = np.asarray(table.domain.lengths)
    # phase[p, k, l] = n_l * pi * x_l / L_l
    phase = pts[:, None, :] * (table.indices[None, :, :] * np.pi / lengths)
    return np.prod(np.cos(phase), axis=2) * table.norm_constants[None, :]


def uniform_step(times) -> float:
    """Step of a uniform increasing time grid; ValueError for any other."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("times must be a 1-d grid of at least two samples")
    dt = times[1] - times[0]
    if dt <= 0 or np.max(np.abs(np.diff(times) - dt)) > 1e-12 * max(dt, 1.0):
        raise ValueError("time samples must form a uniform increasing grid")
    return float(dt)


def phi1(lam: np.ndarray, dt: float) -> np.ndarray:
    """Integral of exp(-lam*(dt - s)) over s in [0, dt].

    Equals (1 - exp(-lam*dt))/lam; a series branch keeps small |lam*dt|
    accurate, including the lam = 0 constant mode.
    """
    lam = np.asarray(lam, dtype=float)
    x = lam * dt
    small = np.abs(x) < 1e-6
    xs = np.where(small, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (1.0 - np.exp(-xs)) / np.where(small, 1.0, lam)
    series = dt * (1.0 - x / 2.0 + x * x / 6.0)
    return np.where(small, series, exact)


def phi2(lam: np.ndarray, dt: float) -> np.ndarray:
    """Integral of exp(-lam*(dt - s)) * (s/dt) over s in [0, dt]."""
    lam = np.asarray(lam, dtype=float)
    x = lam * dt
    small = np.abs(x) < 1e-3
    xs = np.where(small, 1.0, x)
    exact = dt * (np.exp(-xs) - 1.0 + xs) / (xs * xs)
    series = dt * (0.5 - x / 6.0 + x * x / 24.0 - x ** 3 / 120.0)
    return np.where(small, series, exact)


def march_forced(table: ModeTable, values, y0, inputs, dt: float) -> np.ndarray:
    """Exact Duhamel march of the heat flow forced at point actuators.

    ``values`` holds the actuators' mode values phi_k(x_j), shape (M, K).
    Mode k obeys ``a' = -lam_k*a + sum_j u_j(t) * phi_k(x_j)``, integrated
    exactly for input samples ``inputs`` (Q+1, M) interpolated linearly
    between grid times.  Returns the (Q+1, K) trajectory from y0.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != table.size:
        raise ValueError(f"mode values need shape (actuators, {table.size}), "
                         f"one column per mode; got {values.shape}")
    inputs = np.asarray(inputs, dtype=float)
    if (inputs.ndim != 2 or inputs.shape[0] < 1
            or inputs.shape[1] != values.shape[0]):
        raise ValueError(f"inputs need shape (samples, {values.shape[0]}), "
                         f"one column per actuator; got {inputs.shape}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (table.size,):
        raise ValueError("initial coefficients must match the table size")
    lam = table.eigenvalues
    b = inputs @ values  # (Q+1, K) modal forcing at each sample
    # The state is c[q] = sum_{j<=q} d**(q-j) * x[j] for the step increments
    # x[q] below, with x[0] = y0; a doubling prefix scan sums it in place.
    x = np.empty_like(b)
    x[0] = y0
    x[1:] = b[:-1] * phi1(lam, dt)
    x[1:] += (b[1:] - b[:-1]) * phi2(lam, dt)  # in place: one temporary less
    d = np.exp(-lam * dt)  # decay over s steps
    s = 1
    while s < x.shape[0]:
        # The product is a new array, so every row reads pre-pass values.
        x[s:] += d * x[:-s]
        d = d * d
        s *= 2
    return x


def line_fit(x, y):
    """Least-squares line ``y ~ slope * x + intercept``.

    Returns ``(slope, intercept, rms, r_squared)``: the rms misfit of the
    line and its coefficient of determination.  A constant ``y`` is fitted
    exactly and gets r² = 1; its spread about the rounded mean is roundoff,
    not variation a line could explain.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if np.ptp(y) > 0 else 1.0
    return (float(coef[0]), float(coef[1]),
            float(np.sqrt(np.mean(resid ** 2))), r_squared)
