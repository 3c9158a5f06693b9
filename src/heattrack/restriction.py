"""Free-space versus insulated-domain solutions at interior probes.

Away from the boundary the two solutions differ only through boundary
reflections, which decay like exp(-c d^2 / T) in the separation d and
horizon T.  The insulated reference on a box is an image sum, which is
exponentially accurate where the gap itself is exponentially small.  The
gap is always assembled from the reflected images directly, never as a
difference of two nearly equal numbers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError
from .spectral import EXP_FLOOR, DomainSpec, as_points, line_fit, uniform_step

__all__ = ["images_point_solution", "restriction_gap_report"]


def boundary_distance(domain: DomainSpec, points) -> float:
    """Smallest distance from any of the points to the domain boundary."""
    pts = as_points(points, domain.dim)
    lengths = np.asarray(domain.lengths)
    return float(np.min(np.minimum(pts, lengths[None, :] - pts)))


# Largest (images, nodes) exponent table one _image_sums block holds:
# 2**17 float64 values, 1 MiB.  Every packaged and benchmark config fits
# its images in one block; a long horizon on a short axis needs thousands
# of images, and blocking keeps the working set at this size.
_BLOCK_VALUES = 1 << 17


def _image_sums(offsets: np.ndarray, groups: np.ndarray, n_groups: int,
                s: np.ndarray, kappa: float) -> np.ndarray:
    """Sums of the 1-d heat kernel over image offsets, one per group.

    ``offsets`` and ``groups`` are flat, ``s`` holds the elapsed times;
    returns (n_groups, len(s)).  Exponents at or below -EXP_FLOOR count as
    exact zeros, so an image that is below it at the longest time is
    dropped before the table is built.
    """
    scale = 4.0 * kappa * s
    live = -(offsets ** 2) / np.max(scale) > -EXP_FLOOR
    offsets, groups = offsets[live], groups[live]
    total = np.zeros((n_groups, s.shape[0]))
    step = max(1, _BLOCK_VALUES // s.shape[0])
    for lo in range(0, offsets.shape[0], step):
        expo = -(offsets[lo:lo + step, None] ** 2) / scale
        ok = expo > -EXP_FLOOR
        # exp is several times slower on arguments that underflow
        np.maximum(expo, -EXP_FLOOR, out=expo)
        np.exp(expo, out=expo)
        expo *= ok
        total += (groups[lo:lo + step] == np.arange(n_groups)[:, None]) @ expo
    return total * (4.0 * np.pi * kappa * s) ** -0.5


@functools.lru_cache(maxsize=8, typed=True)
def _gauss_rule(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one eigenvalue
    solve per order and process."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_panels(times: np.ndarray, upto: int, order: int):
    """Gauss-Legendre nodes/weights on each grid panel up to index ``upto``."""
    nodes, weights = _gauss_rule(order)
    dt = times[1] - times[0]
    starts = times[:upto]
    taus = starts[:, None] + 0.5 * dt * (nodes[None, :] + 1.0)
    w = np.broadcast_to(0.5 * dt * weights[None, :], taus.shape)
    return taus.ravel(), w.ravel()


def _interp_inputs(times: np.ndarray, samples: np.ndarray,
                   taus: np.ndarray) -> np.ndarray:
    # Inputs are treated as piecewise linear between grid samples, matching
    # the exact stepper used for the spectral reference.
    out = np.empty((taus.shape[0], samples.shape[1]))
    for j in range(samples.shape[1]):
        out[:, j] = np.interp(taus, times, samples[:, j])
    return out


def images_point_solution(domain: DomainSpec, sources, times, inputs, probes,
                          quad_order: int) -> np.ndarray:
    """Wall gap y - w at the probes at the last sample of ``times``.

    ``y`` is the insulated-box field of the point sources, an image sum,
    and ``w`` their free-space field, its principal image.  The gap sums
    the reflected images alone, exact up to panel quadrature, so it never
    subtracts two nearly equal fields.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    prb = np.atleast_2d(np.asarray(probes, dtype=float))
    times = np.asarray(times, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    uniform_step(times)
    taus, w = _gauss_panels(times, times.shape[0] - 1, quad_order)
    weighted = w[:, None] * _interp_inputs(times, inputs, taus)
    s = times[-1] - taus
    kappa = domain.kappa
    lengths = np.asarray(domain.lengths, dtype=float)
    # Images |m| <= m_max per axis cover the reach of the kernel.  Every
    # axis takes the largest m_max: past its own, an image lies more than
    # the reach away, so its kernel is an exact zero.
    reach = math.sqrt(4.0 * kappa * float(np.max(s)) * EXP_FLOOR)
    m_max = max(int(math.ceil((reach + 2.0 * length) / (2.0 * length))) + 1
                for length in domain.lengths)
    shifts = 2.0 * np.arange(-m_max, m_max + 1)[None, :] * lengths[:, None]
    shifted = np.delete(shifts, m_max, axis=1)  # m = 0 is the principal image
    # Offsets of one pair form a (dim, images) table whose column 0 is the
    # principal image; its sums land in group ax (free) or dim + ax.
    dim = lengths.shape[0]
    columns = 1 + shifted.shape[1] + shifts.shape[1]
    groups = (np.arange(dim)[:, None]
              + dim * (np.arange(columns) > 0)[None, :]).ravel()
    kern = np.empty((prb.shape[0], src.shape[0], s.shape[0]))
    for p, j in np.ndindex(kern.shape[:2]):
        diff = (prb[p] - src[j])[:, None]
        offsets = np.hstack([diff, diff + shifted,
                             (prb[p] + src[j])[:, None] + shifts]).ravel()
        free, refl = np.split(
            _image_sums(offsets, groups, 2 * dim, s, kappa), 2)
        # prod(free + refl) - prod(free), expanded one axis at a time:
        # every term keeps at least one reflected factor, so nothing
        # cancels.
        gap, free_prod = np.zeros_like(s), np.ones_like(s)
        for f, r in zip(free, refl):
            gap = gap * (f + r) + free_prod * r
            free_prod = free_prod * f
        kern[p, j] = gap
    return np.einsum("pjs,sj->p", kern, weighted)


class RestrictionReport(NamedTuple):
    """Gap measurements across horizons plus the exponential fit."""

    margin: float
    horizons: np.ndarray
    dsq_over_horizon: np.ndarray
    gaps: np.ndarray
    rate: float        # fitted c in gap ~ amplitude * exp(-c * d^2 / T)
    amplitude: float
    r_squared: float
    monotone: bool


def restriction_gap_report(domain: DomainSpec, sources, probes, horizons,
                           samples: int, quad_order: int,
                           amplitudes=None) -> RestrictionReport:
    """Measure |free-space - insulated| at probes across several horizons.

    The per-source input is ``amplitude * sin(pi t / T) ** 2``, one
    amplitude per source (all 1 when ``amplitudes`` is None), so the
    forcing shape follows the horizon.  Each horizon is integrated on
    ``samples`` panels of ``quad_order`` Gauss nodes.  The gap is computed
    from the reflected images only and summarized by a least-squares fit
    of ``log(gap)`` against ``d^2 / T``; at least three distinct horizons
    are required.
    """
    src = as_points(sources, domain.dim)
    prb = as_points(probes, domain.dim)
    horizons = np.asarray(sorted(float(h) for h in horizons))
    if len(set(horizons.tolist())) < 3:   # np.unique would load numpy.ma
        raise InsufficientDataError(
            "at least three distinct horizons are required")
    if np.any(horizons <= 0):
        raise ValueError("horizons must be positive")
    margin = boundary_distance(domain, np.vstack([src, prb]))
    if margin <= 0:
        raise ValueError("sources and probes must be strictly interior")
    if amplitudes is None:
        amplitudes = np.ones(src.shape[0])
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (src.shape[0],):
        raise ValueError(f"one amplitude per source is required, got shape "
                         f"{amplitudes.shape} for {src.shape[0]} sources")

    gaps = np.empty(horizons.shape[0])
    for row, horizon in enumerate(horizons):
        times = np.linspace(0.0, horizon, samples + 1)
        shape = np.sin(np.pi * (times / horizon)) ** 2
        inputs = shape[:, None] * amplitudes[None, :]
        gap = images_point_solution(domain, src, times, inputs, prb,
                                    quad_order)
        gaps[row] = float(np.max(np.abs(gap)))
    ratio = margin ** 2 / horizons
    order = np.argsort(ratio)
    monotone = bool(np.all(np.diff(gaps[order]) <= 0.0))
    mask = gaps > 0.0
    if int(np.sum(mask)) < 3:
        raise InsufficientDataError("gap underflowed on too many horizons")
    slope, intercept, _, r_squared = line_fit(ratio[mask],
                                              np.log(gaps[mask]))
    return RestrictionReport(margin, horizons, ratio, gaps, -slope,
                             float(np.exp(intercept)), r_squared, monotone)
