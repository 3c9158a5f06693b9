"""Free-space versus insulated-domain solutions at interior probes.

Away from the boundary the two solutions differ only through boundary
reflections, which decay like exp(-c d^2 / T) in the separation d and
horizon T.  The insulated reference on a box is an image sum, which is
exponentially accurate where the gap itself is exponentially small.  The
gap is always assembled from the reflected images directly, never as a
difference of two nearly equal numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .spectral import EXP_FLOOR, DomainSpec, as_points, line_fit, uniform_step

__all__ = [
    "boundary_distance",
    "images_point_solution",
    "restriction_gap_report",
    "RestrictionReport",
]


def boundary_distance(domain: DomainSpec, points) -> float:
    """Smallest distance from any of the points to the domain boundary."""
    pts = as_points(points, domain.dim)
    lengths = np.asarray(domain.lengths)
    return float(np.min(np.minimum(pts, lengths[None, :] - pts)))


def _free_axis_kernel(dx: np.ndarray, s: np.ndarray, kappa: float) -> np.ndarray:
    expo = -(dx ** 2) / (4.0 * kappa * s)
    out = np.zeros(np.broadcast_shapes(dx.shape, s.shape))
    ok = expo > -EXP_FLOOR
    pref = (4.0 * np.pi * kappa * s) ** -0.5
    np.multiply(pref, np.exp(np.where(ok, expo, 0.0)), out=out, where=ok)
    return out


def _reflected_axis_kernel(xi: float, eta: float, length: float,
                           s: np.ndarray, kappa: float) -> np.ndarray:
    """Sum of all non-principal 1-d Neumann images at elapsed times s."""
    s = np.asarray(s, dtype=float)
    reach = math.sqrt(4.0 * kappa * float(np.max(s)) * EXP_FLOOR)
    m_max = int(math.ceil((reach + 2.0 * length) / (2.0 * length))) + 1
    total = np.zeros_like(s)
    for m in range(-m_max, m_max + 1):
        arg = xi - eta + 2.0 * m * length
        if m != 0:
            total += _free_axis_kernel(np.asarray(arg), s, kappa)
        arg = xi + eta + 2.0 * m * length
        total += _free_axis_kernel(np.asarray(arg), s, kappa)
    return total


def _gauss_panels(times: np.ndarray, upto: int, order: int):
    """Gauss-Legendre nodes/weights on each grid panel up to index ``upto``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
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


def _resolve_time(times: np.ndarray, t) -> int:
    """Grid index of the evaluation time ``t`` (default: the last sample)."""
    uniform_step(times)
    if times[0] != 0.0:
        raise ValueError("times must start at zero")
    if t is None:
        return times.shape[0] - 1
    idx = int(round(float(t) / (times[1] - times[0])))
    if idx < 1 or idx >= times.shape[0] or abs(times[idx] - t) > 1e-12 * max(1.0, t):
        raise ValueError("t must coincide with a positive grid time")
    return idx


def images_point_solution(domain: DomainSpec, sources, times, inputs, probes,
                          t=None, quad_order: int = 12,
                          reflected_only: bool = False) -> np.ndarray:
    """Insulated-box field by image sums; exact up to panel quadrature.

    With ``reflected_only`` the principal (free-space) image is dropped,
    which returns the boundary contribution y - w directly and avoids the
    cancellation of subtracting two nearly equal fields.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    prb = np.atleast_2d(np.asarray(probes, dtype=float))
    times = np.asarray(times, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    idx = _resolve_time(times, t)
    taus, w = _gauss_panels(times, idx, quad_order)
    u_tau = _interp_inputs(times, inputs, taus)
    s = times[idx] - taus
    kappa = domain.kappa
    dim = domain.dim
    values = np.zeros(prb.shape[0])
    for p in range(prb.shape[0]):
        for j in range(src.shape[0]):
            free = [
                _free_axis_kernel(np.asarray(prb[p, ax] - src[j, ax]), s, kappa)
                for ax in range(dim)]
            refl = [
                _reflected_axis_kernel(prb[p, ax], src[j, ax],
                                       domain.lengths[ax], s, kappa)
                for ax in range(dim)]
            if reflected_only:
                # Expand prod(free + refl) - prod(free): every term keeps
                # at least one reflected factor, so nothing cancels.
                kern = np.zeros_like(s)
                for mask in range(1, 2 ** dim):
                    term = np.ones_like(s)
                    for ax in range(dim):
                        term = term * (refl[ax] if (mask >> ax) & 1 else free[ax])
                    kern += term
            else:
                kern = np.ones_like(s)
                for ax in range(dim):
                    kern = kern * (free[ax] + refl[ax])
            values[p] += float(np.sum(w * kern * u_tau[:, j]))
    return values


@dataclass(frozen=True)
class RestrictionReport:
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
                           amplitudes=None, profile=None, samples: int = 48,
                           quad_order: int = 12) -> RestrictionReport:
    """Measure |free-space - insulated| at probes across several horizons.

    The per-source input is ``amplitude * profile(t / T)`` so the forcing
    shape follows the horizon.  The gap is computed from the reflected
    images only and summarized by a least-squares fit of ``log(gap)``
    against ``d^2 / T``; at least three horizons are required.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    prb = np.atleast_2d(np.asarray(probes, dtype=float))
    horizons = np.asarray(sorted(float(h) for h in horizons))
    if horizons.shape[0] < 3:
        raise InsufficientDataError("at least three horizons are required")
    if np.any(horizons <= 0):
        raise ValueError("horizons must be positive")
    margin = boundary_distance(domain, np.vstack([src, prb]))
    if margin <= 0:
        raise ValueError("sources and probes must be strictly interior")
    if amplitudes is None:
        amplitudes = np.ones(src.shape[0])
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(-1)
    if profile is None:
        profile = lambda s: np.sin(np.pi * np.clip(s, 0.0, 1.0)) ** 2

    gaps = np.empty(horizons.shape[0])
    for row, horizon in enumerate(horizons):
        times = np.linspace(0.0, horizon, samples + 1)
        shape = np.asarray(profile(times / horizon), dtype=float)
        inputs = shape[:, None] * amplitudes[None, :]
        reflected = images_point_solution(domain, src, times, inputs, prb,
                                          quad_order=quad_order,
                                          reflected_only=True)
        gaps[row] = float(np.max(np.abs(reflected)))
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
