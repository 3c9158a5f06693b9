"""Independent routes to probe values of point-source heat fields.

``heattrack.restriction.images_point_solution``, the wall gap between the
insulated and the whole-space field, is checked against the same image
sum taken one image at a time, and, added to the whole-space field of the
sources (the principal image alone, on the same panel quadrature),
against the truncated cosine expansion marched exactly by
``march_forced``, which checks its own truncation by doubling.  Every
route here can stop at any grid time ``t``.
"""

import math

import numpy as np

from heattrack.restriction import _gauss_panels, _interp_inputs
from heattrack.spectral import (EXP_FLOOR, enumerate_modes, eval_modes,
                                march_forced, uniform_step)


class ResolutionError(ValueError):
    """The truncation is too coarse for the requested tolerance."""


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


def looped_images_point_solution(domain, sources, times, inputs, probes,
                                 t=None, quad_order: int = 12,
                                 reflected_only: bool = False) -> np.ndarray:
    """The image sum one probe, source, axis and image at a time.

    Each axis sums its own images |m| <= m_max.  With ``reflected_only``
    it is the wall gap ``images_point_solution`` returns, with
    prod(free + refl) - prod(free) expanded over the nonempty sets of
    reflected axes; without, the whole insulated field.
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


def free_space_point_solution(sources, times, inputs, probes, kappa: float,
                              t=None, quad_order: int = 12) -> np.ndarray:
    """Whole-space field of point sources, evaluated at interior probes.

    ``inputs`` holds one column of samples per source on the uniform grid
    ``times``; the potential integral is done panel by panel with Gauss
    nodes, so the only discretization left is the piecewise-linear reading
    of the samples.  Evaluation time defaults to the end of the grid.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    prb = np.atleast_2d(np.asarray(probes, dtype=float))
    if src.shape[1] != prb.shape[1]:
        raise ValueError("sources and probes must share a dimension")
    times = np.asarray(times, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (times.shape[0], src.shape[0]):
        raise ValueError("inputs must be sampled on the grid, one column per source")
    diff = prb[:, None, :] - src[None, :, :]
    if np.min(np.sum(diff ** 2, axis=2)) == 0.0:
        raise ValueError("probes must not coincide with sources")
    idx = _resolve_time(times, t)
    taus, w = _gauss_panels(times, idx, quad_order)
    u_tau = _interp_inputs(times, inputs, taus)
    s = times[idx] - taus
    values = np.zeros(prb.shape[0])
    for p in range(prb.shape[0]):
        for j in range(src.shape[0]):
            kern = np.ones_like(s)
            for ax in range(src.shape[1]):
                kern = kern * _free_axis_kernel(
                    np.asarray(prb[p, ax] - src[j, ax]), s, kappa)
            values[p] += float(np.sum(w * kern * u_tau[:, j]))
    return values


def neumann_solution_probe(domain, sources, times, inputs, probes,
                           n_modes: int, t=None, check: bool = True,
                           check_tol: float = 1e-6) -> np.ndarray:
    """Truncated cosine-expansion field of point sources at probes.

    Runs the exact forced march for piecewise-linear inputs up to ``t`` and
    synthesizes pointwise values.  With ``check`` enabled the run repeats
    at twice the truncation; a change above ``check_tol`` raises a
    resolution error naming the observed change.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    times = np.asarray(times, dtype=float)
    dt = uniform_step(times)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (times.shape[0], src.shape[0]):
        raise ValueError("inputs must be sampled on the grid, one column per source")
    idx = _resolve_time(times, t)

    def synthesize(k: int) -> np.ndarray:
        table = enumerate_modes(domain, k)
        z = march_forced(table, eval_modes(table, src), np.zeros(k),
                         inputs[:idx + 1], dt)[-1]
        return eval_modes(table, probes) @ z

    values = synthesize(n_modes)
    if check:
        refined = synthesize(2 * n_modes)
        change = float(np.max(np.abs(refined - values)))
        if change > check_tol:
            raise ResolutionError(
                f"doubling the truncation moved probe values by {change:.3e}"
                f" (tolerance {check_tol:g}); increase n_modes")
    return values
