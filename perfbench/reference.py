"""Reference values and output checks for the benchmark workloads.

Seed-independent values (closed loop, placement, coercivity) come from
``reference.json``, written by ``make_reference.py`` at seed 7.  Values
that depend on the seed (everything downstream of the seeded dictionary
perturbation) are recomputed here for the requested seed by an
independent implementation of the particle pipeline: a vectorised kernel
table, one batched march of unit forcings, and linear superposition.
This module imports numpy only, never the package under test.

Every comparison is relative, with tolerance ``C * eps * n * kappa``:
``n`` is the number of terms the quantity accumulates (time steps of the
march, or matrix order of an eigenproblem), ``kappa`` the cancellation
factor of the quantity (for example 1 / eta for the remainder, which the
program forms as a difference of two outputs of size one), taken from the
expected values of this seed so that a wrong output cannot widen its own
tolerance.  ``C = 1e3`` absorbs the libm differences between hosts (a few
ulp per elementary function, amplified by the march).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

EPS = float(np.finfo(float).eps)
SAFETY = 1e3
PURPOSE_PERTURBATION = 2  # stream tag of the dictionary perturbation
HERE = os.path.dirname(os.path.abspath(__file__))


def load_stored() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def rtol(n: int, kappa: float = 1.0) -> float:
    return SAFETY * EPS * n * max(1.0, kappa)


def mismatches(pairs) -> list:
    """``pairs`` is (name, got, want, tol); returns the failing ones."""
    bad = []
    for name, got, want, tol in pairs:
        got, want = float(got), float(want)
        if not (abs(got - want) <= tol * max(abs(want), 1e-300)):
            bad.append(f"{name}: got {got!r} want {want!r} rtol {tol:.1e}")
    return bad


# ---------------------------------------------------------------------------
# independent particle pipeline


def _kernel_table(centers: np.ndarray, kappa: float, dt: float,
                  q_steps: int) -> np.ndarray:
    """kern[s, i, j] = d/dt of the free-space kernel at lag s * dt."""
    d = centers.shape[1]
    r2 = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    s = (np.arange(q_steps + 1) * dt)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = -r2[None] / (4.0 * kappa * s)
        phi = (4.0 * np.pi * kappa * s) ** (-0.5 * d) * np.exp(expo)
        kern = phi * (-0.5 * d / s + r2[None] / (4.0 * kappa * s * s))
    kern[~(expo >= -700.0)] = 0.0  # also clears s = 0
    kern[:, np.arange(len(centers)), np.arange(len(centers))] = 0.0
    return kern


def unit_heat_inputs(params: dict, dt: float, horizon: float):
    """Heat inputs for forcing ``profile * e_j``, one march for all j.

    Returns ``(times, profile, g)`` with ``g[t, i, j]`` the heat input of
    particle i under unit forcing on particle j.
    """
    centers = np.asarray(params["centers"], dtype=float)
    m = centers.shape[0]
    q_steps = int(round(horizon / dt))
    times = np.arange(q_steps + 1) * dt
    profile = np.sin(np.pi * times / horizon) ** 2
    weights = params["coupling_scale"] * (1.0 - np.eye(m))
    kern = _kernel_table(centers, params["kappa"], dt, q_steps)
    # a_rev[k] = (W * kern)[Q - k]; kern[0] = 0, so each step is explicit.
    a_rev = np.ascontiguousarray((weights[None] * kern)[::-1])
    flat_a = a_rev.transpose(1, 0, 2).reshape(m, (q_steps + 1) * m)
    sigma = np.zeros((q_steps + 1, m, m))
    sigma[0] = profile[0] * np.eye(m)
    weighted = np.zeros_like(sigma)
    weighted[0] = 0.5 * sigma[0]
    flat_w = weighted.reshape((q_steps + 1) * m, m)
    for q in range(1, q_steps + 1):
        hist = flat_a[:, (q_steps - q) * m:q_steps * m] @ flat_w[:q * m]
        sigma[q] = profile[q] * np.eye(m) - dt * hist
        weighted[q] = sigma[q]
    scale = np.asarray(params["contrasts"], dtype=float) / params["c_m"]
    return times, profile, sigma * scale[None, :, None]


def effective_dictionary(seed: int, m: int, delta: float, mu: float):
    seq = np.random.SeedSequence((int(seed), PURPOSE_PERTURBATION, 0))
    raw = np.random.Generator(np.random.Philox(seq)).standard_normal((m, m))
    pert = raw / np.linalg.norm(raw, 2)
    return np.eye(m) + delta ** mu * pert, pert


def _l2(times, series):
    """Aggregate trapezoid L2 norm over the columns of ``series``."""
    return math.sqrt(sum(float(np.trapezoid(series[:, i] ** 2, times))
                         for i in range(series.shape[1])))


def calibration(units, seed: int, delta: float, mu: float) -> dict:
    """k0, its smallest singular value and the effective dictionary."""
    times, profile, g = units
    d_eff, _ = effective_dictionary(seed, g.shape[1], delta, mu)
    denom = float(np.trapezoid(profile * profile, times))
    k_unit = np.trapezoid(g * profile[:, None, None], times, axis=0) / denom
    k0 = k_unit @ d_eff
    return {"k0": k0, "sigma_min": float(np.linalg.svd(k0, compute_uv=False)[-1]),
            "d_eff": d_eff}


def remainder(units, seed: int, delta: float, mu: float,
              beta: np.ndarray) -> float:
    """Norm of V(profile x (D_eff - D) p), formed directly, not as a gap."""
    times, profile, g = units
    cal = calibration(units, seed, delta, mu)
    p = np.linalg.solve(cal["k0"], beta)
    drive = (cal["d_eff"] - np.eye(len(beta))) @ p
    return _l2(times, np.einsum("tij,j->ti", g, drive)), cal["sigma_min"]


def slope(xs, ys) -> float:
    x, y = np.log(xs), np.log(ys)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def interval_eigenvalue(kappa: float, length: float, index: int) -> float:
    return kappa * (math.pi * index / length) ** 2


# ---------------------------------------------------------------------------
# expected outputs per workload and seed, and the checks against them


def expected(workload: str, seed: int) -> dict:
    """Everything the checks need for one workload at one seed."""
    stored = load_stored()[workload]
    if workload == "track-default":
        p = stored["particles"]
        units = unit_heat_inputs(p, p["dt"], p["horizon"])
        beta = np.asarray(stored["beta"])
        seeded = {}
        for delta in p["deltas"]:
            rem, smin = remainder(units, seed, delta, p["mu"], beta)
            seeded[delta] = {"remainder": rem, "sigma_min": smin}
        return {"stored": stored, "seeded": seeded}
    return {"stored": stored}


def _track_pairs(out: dict, exp: dict):
    stored, seeded = exp["stored"], exp["seeded"]
    n = stored["steps"]
    summary = {k: float(v) for k, v in out["summary"].items()}
    ref = stored["summary"]
    proj_norm, total = ref["projected_norm"], ref["total_sup"]
    # Cancellation factors: each of these is a gap between two series
    # whose size the run reports alongside it.  They are taken from the
    # expected values, so a wrong output cannot widen its own tolerance.
    kappa = {"mismatch": proj_norm / ref["mismatch"],
             "budget_real": proj_norm / ref["mismatch"],
             "real_sup": total / ref["real_sup"],
             "convergence_gap": total / ref["convergence_gap"]}
    for key, want in ref.items():
        yield (f"summary.{key}", summary[key], want,
               rtol(n, kappa.get(key, 1.0)))
    rows = {float(r["delta"]): r for r in out["budget"]}
    kappa_rem = []
    for want_row in stored["budget"]:
        delta = want_row["delta"]
        row = {k: float(v) for k, v in rows[delta].items()
               if k not in ("within_proj", "within_real", "within_total")}
        for key, want in want_row.items():
            yield (f"budget[{delta:g}].{key}", row[key], want,
                   rtol(n, kappa.get(key, 1.0)))
        rem = seeded[delta]["remainder"]
        kappa_rem.append(proj_norm / rem)   # remainder vs outputs of size one
        yield (f"budget[{delta:g}].remainder", row["remainder"], rem,
               rtol(n, kappa_rem[-1]))
        yield (f"budget[{delta:g}].eta", row["eta"], rem / proj_norm,
               rtol(n, kappa_rem[-1]))
    head = seeded[stored["summary"]["delta"]]
    yield ("summary.amap_sigma_min", summary["amap_sigma_min"],
           head["sigma_min"], rtol(n))
    deltas = sorted(seeded)
    yield ("summary.remainder_slope", summary["remainder_slope"],
           slope(deltas, [seeded[d]["remainder"] for d in deltas]),
           rtol(n, max(kappa_rem)))


def _studies_pairs(out: dict, exp: dict):
    stored = exp["stored"]
    yield ("place_sigma_min", out["place_sigma_min"],
           stored["place_sigma_min"], rtol(stored["modes"]))
    coer = stored["coercivity"]
    for cells, got, want in zip(coer["cells"], out["coercivity_constants"],
                                coer["constants"]):
        modes = coer["modes_per_cell"] * cells
        # Smallest generalised eigenvalue: relative error grows with the
        # spread of the pencil, largest eigenvalue over this one.
        top = 1.0 + interval_eigenvalue(coer["kappa"], coer["length"],
                                        modes - 1)
        yield (f"coercivity[{cells}]", got, want, rtol(modes, top / want))


def check(workload: str, out: dict, exp: dict) -> list:
    """Failures of one op's outputs; an empty list means it passed."""
    if workload == "track-default":
        bad = [f"exit code {out['rc']}"] if out["rc"] != 0 else []
        bad += out["failed_assertions"]
        deltas = sorted(float(r["delta"]) for r in out["budget"])
        if deltas != sorted(exp["seeded"]):
            return bad + [f"budget rows for deltas {deltas}"]
        return bad + mismatches(_track_pairs(out, exp))
    bad = [f"genericity failures {out['genericity_failures']}"] \
        if out["genericity_failures"] else []
    bad += [f"assertion {name} failed" for name in out["failed_assertions"]]
    if out["coercivity_cells"] != exp["stored"]["coercivity"]["cells"]:
        return bad + [f"coercivity cells {out['coercivity_cells']}"]
    return bad + mismatches(_studies_pairs(out, exp))
