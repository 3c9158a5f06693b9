"""End-to-end experiment drivers assembled from the library modules.

Every driver takes one validated config, runs named stages (failures are
wrapped with the stage name), evaluates its built-in assertions and
optionally writes deterministic CSV artifacts plus a manifest.  The
tracking driver is the centerpiece: it closes the loop in mode space,
projects the recorded inputs on the command profile, realizes the
projected command through the particle pipeline and checks the measured
tracking errors against certified budgets.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ..control import (ClosedLoopSystem, assemble_bias_matrix,
                       assemble_closed_loop, contraction_diagnostics,
                       cross_integrator_check, decay_rate_fit,
                       fixed_point_reference, simulate_closed_loop,
                       tail_mismatch_report, time_grid)
from ..errors import (ConfigError, DegenerateNodesError, HeattrackError,
                      InsufficientDataError, InsufficientSignalError,
                      StageError)
from ..placement import (ActuatorSet, dct_grid_box, dct_nodes_interval,
                         genericity_monte_carlo, greedy_placement,
                         sampling_matrix, uniform_candidates)
from ..plasmonic import (PlasmonicConfig, calibrate_k0, invert_actuation,
                         realize_profile, unit_heat_inputs)
from ..restriction import restriction_gap_report
from ..spectral import (DomainSpec, ModeTable, SpectralField, enumerate_modes,
                        eval_modes, march_forced)
from .config import ExperimentConfig, profile_samples
from .manifest import RunManifest, write_csv

__all__ = [
    "LoopSetup",
    "TrackResult",
    "BudgetRow",
    "ProfileDecomposition",
    "CoercivityReport",
    "SweepResult",
    "build_loop",
    "build_actuators",
    "build_plasmonic",
    "project_onto_profile",
    "certified_input_constant",
    "run_track",
    "run_simulate",
    "run_place",
    "run_calibrate",
    "run_restriction",
    "run_coercivity",
    "run_sweep",
    "coercivity_constant",
    "coercivity_at_nodes",
]


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# builders


def build_actuators(config: ExperimentConfig, domain: DomainSpec,
                    table: ModeTable) -> ActuatorSet:
    blk = config.actuators
    n = config.modes.controlled
    if blk.kind == "dct":
        if domain.kind == "interval":
            count = n if blk.count is None else blk.count
            return ActuatorSet(domain, dct_nodes_interval(count,
                                                          domain.lengths[0]))
        if blk.counts is None:
            raise ConfigError("actuators.counts is required for a dct grid "
                              "on a box")
        return dct_grid_box(blk.counts, domain)
    if blk.kind == "explicit":
        if blk.points is None:
            raise ConfigError("actuators.points is required for explicit "
                              "placement")
        return ActuatorSet(domain, np.asarray(blk.points, dtype=float))
    count = blk.select if blk.select is not None else (
        n if blk.count is None else blk.count)
    candidates = uniform_candidates(domain, blk.candidates_per_axis)
    return greedy_placement(candidates, table, n, count)


@dataclass
class LoopSetup:
    """Everything the closed loop needs, resolved from one config."""

    config: ExperimentConfig
    domain: DomainSpec
    table: ModeTable
    actuators: ActuatorSet
    matrices: object
    gain: float
    gain_trace: list | None
    a_target: np.ndarray
    bias: object
    fixed_point: object
    a_star: np.ndarray
    system: ClosedLoopSystem


def _reference_vector(config: ExperimentConfig, n: int) -> np.ndarray:
    vals = config.control.reference
    if len(vals) > n:
        raise ConfigError("control.reference is longer than modes.controlled")
    ref = np.zeros(n)
    ref[:len(vals)] = vals
    return ref


def _initial_coeffs(config: ExperimentConfig, k: int) -> np.ndarray:
    vals = config.control.initial
    if vals is None:
        return np.zeros(k)
    if len(vals) > k:
        raise ConfigError("control.initial is longer than modes.count")
    y0 = np.zeros(k)
    y0[:len(vals)] = vals
    return y0


def build_loop(config: ExperimentConfig) -> LoopSetup:
    """Resolve domain, modes, placement, gain and reference for one config."""
    with _stage("build"):
        domain = config.domain.build()
        table = enumerate_modes(domain, config.modes.count)
        actuators = build_actuators(config, domain, table)
        matrices = sampling_matrix(actuators, table, config.modes.controlled)
    with _stage("gain"):
        gain_trace = None
        if config.control.gain is not None:
            gain = float(config.control.gain)
        else:
            from ..control import doubling_gain_search
            _, gain, _, _, gain_trace = doubling_gain_search(
                matrices, config.control.target_rate)
    with _stage("reference"):
        a_target = _reference_vector(config, config.modes.controlled)
        bias = assemble_bias_matrix(matrices, gain)
        if config.control.fixed_point:
            fp = fixed_point_reference(bias, a_target,
                                       picard=bool(bias.norm < 1.0))
            a_star = fp.a_star
        else:
            fp = None
            a_star = a_target.copy()
    with _stage("assemble"):
        system = assemble_closed_loop(matrices, gain, a_star)
    return LoopSetup(config, domain, table, actuators, matrices, gain,
                     gain_trace, a_target, bias, fp, a_star, system)


def build_plasmonic(config: ExperimentConfig, actuators: ActuatorSet,
                    delta: float) -> PlasmonicConfig:
    """Particle array matching the actuator layout at one contrast scale."""
    blk = config.plasmonic
    m = actuators.count
    if blk.contrasts == "ones":
        contrasts = np.ones(m)
    else:
        contrasts = np.asarray(blk.contrasts, dtype=float)
        if contrasts.shape != (m,):
            raise ConfigError("plasmonic.contrasts must list one value per "
                              "actuator")
    kappa = actuators.domain.kappa if blk.kappa is None else blk.kappa
    coupling = blk.coupling_scale * (np.ones((m, m)) - np.eye(m))
    if blk.dictionary == "identity":
        dictionary = np.eye(m)
    else:
        dictionary = np.asarray(blk.dictionary, dtype=float)
        if dictionary.ndim != 2 or dictionary.shape[0] != m:
            raise ConfigError("plasmonic.dictionary must have one row per "
                              "actuator")
    return PlasmonicConfig(actuators.points, contrasts, blk.c_m, kappa,
                           coupling, dictionary, float(delta),
                           config.track.mu, config.seed,
                           blk.perturb_interaction)


# ---------------------------------------------------------------------------
# grid utilities shared by the drivers


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    dt = times[1] - times[0]
    w = np.full(times.shape[0], dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _series_l2(w: np.ndarray, series: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * np.sum(series ** 2, axis=1))))


@dataclass(frozen=True)
class ProfileDecomposition:
    """Split of an input record into its profile component and the rest."""

    beta: np.ndarray        # profile coefficient per actuator channel
    orth: float             # weighted L2 size of the off-profile part
    sample_norm: float
    projected_norm: float
    pythagoras_gap: float   # relative defect of the weighted Pythagoras split


def project_onto_profile(times: np.ndarray, samples: np.ndarray,
                         phi: np.ndarray) -> ProfileDecomposition:
    """Channel-wise least squares onto one temporal profile.

    The projection uses the trapezoid inner product of the grid, so the
    residual is exactly orthogonal to the profile in that inner product
    and the Pythagoras identity holds to roundoff.
    """
    w = _trapezoid_weights(times)
    denom = float(np.sum(w * phi * phi))
    if denom <= 0.0:
        raise InsufficientSignalError("profile has no mass on the grid")
    beta = (samples.T @ (w * phi)) / denom
    resid = samples - phi[:, None] * beta[None, :]
    orth = _series_l2(w, resid)
    sample_norm = _series_l2(w, samples)
    projected_norm = float(np.linalg.norm(beta) * np.sqrt(denom))
    gap = abs(sample_norm ** 2 - projected_norm ** 2 - orth ** 2)
    gap /= max(sample_norm ** 2, 1e-300)
    return ProfileDecomposition(beta, orth, sample_norm, projected_norm, gap)


def certified_input_constant(table: ModeTable, actuators: ActuatorSet,
                             horizon: float) -> float:
    """Input-to-state constant of the open flow in the resolvent metric.

    The open semigroup is a contraction in that metric, so the response to
    any input e is bounded by ||W E||_2 * integral ||e||, and Cauchy-Schwarz
    turns the integral into sqrt(T) times the L2 size of e.
    """
    w = 1.0 / (1.0 + table.eigenvalues)
    e_mat = eval_modes(table, actuators.points).T
    return float(np.linalg.norm(w[:, None] * e_mat, 2) * math.sqrt(horizon))


# ---------------------------------------------------------------------------
# tracking driver


@dataclass(frozen=True)
class BudgetRow:
    """Measured errors and certified budgets at one contrast scale."""

    delta: float
    orth: float
    mismatch: float
    remainder: float
    eta: float
    proj_sup: float
    real_sup: float
    total_sup: float
    budget_proj: float
    budget_real: float
    within_proj: bool
    within_real: bool
    within_total: bool


@dataclass
class TrackResult:
    """Everything the tracking driver measured, plus its assertions."""

    config: ExperimentConfig
    setup: LoopSetup
    record: object
    times: np.ndarray
    u_ideal: np.ndarray
    decomposition: ProfileDecomposition
    u_des: np.ndarray
    c_cert: float
    amap_sigma_min: float
    inversion_residual: float
    intensity_coeffs: np.ndarray
    g_real: np.ndarray
    err_proj: np.ndarray
    err_real: np.ndarray
    err_total: np.ndarray
    budget_rows: list
    remainder_slope: float
    tail: object
    cross_deviation: float
    convergence_gap: float
    assertions: dict
    headline: BudgetRow = None
    out_dir: str | None = None
    manifest: RunManifest | None = None


def _unit_responses(times, phi):
    """Unit heat inputs of one run's particle configs, by contrast scale.

    Built on first use and then shared: one march for the whole run, or
    one per contrast scale when the coupling depends on it.
    """
    built = {}

    def of(pconf):
        key = pconf.delta if pconf.perturb_interaction else None
        if key not in built:
            built[key] = unit_heat_inputs(pconf, times, phi)
        return built[key]

    return of


def _actuation_at_delta(config, actuators, times, phi, beta, u_des, w,
                        delta, units_of):
    """Calibrate, invert and realize the projected command at one delta."""
    pconf = build_plasmonic(config, actuators, delta)
    units = units_of(pconf)
    amap = calibrate_k0(pconf, times, phi, units)
    p_coeffs, residual = invert_actuation(amap, beta)
    g_real, rem_norm = realize_profile(pconf, times, phi, units, p_coeffs)
    mismatch = _series_l2(w, g_real - u_des)
    return {
        "pconf": pconf, "amap": amap, "p": p_coeffs,
        "inversion_residual": residual, "g_real": g_real,
        "mismatch": mismatch, "remainder": rem_norm,
    }


def _vdual_curve(table: ModeTable, diff: np.ndarray) -> np.ndarray:
    w = 1.0 / (1.0 + table.eigenvalues)
    return np.linalg.norm(diff * w[None, :], axis=1)


def run_track(config: ExperimentConfig, out_dir: str | None = None,
              check_only: bool = False, strict: bool = True) -> TrackResult:
    """Track a prescribed stationary profile and certify the error budget.

    Stages: close the loop on the fixed-point-corrected reference, record
    the applied inputs, split them into the command profile component and
    the rest, realize the profile component through the particle pipeline
    at every requested contrast scale, then march the three resulting
    trajectories with one exact integrator and compare their gaps in the
    resolvent metric against certified input-to-state budgets.
    """
    setup = build_loop(config)
    table, actuators, matrices = setup.table, setup.actuators, setup.matrices
    system = setup.system
    ctl = config.control
    tol = config.tolerances
    assertions: dict = {}

    with _stage("simulate"):
        y0 = _initial_coeffs(config, table.size)
        z0 = SpectralField(table, y0 - system.reference.coeffs)
        record = simulate_closed_loop(system, z0, ctl.horizon, ctl.dt)
        times = record.times
        u_ideal = record.inputs

    with _stage("verify"):
        # Reduced-length consistency run: 100 steps, step size small enough
        # that the held-input sampling error stays below the tolerance.
        cross = cross_integrator_check(system, z0, steps=100, dt=1e-7)
        assertions["cross_integrator"] = (cross <= tol.cross_integrator,
                                          cross)

    with _stage("project"):
        phi = profile_samples(config.track.profile, times, ctl.horizon)
        w = _trapezoid_weights(times)
        deco = project_onto_profile(times, u_ideal, phi)
        u_des = phi[:, None] * deco.beta[None, :]
        if deco.projected_norm <= 0.0:
            raise InsufficientSignalError(
                "recorded inputs have no component on the command profile")
        assertions["pythagoras"] = (deco.pythagoras_gap <= 1e-10,
                                    deco.pythagoras_gap)

    with _stage("replay"):
        replay = functools.partial(march_forced, table, actuators.points, y0,
                                   dt=ctl.dt, hold="linear")
        y_ideal = replay(u_ideal)
        y_proj = replay(u_des)
        c_cert = certified_input_constant(table, actuators, ctl.horizon)
        err_proj = _vdual_curve(table, y_proj - y_ideal)
        budget_proj = c_cert * deco.orth

    units_of = _unit_responses(times, phi)

    def realize(delta):
        act = _actuation_at_delta(config, actuators, times, phi, deco.beta,
                                  u_des, w, delta, units_of)
        y_phys = replay(act["g_real"])
        curves = {
            "real": _vdual_curve(table, y_phys - y_proj),
            "total": _vdual_curve(table, y_phys - y_ideal),
        }
        eta = act["remainder"] / deco.projected_norm
        row = BudgetRow(
            delta=float(delta), orth=deco.orth, mismatch=act["mismatch"],
            remainder=act["remainder"], eta=eta,
            proj_sup=float(np.max(err_proj)),
            real_sup=float(np.max(curves["real"])),
            total_sup=float(np.max(curves["total"])),
            budget_proj=budget_proj,
            budget_real=c_cert * act["mismatch"],
            within_proj=bool(np.max(err_proj)
                             <= budget_proj + 1e-12 * max(1.0, budget_proj)),
            within_real=bool(np.max(curves["real"])
                             <= c_cert * act["mismatch"]
                             + 1e-12 * max(1.0, c_cert * act["mismatch"])),
            within_total=bool(np.max(curves["total"])
                              <= budget_proj + c_cert * act["mismatch"]
                              + 1e-12),
        )
        return act, curves, row

    with _stage("actuation"):
        headline_act, headline_curves, headline_row = realize(
            config.track.delta)
        budget_rows = []
        for delta in config.track.deltas:
            if delta == config.track.delta:
                budget_rows.append(headline_row)
            else:
                budget_rows.append(realize(delta)[2])

    with _stage("budget"):
        for i, row in enumerate(budget_rows):
            tag = f"{row.delta:g}"
            assertions[f"budget_proj[{tag}]"] = (row.within_proj,
                                                 row.budget_proj - row.proj_sup)
            assertions[f"budget_real[{tag}]"] = (row.within_real,
                                                 row.budget_real - row.real_sup)
            assertions[f"budget_total[{tag}]"] = (
                row.within_total,
                row.budget_proj + row.budget_real - row.total_sup)
        by_delta = sorted(budget_rows, key=lambda r: r.delta)
        eta_diffs = np.diff([r.eta for r in by_delta])
        assertions["eta_monotone"] = (bool(np.all(eta_diffs >= -1e-12)),
                                      float(np.min(eta_diffs))
                                      if eta_diffs.size else 0.0)
        positive = [(r.delta, r.remainder) for r in by_delta
                    if r.remainder > 0.0]
        if len(positive) >= 2:
            x = np.log([d for d, _ in positive])
            y = np.log([r for _, r in positive])
            design = np.stack([x, np.ones_like(x)], axis=1)
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            remainder_slope = float(coef[0])
        else:
            remainder_slope = float("nan")

    with _stage("steady"):
        tail = tail_mismatch_report(system, setup.bias, setup.a_target)
        assertions["low_mode"] = (tail.low_mode_mismatch_h <= tol.low_mode,
                                  tail.low_mode_mismatch_h)
        assertions["tail_bound"] = (tail.satisfied, tail.bound - tail.tail_vdual)

    with _stage("convergence"):
        gap = _doubled_truncation_gap(config, setup, headline_row, units_of)
        assertions["convergence"] = (gap <= tol.convergence, gap)

    result = TrackResult(
        config=config, setup=setup, record=record, times=times,
        u_ideal=u_ideal, decomposition=deco, u_des=u_des, c_cert=c_cert,
        amap_sigma_min=headline_act["amap"].sigma_min,
        inversion_residual=headline_act["inversion_residual"],
        intensity_coeffs=headline_act["p"], g_real=headline_act["g_real"],
        err_proj=err_proj, err_real=headline_curves["real"],
        err_total=headline_curves["total"], budget_rows=budget_rows,
        remainder_slope=remainder_slope, tail=tail, cross_deviation=cross,
        convergence_gap=gap, assertions=assertions, headline=headline_row)

    if out_dir is not None and not check_only:
        with _stage("outputs"):
            result.manifest = _write_track_outputs(result, out_dir)
            result.out_dir = out_dir

    if strict:
        failed = sorted(k for k, (ok, _) in assertions.items() if not ok)
        if failed:
            raise StageError("assertions",
                             AssertionError(f"failed: {failed}"))
    return result


def _doubled_truncation_gap(config: ExperimentConfig, setup: LoopSetup,
                            base_row: BudgetRow, units_of) -> float:
    """Repeat the headline metrics at twice the truncation; return the move.

    The time grid and profile do not change with the truncation, so the
    run's unit heat inputs (``units_of``) are reused.
    """
    ctl = config.control
    domain = setup.domain
    table2 = enumerate_modes(domain, 2 * config.modes.count)
    matrices2 = sampling_matrix(setup.actuators, table2,
                                config.modes.controlled)
    bias2 = assemble_bias_matrix(matrices2, setup.gain)
    if config.control.fixed_point:
        a_star2 = fixed_point_reference(bias2, setup.a_target).a_star
    else:
        a_star2 = setup.a_target.copy()
    system2 = assemble_closed_loop(matrices2, setup.gain, a_star2)
    y0 = _initial_coeffs(config, table2.size)
    z0 = SpectralField(table2, y0 - system2.reference.coeffs)
    record2 = simulate_closed_loop(system2, z0, ctl.horizon, ctl.dt)
    times = record2.times
    phi = profile_samples(config.track.profile, times, ctl.horizon)
    w = _trapezoid_weights(times)
    deco2 = project_onto_profile(times, record2.inputs, phi)
    u_des2 = phi[:, None] * deco2.beta[None, :]
    act2 = _actuation_at_delta(config, setup.actuators, times, phi,
                               deco2.beta, u_des2, w, config.track.delta,
                               units_of)
    replay = functools.partial(march_forced, table2, setup.actuators.points,
                               y0, dt=ctl.dt, hold="linear")
    y_ideal2 = replay(record2.inputs)
    y_proj2 = replay(u_des2)
    y_phys2 = replay(act2["g_real"])
    proj_sup2 = float(np.max(_vdual_curve(table2, y_proj2 - y_ideal2)))
    real_sup2 = float(np.max(_vdual_curve(table2, y_phys2 - y_proj2)))
    total_sup2 = float(np.max(_vdual_curve(table2, y_phys2 - y_ideal2)))
    return max(abs(proj_sup2 - base_row.proj_sup),
               abs(real_sup2 - base_row.real_sup),
               abs(total_sup2 - base_row.total_sup))


def _tolerances_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config.tolerances)


def _write_track_outputs(result: TrackResult, out_dir: str) -> RunManifest:
    os.makedirs(out_dir, exist_ok=True)
    config = result.config
    m = result.setup.actuators.count
    header = (["time"]
              + [f"u_ideal_{j + 1}" for j in range(m)]
              + [f"u_des_{j + 1}" for j in range(m)]
              + [f"g_real_{j + 1}" for j in range(m)]
              + ["err_proj", "err_real", "err_total"])
    rows = []
    for i, t in enumerate(result.times):
        rows.append([float(t)]
                    + [float(v) for v in result.u_ideal[i]]
                    + [float(v) for v in result.u_des[i]]
                    + [float(v) for v in result.g_real[i]]
                    + [float(result.err_proj[i]), float(result.err_real[i]),
                       float(result.err_total[i])])
    manifest = RunManifest("track", config.digest, config.seed,
                           _tolerances_dict(config))
    manifest.record_output("trajectory.csv", write_csv(
        os.path.join(out_dir, "trajectory.csv"), header, rows))

    budget_header = ["delta", "orth", "mismatch", "remainder", "eta",
                     "proj_sup", "real_sup", "total_sup", "budget_proj",
                     "budget_real", "budget_total", "within_proj",
                     "within_real", "within_total"]
    budget_rows = [[r.delta, r.orth, r.mismatch, r.remainder, r.eta,
                    r.proj_sup, r.real_sup, r.total_sup, r.budget_proj,
                    r.budget_real, r.budget_proj + r.budget_real,
                    r.within_proj, r.within_real, r.within_total]
                   for r in result.budget_rows]
    manifest.record_output("budget.csv", write_csv(
        os.path.join(out_dir, "budget.csv"), budget_header, budget_rows))

    head = result.headline
    summary = [
        ("gain", result.setup.gain),
        ("sigma_min", result.setup.matrices.sigma_min),
        ("bias_norm", result.setup.bias.norm),
        ("c_cert", result.c_cert),
        ("orth", result.decomposition.orth),
        ("projected_norm", result.decomposition.projected_norm),
        ("pythagoras_gap", result.decomposition.pythagoras_gap),
        ("amap_sigma_min", result.amap_sigma_min),
        ("inversion_residual", result.inversion_residual),
        ("delta", head.delta),
        ("mismatch", head.mismatch),
        ("remainder", head.remainder),
        ("eta", head.eta),
        ("proj_sup", head.proj_sup),
        ("real_sup", head.real_sup),
        ("total_sup", head.total_sup),
        ("budget_proj", head.budget_proj),
        ("budget_real", head.budget_real),
        ("remainder_slope", result.remainder_slope),
        ("tail_vdual", result.tail.tail_vdual),
        ("tail_bound", result.tail.bound),
        ("low_mode_mismatch", result.tail.low_mode_mismatch_h),
        ("cross_deviation", result.cross_deviation),
        ("convergence_gap", result.convergence_gap),
    ]
    manifest.record_output("summary.csv", write_csv(
        os.path.join(out_dir, "summary.csv"), ["key", "value"],
        [[k, float(v)] for k, v in summary]))
    for name, (ok, value) in result.assertions.items():
        manifest.record_assertion(name, ok, value)
    if not manifest.all_passed:
        manifest.status = "assertion-failure"
    manifest.write(out_dir)
    return manifest


# ---------------------------------------------------------------------------
# auxiliary drivers


def run_simulate(config: ExperimentConfig, out_dir: str | None = None,
                 strict: bool = True):
    """Close the loop, march it, fit the decay and run the verifications."""
    setup = build_loop(config)
    ctl = config.control
    assertions: dict = {}
    with _stage("simulate"):
        y0 = _initial_coeffs(config, setup.table.size)
        z0 = SpectralField(setup.table, y0 - setup.system.reference.coeffs)
        record = simulate_closed_loop(setup.system, z0, ctl.horizon, ctl.dt)
    with _stage("verify"):
        cross = cross_integrator_check(setup.system, z0, steps=100, dt=1e-7)
        assertions["cross_integrator"] = (
            cross <= config.tolerances.cross_integrator, cross)
        try:
            mu_hat, residual = decay_rate_fit(record)
        except InsufficientSignalError:
            mu_hat, residual = float("nan"), float("nan")
        diagnostics = contraction_diagnostics(setup.system)
    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("simulate", config.digest, config.seed,
                                   _tolerances_dict(config))
            m = setup.actuators.count
            header = (["time", "norm_h", "norm_vdual"]
                      + [f"u_{j + 1}" for j in range(m)])
            rows = [[float(record.times[i]), float(record.norms_h[i]),
                     float(record.norms_vdual[i])]
                    + [float(v) for v in record.inputs[i]]
                    for i in range(record.times.shape[0])]
            manifest.record_output("trajectory.csv", write_csv(
                os.path.join(out_dir, "trajectory.csv"), header, rows))
            summary = [("gain", setup.gain), ("mu_hat", mu_hat),
                       ("fit_residual", residual),
                       ("cross_deviation", cross),
                       ("bias_norm", setup.bias.norm),
                       ("bound_a", diagnostics.bound_a),
                       ("bound_b", diagnostics.bound_b),
                       ("bound_c", diagnostics.bound_c)]
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            for name, (ok, value) in assertions.items():
                manifest.record_assertion(name, ok, value)
            if not manifest.all_passed:
                manifest.status = "assertion-failure"
            manifest.write(out_dir)
    if strict:
        failed = sorted(k for k, (ok, _) in assertions.items() if not ok)
        if failed:
            raise StageError("assertions",
                             AssertionError(f"failed: {failed}"))
    return setup, record, (mu_hat, residual), diagnostics, assertions, manifest


def run_place(config: ExperimentConfig, out_dir: str | None = None,
              trials: int = 200):
    """Report the configured placement and a genericity Monte-Carlo."""
    with _stage("build"):
        domain = config.domain.build()
        table = enumerate_modes(domain, config.modes.count)
        actuators = build_actuators(config, domain, table)
        matrices = sampling_matrix(actuators, table, config.modes.controlled)
    with _stage("genericity"):
        count = min(config.modes.controlled, actuators.count)
        report = genericity_monte_carlo(domain, table, count, trials,
                                        config.seed)
    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("place", config.digest, config.seed)
            header = ["index"] + [f"x{ax + 1}" for ax in range(domain.dim)]
            rows = [[j] + [float(v) for v in actuators.points[j]]
                    for j in range(actuators.count)]
            manifest.record_output("placement.csv", write_csv(
                os.path.join(out_dir, "placement.csv"), header, rows))
            summary = [("sigma_min", matrices.sigma_min),
                       ("genericity_trials", float(report.trials)),
                       ("genericity_failures", float(report.failures)),
                       ("genericity_min_sigma", report.min_sigma)]
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            manifest.record_assertion("genericity", report.failures == 0,
                                      float(report.failures))
            if not manifest.all_passed:
                manifest.status = "assertion-failure"
            manifest.write(out_dir)
    return actuators, matrices, report, manifest


def run_calibrate(config: ExperimentConfig, out_dir: str | None = None):
    """Calibrate the particle pipeline against the command profile."""
    with _stage("build"):
        domain = config.domain.build()
        table = enumerate_modes(domain, config.modes.count)
        actuators = build_actuators(config, domain, table)
    with _stage("calibrate"):
        ctl = config.control
        times = time_grid(ctl.horizon, ctl.dt)
        phi = profile_samples(config.track.profile, times, ctl.horizon)
        pconf = build_plasmonic(config, actuators, config.track.delta)
        amap = calibrate_k0(pconf, times, phi)
    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("calibrate", config.digest, config.seed)
            header = ["row", "col", "k0"]
            rows = [[i, l, float(amap.k0[i, l])]
                    for i in range(amap.k0.shape[0])
                    for l in range(amap.k0.shape[1])]
            manifest.record_output("calibration.csv", write_csv(
                os.path.join(out_dir, "calibration.csv"), header, rows))
            summary = ([("sigma_min", amap.sigma_min)]
                       + [(f"residual_{l + 1}", float(r))
                          for l, r in enumerate(amap.residuals)])
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            manifest.write(out_dir)
    return amap, manifest


def run_restriction(config: ExperimentConfig, out_dir: str | None = None,
                    strict: bool = True):
    """Boundary-influence gap sweep from the restriction block."""
    if config.restriction is None:
        raise ConfigError("a restriction block is required for this command")
    blk = config.restriction
    with _stage("build"):
        domain = config.domain.build()
        if blk.sources is not None:
            sources = np.asarray(blk.sources, dtype=float)
        else:
            table = enumerate_modes(domain, config.modes.count)
            sources = build_actuators(config, domain, table).points
    with _stage("gaps"):
        report = restriction_gap_report(
            domain, sources, np.asarray(blk.probes, dtype=float),
            blk.horizons, amplitudes=blk.amplitudes, samples=blk.samples,
            quad_order=blk.quad_order)
    assertions = {
        "gap_monotone": (report.monotone, float(report.rate)),
        "gap_fit": (report.r_squared >= 0.95, report.r_squared),
    }
    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("restriction", config.digest, config.seed)
            header = ["horizon", "dsq_over_horizon", "gap"]
            rows = [[float(report.horizons[i]),
                     float(report.dsq_over_horizon[i]), float(report.gaps[i])]
                    for i in range(report.horizons.shape[0])]
            manifest.record_output("restriction.csv", write_csv(
                os.path.join(out_dir, "restriction.csv"), header, rows))
            summary = [("margin", report.margin), ("rate", report.rate),
                       ("amplitude", report.amplitude),
                       ("r_squared", report.r_squared)]
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            for name, (ok, value) in assertions.items():
                manifest.record_assertion(name, ok, value)
            if not manifest.all_passed:
                manifest.status = "assertion-failure"
            manifest.write(out_dir)
    if strict:
        failed = sorted(k for k, (ok, _) in assertions.items() if not ok)
        if failed:
            raise StageError("assertions",
                             AssertionError(f"failed: {failed}"))
    return report, assertions, manifest


# ---------------------------------------------------------------------------
# constraint coercivity


def coercivity_at_nodes(domain: DomainSpec, nodes, n_modes: int) -> float:
    """Smallest graph-to-energy quotient over fields vanishing at nodes.

    The quotient compares the squared resolvent-graph norm against the
    diffusion energy norm; an empty node list leaves the quotient
    unconstrained, whose minimum is exactly one (attained by the constant
    mode).  Degenerate node sets (repeats, dependent constraint rows)
    raise instead of silently shrinking the constraint.
    """
    if domain.kind != "interval":
        raise ValueError("constraint coercivity is defined on an interval")
    table = enumerate_modes(domain, n_modes)
    lam = table.eigenvalues
    graph_w = (1.0 + lam) ** 2
    energy_w = 1.0 + lam / domain.kappa
    nodes = np.asarray(nodes, dtype=float).reshape(-1)
    if nodes.size == 0:
        return float(np.min(graph_w / energy_w))
    if np.unique(nodes).size != nodes.size:
        raise DegenerateNodesError("constraint nodes repeat")
    if nodes.size >= n_modes:
        raise DegenerateNodesError(
            "at least as many constraint nodes as modes; no field remains")
    constraints = eval_modes(table, nodes[:, None])  # (V, K)
    s = np.linalg.svd(constraints, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise DegenerateNodesError("constraint rows are numerically dependent")
    basis = scipy.linalg.null_space(constraints)
    a_mat = basis.T @ (graph_w[:, None] * basis)
    b_mat = basis.T @ (energy_w[:, None] * basis)
    vals = scipy.linalg.eigh(a_mat, b_mat, eigvals_only=True)
    return float(vals[0])


def coercivity_constant(domain: DomainSpec, cells: int, n_modes: int) -> float:
    """Coercivity quotient for a uniform partition into ``cells`` elements.

    Constraint nodes are the element vertices including both interval
    endpoints, so ``cells`` elements pin ``cells + 1`` values.
    """
    if cells < 1:
        raise ValueError("at least one element is required")
    length = domain.lengths[0]
    nodes = np.linspace(0.0, length, cells + 1)
    return coercivity_at_nodes(domain, nodes, n_modes)


@dataclass(frozen=True)
class CoercivityReport:
    cells: tuple
    spacings: np.ndarray
    constants: np.ndarray
    slope: float
    r_squared: float


def coercivity_profile(domain: DomainSpec, cells_list,
                       modes_per_cell: int) -> CoercivityReport:
    """Coercivity constants across mesh refinements plus the log-log slope."""
    cells_list = tuple(int(c) for c in cells_list)
    if len(cells_list) < 2:
        raise InsufficientDataError("at least two meshes are required")
    length = domain.lengths[0]
    spacings = np.array([length / c for c in cells_list])
    constants = np.array([
        coercivity_constant(domain, c, modes_per_cell * c)
        for c in cells_list])
    x = np.log(spacings)
    y = np.log(constants)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CoercivityReport(cells_list, spacings, constants, float(coef[0]),
                            r_squared)


def run_coercivity(config: ExperimentConfig, out_dir: str | None = None):
    """Mesh sweep of the constrained coercivity constant."""
    from .config import CoercivityBlock

    blk = config.coercivity or CoercivityBlock.parse({})
    with _stage("build"):
        domain = config.domain.build()
    with _stage("sweep"):
        report = coercivity_profile(domain, blk.cells, blk.modes_per_cell)
    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("coercivity", config.digest, config.seed)
            header = ["cells", "spacing", "constant"]
            rows = [[report.cells[i], float(report.spacings[i]),
                     float(report.constants[i])]
                    for i in range(len(report.cells))]
            manifest.record_output("coercivity.csv", write_csv(
                os.path.join(out_dir, "coercivity.csv"), header, rows))
            summary = [("slope", report.slope),
                       ("r_squared", report.r_squared)]
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            manifest.write(out_dir)
    return report, manifest


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    kind: str
    values: tuple
    metrics: tuple          # primary metric per value, nan where failed
    statuses: tuple         # "ok" or the failure type name
    slope: float            # log-log fit over successes, nan if too few
    fitted: bool


def run_sweep(config: ExperimentConfig, out_dir: str | None = None):
    """Scan one parameter, collecting a primary metric per value.

    ``delta`` scans the contrast scale and reports the realized remainder;
    ``gain`` scans the feedback gain and reports the stationary tail size;
    ``mesh`` scans element counts and reports the coercivity constant.
    Individual failures are recorded and skipped; the log-log slope is
    fitted only when at least three values succeed.
    """
    if config.sweep is None:
        raise ConfigError("a sweep block is required for this command")
    kind, values = config.sweep.kind, config.sweep.values
    metrics, statuses = [], []

    if kind == "delta":
        setup = build_loop(config)
        ctl = config.control
        with _stage("simulate"):
            y0 = _initial_coeffs(config, setup.table.size)
            z0 = SpectralField(setup.table,
                               y0 - setup.system.reference.coeffs)
            record = simulate_closed_loop(setup.system, z0, ctl.horizon,
                                          ctl.dt)
            phi = profile_samples(config.track.profile, record.times,
                                  ctl.horizon)
            w = _trapezoid_weights(record.times)
            deco = project_onto_profile(record.times, record.inputs, phi)
            u_des = phi[:, None] * deco.beta[None, :]
        units_of = _unit_responses(record.times, phi)
        for value in values:
            try:
                act = _actuation_at_delta(config, setup.actuators,
                                          record.times, phi, deco.beta,
                                          u_des, w, value, units_of)
                metrics.append(act["remainder"])
                statuses.append("ok")
            except HeattrackError as exc:
                metrics.append(float("nan"))
                statuses.append(type(exc).__name__)
    elif kind == "gain":
        with _stage("build"):
            domain = config.domain.build()
            table = enumerate_modes(domain, config.modes.count)
            actuators = build_actuators(config, domain, table)
            matrices = sampling_matrix(actuators, table,
                                       config.modes.controlled)
            a_target = _reference_vector(config, config.modes.controlled)
        for value in values:
            try:
                bias = assemble_bias_matrix(matrices, value)
                a_star = fixed_point_reference(bias, a_target).a_star
                system = assemble_closed_loop(matrices, value, a_star)
                tail = tail_mismatch_report(system, bias, a_target)
                metrics.append(tail.tail_vdual)
                statuses.append("ok")
            except HeattrackError as exc:
                metrics.append(float("nan"))
                statuses.append(type(exc).__name__)
    else:  # mesh
        from .config import CoercivityBlock

        blk = config.coercivity or CoercivityBlock.parse({})
        with _stage("build"):
            domain = config.domain.build()
        for value in values:
            cells = int(round(value))
            try:
                metrics.append(coercivity_constant(
                    domain, cells, blk.modes_per_cell * cells))
                statuses.append("ok")
            except HeattrackError as exc:
                metrics.append(float("nan"))
                statuses.append(type(exc).__name__)

    good = [(v, m) for v, m, s in zip(values, metrics, statuses)
            if s == "ok" and m > 0.0]
    if len(good) >= 3:
        x = np.log([v for v, _ in good])
        y = np.log([m for _, m in good])
        design = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        slope, fitted = float(coef[0]), True
    else:
        slope, fitted = float("nan"), False
    result = SweepResult(kind, tuple(values), tuple(metrics),
                         tuple(statuses), slope, fitted)

    manifest = None
    if out_dir is not None:
        with _stage("outputs"):
            os.makedirs(out_dir, exist_ok=True)
            manifest = RunManifest("sweep", config.digest, config.seed)
            header = ["value", "metric", "status"]
            rows = [[float(v), float(m), s]
                    for v, m, s in zip(values, metrics, statuses)]
            manifest.record_output("sweep.csv", write_csv(
                os.path.join(out_dir, "sweep.csv"), header, rows))
            summary = [("slope", result.slope),
                       ("fitted", 1.0 if result.fitted else 0.0)]
            manifest.record_output("summary.csv", write_csv(
                os.path.join(out_dir, "summary.csv"), ["key", "value"],
                [[k, float(v)] for k, v in summary]))
            manifest.write(out_dir)
    return result, manifest
