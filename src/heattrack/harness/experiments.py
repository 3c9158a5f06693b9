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

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from ..control import (ClosedLoopSystem, assemble_bias_matrix,
                       assemble_closed_loop, contraction_diagnostics,
                       cross_integrator_check, decay_rate_fit,
                       doubling_gain_search, fixed_point_reference,
                       simulate_closed_loop, tail_mismatch_report, time_grid)
from ..errors import (ConfigError, DegenerateNodesError, HeattrackError,
                      InsufficientDataError, InsufficientSignalError,
                      StageError)
from ..placement import (ActuatorSet, dct_grid_box, dct_nodes_interval,
                         genericity_monte_carlo, greedy_placement,
                         sampling_matrix, uniform_candidates)
from ..plasmonic import (PlasmonicConfig, calibrate_k0, invert_actuation,
                         realize_profile, unit_response)
from ..restriction import restriction_gap_report
from ..spectral import (DomainSpec, ModeTable, enumerate_modes, line_fit,
                        march_forced)
from .config import (MAX_CANDIDATES, ExperimentConfig, build_domain,
                     profile_samples)
from .manifest import RunManifest, write_csv

__all__ = [
    "run_track",
    "run_simulate",
    "run_place",
    "run_calibrate",
    "run_restriction",
    "run_coercivity",
    "run_sweep",
    "check_assertions",
]


@contextmanager
def _stage(name: str):
    """Name a failure in the block after the outermost open stage."""
    try:
        yield
    except StageError as exc:
        raise StageError(name, exc.cause) from exc
    except Exception as exc:
        raise StageError(name, exc) from exc


def check_assertions(assertions: dict, strict: bool = True) -> bool:
    """Whether every ``name -> (ok, value)`` assertion passed.

    With ``strict`` a failure raises, naming the failed assertions.
    """
    failed = sorted(k for k, (ok, _) in assertions.items() if not ok)
    if failed and strict:
        raise StageError("assertions", AssertionError(f"failed: {failed}"))
    return not failed


def _emit(out_dir: str | None, command: str, config: ExperimentConfig,
          tables: dict, summary: list, assertions: dict | None = None,
          tolerances: bool = False) -> RunManifest | None:
    """Write one run's tables and manifest; nothing when ``out_dir`` is None.

    ``tables`` maps a file name to ``(header, rows)``; ``summary`` lists
    ``(key, value)`` pairs for ``summary.csv``.  Rows are a 2-D float
    array or an iterable; a generator is only formed when written.
    """
    if out_dir is None:
        return None
    with _stage("outputs"):
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest(
            command, config.digest, config.seed,
            config.tolerances._asdict() if tolerances else {})
        tables = {**tables, "summary.csv": (
            ["key", "value"], [[k, float(v)] for k, v in summary])}
        for name, (header, rows) in tables.items():
            manifest.record_output(name, write_csv(
                os.path.join(out_dir, name), header, rows))
        for name, (ok, value) in (assertions or {}).items():
            manifest.record_assertion(name, ok, value)
        if not manifest.all_passed:
            manifest.status = "assertion-failure"
        manifest.write(out_dir)
    return manifest


# ---------------------------------------------------------------------------
# builders


def _layout(config: ExperimentConfig):
    """Domain, mode table and actuator placement of one config."""
    domain = build_domain(config.domain)
    table = enumerate_modes(domain, config.modes.count)
    return domain, table, build_actuators(config, domain, table)


def build_actuators(config: ExperimentConfig, domain: DomainSpec,
                    table: ModeTable) -> ActuatorSet:
    """The configured placement.

    Each kind reads one of ``count`` (by default the controlled modes),
    ``counts`` and ``points``; the other two must be left out.
    """
    blk = config.actuators
    reads = ("points" if blk.kind == "explicit"
             else "counts" if blk.kind == "dct" and domain.kind == "box3"
             else "count")
    where = f"actuators kind {blk.kind!r} on domain {domain.kind!r}"
    unread = [k for k in ("count", "counts", "points")
              if k != reads and getattr(blk, k) is not None]
    if unread:
        raise ConfigError(f"{where} reads actuators.{reads}, not "
                          f"{', '.join(unread)}")
    if reads != "count" and getattr(blk, reads) is None:
        raise ConfigError(f"{where} needs actuators.{reads}")
    if reads == "counts" and len(blk.counts) != domain.dim:
        raise ConfigError(f"{where} needs one actuators.counts entry per "
                          f"axis, got {len(blk.counts)}")
    n = config.modes.controlled
    count = n if blk.count is None else blk.count
    if blk.kind == "explicit":
        try:
            return ActuatorSet(domain, np.asarray(blk.points, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"invalid actuators.points: {exc}") from exc
    if reads == "counts":
        return dct_grid_box(blk.counts, domain)
    if blk.kind == "dct":
        return ActuatorSet(domain, dct_nodes_interval(count,
                                                      domain.lengths[0]))
    size = blk.candidates_per_axis ** domain.dim
    if size > MAX_CANDIDATES:
        raise ConfigError(f"actuators.candidates_per_axis gives {size} greedy "
                          f"candidates on a {domain.kind}; at most "
                          f"{MAX_CANDIDATES}")
    if count > size:
        raise ConfigError(f"a greedy placement of {count} actuators needs as "
                          f"many candidates; actuators.candidates_per_axis "
                          f"gives {size}")
    candidates = uniform_candidates(domain, blk.candidates_per_axis)
    return greedy_placement(candidates, table, n, count)


class LoopSetup(NamedTuple):
    """Everything the closed loop needs, resolved from one config."""

    domain: DomainSpec
    table: ModeTable
    actuators: ActuatorSet
    matrices: object
    gain: float
    gain_trace: list | None
    a_target: np.ndarray
    bias: object
    fixed_point: object
    system: ClosedLoopSystem    # its reference[:N] is a_star


def _padded(config: ExperimentConfig, key: str, n: int) -> np.ndarray:
    """``control.reference`` or ``control.initial``, zero-padded to n."""
    vals = getattr(config.control, key) or ()
    if len(vals) > n:
        raise ConfigError(f"control.{key} has {len(vals)} entries for "
                          f"{n} modes")
    out = np.zeros(n)
    out[:len(vals)] = vals
    return out


def _close_loop(config: ExperimentConfig, matrices, gain: float,
                a_target: np.ndarray, picard: bool = False):
    """Bias matrix, reference pre-compensation and the closed loop.

    With ``control.fixed_point`` the loop runs on the solution ``a_star``
    of ``(I + T_N) a_star = a_target`` (tracing Picard when ``picard`` is
    set and the bias is contractive), otherwise on ``a_target`` itself.
    Returns ``(bias, fixed_point, system)``; ``fixed_point`` is None
    without pre-compensation.  One loop, assembled on ``a_target``, gives
    T_N and is retargeted to ``a_star`` with its spectrum.  It opens no
    stage, so a gain sweep sees the raw failure.
    """
    system = assemble_closed_loop(matrices, gain, a_target)
    bias = assemble_bias_matrix(system)
    fp = None
    if config.control.fixed_point:
        fp = fixed_point_reference(bias, a_target,
                                   picard=picard and bias.norm < 1.0)
        system = system.retarget(fp.a_star)
    return bias, fp, system


def build_loop(config: ExperimentConfig) -> LoopSetup:
    """Resolve domain, modes, placement, gain and reference for one config."""
    with _stage("build"):
        domain, table, actuators = _layout(config)
        matrices = sampling_matrix(actuators, table, config.modes.controlled)
    with _stage("gain"):
        gain_trace = None
        if config.control.gain is not None:
            gain = float(config.control.gain)
        else:
            gain, _, gain_trace = doubling_gain_search(
                matrices, config.control.target_rate)
    with _stage("reference"):
        a_target = _padded(config, "reference", config.modes.controlled)
        bias, fp, system = _close_loop(config, matrices, gain, a_target,
                                       picard=True)
    return LoopSetup(domain, table, actuators, matrices, gain, gain_trace,
                     a_target, bias, fp, system)


def _run_loop(config: ExperimentConfig, system: ClosedLoopSystem):
    """The initial error state of the configured initial coefficients and
    the closed loop's record marched from it."""
    z0 = _padded(config, "initial", system.table.size) - system.reference
    ctl = config.control
    return z0, simulate_closed_loop(system, z0, ctl.horizon, ctl.dt)


def build_plasmonic(config: ExperimentConfig,
                    actuators: ActuatorSet) -> PlasmonicConfig:
    """Particle array matching the actuator layout, at every contrast
    scale."""
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
                           coupling, dictionary, config.track.mu, config.seed,
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


class ProfileDecomposition(NamedTuple):
    """Split of an input record into its profile component and the rest."""

    beta: np.ndarray        # profile coefficient per actuator channel
    orth: float             # weighted L2 size of the off-profile part
    projected_norm: float
    pythagoras_gap: float   # relative defect of the weighted Pythagoras split


def project_onto_profile(times: np.ndarray, samples: np.ndarray,
                         phi: np.ndarray) -> ProfileDecomposition:
    """Channel-wise least squares onto one temporal profile.

    The projection uses the trapezoid inner product of the grid, so the
    residual is exactly orthogonal to the profile in that inner product
    and the Pythagoras identity holds to roundoff.  A profile without mass
    and samples without a profile component are both too little signal.
    """
    w = _trapezoid_weights(times)
    denom = float(np.sum(w * phi * phi))
    if denom <= 0.0:
        raise InsufficientSignalError("profile has no mass on the grid")
    beta = (samples.T @ (w * phi)) / denom
    projected_norm = float(np.linalg.norm(beta) * np.sqrt(denom))
    if projected_norm <= 0.0:
        raise InsufficientSignalError(
            "recorded inputs have no component on the command profile")
    resid = samples - phi[:, None] * beta[None, :]
    orth = _series_l2(w, resid)
    sample_norm = _series_l2(w, samples)
    gap = abs(sample_norm ** 2 - projected_norm ** 2 - orth ** 2)
    gap /= max(sample_norm ** 2, 1e-300)
    return ProfileDecomposition(beta, orth, projected_norm, gap)


def certified_input_constant(matrices, horizon: float) -> float:
    """Input-to-state constant of the open flow in the resolvent metric.

    The open semigroup is a contraction in that metric, so the response to
    any input e is bounded by ||W E||_2 * integral ||e||, and Cauchy-Schwarz
    turns the integral into sqrt(T) times the L2 size of e.
    """
    w = 1.0 / (1.0 + matrices.table.eigenvalues)
    return float(np.linalg.norm(w[:, None] * matrices.values.T, 2)
                 * math.sqrt(horizon))


# ---------------------------------------------------------------------------
# tracking driver


@dataclass(frozen=True)
class BudgetRow:
    """Measured errors and certified budgets at one contrast scale.

    A dataclass, not a NamedTuple: ``perfbench/make_reference.py`` reads
    each row through ``__dict__``.
    """

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
    budget_total: float
    within_proj: bool
    within_real: bool
    within_total: bool


class TrackResult(NamedTuple):
    """Everything the tracking driver measured, plus its assertions."""

    config: ExperimentConfig
    setup: LoopSetup
    times: np.ndarray
    u_ideal: np.ndarray
    decomposition: ProfileDecomposition
    u_des: np.ndarray
    c_cert: float
    amap_sigma_min: float
    inversion_residual: float
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
    headline: BudgetRow
    manifest: RunManifest | None = None


def _vdual_curve(table: ModeTable, diff: np.ndarray) -> np.ndarray:
    w = 1.0 / (1.0 + table.eigenvalues)
    return np.linalg.norm(diff * w[None, :], axis=1)


def _particles(config: ExperimentConfig, actuators: ActuatorSet,
               times: np.ndarray):
    """The particle array and its unit response under the command profile,
    which depend on neither the contrast scale nor the truncation."""
    pconf = build_plasmonic(config, actuators)
    phi = profile_samples(config.track.profile, times, config.control.horizon)
    return pconf, unit_response(pconf, times, phi)


def _track_pass(config: ExperimentConfig, system: ClosedLoopSystem, record,
                pconf: PlasmonicConfig, phi: np.ndarray, maps: list):
    """Project a recorded closed-loop run on the profile ``phi``; realize it
    through the particles ``pconf``.

    The open loop is linear, so each error is the zero-state march of an
    input difference: ``e_proj`` of ``u_des - u``, with ``u`` the recorded
    inputs and ``u_des`` their profile component, and ``e_real`` of
    ``g_real - u_des`` for each calibrated map of ``maps``.
    Returns the decomposition, ``u_des``, the resolvent-metric curve
    ``err_proj`` of ``e_proj`` and, per map, the inversion residual, the
    realized inputs ``g_real``, the remainder size, the ``mismatch`` of
    ``g_real`` to ``u_des`` and the curves of ``e_real`` (``real``) and
    ``e_proj + e_real`` (``total``).
    """
    times, table = record.times, system.table
    with _stage("project"):
        deco = project_onto_profile(times, record.inputs, phi)
        u_des = phi[:, None] * deco.beta[None, :]
    with _stage("replay"):
        march = functools.partial(march_forced, table, system.matrices.values,
                                  np.zeros(table.size), dt=config.control.dt)
        e_proj = march(u_des - record.inputs)
        err_proj = _vdual_curve(table, e_proj)
    w = _trapezoid_weights(times)
    acts = []
    with _stage("actuation"):
        for amap in maps:
            p, residual = invert_actuation(amap, deco.beta)
            g_real, _, remainder = realize_profile(pconf, times, amap, p)
            e_real = march(g_real - u_des)
            acts.append({"inversion_residual": residual, "g_real": g_real,
                         "mismatch": _series_l2(w, g_real - u_des),
                         "remainder": remainder,
                         "real": _vdual_curve(table, e_real),
                         "total": _vdual_curve(table, e_proj + e_real)})
    return deco, u_des, err_proj, acts


def _within(sup: float, budget: float) -> bool:
    """Whether a measured sup meets its budget, up to a relative roundoff
    slack of 1e-12 (absolute below a budget of one)."""
    return sup <= budget + 1e-12 * max(1.0, budget)


def run_track(config: ExperimentConfig, out_dir: str | None = None,
              strict: bool = True) -> TrackResult:
    """Track a prescribed stationary profile and certify the error budget.

    Stages: close the loop on the fixed-point-corrected reference, record
    the applied inputs, calibrate the particle pipeline once per requested
    contrast scale, split the inputs into the command profile component
    and the rest, realize the profile component through every calibrated
    map, then march the three resulting trajectories with one exact
    integrator and compare their gaps in the resolvent metric against
    certified input-to-state budgets.
    """
    setup = build_loop(config)
    with _stage("build"):
        config.check_particle_response(setup.actuators.count)
    tol = config.tolerances
    deltas = config.track.deltas
    head = deltas.index(config.track.delta)
    assertions: dict = {}

    with _stage("simulate"):
        z0, record = _run_loop(config, setup.system)

    with _stage("verify"):
        cross = cross_integrator_check(setup.system, z0)
        assertions["cross_integrator"] = (cross <= tol.cross_integrator,
                                          cross)

    times = record.times
    with _stage("calibrate"):
        pconf, response = _particles(config, setup.actuators, times)
        maps = [calibrate_k0(pconf, response, delta) for delta in deltas]

    phi = response.profile
    deco, u_des, err_proj, acts = _track_pass(config, setup.system, record,
                                              pconf, phi, maps)
    assertions["pythagoras"] = (deco.pythagoras_gap <= 1e-10,
                                deco.pythagoras_gap)

    with _stage("budget"):
        c_cert = certified_input_constant(setup.matrices,
                                          config.control.horizon)
        proj_sup = float(np.max(err_proj))
        budget_proj = c_cert * deco.orth
        within_proj = _within(proj_sup, budget_proj)
        budget_rows = []
        for delta, act in zip(deltas, acts):
            real_sup = float(np.max(act["real"]))
            total_sup = float(np.max(act["total"]))
            budget_real = c_cert * act["mismatch"]
            budget_total = budget_proj + budget_real
            row = BudgetRow(
                delta=float(delta), orth=deco.orth, mismatch=act["mismatch"],
                remainder=act["remainder"],
                eta=act["remainder"] / deco.projected_norm,
                proj_sup=proj_sup, real_sup=real_sup, total_sup=total_sup,
                budget_proj=budget_proj, budget_real=budget_real,
                budget_total=budget_total, within_proj=within_proj,
                within_real=_within(real_sup, budget_real),
                within_total=_within(total_sup, budget_total))
            budget_rows.append(row)
            tag = f"{row.delta:g}"
            assertions[f"budget_proj[{tag}]"] = (row.within_proj,
                                                 row.budget_proj - row.proj_sup)
            assertions[f"budget_real[{tag}]"] = (row.within_real,
                                                 row.budget_real - row.real_sup)
            assertions[f"budget_total[{tag}]"] = (
                row.within_total, row.budget_total - row.total_sup)
        by_delta = sorted(budget_rows, key=lambda r: r.delta)
        eta_diffs = np.diff([r.eta for r in by_delta])
        assertions["eta_monotone"] = (bool(np.all(eta_diffs >= -1e-12)),
                                      float(np.min(eta_diffs))
                                      if eta_diffs.size else 0.0)
        positive = [r for r in by_delta if r.remainder > 0.0]
        remainder_slope = float("nan")
        if len(positive) >= 2:
            remainder_slope = line_fit(np.log([r.delta for r in positive]),
                                       np.log([r.remainder
                                               for r in positive]))[0]

    with _stage("steady"):
        tail = tail_mismatch_report(setup.system, setup.bias, setup.a_target)
        assertions["low_mode"] = (tail.low_mode_mismatch_h <= tol.low_mode,
                                  tail.low_mode_mismatch_h)
        assertions["tail_bound"] = (tail.satisfied, tail.bound - tail.tail_vdual)

    with _stage("convergence"):
        # The headline metrics again at twice the truncation, from the
        # same placement, gain and headline map: the time grid and the
        # profile do not change with the truncation.
        matrices2 = sampling_matrix(
            setup.actuators, enumerate_modes(setup.domain,
                                             2 * config.modes.count),
            config.modes.controlled)
        system2 = _close_loop(config, matrices2, setup.gain,
                              setup.a_target)[2]
        _, record2 = _run_loop(config, system2)
        _, _, err_proj2, (act2,) = _track_pass(config, system2, record2,
                                               pconf, phi, [maps[head]])
        row = budget_rows[head]
        gap = max(abs(float(np.max(err_proj2)) - row.proj_sup),
                  abs(float(np.max(act2["real"])) - row.real_sup),
                  abs(float(np.max(act2["total"])) - row.total_sup))
        assertions["convergence"] = (gap <= tol.convergence, gap)

    result = TrackResult(
        config=config, setup=setup, times=times, u_ideal=record.inputs,
        decomposition=deco, u_des=u_des, c_cert=c_cert,
        amap_sigma_min=maps[head].sigma_min,
        inversion_residual=acts[head]["inversion_residual"],
        g_real=acts[head]["g_real"], err_proj=err_proj,
        err_real=acts[head]["real"], err_total=acts[head]["total"],
        budget_rows=budget_rows, remainder_slope=remainder_slope, tail=tail,
        cross_deviation=cross, convergence_gap=gap, assertions=assertions,
        headline=budget_rows[head])
    result = result._replace(manifest=_emit(
        out_dir, "track", config, *_track_artifacts(result), assertions,
        tolerances=True))
    check_assertions(assertions, strict)
    return result


def _track_artifacts(result: TrackResult):
    """The tracking run's tables and summary, as ``_emit`` takes them."""
    m = result.setup.actuators.count
    header = (["time"]
              + [f"u_ideal_{j + 1}" for j in range(m)]
              + [f"u_des_{j + 1}" for j in range(m)]
              + [f"g_real_{j + 1}" for j in range(m)]
              + ["err_proj", "err_real", "err_total"])
    rows = np.column_stack([result.times, result.u_ideal, result.u_des,
                            result.g_real, result.err_proj, result.err_real,
                            result.err_total])
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
    return ({"trajectory.csv": (header, rows),
             "budget.csv": ([f.name for f in fields(BudgetRow)],
                            map(astuple, result.budget_rows))}, summary)


# ---------------------------------------------------------------------------
# auxiliary drivers


def run_simulate(config: ExperimentConfig, out_dir: str | None = None,
                 strict: bool = True):
    """Close the loop, march it, fit the decay and run the verifications."""
    setup = build_loop(config)
    assertions: dict = {}
    with _stage("simulate"):
        z0, record = _run_loop(config, setup.system)
    with _stage("verify"):
        cross = cross_integrator_check(setup.system, z0)
        assertions["cross_integrator"] = (
            cross <= config.tolerances.cross_integrator, cross)
        try:
            mu_hat, residual = decay_rate_fit(record)
        except InsufficientSignalError:
            mu_hat, residual = float("nan"), float("nan")
        diagnostics = contraction_diagnostics(setup.system)
    m = setup.actuators.count
    header = (["time", "norm_h", "norm_vdual"]
              + [f"u_{j + 1}" for j in range(m)])
    rows = None if out_dir is None else np.column_stack(
        [record.times, record.norms_h, record.norms_vdual, record.inputs])
    summary = [("gain", setup.gain), ("mu_hat", mu_hat),
               ("fit_residual", residual),
               ("cross_deviation", cross),
               ("bias_norm", setup.bias.norm),
               ("bound_a", diagnostics.bound_a),
               ("bound_b", diagnostics.bound_b),
               ("bound_c", diagnostics.bound_c)]
    manifest = _emit(out_dir, "simulate", config,
                     {"trajectory.csv": (header, rows)}, summary, assertions,
                     tolerances=True)
    check_assertions(assertions, strict)
    return setup, record, (mu_hat, residual), diagnostics, assertions, manifest


def run_place(config: ExperimentConfig, out_dir: str | None = None):
    """Report the configured placement and a 200-trial genericity
    Monte-Carlo."""
    with _stage("build"):
        domain, table, actuators = _layout(config)
        matrices = sampling_matrix(actuators, table, config.modes.controlled)
    with _stage("genericity"):
        count = min(config.modes.controlled, actuators.count)
        report = genericity_monte_carlo(domain, table, count, 200,
                                        config.seed)
    header = ["index"] + [f"x{ax + 1}" for ax in range(domain.dim)]
    rows = ([j] + [float(v) for v in actuators.points[j]]
            for j in range(actuators.count))
    summary = [("sigma_min", matrices.sigma_min),
               ("genericity_trials", float(report.trials)),
               ("genericity_failures", float(report.failures)),
               ("genericity_min_sigma", report.min_sigma)]
    manifest = _emit(out_dir, "place", config,
                     {"placement.csv": (header, rows)}, summary,
                     {"genericity": (report.failures == 0,
                                     float(report.failures))})
    return actuators, matrices, report, manifest


def run_calibrate(config: ExperimentConfig, out_dir: str | None = None):
    """Calibrate the particle pipeline against the command profile."""
    with _stage("build"):
        _, _, actuators = _layout(config)
        config.check_particle_response(actuators.count)
    with _stage("calibrate"):
        times = time_grid(config.control.horizon, config.control.dt)
        pconf, response = _particles(config, actuators, times)
        amap = calibrate_k0(pconf, response, config.track.delta)
    rows = ([i, l, float(amap.k0[i, l])]
            for i in range(amap.k0.shape[0])
            for l in range(amap.k0.shape[1]))
    summary = ([("sigma_min", amap.sigma_min)]
               + [(f"residual_{l + 1}", float(r))
                  for l, r in enumerate(amap.residuals)])
    manifest = _emit(out_dir, "calibrate", config,
                     {"calibration.csv": (["row", "col", "k0"], rows)},
                     summary)
    return amap, manifest


def run_restriction(config: ExperimentConfig, out_dir: str | None = None,
                    strict: bool = True):
    """Boundary-influence gap sweep from the restriction block."""
    if config.restriction is None:
        raise ConfigError("a restriction block is required for this command")
    blk = config.restriction
    with _stage("build"):
        domain = build_domain(config.domain)
        sources = blk.sources
        if sources is None:
            sources = _layout(config)[2].points
            config.check_restriction_work(len(sources))
    with _stage("gaps"):
        try:
            report = restriction_gap_report(
                domain, sources, blk.probes, blk.horizons, blk.samples,
                blk.quad_order, amplitudes=blk.amplitudes)
        except HeattrackError:
            raise
        except ValueError as exc:  # the geometry or the amplitude count
            raise ConfigError(f"invalid restriction block: {exc}") from exc
    assertions = {
        "gap_monotone": (report.monotone, float(report.rate)),
        "gap_fit": (report.r_squared >= 0.95, report.r_squared),
    }
    rows = ([float(report.horizons[i]), float(report.dsq_over_horizon[i]),
             float(report.gaps[i])]
            for i in range(report.horizons.shape[0]))
    summary = [("margin", report.margin), ("rate", report.rate),
               ("amplitude", report.amplitude),
               ("r_squared", report.r_squared)]
    manifest = _emit(out_dir, "restriction", config,
                     {"restriction.csv": (
                         ["horizon", "dsq_over_horizon", "gap"], rows)},
                     summary, assertions)
    check_assertions(assertions, strict)
    return report, assertions, manifest


# ---------------------------------------------------------------------------
# constraint coercivity


def _alias_classes(domain: DomainSpec, cells: int, n_modes: int):
    """Whitened alias classes ``(d, a^2)`` of the mesh with ``cells`` = n
    equal elements, one row per class of at least two members.

    At the vertices x_j = jL/n, j = 0..n, mode k takes the values of mode
    r(k) = |((k + n) mod 2n) - n| and the DCT-I matrix of order n + 1 is
    invertible, so the constraints are one per alias class r:
    sum_{k in r} c_k x_k = 0.  Whitened by the energy weight, a class is
    diag(d) on the complement of a = c / sqrt(energy_w).  Members are
    ordered by d; every row is padded with a = 0 at d = inf to
    ceil(n_modes / n) columns, the most any class can have, so the tables
    of a profile (n_modes = modes_per_cell * n) all have the same width.
    A one-member class leaves no field and is dropped.
    """
    if cells < 1:
        raise ValueError("at least one element is required")
    if domain.kind != "interval":
        raise ValueError("constraint coercivity is defined on an interval")
    if cells + 1 >= n_modes:
        raise DegenerateNodesError(
            "at least as many constraint nodes as modes; no field remains")
    table = enumerate_modes(domain, n_modes)
    lam = table.eigenvalues
    energy_w = 1.0 + lam / domain.kappa
    d, a2 = (1.0 + lam) ** 2 / energy_w, table.norm_constants ** 2 / energy_w
    alias = np.abs((table.indices[:, 0] + cells) % (2 * cells) - cells)
    # (class, member) layout with d ascending in each class; d is not
    # monotone in k for kappa < 1/2.
    order = np.lexsort((d, alias))
    alias, d, a2 = alias[order], d[order], a2[order]
    sizes = np.bincount(alias, minlength=cells + 1)
    member = np.arange(n_modes) - (np.cumsum(sizes) - sizes)[alias]
    dd = np.full((cells + 1, -(-n_modes // cells)), np.inf)
    aa = np.zeros_like(dd)
    dd[alias, member] = d
    aa[alias, member] = a2
    return dd[sizes >= 2], aa[sizes >= 2]


def _secular_floor(dd: np.ndarray, aa: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each row's class, diag(d) on the complement
    of a: the smallest root of sum a_k^2 / (d_k - t) = 0 between the row's
    two smallest d (Golub, SIAM Rev. 15, 1973), or their value when they
    tie.  Rows are independent: a settled row stays where it is while
    others still bisect, so stacking tables changes no row's root."""
    # The secular function rises from -inf to +inf across each bracket;
    # bisect them all until none shrinks.
    lo, hi = dd[:, 0], dd[:, 1]
    mid = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        while np.any((lo < mid) & (mid < hi)):
            below = np.sum(aa / (dd - mid[:, None]), axis=1) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            mid = 0.5 * (lo + hi)
    return lo


class CoercivityReport(NamedTuple):
    cells: tuple
    spacings: np.ndarray
    constants: np.ndarray
    slope: float
    r_squared: float


def coercivity_profile(domain: DomainSpec, cells_list,
                       modes_per_cell: int) -> CoercivityReport:
    """Coercivity constants across mesh refinements plus the log-log slope.

    The class tables of every mesh have ``modes_per_cell`` columns and are
    stacked for one bisection, and a mesh's constant is the smallest
    secular root over its classes.
    """
    cells_list = tuple(int(c) for c in cells_list)
    if len(cells_list) < 2:
        raise InsufficientDataError("at least two meshes are required")
    length = domain.lengths[0]
    spacings = np.array([length / c for c in cells_list])
    tables = [_alias_classes(domain, c, modes_per_cell * c)
              for c in cells_list]
    dd, aa = (np.concatenate(arrays) for arrays in zip(*tables))
    starts = np.cumsum([0] + [len(t[0]) for t in tables[:-1]])
    constants = np.minimum.reduceat(_secular_floor(dd, aa), starts)
    slope, _, _, r_squared = line_fit(np.log(spacings), np.log(constants))
    return CoercivityReport(cells_list, spacings, constants, slope, r_squared)


def run_coercivity(config: ExperimentConfig, out_dir: str | None = None):
    """Mesh sweep of the constrained coercivity constant.

    Mesh coercivity is defined on an interval, so a box config cannot run
    it: that is a config error, raised before any stage.
    """
    if config.domain.kind != "interval":
        raise ConfigError(f"coercivity needs an interval domain, got "
                          f"{config.domain.kind!r}")
    with _stage("build"):
        domain = build_domain(config.domain)
    blk = config.coercivity
    with _stage("sweep"):
        report = coercivity_profile(domain, blk.cells, blk.modes_per_cell)
    rows = ([report.cells[i], float(report.spacings[i]),
             float(report.constants[i])]
            for i in range(len(report.cells)))
    manifest = _emit(out_dir, "coercivity", config,
                     {"coercivity.csv": (["cells", "spacing", "constant"],
                                         rows)},
                     [("slope", report.slope),
                      ("r_squared", report.r_squared)])
    return report, manifest


# ---------------------------------------------------------------------------
# parameter sweeps


class SweepResult(NamedTuple):
    values: tuple
    metrics: tuple          # primary metric per value, nan where failed
    statuses: tuple         # "ok" or the failure type name
    slope: float            # log-log fit over successes, nan if too few
    fitted: bool


def run_sweep(config: ExperimentConfig, out_dir: str | None = None):
    """Scan the feedback gain, collecting the stationary tail size per value.

    Individual failures are recorded and skipped; the log-log slope is
    fitted only when at least three values succeed.
    """
    if config.sweep is None:
        raise ConfigError("a sweep block is required for this command")
    values = config.sweep.values
    with _stage("build"):
        _, table, actuators = _layout(config)
        matrices = sampling_matrix(actuators, table, config.modes.controlled)
        a_target = _padded(config, "reference", config.modes.controlled)
    metrics, statuses = [], []
    for gain in values:
        try:
            bias, _, system = _close_loop(config, matrices, gain, a_target)
            metrics.append(
                tail_mismatch_report(system, bias, a_target).tail_vdual)
            statuses.append("ok")
        except HeattrackError as exc:
            metrics.append(float("nan"))
            statuses.append(type(exc).__name__)

    good = [(v, m) for v, m, s in zip(values, metrics, statuses)
            if s == "ok" and m > 0.0]
    slope, fitted = float("nan"), len(good) >= 3
    if fitted:
        slope = line_fit(np.log([v for v, _ in good]),
                         np.log([m for _, m in good]))[0]
    result = SweepResult(values, tuple(metrics), tuple(statuses), slope,
                         fitted)
    rows = ([float(v), float(m), s]
            for v, m, s in zip(values, metrics, statuses))
    manifest = _emit(out_dir, "sweep", config,
                     {"sweep.csv": (["value", "metric", "status"], rows)},
                     [("slope", slope), ("fitted", 1.0 if fitted else 0.0)])
    return result, manifest
