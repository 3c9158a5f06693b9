"""End-to-end acceptance checks.

Twelve independent criteria, each printing one pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Every criterion
states its tolerance inline; several also carry a wall-clock limit.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import heattrack
from heattrack.control import (
    assemble_bias_matrix,
    assemble_closed_loop,
    doubling_gain_search,
    fixed_point_reference,
    tail_mismatch_report,
)
from heattrack.harness import experiments as exp
from heattrack.harness.config import load_config, profile_samples
from heattrack.placement import (
    ActuatorSet,
    dct_grid_box,
    dct_nodes_interval,
    sampling_matrix,
)
from heattrack.plasmonic import volterra_solve
from heattrack.restriction import restriction_gap_report
from heattrack.rng import stream
from heattrack.spectral import (DomainSpec, enumerate_modes, eval_modes,
                                march_forced)

import manufactured as mms
from stepping import fitted_slowest_decay
from streams import PURPOSE_TEST


def _criterion(num, label, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {label}: {state} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {state} ({detail})"


@pytest.fixture(scope="module")
def default_config():
    return load_config("default")


@pytest.fixture(scope="module")
def default_track(default_config):
    return exp.run_track(default_config)


def _default_geometry():
    domain = DomainSpec.interval(1.0, kappa=1.0)
    table = enumerate_modes(domain, 32)
    actuators = ActuatorSet(domain, dct_nodes_interval(4, 1.0))
    matrices = sampling_matrix(actuators, table, 4)
    return domain, table, actuators, matrices


# ---------------------------------------------------------------------------


def test_criterion_01_gain_search_reaches_the_target_rate():
    """The search reads the rate off the loop spectrum; a simulation
    started on the slowest mode must measure the same decay."""
    _, _, _, matrices = _default_geometry()
    start = time.monotonic()
    gain, rate, trace = doubling_gain_search(matrices, target_mu=1.0)
    elapsed = time.monotonic() - start
    system = assemble_closed_loop(matrices, gain, np.zeros(4))
    mu_hat, residual = fitted_slowest_decay(system)
    ok = (rate >= 1.0 and abs(mu_hat - rate) <= 1e-10 * rate
          and residual <= 1e-3 and elapsed < 10.0)
    _criterion(1, "gain search reaches the target rate", ok,
               f"gain={gain:g} rate={rate:.4f} mu_hat={mu_hat:.4f} "
               f"residual={residual:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_corrected_loop_lands_on_the_target(default_config):
    start = time.monotonic()
    setup = exp.build_loop(default_config)
    tail = tail_mismatch_report(setup.system, setup.bias, setup.a_target)
    elapsed = time.monotonic() - start
    ok = (tail.low_mode_mismatch_h <= 1e-8 and tail.satisfied
          and elapsed < 30.0)
    _criterion(2, "corrected loop lands on the target low modes", ok,
               f"low_mode={tail.low_mode_mismatch_h:.2e} "
               f"tail={tail.tail_vdual:.3e} <= bound={tail.bound:.3e} "
               f"elapsed={elapsed:.2f}s")


def test_criterion_03_iterative_and_direct_corrections_agree():
    a_target = np.array([0.3, 0.2, -0.1, 0.1])

    dom = DomainSpec.interval(4.0, kappa=1.0)
    table = enumerate_modes(dom, 32)
    acts = ActuatorSet(dom, np.array([[0.2], [0.5], [0.9], [1.4]]))
    mats = sampling_matrix(acts, table, 4)
    bias = assemble_bias_matrix(assemble_closed_loop(mats, 4.0, a_target))
    fp_pic = fixed_point_reference(bias, a_target, picard=True)
    fp_dir = fixed_point_reference(bias, a_target, picard=False)
    agree = float(np.linalg.norm(fp_pic.a_star - fp_dir.a_star))
    errs = np.asarray(fp_pic.picard_errors)
    usable = errs > 1e-12
    ratios = errs[1:][usable[1:] & usable[:-1]] / errs[:-1][usable[1:]
                                                            & usable[:-1]]
    ratio_ok = bool(np.all(ratios <= bias.norm + 0.05))

    dom2 = DomainSpec.interval(6.0, kappa=1.0)
    table2 = enumerate_modes(dom2, 32)
    acts2 = ActuatorSet(dom2, np.array([[0.3], [0.8], [1.5], [2.4]]))
    mats2 = sampling_matrix(acts2, table2, 4)
    bias2 = assemble_bias_matrix(assemble_closed_loop(mats2, 6.0, a_target))
    with pytest.warns(RuntimeWarning):
        fp_fall = fixed_point_reference(bias2, a_target, picard=True)
    fallback_gap = float(np.linalg.norm(
        fp_fall.a_star + bias2.matrix @ fp_fall.a_star - a_target))

    ok = (bias.norm < 1.0 and fp_pic.used_picard and ratio_ok
          and agree <= 1e-9 and bias2.norm >= 1.0
          and not fp_fall.used_picard and fallback_gap <= 1e-9)
    _criterion(3, "iterative and direct corrections agree", ok,
               f"norm={bias.norm:.4f} max_ratio="
               f"{float(np.max(ratios)):.4f} agree={agree:.2e} "
               f"fallback_norm={bias2.norm:.4f} gap={fallback_gap:.2e}")


def test_criterion_04_cosine_node_sampling_is_orthogonal():
    worst = 0.0
    sigma_ok = True
    for m in (2, 4, 8):
        length = 1.0
        dom = DomainSpec.interval(length, kappa=1.0)
        table = enumerate_modes(dom, m)
        acts = ActuatorSet(dom, dct_nodes_interval(m, length))
        mats = sampling_matrix(acts, table, m)
        gram = mats.phi @ mats.phi.T
        worst = max(worst, float(np.max(np.abs(
            gram - (m / length) * np.eye(m)))))
        sigma_ok &= abs(mats.sigma_min - np.sqrt(m / length)) < 1e-10

    box = DomainSpec.box((1.0, 1.0, 1.0), kappa=1.0)
    grid = dct_grid_box((1, 1, 1), box)
    table = enumerate_modes(box, 8)
    idx = np.asarray(table.indices)
    order = np.argsort(idx @ np.array([4, 2, 1]))
    full = eval_modes(table, grid.points).T[order, :]
    axis_dom = DomainSpec.interval(1.0, kappa=1.0)
    axis_tab = enumerate_modes(axis_dom, 2)
    a_axis = eval_modes(axis_tab, dct_nodes_interval(2, 1.0)).T
    kron = np.kron(np.kron(a_axis, a_axis), a_axis)
    kron_gap = float(np.max(np.abs(full - kron)))
    box_mats = sampling_matrix(grid, table, 8)

    ok = (worst <= 1e-10 and sigma_ok and kron_gap <= 1e-10
          and box_mats.sigma_min > 0.0)
    _criterion(4, "cosine node sampling is orthogonal", ok,
               f"interval_gap={worst:.2e} kron_gap={kron_gap:.2e} "
               f"box_sigma_min={box_mats.sigma_min:.3f}")


def test_criterion_05_pseudo_inverse_identities_hold():
    worst = 0.0
    for trial in range(20):
        rng = stream(7, PURPOSE_TEST, 500 + trial)
        rows, cols = (4, 7) if trial % 2 == 0 else (3, 9)
        a = rng.standard_normal((rows, cols))
        pinv = np.linalg.pinv(a)
        sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
        checks = (
            a @ pinv @ a - a,
            pinv @ a @ pinv - pinv,
            a @ pinv - (a @ pinv).T,
            pinv @ a - (pinv @ a).T,
        )
        worst = max(worst, max(float(np.max(np.abs(c))) for c in checks))
        # the inverse of a full-rank matrix has operator norm 1/sigma_min
        worst = max(worst, abs(np.linalg.norm(pinv, 2) * sigma_min - 1.0))
    ok = worst <= 1e-10
    _criterion(5, "pseudo-inverse identities hold on 20 seeded draws", ok,
               f"worst_defect={worst:.2e}")


def test_criterion_06_constrained_quotient_grows_at_the_mesh_rate():
    dom = DomainSpec.interval(1.0, kappa=1.0)
    start = time.monotonic()
    report = exp.coercivity_profile(dom, [8, 16, 32, 64], 8)
    elapsed = time.monotonic() - start
    ok = -2.3 <= report.slope <= -1.7 and elapsed < 60.0
    _criterion(6, "constrained quotient grows at the mesh rate", ok,
               f"slope={report.slope:.4f} r2={report.r_squared:.5f} "
               f"elapsed={elapsed:.2f}s")


def test_criterion_07_memory_march_attains_second_order():
    coupling = mms.BETA * (np.ones((2, 2)) - np.eye(2))
    errs = []
    for q in (64, 128, 256):
        times = np.linspace(0.0, mms.HORIZON, q + 1)
        sigma = volterra_solve(mms.CENTERS, coupling, mms.KAPPA, times,
                               mms.forcing(times))
        diff = sigma - mms.sigma(times)
        errs.append(float(np.sqrt(np.sum(diff ** 2) * (mms.HORIZON / q))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    times = np.linspace(0.0, mms.HORIZON, 65)
    forcing = (np.sin(2 * np.pi * times) + 1.5)[:, None]
    single = volterra_solve(np.array([[0.4]]), np.zeros((1, 1)), 1.0, times,
                            forcing)
    single_gap = float(np.max(np.abs(single - forcing)))
    rng = stream(7, PURPOSE_TEST, 7)
    forcing3 = rng.standard_normal((65, 3))
    free = volterra_solve(np.array([[0.2], [0.5], [0.8]]), np.zeros((3, 3)),
                          1.0, times, forcing3)
    free_gap = float(np.max(np.abs(free - forcing3)))

    ok = (bool(np.all(orders >= 1.8)) and single_gap <= 1e-14
          and free_gap <= 1e-14)
    _criterion(7, "memory march attains second order", ok,
               f"orders={np.round(orders, 3).tolist()} "
               f"single_gap={single_gap:.1e} uncoupled_gap={free_gap:.1e}")


def test_criterion_08_physical_remainder_scales_with_the_contrast(
        default_track):
    rows = sorted(default_track.budget_rows, key=lambda r: r.delta)
    etas = [r.eta for r in rows]
    monotone = bool(np.all(np.diff(etas) >= -1e-12))
    slope = default_track.remainder_slope
    ok = 0.8 <= slope <= 1.2 and monotone
    _criterion(8, "physical remainder scales with the contrast", ok,
               f"slope={slope:.4f} etas="
               f"{[float(f'{e:.4e}') for e in etas]}")


def test_criterion_09_certified_constant_bounds_the_response():
    _, table, _, matrices = _default_geometry()
    horizon = 1.0
    times = np.linspace(0.0, horizon, 201)
    dt = times[1] - times[0]
    phi = profile_samples("sine-bump", times, horizon)
    w = np.full(times.shape[0], dt)
    w[0] = w[-1] = 0.5 * dt
    psi_raw = np.sin(4 * np.pi * times / horizon) \
        + 0.3 * np.cos(2 * np.pi * times / horizon)
    psi = psi_raw - phi * (np.sum(w * psi_raw * phi)
                           / np.sum(w * phi * phi))
    w_dir = np.array([1.0, 0.5, -0.25, 0.125])
    v_dir = np.array([0.3, -1.0, 0.6, 0.2])
    c_cert = exp.certified_input_constant(matrices, horizon)
    vd = 1.0 / (1.0 + table.eigenvalues)
    rng = stream(7, PURPOSE_TEST, 9)
    ratios = []
    for _ in range(5):
        beta_s = 1.0 + 0.4 * rng.standard_normal()
        c_s = 0.8 + 0.3 * rng.standard_normal()
        u = (beta_s * np.outer(phi, w_dir) + c_s * np.outer(psi, v_dir))
        deco = exp.project_onto_profile(times, u, phi)
        resid = u - phi[:, None] * deco.beta[None, :]
        states = march_forced(table, matrices.values, np.zeros(table.size),
                              resid, dt)
        sup = float(np.max(np.linalg.norm(states * vd[None, :], axis=1)))
        ratios.append(sup / deco.orth)
    ratios = np.asarray(ratios)
    mean = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - mean))) / mean
    ok = bool(np.all(ratios <= c_cert)) and spread <= 0.10
    _criterion(9, "certified constant bounds the off-profile response", ok,
               f"ratio={mean:.6f} certified={c_cert:.6f} "
               f"spread={spread:.2e}")


def test_criterion_10_every_contrast_scale_stays_within_budget(
        default_track):
    rows = sorted(default_track.budget_rows, key=lambda r: r.delta)
    ok = all(r.within_total for r in rows)
    margins = [(r.budget_proj + r.budget_real) / r.total_sup for r in rows]
    _criterion(10, "every contrast scale stays within budget", ok,
               "margins=" + str([float(f"{m:.2f}") for m in margins]))


def test_criterion_11_wall_influence_fades_with_the_horizon():
    box = DomainSpec.box((1.0, 1.0, 1.0), kappa=1.0)
    sources = np.array([[0.45, 0.5, 0.5]])
    probes = np.array([[0.6, 0.45, 0.55]])
    start = time.monotonic()
    report = restriction_gap_report(
        box, sources, probes, horizons=[0.08, 0.04, 0.02, 0.01, 0.005],
        samples=48, quad_order=12)
    elapsed = time.monotonic() - start
    ok = report.monotone and report.r_squared >= 0.95 and elapsed < 30.0
    _criterion(11, "wall influence fades with the horizon", ok,
               f"r2={report.r_squared:.4f} rate={report.rate:.4f} "
               f"elapsed={elapsed:.2f}s")


def test_criterion_12_identical_runs_produce_identical_bytes(tmp_path):
    files = ("trajectory.csv", "budget.csv", "summary.csv", "manifest.txt")
    # the child runs the package this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(heattrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    payloads = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "heattrack.harness.cli", "track",
             "--config", "default", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        payloads.append({f: (out / f).read_bytes() for f in files})
    same = [f for f in files if payloads[0][f] == payloads[1][f]]
    ok = len(same) == len(files)
    _criterion(12, "identical runs produce identical bytes", ok,
               f"matched={len(same)}/{len(files)} files "
               f"({', '.join(files)})")
