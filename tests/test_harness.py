"""Config validation, experiment drivers, manifests and the CLI."""

import hashlib

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from heattrack import plasmonic
from heattrack.errors import (
    ConfigError,
    DegenerateNodesError,
    InsufficientDataError,
)
from heattrack.harness import cli
from heattrack.harness import experiments as exp
from heattrack.harness.config import (
    ExperimentConfig,
    load_config,
    profile_samples,
)
from heattrack.harness.manifest import (
    TOOL_ID,
    RunManifest,
    format_value,
    write_csv,
)
from heattrack.placement import ActuatorSet, dct_nodes_interval
from heattrack.rng import PURPOSE_TEST, stream
from heattrack.spectral import (
    DomainSpec,
    SpectralField,
    enumerate_modes,
    eval_modes,
    heat_step_forced_linear,
)

BASE = {
    "seed": 7,
    "domain": {"kind": "interval", "lengths": [1.0], "kappa": 1.0},
    "modes": {"count": 32, "controlled": 4},
    "actuators": {"kind": "dct", "count": 4},
    "control": {"gain": 8.0, "horizon": 0.4, "dt": 0.004,
                "reference": [0.3, 0.2, -0.1, 0.1], "fixed_point": True},
    "track": {"delta": 0.05, "mu": 1.0, "deltas": [0.1, 0.05],
              "profile": "sine-bump"},
}


def _mapping(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in BASE.items()}
    for key, value in overrides.items():
        data[key] = value
    return data


def _config(**overrides):
    return ExperimentConfig.from_mapping(_mapping(**overrides))


def _write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_loads_by_name():
    config = load_config("default")
    assert config.seed == 7
    assert config.domain.kind == "interval"
    assert config.modes.count == 32
    assert config.control.gain == 8.0
    assert config.restriction is not None
    assert len(config.digest) == 64


def test_unknown_top_level_block_is_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        ExperimentConfig.from_mapping(_mapping(typo={"oops": 1}))


def test_unknown_key_inside_a_block_is_rejected():
    data = _mapping()
    data["control"]["gian"] = 2.0
    with pytest.raises(ConfigError, match="'control'"):
        ExperimentConfig.from_mapping(data)


def test_seed_is_required_but_can_be_overridden():
    data = _mapping()
    del data["seed"]
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_mapping(data)
    config = ExperimentConfig.from_mapping(data, seed_override=11)
    assert config.seed == 11


def test_digest_tracks_content_and_seed():
    a = _config()
    b = _config()
    assert a.digest == b.digest
    c = ExperimentConfig.from_mapping(_mapping(), seed_override=8)
    assert c.digest != a.digest
    data = _mapping()
    data["control"]["gain"] = 9.0
    d = ExperimentConfig.from_mapping(data)
    assert d.digest != a.digest


def test_control_needs_a_gain_or_a_target_rate():
    data = _mapping()
    data["control"] = {"horizon": 0.4, "dt": 0.004}
    with pytest.raises(ConfigError, match="gain or target_rate"):
        ExperimentConfig.from_mapping(data)


def test_modes_bounds_are_checked():
    with pytest.raises(ConfigError):
        _config(modes={"count": 4, "controlled": 5})


def test_sweep_block_validation():
    with pytest.raises(ConfigError, match="sweep kind"):
        _config(sweep={"kind": "voltage", "values": [1.0]})
    with pytest.raises(ConfigError, match="requires key"):
        _config(sweep={"values": [1.0]})
    with pytest.raises(ConfigError, match="nonempty"):
        _config(sweep={"kind": "delta", "values": []})


def test_profile_samples_shape_and_names():
    times = np.linspace(0.0, 0.4, 21)
    phi = profile_samples("sine-bump", times, 0.4)
    assert_allclose(phi, np.sin(np.pi * times / 0.4) ** 2, rtol=1e-15)
    assert phi[0] == 0.0 and phi[-1] == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(ConfigError, match="unknown profile"):
        profile_samples("square", times, 0.4)


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("control: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# grid utilities


def test_projection_recovers_a_planted_split():
    times = np.linspace(0.0, 0.4, 81)
    horizon = 0.4
    phi = profile_samples("sine-bump", times, horizon)
    w = np.full(81, times[1] - times[0])
    w[0] = w[-1] = 0.5 * (times[1] - times[0])
    rng = stream(7, PURPOSE_TEST, 300)
    beta_true = np.array([0.7, -0.4, 1.1])
    raw = rng.standard_normal((81, 3))
    # remove the profile component channel by channel
    g_perp = raw - phi[:, None] * ((raw.T @ (w * phi))
                                   / np.sum(w * phi * phi))[None, :]
    samples = phi[:, None] * beta_true[None, :] + g_perp
    deco = exp.project_onto_profile(times, samples, phi)
    assert_allclose(deco.beta, beta_true, atol=1e-12)
    assert deco.pythagoras_gap <= 1e-12
    expected_orth = float(np.sqrt(np.sum(w * np.sum(g_perp ** 2, axis=1))))
    assert deco.orth == pytest.approx(expected_orth, rel=1e-12)
    # the residual really is orthogonal to the profile, channel by channel
    resid = samples - phi[:, None] * deco.beta[None, :]
    assert np.max(np.abs(resid.T @ (w * phi))) < 1e-14


def test_march_agrees_with_the_one_step_integrator(unit_interval):
    table = enumerate_modes(unit_interval, 8)
    actuators = ActuatorSet(unit_interval, dct_nodes_interval(2, 1.0))
    rng = stream(7, PURPOSE_TEST, 301)
    y0 = rng.standard_normal(8)
    inputs = rng.standard_normal((6, 2))
    dt = 0.01
    states = exp.march_piecewise_linear(table, actuators, y0, inputs, dt)
    z = SpectralField(table, y0.copy())
    assert_allclose(states[0], y0, rtol=0, atol=0)
    for q in range(5):
        z = heat_step_forced_linear(z, actuators.points, inputs[q],
                                    inputs[q + 1], dt)
        assert_allclose(states[q + 1], z.coeffs, atol=1e-14)


def test_certified_constant_bounds_every_response(table32, dct4):
    horizon = 0.5
    times = np.linspace(0.0, horizon, 51)
    dt = times[1] - times[0]
    w = np.full(51, dt)
    w[0] = w[-1] = 0.5 * dt
    c_cert = exp.certified_input_constant(table32, dct4, horizon)
    vd = 1.0 / (1.0 + table32.eigenvalues)
    for trial in range(10):
        rng = stream(7, PURPOSE_TEST, 310 + trial)
        inputs = rng.standard_normal((51, 4))
        states = exp.march_piecewise_linear(table32, dct4, np.zeros(32),
                                            inputs, dt)
        sup = float(np.max(np.linalg.norm(states * vd[None, :], axis=1)))
        l2 = float(np.sqrt(np.sum(w * np.sum(inputs ** 2, axis=1))))
        assert sup <= c_cert * l2 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# coercivity


def test_coercivity_without_constraints_is_one(unit_interval):
    assert exp.coercivity_at_nodes(unit_interval, [], 16) == pytest.approx(1.0)


def test_constraints_only_raise_the_constant(unit_interval):
    one = exp.coercivity_at_nodes(unit_interval, [0.3], 16)
    two = exp.coercivity_at_nodes(unit_interval, [0.3, 0.7], 16)
    assert 1.0 < one < two


def test_degenerate_node_sets_are_rejected(unit_interval):
    with pytest.raises(DegenerateNodesError, match="repeat"):
        exp.coercivity_at_nodes(unit_interval, [0.3, 0.3], 16)
    with pytest.raises(DegenerateNodesError, match="no field"):
        exp.coercivity_at_nodes(unit_interval, np.linspace(0.1, 0.9, 16), 16)


def test_mesh_constant_uses_the_element_vertices(unit_interval):
    direct = exp.coercivity_at_nodes(unit_interval,
                                     np.linspace(0.0, 1.0, 5), 24)
    assert exp.coercivity_constant(unit_interval, 4, 24) == pytest.approx(
        direct, rel=1e-13)


def test_coercivity_profile_shows_the_mesh_rate(unit_interval):
    report = exp.coercivity_profile(unit_interval, [4, 8, 16], 6)
    assert np.all(np.diff(report.constants) > 0.0)
    assert report.constants[1] == pytest.approx(680.767, rel=1e-3)
    assert report.slope < -1.5
    assert report.r_squared >= 0.95
    with pytest.raises(InsufficientDataError):
        exp.coercivity_profile(unit_interval, [8], 6)


# ---------------------------------------------------------------------------
# experiment drivers


@pytest.fixture(scope="module")
def track_result():
    return exp.run_track(_config())


def test_track_assertions_all_pass(track_result):
    assert all(ok for ok, _ in track_result.assertions.values())
    head = track_result.headline
    assert head.delta == 0.05
    assert head.total_sup <= head.budget_proj + head.budget_real
    assert track_result.remainder_slope == pytest.approx(1.0, abs=0.1)


def test_track_budget_rows_follow_the_contrast_scale(track_result):
    rows = sorted(track_result.budget_rows, key=lambda r: r.delta)
    assert [r.delta for r in rows] == [0.05, 0.1]
    assert rows[0].eta <= rows[1].eta
    assert rows[0].remainder < rows[1].remainder
    for row in rows:
        assert row.within_proj and row.within_real and row.within_total


def test_track_writes_deterministic_outputs(tmp_path):
    files = ("trajectory.csv", "budget.csv", "summary.csv", "manifest.txt")
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = exp.run_track(_config(), out_dir=str(out))
        assert result.manifest.all_passed
        payloads.append({f: (out / f).read_bytes() for f in files})
    assert payloads[0] == payloads[1]
    manifest = payloads[0]["manifest.txt"].decode()
    assert manifest.startswith(f"tool={TOOL_ID}\ncommand=track\n")
    assert "status=ok" in manifest


@pytest.mark.parametrize("run", [
    lambda: exp.run_track(load_config("default")),
    lambda: exp.run_sweep(_config(sweep={"kind": "delta",
                                         "values": [0.2, 0.1, 0.05]})),
], ids=["track", "sweep-delta"])
def test_particles_are_marched_once_per_run(monkeypatch, run):
    """Calibration, realization and remainder at every contrast scale (and
    at the doubled truncation) share one batched amplitude march."""
    calls = {"volterra_solve": 0, "kernel_time_derivative": 0}
    for name in calls:
        original = getattr(plasmonic, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(plasmonic, name, counting)
    run()
    assert calls == {"volterra_solve": 1, "kernel_time_derivative": 0}


def _trapezoid_l2(times, series):
    return float(np.sqrt(np.sum(np.trapezoid(series ** 2, times, axis=0))))


def test_track_with_perturbed_interaction_matches_the_difference_path(
        monkeypatch):
    config = _config(plasmonic={"perturb_interaction": True})
    built = []
    original = exp.unit_heat_inputs

    def recording(pconf, *args):
        built.append(pconf.delta)
        return original(pconf, *args)

    monkeypatch.setattr(exp, "unit_heat_inputs", recording)
    result = exp.run_track(config)
    # the coupling depends on delta, so each contrast scale has its own
    # unit response; the doubled truncation reuses the headline one
    assert sorted(built) == sorted(set(config.track.deltas))

    # reference path: one pipeline probe per dictionary column, and the
    # remainder as the difference of the full and leading pipelines
    times = result.times
    phi = profile_samples(config.track.profile, times, config.control.horizon)
    denom = np.trapezoid(phi * phi, times)
    for row in result.budget_rows:
        pconf = exp.build_plasmonic(config, result.setup.actuators, row.delta)
        probes = [plasmonic.run_pipeline(pconf, times,
                                         phi[:, None] * np.eye(4)[col])
                  for col in range(4)]
        k0 = np.stack([np.trapezoid(out * phi[:, None], times, axis=0)
                       for out in probes], axis=1) / denom
        coeffs = np.linalg.solve(k0, result.decomposition.beta)
        intensities = phi[:, None] * coeffs[None, :]
        full = plasmonic.run_pipeline(pconf, times, intensities)
        leading = plasmonic.run_pipeline(
            exp.build_plasmonic(config, result.setup.actuators, 0.0), times,
            intensities)
        assert row.mismatch == pytest.approx(
            _trapezoid_l2(times, full - result.u_des), rel=1e-12)
        assert row.remainder == pytest.approx(
            _trapezoid_l2(times, full - leading), rel=1e-12)


def test_simulate_driver_reports_the_decay(tmp_path):
    out = tmp_path / "sim"
    setup, record, (mu_hat, residual), diag, assertions, manifest = (
        exp.run_simulate(_config(), out_dir=str(out)))
    assert assertions["cross_integrator"][0]
    # the short transient mixes modes, so only sanity-check the fit
    assert mu_hat > 0.0 and np.isfinite(residual)
    assert not diag.inconclusive
    assert (out / "trajectory.csv").exists()
    assert manifest.all_passed
    # same seed, same bytes
    out2 = tmp_path / "sim2"
    exp.run_simulate(_config(), out_dir=str(out2))
    for name in ("trajectory.csv", "summary.csv", "manifest.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_place_driver_runs_the_genericity_check(tmp_path):
    out = tmp_path / "place"
    actuators, matrices, report, manifest = exp.run_place(
        _config(), out_dir=str(out), trials=25)
    assert actuators.count == 4
    assert matrices.sigma_min > 0.1
    assert report.failures == 0
    placement = (out / "placement.csv").read_text().splitlines()
    assert placement[0] == "index,x1"
    assert len(placement) == 5


def test_calibrate_driver_produces_an_actuation_map(tmp_path):
    out = tmp_path / "cal"
    amap, manifest = exp.run_calibrate(_config(), out_dir=str(out))
    assert amap.k0.shape == (4, 4)
    assert amap.sigma_min > 0.0
    assert "calibration.csv" in manifest.outputs
    assert "summary.csv" in manifest.outputs


def test_restriction_driver_uses_the_config_block(tmp_path):
    config = _config(restriction={
        "probes": [[0.5]], "sources": [[0.4], [0.6]],
        "horizons": [0.02, 0.01, 0.005, 0.0025]})
    report, assertions, manifest = exp.run_restriction(
        config, out_dir=str(tmp_path / "res"))
    assert assertions["gap_monotone"][0]
    assert assertions["gap_fit"][0]
    assert report.rate > 0.0
    with pytest.raises(ConfigError, match="restriction block"):
        exp.run_restriction(_config())


def test_coercivity_driver(tmp_path):
    config = _config(coercivity={"cells": [4, 8, 16], "modes_per_cell": 6})
    report, manifest = exp.run_coercivity(config, out_dir=str(tmp_path))
    assert report.slope < -1.5
    assert "coercivity.csv" in manifest.outputs


def test_delta_sweep_fits_the_remainder_rate():
    config = _config(sweep={"kind": "delta", "values": [0.2, 0.1, 0.05]})
    result, _ = exp.run_sweep(config)
    assert result.statuses == ("ok", "ok", "ok")
    assert result.fitted
    assert result.slope == pytest.approx(1.0, abs=0.1)


def test_gain_sweep_reports_tail_sizes():
    config = _config(sweep={"kind": "gain", "values": [4.0, 8.0]})
    result, _ = exp.run_sweep(config)
    assert result.statuses == ("ok", "ok")
    assert all(m > 0.0 for m in result.metrics)
    assert not result.fitted  # two points never get a fit


def test_mesh_sweep_records_failures_and_keeps_going(unit_interval):
    config = _config(sweep={"kind": "mesh", "values": [1, 8, 16, 32]},
                     coercivity={"cells": [4], "modes_per_cell": 2})
    result, _ = exp.run_sweep(config)
    assert result.statuses == ("DegenerateNodesError", "ok", "ok", "ok")
    assert np.isnan(result.metrics[0])
    assert result.fitted
    assert result.slope == pytest.approx(2.0, abs=0.3)
    # the surviving rows match the direct computation
    assert result.metrics[1] == pytest.approx(
        exp.coercivity_constant(unit_interval, 8, 16), rel=1e-13)


def test_sweep_requires_its_block():
    with pytest.raises(ConfigError, match="sweep block"):
        exp.run_sweep(_config())


# ---------------------------------------------------------------------------
# manifests


def test_format_value_conventions():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(3) == "3"
    assert format_value("ok") == "ok"


def test_write_csv_bytes_and_digest(tmp_path):
    path = tmp_path / "t.csv"
    digest = write_csv(str(path), ["a", "b"], [[1, 0.5], [True, "x"]])
    payload = path.read_bytes()
    assert payload == b"a,b\n1,0.5\ntrue,x\n"
    assert digest == hashlib.sha256(payload).hexdigest()


def test_manifest_render_is_ordered_and_stable(tmp_path):
    manifest = RunManifest("track", "c" * 64, 7, {"b_tol": 0.5, "a_tol": 1.0})
    manifest.record_output("zeta.csv", "f" * 64)
    manifest.record_output("alpha.csv", "e" * 64)
    manifest.record_assertion("beta", True, 0.25)
    manifest.record_assertion("alpha", False, -1.0)
    assert not manifest.all_passed
    text = manifest.render()
    lines = text.splitlines()
    assert lines[0] == f"tool={TOOL_ID}"
    assert lines.index("tolerance.a_tol=1") < lines.index("tolerance.b_tol=0.5")
    assert (lines.index(f"output.alpha.csv={'e' * 64}")
            < lines.index(f"output.zeta.csv={'f' * 64}"))
    assert "assertion.alpha=fail value=-1" in text
    assert "assertion.beta=pass value=0.25" in text
    assert manifest.render() == text
    digest = manifest.write(str(tmp_path))
    assert digest == hashlib.sha256(
        (tmp_path / "manifest.txt").read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# command line


def test_cli_simulate_check_mode(tmp_path, capsys):
    path = _write_yaml(tmp_path / "c.yaml", _mapping())
    code = cli.main(["simulate", "--config", path, "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] cross_integrator" in out
    assert "mu_hat=" in out


def test_cli_track_check_mode(tmp_path, capsys):
    path = _write_yaml(tmp_path / "c.yaml", _mapping())
    code = cli.main(["track", "--config", path, "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "track: total_sup=" in out
    assert "FAIL" not in out


def test_cli_place_and_calibrate_and_coercivity(tmp_path):
    data = _mapping(coercivity={"cells": [4, 8, 16], "modes_per_cell": 6})
    path = _write_yaml(tmp_path / "c.yaml", data)
    out = tmp_path / "place"
    assert cli.main(["place", "--config", path, "--out", str(out)]) == 0
    assert (out / "placement.csv").exists()
    assert (out / "manifest.txt").exists()
    assert cli.main(["calibrate", "--config", path]) == 0
    assert cli.main(["coercivity", "--config", path]) == 0


def test_cli_restriction_and_sweep(tmp_path, capsys):
    data = _mapping(
        restriction={"probes": [[0.5]], "sources": [[0.4], [0.6]],
                     "horizons": [0.02, 0.01, 0.005, 0.0025]},
        sweep={"kind": "mesh", "values": [1, 8, 16, 32]},
        coercivity={"cells": [4], "modes_per_cell": 2})
    path = _write_yaml(tmp_path / "c.yaml", data)
    out = tmp_path / "res"
    assert cli.main(["restriction", "--config", path,
                     "--out", str(out)]) == 0
    assert (out / "restriction.csv").exists()
    assert cli.main(["sweep", "--config", path]) == 0
    assert "status=DegenerateNodesError" in capsys.readouterr().out


def test_cli_rejects_bad_configs(tmp_path, capsys):
    data = _mapping()
    data["control"]["gian"] = 1.0
    path = _write_yaml(tmp_path / "typo.yaml", data)
    assert cli.main(["simulate", "--config", path]) == 2
    assert cli.main(["simulate", "--config",
                     str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "broken.yaml"
    bad.write_text("domain: [unclosed\n")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    # config problems surfacing inside a build stage still exit 2
    boxy = _mapping(domain={"kind": "box3", "lengths": [1.0, 1.0, 1.0]},
                    actuators={"kind": "dct"})
    path = _write_yaml(tmp_path / "box.yaml", boxy)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_reports_run_failures(tmp_path, capsys):
    # impossible tolerance turns a healthy run into an assertion failure
    data = _mapping(tolerances={"cross_integrator": 1e-30})
    path = _write_yaml(tmp_path / "strict.yaml", data)
    code = cli.main(["simulate", "--config", path, "--check"])
    assert code == 1
    assert "[FAIL] cross_integrator" in capsys.readouterr().out
    # a degenerate placement is a runtime error, not a config error
    dup = _mapping(actuators={"kind": "explicit",
                              "points": [[0.25], [0.25]]})
    path = _write_yaml(tmp_path / "dup.yaml", dup)
    assert cli.main(["simulate", "--config", path]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_seed_override_changes_the_manifest(tmp_path):
    path = _write_yaml(tmp_path / "c.yaml", _mapping())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["place", "--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["place", "--config", path, "--out", str(out_b),
                     "--seed", "8"]) == 0
    text_a = (out_a / "manifest.txt").read_text()
    text_b = (out_b / "manifest.txt").read_text()
    assert "seed=7" in text_a
    assert "seed=8" in text_b
    assert text_a.splitlines()[2] != text_b.splitlines()[2]  # config digest
