"""Config validation, experiment drivers, manifests and the CLI."""

import copy
import hashlib
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import heattrack
from heattrack import control, plasmonic, spectral
from heattrack.control import tail_mismatch_report
from heattrack.errors import (
    ConfigError,
    DegenerateNodesError,
    InsufficientDataError,
    StageError,
)
from heattrack.harness import cli
from heattrack.harness import experiments as exp
from heattrack.harness.config import (
    _SCHEMA,
    MAX_ACTUATORS,
    MAX_CANDIDATES,
    MAX_CELLS,
    MAX_DELTAS,
    MAX_HORIZONS,
    MAX_MESHES,
    MAX_MODES,
    MAX_MODES_PER_CELL,
    MAX_PARTICLE_RESPONSE,
    MAX_PROBES,
    MAX_QUAD_ORDER,
    MAX_RESTRICTION_WORK,
    MAX_SAMPLES,
    MAX_SOURCES,
    MAX_STEPS,
    MAX_SWEEP_VALUES,
    ExperimentConfig,
    load_config,
    profile_samples,
    resolve_config_path,
)
from heattrack.harness.manifest import (
    BLOCK_ROWS,
    TOOL_ID,
    RunManifest,
    format_value,
    write_csv,
)
from heattrack.rng import stream
from heattrack.spectral import march_forced

from coercivity import coercivity_at_nodes, coercivity_constant
from particles import run_pipeline
from stepping import step_march
from streams import PURPOSE_TEST

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
    assert config.digest == (
        "71a68601779fef57eef4a670d63a7af5a1d69f06e0664f5e14f35ad99d518bfa")


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
    # no tail mode: the tail bound and the diagnostics need one
    with pytest.raises(ConfigError, match="less than modes.count"):
        _config(modes={"count": 4, "controlled": 4})


def test_sweep_block_validation():
    with pytest.raises(ConfigError, match="sweep kind"):
        _config(sweep={"kind": "voltage", "values": [1.0]})
    with pytest.raises(ConfigError, match="requires key"):
        _config(sweep={"values": [1.0]})
    with pytest.raises(ConfigError, match="nonempty"):
        _config(sweep={"kind": "gain", "values": []})
    # the contrast scale and the mesh have their own commands
    for kind in ("delta", "mesh"):
        with pytest.raises(ConfigError, match=f"unknown sweep kind '{kind}'"):
            _config(sweep={"kind": kind, "values": [8, 16]})
    assert _config(sweep={"kind": "gain",
                          "values": [0, 8, "16.5"]}).sweep.values == (
        0.0, 8.0, 16.5)


def test_capped_integer_keys_accept_both_ends():
    for low_or_top in ((1, 1, 1), (MAX_SAMPLES, MAX_QUAD_ORDER,
                                   MAX_MODES_PER_CELL)):
        samples, quad_order, per_cell = low_or_top
        config = _config(
            restriction={"probes": [[0.5]], "horizons": [0.02, 0.01, 0.005],
                         "samples": samples, "quad_order": quad_order},
            coercivity={"cells": [4, 8], "modes_per_cell": per_cell})
        assert (config.restriction.samples, config.restriction.quad_order,
                config.coercivity.modes_per_cell) == low_or_top


# 16 probes x 1 source x 4 horizons x 1024 samples x 64 nodes is exactly
# MAX_RESTRICTION_WORK, and so is 16 nodes with BASE's four actuators as
# the sources.
_AT_WORK_CAP = {"probes": [[0.3 + 0.01 * k] for k in range(16)],
                "sources": [[0.9]], "horizons": [0.02, 0.01, 0.005, 0.0025],
                "samples": 1024, "quad_order": 64}
_AT_WORK_CAP_FROM_ACTUATORS = {**_AT_WORK_CAP, "quad_order": 16}
del _AT_WORK_CAP_FROM_ACTUATORS["sources"]


def test_restriction_accepts_up_to_the_work_cap():
    assert 16 * 4 * 1024 * 64 == MAX_RESTRICTION_WORK
    assert _config(restriction=_AT_WORK_CAP).restriction.quad_order == 64
    with pytest.raises(ConfigError, match="quad_order is 4259840"):
        _config(restriction=dict(_AT_WORK_CAP, quad_order=65))


def test_placements_up_to_the_actuator_cap_parse():
    wide = _config(actuators={"kind": "greedy", "count": MAX_ACTUATORS},
                   modes={"count": 256, "controlled": MAX_ACTUATORS})
    assert wide.actuators.count == wide.modes.controlled == MAX_ACTUATORS
    points = [[k / 200] for k in range(MAX_ACTUATORS)]
    assert len(_config(actuators={"kind": "explicit", "points": points})
               .actuators.points) == MAX_ACTUATORS
    # a box places counts + 1 nodes per axis: 4 x 4 x 8
    box = _config(domain={"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                  actuators={"kind": "dct", "counts": [3, 3, 7]})
    assert box.actuators.counts == (3, 3, 7)


def test_cli_runs_a_loop_at_the_actuator_cap(tmp_path):
    path = _write_yaml(tmp_path / "wide.yaml", _mapping(
        actuators={"kind": "dct", "count": MAX_ACTUATORS}))
    assert cli.main(["simulate", "--config", path, "--check"]) == 0


@pytest.mark.parametrize("run", [exp.run_calibrate, exp.run_track],
                         ids=["calibrate", "track"])
def test_particle_response_is_capped_at_the_build_stage(monkeypatch, run):
    """MAX_ACTUATORS particles over 500 steps hold exactly
    MAX_PARTICLE_RESPONSE values and pass the build stage; one step more
    is a config error of that stage.  Neither run forms the particles: the
    stage that would is cut off."""
    assert 501 * MAX_ACTUATORS ** 2 == MAX_PARTICLE_RESPONSE
    reached = []

    def cut_off(*args):
        reached.append(1)
        raise InsufficientDataError("particles reached")

    monkeypatch.setattr(exp, "_particles", cut_off)
    wide = {"kind": "dct", "count": MAX_ACTUATORS}
    at_cap = _config(actuators=wide,
                     control=dict(BASE["control"], dt=0.4 / 500))
    with pytest.raises(StageError) as info:
        run(at_cap)
    assert info.value.stage == "calibrate" and reached == [1]
    with pytest.raises(StageError) as info:
        run(_config(actuators=wide,
                    control=dict(BASE["control"], dt=0.4 / 501)))
    assert info.value.stage == "build"
    assert isinstance(info.value.cause, ConfigError)
    assert str(MAX_PARTICLE_RESPONSE) in str(info.value.cause)
    assert reached == [1]


def test_cli_rejects_a_particle_response_past_the_cap(tmp_path, capsys):
    path = _write_yaml(tmp_path / "long.yaml", _mapping(
        actuators={"kind": "dct", "count": MAX_ACTUATORS},
        control=dict(BASE["control"], dt=0.4 / 501)))
    for command in ("calibrate", "track"):
        assert cli.main([command, "--config", path, "--check"]) == 2
        assert "particle response" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", path, "--check"]) == 0


def test_control_accepts_up_to_max_steps():
    control = dict(BASE["control"], dt=0.4 / MAX_STEPS)
    assert _config(control=control).control.dt == 0.4 / MAX_STEPS
    with pytest.raises(ConfigError, match=f"{MAX_STEPS + 1} steps"):
        _config(control=dict(control, dt=0.4 / (MAX_STEPS + 1)))


def test_track_accepts_up_to_max_deltas_distinct_scales():
    deltas = [0.05] + list(range(1, MAX_DELTAS))
    config = _config(track=dict(BASE["track"], deltas=deltas))
    assert config.track.deltas == tuple(deltas)


def test_ascii_numeric_strings_still_convert():
    control = dict(BASE["control"], gain="8.0")
    config = _config(control=control,
                     tolerances={"cross_integrator": "1e-6"})
    assert config.control.gain == 8.0
    assert config.tolerances.cross_integrator == 1e-6
    assert _config(seed="11").seed == 11


def test_profile_samples_shape_and_names():
    times = np.linspace(0.0, 0.4, 21)
    phi = profile_samples("sine-bump", times, 0.4)
    assert_allclose(phi, np.sin(np.pi * times / 0.4) ** 2, rtol=1e-15)
    assert phi[0] == 0.0 and phi[-1] == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(ConfigError, match="unknown profile"):
        profile_samples("square", times, 0.4)


@pytest.mark.parametrize("block,key", [("control", "fixed_point"),
                                       ("plasmonic", "perturb_interaction")])
def test_flags_accept_only_yaml_booleans(block, key):
    for value in (True, False):
        data = _mapping()
        data[block] = dict(data.get(block, {}), **{key: value})
        parsed = getattr(ExperimentConfig.from_mapping(data), block)
        assert getattr(parsed, key) is value
    for value in ("no", "yes", "false", 1, 0, None):
        data = _mapping()
        data[block] = dict(data.get(block, {}), **{key: value})
        with pytest.raises(ConfigError, match=f"{block}.{key}"):
            ExperimentConfig.from_mapping(data)


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("control: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


# The packaged default plus a sweep block, so every block has keys to fuzz.
FUZZ_BASE = dict(yaml.safe_load(resolve_config_path("default").read_text()),
                 sweep={"kind": "gain", "values": [4.0, 8.0]})
FUZZ_KEYS = [(None, "seed")] + [(block, key)
                                for block, keys in FUZZ_BASE.items()
                                if isinstance(keys, dict) for key in keys]
FUZZ_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False,
                     "", "abc", -1, -2.5, 0, [], [float("nan")], [[]],
                     None, {}]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3))


@settings(max_examples=300, deadline=1000)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES),
                min_size=1, max_size=4))
def test_fuzzed_config_mappings_parse_or_raise_config_errors(mutations):
    data = copy.deepcopy(FUZZ_BASE)
    for (block, key), value in mutations:
        (data if block is None else data[block])[key] = value
    try:
        ExperimentConfig.from_mapping(data)
    except ConfigError:
        pass


@settings(max_examples=200, deadline=1000)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES),
                min_size=1, max_size=4))
def test_libyaml_and_pure_python_dumpers_agree_on_fuzzed_mappings(mutations):
    data = copy.deepcopy(FUZZ_BASE)
    for (block, key), value in mutations:
        (data if block is None else data[block])[key] = value
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    assert (yaml.dump(data, Dumper=dumper, sort_keys=True)
            == yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True))


YAML_TEXTS = {
    "default": resolve_config_path("default").read_text(),
    "base": yaml.safe_dump(BASE),
    "fuzz-base": yaml.safe_dump(FUZZ_BASE),
    "all-blocks": yaml.safe_dump(_mapping(
        restriction={"probes": [[0.5]], "sources": [[0.4], [0.6]],
                     "horizons": [0.02, 0.01, 0.005, 0.0025]},
        coercivity={"cells": [4, 8], "modes_per_cell": 4},
        sweep={"kind": "gain", "values": [4.0, 8.0, 16.0]},
        plasmonic={"contrasts": [1.0, 0.5, 2.0, 1.5],
                   "perturb_interaction": True})),
}


@pytest.mark.parametrize("name", sorted(YAML_TEXTS))
def test_libyaml_and_pure_python_configs_agree(tmp_path, monkeypatch, name):
    """PyYAML's libyaml classes, when built, read and canonicalise a config
    exactly as the pure-Python ones that replace them when they are not."""
    text = YAML_TEXTS[name]
    path = tmp_path / "c.yaml"
    path.write_text(text)
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert (yaml.load(text, Loader=loader)
            == yaml.load(text, Loader=yaml.SafeLoader))
    fast = load_config(str(path))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    pure = load_config(str(path))
    assert pure == fast
    assert pure.canonical == fast.canonical
    assert pure.digest == fast.digest


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


def test_march_agrees_with_the_one_step_integrator(track_result):
    """The tracking run's error curves, rebuilt from the step loop as the
    zero-state responses to their input differences.  The initial state
    cancels from every error, so a nonzero one must not blur them."""
    initial = exp.run_track(_config(control=dict(
        BASE["control"], initial=[0.5, -0.3, 0.2, 0.1, 0.05])))
    assert track_result.config.control.initial is None
    for result in (track_result, initial):
        table = result.setup.table
        points = result.setup.actuators.points
        dt = result.config.control.dt
        for got, diff in [(result.err_proj, result.u_des - result.u_ideal),
                          (result.err_real, result.g_real - result.u_des),
                          (result.err_total, result.g_real - result.u_ideal)]:
            states = step_march(table, points, np.zeros(table.size), diff, dt)
            want = np.linalg.norm(states / (1.0 + table.eigenvalues), axis=1)
            assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(want))


def test_certified_constant_bounds_every_response(matrices4):
    horizon = 0.5
    times = np.linspace(0.0, horizon, 51)
    dt = times[1] - times[0]
    w = np.full(51, dt)
    w[0] = w[-1] = 0.5 * dt
    c_cert = exp.certified_input_constant(matrices4, horizon)
    vd = 1.0 / (1.0 + matrices4.table.eigenvalues)
    for trial in range(10):
        rng = stream(7, PURPOSE_TEST, 310 + trial)
        inputs = rng.standard_normal((51, 4))
        states = march_forced(matrices4.table, matrices4.values, np.zeros(32),
                              inputs, dt)
        sup = float(np.max(np.linalg.norm(states * vd[None, :], axis=1)))
        l2 = float(np.sqrt(np.sum(w * np.sum(inputs ** 2, axis=1))))
        assert sup <= c_cert * l2 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# coercivity


def test_coercivity_without_constraints_is_one(unit_interval):
    assert coercivity_at_nodes(unit_interval, [], 16) == pytest.approx(1.0)


def test_constraints_only_raise_the_constant(unit_interval):
    one = coercivity_at_nodes(unit_interval, [0.3], 16)
    two = coercivity_at_nodes(unit_interval, [0.3, 0.7], 16)
    assert 1.0 < one < two


def test_degenerate_node_sets_are_rejected(unit_interval):
    with pytest.raises(DegenerateNodesError, match="repeat"):
        coercivity_at_nodes(unit_interval, [0.3, 0.3], 16)
    with pytest.raises(DegenerateNodesError, match="no field"):
        coercivity_at_nodes(unit_interval, np.linspace(0.1, 0.9, 16), 16)
    with pytest.raises(DegenerateNodesError, match="dependent"):
        coercivity_at_nodes(unit_interval, [0.3, 0.3 + 1e-12], 16)


def test_mesh_constant_uses_the_element_vertices(unit_interval):
    direct = coercivity_at_nodes(unit_interval, np.linspace(0.0, 1.0, 5), 24)
    assert coercivity_constant(unit_interval, 4, 24) == pytest.approx(
        direct, rel=1e-13)


@pytest.mark.parametrize("modes_per_cell", [1, 2, 5, 8])
@pytest.mark.parametrize("cells", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 4.0])
def test_mesh_constant_matches_the_dense_oracle(kappa, cells,
                                                modes_per_cell):
    domain = spectral.DomainSpec.interval(1.0, kappa)
    n_modes = modes_per_cell * cells
    nodes = np.linspace(0.0, 1.0, cells + 1)
    if n_modes <= cells + 1:
        with pytest.raises(DegenerateNodesError, match="no field"):
            coercivity_constant(domain, cells, n_modes)
        with pytest.raises(DegenerateNodesError, match="no field"):
            coercivity_at_nodes(domain, nodes, n_modes)
        return
    assert coercivity_constant(domain, cells, n_modes) == pytest.approx(
        coercivity_at_nodes(domain, nodes, n_modes), rel=1e-13)


def test_mesh_constant_at_a_tie_is_the_tied_value():
    # Three cells put modes 2, 4, 8 and 10 in one alias class.  For
    # kappa = 0.05 the weight ratio d(lambda) falls until lambda = 0.9 and
    # then rises, and at this length modes 2 and 4 straddle that minimum
    # with bit-identical d: the class's two smallest values tie, so its
    # secular root is that value, and the class holds the constant.
    domain = spectral.DomainSpec.interval(2.108214243663861, 0.05)
    lam = spectral.enumerate_modes(domain, 12).eigenvalues
    d = (1.0 + lam) ** 2 / (1.0 + lam / domain.kappa)
    assert d[2] == d[4] < d[8] < d[10]
    got = coercivity_constant(domain, 3, 12)
    assert got == d[2]
    nodes = np.linspace(0.0, domain.lengths[0], 4)
    assert got == pytest.approx(coercivity_at_nodes(domain, nodes, 12),
                                rel=1e-13)


@pytest.mark.parametrize("modes_per_cell", [2, 8, 64])
@pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 4.0])
def test_coercivity_profile_is_the_per_mesh_constant(kappa, modes_per_cell):
    """One bisection over the stacked class tables of every mesh gives
    each mesh's own constant bit for bit, at the tie length too; a
    degenerate mesh in the list still raises."""
    for length in (1.0, 2.7, 2.108214243663861):
        domain = spectral.DomainSpec.interval(length, kappa)
        for cells in ([8, 16, 32, 64], [3, 2], [4, 1, 9, 5], [64, 7, 7]):
            if modes_per_cell == 2 and 1 in cells:  # two modes, two nodes
                with pytest.raises(DegenerateNodesError, match="no field"):
                    exp.coercivity_profile(domain, cells, modes_per_cell)
                continue
            report = exp.coercivity_profile(domain, cells, modes_per_cell)
            assert report.constants.tolist() == [
                coercivity_constant(domain, c, modes_per_cell * c)
                for c in cells]


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


def test_budget_checks_share_one_relative_slack():
    """Above a budget of one the slack scales with the budget, for the
    total as for the two budgets it sums."""
    budget = 5.6
    assert exp._within(budget + 5e-12, budget)
    assert not exp._within(budget + 6e-12, budget)
    assert exp._within(0.5 + 1e-12, 0.5)
    assert not exp._within(0.5 + 2e-12, 0.5)


def _packaged_mapping():
    path = os.path.join(os.path.dirname(heattrack.__file__), "configs",
                        "default.yaml")
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _packaged_config(**control):
    """The packaged default config with ``control`` entries replaced; a
    None value drops the entry."""
    data = _packaged_mapping()
    data["control"].update(control)
    data["control"] = {k: v for k, v in data["control"].items()
                       if v is not None}
    return ExperimentConfig.from_mapping(data)


@pytest.mark.parametrize("command,control", [
    ("simulate", {"gain": 64.0}),
    ("track", {"gain": None, "target_rate": 30.0}),
])
def test_high_gain_loops_pass_the_cross_integrator_check(command, control):
    """The replay interpolates the recorded inputs linearly, so its error
    is second order in the 1e-7 step even at gain 64, the gain the search
    picks for a target rate of 30."""
    config = _packaged_config(**control)
    if command == "simulate":
        setup, _, _, _, assertions, _ = exp.run_simulate(config)
    else:
        result = exp.run_track(config)
        setup, assertions = result.setup, result.assertions
    assert setup.gain == 64.0
    ok, value = assertions["cross_integrator"]
    assert ok and value <= 1e-12


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


_PERTURBED = {"plasmonic": {"perturb_interaction": True}}


@pytest.mark.parametrize("command,blocks", [
    ("track", _PERTURBED),
    ("track", {**_PERTURBED, "track": {"deltas": [0.2, 0.1, 0.05, 0.025,
                                                  0.0]}}),
    ("sweep", {"sweep": {"kind": "gain", "values": [0.0, 2.0, 4.0, 8.0]}}),
], ids=["track-perturbed", "track-perturbed-to-0", "sweep-gain"])
def test_cli_writes_deterministic_outputs(tmp_path, command, blocks):
    """Two runs of one config write the same bytes to every file: the
    dictionary and coupling perturbations come from seeded streams."""
    data = _packaged_mapping()
    for block, keys in blocks.items():
        data[block] = {**data.get(block, {}), **keys}
    path = _write_yaml(tmp_path / "run.yaml", data)
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        payloads.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert "manifest.txt" in payloads[0]
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("run", [
    lambda: exp.run_track(load_config("default")),
    lambda: exp.run_calibrate(load_config("default")),
], ids=["track", "calibrate"])
def test_particles_are_marched_once_per_run(monkeypatch, run):
    """Calibration, realization and remainder at every contrast scale (and
    at the doubled truncation) share one batched amplitude march."""
    calls = {"volterra_solve": 0}
    for name in calls:
        original = getattr(plasmonic, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(plasmonic, name, counting)
    run()
    assert calls == {"volterra_solve": 1}


def test_perturbed_track_marches_once_per_contrast_scale(monkeypatch):
    """One unit march at the base coupling serves every contrast scale;
    each scale adds one coupling-correction march, and the doubled
    truncation reuses the headline's calibrated map."""
    config = load_config("default")
    config = config._replace(plasmonic=config.plasmonic._replace(
        perturb_interaction=True))
    marches = []
    original = plasmonic.volterra_solve

    def counting(*args, **kwargs):
        marches.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(plasmonic, "volterra_solve", counting)
    exp.run_track(config)
    assert len(config.track.deltas) == 4
    assert len(marches) == 5


def test_track_builds_the_particles_once_and_shares_their_unit_inputs(
        monkeypatch):
    """One particle array and one unit response per run: every contrast
    scale is an argument of ``calibrate_k0``, and without a coupling
    perturbation each map keeps the response's unit heat inputs, not a
    copy."""
    builds, calibrations = [], []
    original_build, original_calibrate = exp.build_plasmonic, exp.calibrate_k0

    def building(*args, **kwargs):
        builds.append(1)
        return original_build(*args, **kwargs)

    def calibrating(pconf, response, delta):
        amap = original_calibrate(pconf, response, delta)
        calibrations.append((response, amap))
        return amap

    monkeypatch.setattr(exp, "build_plasmonic", building)
    monkeypatch.setattr(exp, "calibrate_k0", calibrating)
    config = load_config("default")
    exp.run_track(config)
    assert len(builds) == 1
    assert len(calibrations) == len(config.track.deltas) == 4
    assert len({id(response) for response, _ in calibrations}) == 1
    assert all(amap.units is response.units
               for response, amap in calibrations)


@pytest.mark.parametrize("failing_call,stage", [(1, "project"),
                                                (2, "convergence")])
def test_track_failures_name_the_outermost_stage(monkeypatch, failing_call,
                                                 stage):
    """The doubled truncation reruns the tracking pass, whose own stages
    the enclosing ``convergence`` stage names."""
    calls = []
    original = exp.project_onto_profile

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise ZeroDivisionError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(exp, "project_onto_profile", failing)
    with pytest.raises(StageError) as info:
        exp.run_track(_config())
    assert info.value.stage == stage
    assert isinstance(info.value.cause, ZeroDivisionError)
    assert len(calls) == failing_call


def _count_calls(monkeypatch, original) -> list:
    """Patch ``original`` in every heattrack module that holds it with a
    wrapper that appends to the returned list on each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("heattrack")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, counting)
    return calls


def test_track_samples_the_modes_once_per_march(monkeypatch):
    """The actuators' mode values are evaluated once per truncation, at K
    and at 2K modes, and every loop, bias matrix, march and budget reads
    them from the sampling data."""
    calls = _count_calls(monkeypatch, spectral.eval_modes)
    exp.run_track(load_config("default"))
    assert len(calls) == 2


@pytest.mark.parametrize("run,loops", [
    (lambda: exp.run_track(load_config("default")), 2),
    (lambda: exp.run_simulate(_config(
        domain={"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
        actuators={"kind": "dct", "counts": [1, 1, 1]}), strict=False), 1),
], ids=["track", "simulate-box3"])
def test_each_truncation_assembles_one_loop(monkeypatch, run, loops):
    """A run assembles one closed loop per truncation, ``track`` at K and
    at 2K modes, ``simulate`` at K, and factorizes each once: the bias
    matrix, the fixed-point retarget, the march, the equilibrium and the
    contraction certificates all read the one ``eigh`` of its generator.
    No dense solve or inverse of the loop's order (or of its tail block)
    is left; the largest is the N-order fixed-point solve."""
    calls = _count_calls(monkeypatch, control.assemble_closed_loop)
    eighs = _count_calls(monkeypatch, control._w_eigh)
    orders = []
    for name in ("solve", "inv"):
        def spy(a, *args, _original=getattr(np.linalg, name)):
            orders.append(np.shape(a)[0])
            return _original(a, *args)
        monkeypatch.setattr(np.linalg, name, spy)
    run()
    assert len(calls) == len(eighs) == loops
    assert orders and max(orders) == 4  # modes.controlled of both configs


def test_track_marches_each_input_difference_once(monkeypatch):
    """One exact march per error input: the projection error and one
    realization error per contrast scale, again at the doubled truncation
    for the headline scale, plus the cross-integrator replay."""
    calls = _count_calls(monkeypatch, spectral.march_forced)
    config = load_config("default")
    exp.run_track(config)
    assert len(config.track.deltas) == 4
    assert len(calls) == 8


def _trapezoid_l2(times, series):
    return float(np.sqrt(np.sum(np.trapezoid(series ** 2, times, axis=0))))


def test_track_with_perturbed_interaction_matches_the_difference_path():
    config = _config(plasmonic={"perturb_interaction": True})
    result = exp.run_track(config)

    # reference path: one pipeline probe per dictionary column, and the
    # remainder as the difference of the full and leading pipelines
    times = result.times
    phi = profile_samples(config.track.profile, times, config.control.horizon)
    denom = np.trapezoid(phi * phi, times)
    pconf = exp.build_plasmonic(config, result.setup.actuators)
    for row in result.budget_rows:
        probes = [run_pipeline(pconf, row.delta, times,
                               phi[:, None] * np.eye(4)[col])
                  for col in range(4)]
        k0 = np.stack([np.trapezoid(out * phi[:, None], times, axis=0)
                       for out in probes], axis=1) / denom
        coeffs = np.linalg.solve(k0, result.decomposition.beta)
        intensities = phi[:, None] * coeffs[None, :]
        full = run_pipeline(pconf, row.delta, times, intensities)
        leading = run_pipeline(pconf, 0.0, times, intensities)
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
        _config(), out_dir=str(out))
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
    """A track run's budget table is the contrast-scale sweep."""
    config = _config(track=dict(BASE["track"], deltas=[0.2, 0.1, 0.05]))
    result = exp.run_track(config)
    assert all(row.remainder > 0.0 for row in result.budget_rows)
    assert result.remainder_slope == pytest.approx(1.0, abs=0.1)


def test_gain_sweep_reports_tail_sizes():
    config = _config(sweep={"kind": "gain", "values": [4.0, 8.0]})
    result, _ = exp.run_sweep(config)
    assert result.statuses == ("ok", "ok")
    assert all(m > 0.0 for m in result.metrics)
    assert not result.fitted  # two points never get a fit


def test_gain_sweep_honours_a_disabled_fixed_point():
    """With ``control.fixed_point: false`` each loop runs on the target
    itself, as ``build_loop`` assembles it, not on the pre-compensated
    reference."""
    control = dict(BASE["control"], fixed_point=False)
    sweep = {"kind": "gain", "values": [4.0, 8.0]}
    off, _ = exp.run_sweep(_config(control=control, sweep=sweep))
    on, _ = exp.run_sweep(_config(sweep=sweep))
    assert off.statuses == on.statuses == ("ok", "ok")
    setup = exp.build_loop(_config(control=control))
    assert setup.fixed_point is None and setup.gain == 8.0
    tail = tail_mismatch_report(setup.system, setup.bias, setup.a_target)
    assert off.metrics[1] == pytest.approx(tail.tail_vdual, rel=1e-13)
    for metric_off, metric_on in zip(off.metrics, on.metrics):
        assert abs(metric_off - metric_on) > 1e-6 * metric_on


def test_gain_sweep_records_a_singular_zero_gain_and_keeps_going():
    # at zero gain the constant mode is neither damped nor fed back
    sweep = {"kind": "gain", "values": [0.0, 4.0, 8.0, 16.0]}
    result, _ = exp.run_sweep(_config(sweep=sweep))
    assert result.statuses == ("SingularSystemError", "ok", "ok", "ok")
    assert np.isnan(result.metrics[0])
    assert result.fitted


def test_coercivity_fails_on_a_degenerate_mesh(unit_interval):
    # one cell at two modes per cell: two vertices constrain both modes
    block = {"cells": [1, 8, 16, 32], "modes_per_cell": 2}
    with pytest.raises(StageError, match="'sweep'") as info:
        exp.run_coercivity(_config(coercivity=block))
    assert isinstance(info.value.cause, DegenerateNodesError)
    report, _ = exp.run_coercivity(
        _config(coercivity=dict(block, cells=[8, 16, 32])))
    assert report.slope == pytest.approx(-2.0, abs=0.3)
    # the rows match the direct computation
    assert report.constants[0] == pytest.approx(
        coercivity_constant(unit_interval, 8, 16), rel=1e-13)


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


def _float_table(rng, rows, cols):
    """Signed magnitudes from 1e-320 to 1e308 with the special values and
    integer-valued floats mixed in."""
    table = (rng.choice([-1.0, 1.0], (rows, cols))
             * 10.0 ** rng.uniform(-320.0, 308.0, (rows, cols)))
    specials = [float("nan"), -float("nan"), float("inf"), -float("inf"),
                0.0, -0.0, 5e-324, 1e308, 3.0, -12.0, 2.0 ** 60, 1e16]
    mask = rng.random((rows, cols)) < 0.3
    table[mask] = rng.choice(specials, int(mask.sum()))
    return table


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 37])
def test_write_csv_array_and_rows_give_the_same_bytes(tmp_path, rows):
    table = _float_table(stream(7, PURPOSE_TEST, 900 + rows), rows, 7)
    header = [f"c{j}" for j in range(7)]
    fast, slow = tmp_path / "array.csv", tmp_path / "rows.csv"
    digest = write_csv(str(fast), header, table)
    assert digest == write_csv(str(slow), header, table.tolist())
    assert fast.read_bytes() == slow.read_bytes()
    assert digest == hashlib.sha256(fast.read_bytes()).hexdigest()
    assert len(fast.read_bytes().splitlines()) == rows + 1


@settings(max_examples=200, deadline=1000)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_write_csv_array_matches_format_value_on_any_floats(tmp_path_factory,
                                                            table):
    expected = "".join(",".join(format_value(v) for v in row) + "\n"
                       for row in table.tolist())
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    digest = write_csv(str(path), ["h"], table)
    assert path.read_bytes() == ("h\n" + expected).encode()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


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
        sweep={"kind": "gain", "values": [0.0, 4.0, 8.0, 16.0]})
    path = _write_yaml(tmp_path / "c.yaml", data)
    out = tmp_path / "res"
    assert cli.main(["restriction", "--config", path,
                     "--out", str(out)]) == 0
    assert (out / "restriction.csv").exists()
    # a failing gain is recorded and the sweep goes on
    assert cli.main(["sweep", "--config", path]) == 0
    assert "status=SingularSystemError" in capsys.readouterr().out


def test_cli_rejects_bad_configs(tmp_path, capsys):
    data = _mapping()
    data["control"]["gian"] = 1.0
    path = _write_yaml(tmp_path / "typo.yaml", data)
    assert cli.main(["simulate", "--config", path]) == 2
    # a key that no longer exists is unknown like a typo
    path = _write_yaml(tmp_path / "dropped.yaml",
                       _mapping(tolerances={"resolution": 1e-6}))
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


@pytest.mark.parametrize("values", [[0.4, 8, 16], [8.5, 16], [0, 8],
                                    [-4, 8], [8, MAX_CELLS + 1], [1e300]],
                         ids=str)
def test_cli_mesh_sweep_rejects_bad_cell_counts(tmp_path, capsys, values):
    """The coercivity command is the mesh sweep."""
    path = _write_yaml(tmp_path / "mesh.yaml",
                       _mapping(coercivity={"cells": values}))
    assert cli.main(["coercivity", "--config", path, "--check"]) == 2
    assert "coercivity.cells" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["delta", "mesh"])
def test_cli_sweep_scans_the_gain_only(tmp_path, capsys, kind):
    path = _write_yaml(tmp_path / "sweep.yaml",
                       _mapping(sweep={"kind": kind, "values": [8, 16]}))
    assert cli.main(["sweep", "--config", path, "--check"]) == 2
    assert f"unknown sweep kind '{kind}'" in capsys.readouterr().err


@pytest.mark.parametrize("block,key,value", [
    ("control", "dt", 0.003),
    ("control", "horizon", float("nan")),
    ("control", "horizon", float("inf")),
    ("control", "horizon", 1e308),
    ("control", "dt", float("nan")),
    ("control", "gain", float("inf")),
    ("control", "gain", float("nan")),
    ("control", "target_rate", float("inf")),
    ("control", "fixed_point", "no"),
    ("plasmonic", "perturb_interaction", "yes"),
    (None, "seed", -3),
    ("control", "dt", "abc"),
    ("control", "horizon", None),
    ("modes", "count", [1]),
    ("plasmonic", "c_m", float("nan")),
    ("plasmonic", "coupling_scale", float("inf")),
    ("track", "delta", float("nan")),
    ("tolerances", "cross_integrator", float("nan")),
    ("modes", "count", 32.7),
    ("actuators", "count", True),
    ("coercivity", "cells", [8.9]),
    ("coercivity", "cells", [8, MAX_CELLS + 1]),
    ("coercivity", "modes_per_cell", 0),
    ("coercivity", "modes_per_cell", MAX_MODES_PER_CELL + 1),
    ("coercivity", "cells", ["\u0668"]),
    # the profile's log-log fit needs two mesh sizes
    ("coercivity", "cells", [8]),
    ("coercivity", "cells", [8, 8]),
    # list lengths past their caps
    pytest.param("coercivity", "cells", list(range(1, MAX_MESHES + 2)),
                 id="coercivity-cells-MAX_MESHES+1"),
    pytest.param("sweep", "values", [4.0] * (MAX_SWEEP_VALUES + 1),
                 id="sweep-values-MAX_SWEEP_VALUES+1"),
    pytest.param("restriction", "horizons",
                 [0.02 / (k + 1) for k in range(MAX_HORIZONS + 1)],
                 id="restriction-horizons-MAX_HORIZONS+1"),
    pytest.param("restriction", "probes",
                 [[0.3 + 0.01 * k] for k in range(MAX_PROBES + 1)],
                 id="restriction-probes-MAX_PROBES+1"),
    pytest.param("restriction", "sources",
                 [[0.3 + 0.01 * k] for k in range(MAX_SOURCES + 1)],
                 id="restriction-sources-MAX_SOURCES+1"),
    # the product of the restriction sizes past its cap, with the sources
    # given or taken from the four actuators (checked at the build stage)
    pytest.param(None, "restriction", dict(_AT_WORK_CAP, quad_order=65),
                 id="restriction-MAX_RESTRICTION_WORK+1"),
    pytest.param(None, "restriction",
                 dict(_AT_WORK_CAP_FROM_ACTUATORS, quad_order=17),
                 id="restriction-MAX_RESTRICTION_WORK+1-from-actuators"),
    # placements past the actuator cap, by each key that sets the count
    ("actuators", "count", MAX_ACTUATORS + 1),
    ("actuators", "count", 3000),
    pytest.param("actuators", "points",
                 [[k / 200] for k in range(MAX_ACTUATORS + 1)],
                 id="actuators-points-MAX_ACTUATORS+1"),
    pytest.param(None, "modes", {"count": 256,
                                 "controlled": MAX_ACTUATORS + 1},
                 id="modes-controlled-MAX_ACTUATORS+1"),
    (None, None, {"domain": {"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                  "actuators": {"kind": "dct", "counts": [3, 3, 8]}}),
    ("control", "gain", "\u0668" * 15),
    ("control", "dt", "\uff10.002"),
    ("control", "gain", b"88.0"),
    ("restriction", "samples", 48.5),
    ("restriction", "samples", 0),
    ("restriction", "samples", -3),
    ("restriction", "samples", MAX_SAMPLES + 1),
    ("restriction", "quad_order", 0),
    ("restriction", "quad_order", -2),
    ("restriction", "quad_order", MAX_QUAD_ORDER + 1),
    ("sweep", "values", [float("nan"), 4.0, 8.0]),
    ("restriction", "horizons", [float("nan"), 0.01, 0.005]),
    ("restriction", "probes", [[float("inf")]]),
    ("restriction", "sources", [[float("nan")], [0.6]]),
    ("restriction", "amplitudes", [float("inf"), 1.0]),
    ("control", "reference", [float("nan"), 0.2, -0.1, 0.1]),
    ("actuators", "points", [[float("inf")]]),
    ("modes", "count", MAX_MODES + 1),
    # 1e8 steps, which exhausted memory in the simulate stage
    ("control", "dt", 1.0e-8),
    # signs the numerical stages would reject only later
    ("actuators", "count", 0),
    ("actuators", "candidates_per_axis", 0),
    ("track", "delta", -0.1),
    ("track", "mu", 0),
    ("track", "deltas", [0.1, 0.05, -0.05]),
    ("plasmonic", "c_m", 0),
    ("plasmonic", "kappa", -1),
    ("control", "gain", -1),
    ("control", "target_rate", -5),
    ("restriction", "horizons", [0.02, -0.01, 0.005]),
    ("sweep", "values", [-4.0, 8.0]),
    (None, "sweep", {"kind": "delta", "values": [0.1, -0.05]}),
    ("tolerances", "cross_integrator", -1),
    ("tolerances", "cross_integrator", 0),
    ("tolerances", "convergence", -1),
    ("tolerances", "convergence", 0),
    ("tolerances", "low_mode", -1),
    ("tolerances", "low_mode", 0),
    # the headline contrast scale is one of the budget rows
    ("track", "deltas", []),
    ("track", "deltas", [0.1, 0.2]),
    # one budget row, one assertion tag and one fitted point per entry
    ("track", "deltas", [0.1, 0.1, 0.05]),
    ("track", "deltas", [0.05, 0.0500000001]),
    ("track", "deltas", [0.0, -0.0, 0.05]),
    pytest.param("track", "deltas", [0.05] + list(range(1, MAX_DELTAS + 1)),
                 id="track-deltas-MAX_DELTAS+1"),
    # geometry the library rejects: explicit actuator points of the wrong
    # dimension, outside the domain or repeated, and restriction probes
    # and sources of the wrong dimension or not strictly interior
    (None, "actuators", {"kind": "explicit", "points": [[0.2, 0.3]]}),
    (None, "actuators", {"kind": "explicit", "points": [[0.2], [1.5]]}),
    (None, "actuators", {"kind": "explicit", "points": [[0.2], [0.2]]}),
    ("restriction", "probes", [[0.5, 0.5]]),
    ("restriction", "probes", [[1.0]]),
    ("restriction", "sources", [[0.4, 0.1], [0.6, 0.1]]),
    ("restriction", "sources", [[0.0], [0.6]]),
    # one amplitude per source, whether the sources are given or are the
    # four actuators
    ("restriction", "amplitudes", [1.0, 1.0]),
    ("restriction", "amplitudes", [1.0, 1.0, 1.0, 1.0, 1.0]),
    (None, "restriction", {"probes": [[0.5]], "sources": [[0.4], [0.6]],
                           "amplitudes": [1.0],
                           "horizons": [0.02, 0.01, 0.005]}),
    # the gap fit needs three distinct horizons
    ("restriction", "horizons", [0.02, 0.01]),
    ("restriction", "horizons", [0.02, 0.02, 0.02]),
    # a greedy placement picks its actuators from the candidate grid
    (None, "actuators", {"kind": "greedy", "count": 5,
                         "candidates_per_axis": 3}),
    # an actuator key that the placement kind does not read
    (None, "actuators", {"kind": "dct", "count": 4, "points": [[0.5]]}),
    (None, "actuators", {"kind": "explicit", "count": 7,
                         "points": [[0.2], [0.4], [0.6], [0.8]]}),
    (None, None, {"domain": {"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                  "actuators": {"kind": "dct", "counts": [1, 1, 1],
                                "count": 9}}),
    # one count per axis of the box
    (None, None, {"domain": {"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                  "actuators": {"kind": "dct", "counts": [1, 1]}}),
    # a loop with no tail mode (four modes, all controlled)
    ("modes", "count", 4),
    # a key of no block, such as the removed actuators.select
    ("actuators", "select", 0),
] + [(block, key, {}) for block, keys in _SCHEMA.items() for key in keys],
    ids=lambda v: str(v))
def test_cli_rejects_malformed_values_as_config_errors(tmp_path, capsys,
                                                       block, key, value):
    # valid restriction and sweep blocks, so that only the bad value can
    # fail them
    data = _mapping(restriction={"probes": [[0.5]],
                                 "horizons": [0.02, 0.01, 0.005]},
                    sweep={"kind": "gain", "values": [4.0, 8.0]})
    if key is None:
        data.update(value)      # whole blocks
    elif block is None:
        data[key] = value
    else:
        data[block] = dict(data.get(block, {}), **{key: value})
    path = _write_yaml(tmp_path / "bad.yaml", data)
    command = "restriction" if "restriction" in (block, key) else "simulate"
    assert cli.main([command, "--config", path, "--check"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_a_coercivity_run_on_a_box(tmp_path, capsys):
    data = _mapping(domain={"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                    actuators={"kind": "dct", "counts": [1, 1, 1]})
    path = _write_yaml(tmp_path / "box.yaml", data)
    assert cli.main(["coercivity", "--config", path, "--check"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_manifest_names_exactly_the_files_written(tmp_path, command):
    data = _mapping(
        restriction={"probes": [[0.5]], "sources": [[0.4], [0.6]],
                     "horizons": [0.02, 0.01, 0.005, 0.0025]},
        coercivity={"cells": [4, 8], "modes_per_cell": 4},
        sweep={"kind": "gain", "values": [4.0, 8.0, 16.0]})
    path = _write_yaml(tmp_path / "c.yaml", data)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 0
    entries = {"output": {}, "tolerance": {}, "assertion": {}}
    for line in (out / "manifest.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        kind, _, name = key.partition(".")
        if kind in entries:
            entries[kind][name] = value
    written = set(os.listdir(out)) - {"manifest.txt"}
    assert set(entries["output"]) == written
    for name in written:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert entries["output"][name] == digest
    assert bool(entries["tolerance"]) == (command in ("track", "simulate"))
    assert bool(entries["assertion"]) == (
        command in ("track", "simulate", "place", "restriction"))


def test_doubled_truncation_reuses_the_placement_and_the_gain(monkeypatch):
    """The 2K pass reuses the placement, the gain and the calibrated maps:
    one calibration per contrast scale."""
    calls = {"greedy_placement": 0, "doubling_gain_search": 0,
             "calibrate_k0": 0}
    for name in calls:
        original = getattr(exp, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exp, name, counting)
    control = {k: v for k, v in BASE["control"].items() if k != "gain"}
    config = _config(actuators={"kind": "greedy", "count": 4,
                                "candidates_per_axis": 32},
                     control=dict(control, target_rate=20.0))
    result = exp.run_track(config, strict=False)
    assert result.setup.gain_trace
    assert np.isfinite(result.convergence_gap)
    assert calls == {"greedy_placement": 1, "doubling_gain_search": 1,
                     "calibrate_k0": len(config.track.deltas)}


def _cli_process(path: str, command: str = "simulate"):
    """Run the CLI on ``path`` in a child interpreter, bounded to 30 s."""
    package_root = os.path.dirname(os.path.dirname(heattrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "heattrack.harness.cli", command,
         "--config", path, "--check"],
        capture_output=True, text=True, env=env, timeout=30)


def test_cli_nan_diffusivity_exits_promptly(tmp_path):
    data = _mapping(domain={"kind": "interval", "lengths": [1.0],
                            "kappa": float("nan")})
    proc = _cli_process(_write_yaml(tmp_path / "nan.yaml", data))
    assert proc.returncode == 2, proc.stderr
    assert "kappa" in proc.stderr


def test_cli_oversized_greedy_grid_exits_promptly(tmp_path):
    """The box3 default of 64 candidates per axis is 64**3 candidates."""
    assert 64 ** 3 > MAX_CANDIDATES >= 64
    data = _mapping(domain={"kind": "box3", "lengths": [1.0, 0.8, 0.6]},
                    actuators={"kind": "greedy", "count": 4})
    proc = _cli_process(_write_yaml(tmp_path / "greedy.yaml", data), "place")
    assert proc.returncode == 2, proc.stderr
    assert "candidates_per_axis" in proc.stderr


def test_a_fine_time_step_is_checked_without_forming_the_grid():
    """A step that divides the horizon into 8e10 steps is refused by the
    step cap; the check forms no grid (it would take 610 GiB)."""
    with pytest.raises(ConfigError, match=f"at most {MAX_STEPS}"):
        _config(control=dict(BASE["control"], horizon=1.0,
                             dt=1.2212040485206336e-11))


def test_track_runs_without_importing_scipy(tmp_path):
    """scipy is a test oracle only: the CLI path must never import it.

    ``place`` and ``coercivity`` run in the same interpreter after
    ``track``, each checked on its own.
    """
    code = ("import sys\n"
            "from heattrack.harness import cli\n"
            "for command in ('track', 'place', 'coercivity'):\n"
            "    rc = cli.main([command, '--config', 'default', '--out', "
            f"{str(tmp_path)!r} + '/' + command])\n"
            "    assert rc == 0, (command, rc)\n"
            "    loaded = sorted(m for m in sys.modules"
            " if m.startswith('scipy'))\n"
            "    assert not loaded, (command, loaded)\n")
    package_root = os.path.dirname(os.path.dirname(heattrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["simulate", "place", "calibrate",
                                     "track", "restriction", "coercivity"])
def test_every_command_passes_its_checks_on_the_packaged_config(command):
    assert cli.main([command, "--config", "default", "--check"]) == 0


WORKFLOW = (pathlib.Path(__file__).resolve().parents[1]
            / ".github" / "workflows" / "tier1.yml")


def test_every_command_the_ci_workflow_runs_passes():
    """Each ``heattrack ...`` line of a CI step, run in-process, exits 0,
    so a workflow that names a removed command or key fails here first."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    lines = [line for job in jobs.values() for step in job["steps"]
             for line in step.get("run", "").splitlines()
             if line.startswith("heattrack ")]
    assert lines
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_cli_reports_run_failures(tmp_path, capsys):
    # impossible tolerance turns a healthy run into an assertion failure
    data = _mapping(tolerances={"cross_integrator": 1e-30})
    path = _write_yaml(tmp_path / "strict.yaml", data)
    code = cli.main(["simulate", "--config", path, "--check"])
    assert code == 1
    assert "[FAIL] cross_integrator" in capsys.readouterr().out
    # a degenerate placement is a runtime error, not a config error:
    # distinct points at which the second mode vanishes (repeated points
    # are malformed geometry, a config error)
    dup = _mapping(actuators={"kind": "explicit",
                              "points": [[0.25], [0.75]]})
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
