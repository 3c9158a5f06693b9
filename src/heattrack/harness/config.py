"""Experiment configuration: a blocked key-value file, strictly validated.

Configs are YAML mappings of named blocks.  Every key is checked against
the block schema and unknown keys are rejected, so a typo fails fast
instead of silently running defaults.  The canonical dump (sorted keys,
seed applied) is what run manifests hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from ..control import time_grid
from ..errors import ConfigError
from ..spectral import DomainSpec

__all__ = ["ExperimentConfig", "load_config", "resolve_config_path",
           "profile_samples", "PROFILE_NAMES"]

PROFILE_NAMES = ("sine-bump",)

# Largest mesh a coercivity run or a mesh sweep accepts: n cells ask for
# modes_per_cell * n interval modes, about 20 ms at n = 4096 and 8 per cell.
MAX_CELLS = 4096
# Largest modes_per_cell a coercivity run accepts: at MAX_CELLS it asks for
# 64 * 4096 = 262,144 modes, about 0.12 s per mesh.
MAX_MODES_PER_CELL = 64
# Largest restriction.samples: each horizon sums the images of every
# (probe, source) pair at samples * quad_order nodes, about 0.25 s per
# horizon for two box3 pairs at 1024 * 100.
MAX_SAMPLES = 1024
# numpy's leggauss, an eigenvalue solve of this order, is tested up to 100.
MAX_QUAD_ORDER = 100


def profile_samples(name: str, times: np.ndarray, horizon: float) -> np.ndarray:
    """Sample a named causal profile, vanishing at both horizon ends."""
    if name == "sine-bump":
        return np.sin(np.pi * np.asarray(times) / horizon) ** 2
    raise ConfigError(f"unknown profile {name!r}; known: {PROFILE_NAMES}")


def _take(block: dict, name: str, allowed: dict) -> dict:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in block '{name}'")
    merged = dict(allowed)
    merged.update(block)
    return merged


def _require(value, name: str, key: str):
    if value is None:
        raise ConfigError(f"block '{name}' requires key '{key}'")
    return value


def _flag(value, name: str) -> bool:
    """A YAML boolean; strings such as "no" are rejected, not coerced."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _number(value, name: str, kind=float, finite: bool = False):
    """``kind(value)``; a value it cannot convert is a config error, and
    so is a non-finite one when ``finite`` is set.

    A boolean is not a number, and an integer key takes no fractional
    number: ``int(32.7)`` would silently truncate it.  Numeric strings
    convert, since YAML reads an unquoted ``1e-6`` as a string, but only
    ASCII ones: ``float`` also reads other scripts' digits, and the
    canonical dump would then depend on how the YAML emitter escapes them.
    A ``!!binary`` value is bytes, which ``float`` would read too.
    """
    if isinstance(value, (bool, bytes)) or (isinstance(value, str)
                                            and not value.isascii()):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if finite and not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number!r}")
    return number


def _finite(value, name: str, optional: bool = False) -> float | None:
    if value is None and optional:
        return None
    return _number(value, name, finite=True)


def _list(values, name: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return values


def _numbers(values, name: str, kind=float, finite: bool = False) -> tuple:
    return tuple(_number(v, name, kind, finite) for v in _list(values, name))


def _bounded(value, name: str, top: int) -> int:
    number = _number(value, name, int)
    if not 1 <= number <= top:
        raise ConfigError(f"{name} must be in 1..{top}, got {value!r}")
    return number


def _cell_counts(values, name: str) -> tuple:
    return tuple(_bounded(v, name, MAX_CELLS) for v in _list(values, name))


def _rows(rows, name: str) -> tuple:
    """One finite coordinate list per point; a bare number is a 1-D point."""
    return tuple(_numbers(row if isinstance(row, (list, tuple)) else [row],
                          name, finite=True)
                 for row in _list(rows, name))


@dataclass(frozen=True)
class DomainBlock:
    kind: str
    lengths: tuple
    kappa: float

    @staticmethod
    def parse(block: dict) -> "DomainBlock":
        vals = _take(block, "domain",
                     {"kind": "interval", "lengths": [1.0], "kappa": 1.0})
        return DomainBlock(str(vals["kind"]),
                           _numbers(vals["lengths"], "domain.lengths"),
                           _number(vals["kappa"], "domain.kappa"))

    def build(self) -> DomainSpec:
        try:
            return DomainSpec(self.kind, self.lengths, self.kappa)
        except ValueError as exc:
            raise ConfigError(f"invalid domain: {exc}") from exc


@dataclass(frozen=True)
class ModesBlock:
    count: int
    controlled: int

    @staticmethod
    def parse(block: dict) -> "ModesBlock":
        vals = _take(block, "modes", {"count": 32, "controlled": 4})
        count = _number(vals["count"], "modes.count", int)
        controlled = _number(vals["controlled"], "modes.controlled", int)
        if count < 1 or controlled < 1 or controlled > count:
            raise ConfigError("modes.count and modes.controlled must satisfy "
                              "1 <= controlled <= count")
        return ModesBlock(count, controlled)


@dataclass(frozen=True)
class ActuatorBlock:
    kind: str
    count: int | None
    counts: tuple | None
    points: tuple | None
    candidates_per_axis: int
    select: int | None

    @staticmethod
    def parse(block: dict) -> "ActuatorBlock":
        vals = _take(block, "actuators",
                     {"kind": "dct", "count": None, "counts": None,
                      "points": None, "candidates_per_axis": 64,
                      "select": None})
        kind = str(vals["kind"])
        if kind not in ("dct", "explicit", "greedy"):
            raise ConfigError(f"unknown actuator kind {kind!r}")
        points = vals["points"]
        if points is not None:
            points = _rows(points, "actuators.points")
        counts = vals["counts"]
        if counts is not None:
            counts = _numbers(counts, "actuators.counts", int)
        count, select = (None if vals[k] is None
                         else _number(vals[k], f"actuators.{k}", int)
                         for k in ("count", "select"))
        return ActuatorBlock(kind, count, counts, points,
                             _number(vals["candidates_per_axis"],
                                     "actuators.candidates_per_axis", int),
                             select)


@dataclass(frozen=True)
class ControlBlock:
    gain: float | None
    target_rate: float | None
    horizon: float
    dt: float
    reference: tuple
    fixed_point: bool
    initial: tuple | None

    @staticmethod
    def parse(block: dict) -> "ControlBlock":
        vals = _take(block, "control",
                     {"gain": None, "target_rate": None, "horizon": 1.0,
                      "dt": 0.002, "reference": None, "fixed_point": True,
                      "initial": None})
        if vals["gain"] is None and vals["target_rate"] is None:
            raise ConfigError("control needs either gain or target_rate")
        reference, initial = (
            None if vals[k] is None
            else _numbers(vals[k], f"control.{k}", finite=True)
            for k in ("reference", "initial"))
        horizon = _finite(vals["horizon"], "control.horizon")
        dt = _finite(vals["dt"], "control.dt")
        try:
            time_grid(horizon, dt)
        except ValueError as exc:
            raise ConfigError(f"control (dt={dt:g}): {exc}") from None
        return ControlBlock(
            _finite(vals["gain"], "control.gain", optional=True),
            _finite(vals["target_rate"], "control.target_rate", optional=True),
            horizon, dt, reference or (),
            _flag(vals["fixed_point"], "control.fixed_point"), initial)


@dataclass(frozen=True)
class TrackBlock:
    delta: float
    mu: float
    deltas: tuple
    profile: str

    @staticmethod
    def parse(block: dict) -> "TrackBlock":
        vals = _take(block, "track",
                     {"delta": 0.05, "mu": 1.0,
                      "deltas": [0.2, 0.1, 0.05, 0.025],
                      "profile": "sine-bump"})
        profile = str(vals["profile"])
        if profile not in PROFILE_NAMES:
            raise ConfigError(f"unknown profile {profile!r}")
        deltas = _numbers(vals["deltas"], "track.deltas", finite=True)
        return TrackBlock(_finite(vals["delta"], "track.delta"),
                          _finite(vals["mu"], "track.mu"), deltas, profile)


@dataclass(frozen=True)
class PlasmonicBlock:
    c_m: float
    kappa: float | None
    contrasts: tuple | str
    coupling_scale: float
    dictionary: tuple | str
    perturb_interaction: bool

    @staticmethod
    def parse(block: dict) -> "PlasmonicBlock":
        vals = _take(block, "plasmonic",
                     {"c_m": 1.0, "kappa": None, "contrasts": "ones",
                      "coupling_scale": 0.05, "dictionary": "identity",
                      "perturb_interaction": False})
        contrasts = vals["contrasts"]
        if contrasts != "ones":
            contrasts = _numbers(contrasts, "plasmonic.contrasts",
                                 finite=True)
        dictionary = vals["dictionary"]
        if dictionary != "identity":
            dictionary = tuple(
                _numbers(row, "plasmonic.dictionary", finite=True)
                for row in _list(dictionary, "plasmonic.dictionary"))
        return PlasmonicBlock(
            _finite(vals["c_m"], "plasmonic.c_m"),
            _finite(vals["kappa"], "plasmonic.kappa", optional=True),
            contrasts,
            _finite(vals["coupling_scale"], "plasmonic.coupling_scale"),
            dictionary,
            _flag(vals["perturb_interaction"], "plasmonic.perturb_interaction"))


@dataclass(frozen=True)
class RestrictionBlock:
    probes: tuple
    horizons: tuple
    sources: tuple | None
    amplitudes: tuple | None
    samples: int
    quad_order: int

    @staticmethod
    def parse(block: dict) -> "RestrictionBlock":
        vals = _take(block, "restriction",
                     {"probes": None, "horizons": None, "sources": None,
                      "amplitudes": None, "samples": 48, "quad_order": 12})
        probes = _require(vals["probes"], "restriction", "probes")
        horizons = _require(vals["horizons"], "restriction", "horizons")
        sources = vals["sources"]
        amplitudes = vals["amplitudes"]
        return RestrictionBlock(
            _rows(probes, "restriction.probes"),
            _numbers(horizons, "restriction.horizons", finite=True),
            None if sources is None else _rows(sources, "restriction.sources"),
            None if amplitudes is None
            else _numbers(amplitudes, "restriction.amplitudes", finite=True),
            _bounded(vals["samples"], "restriction.samples", MAX_SAMPLES),
            _bounded(vals["quad_order"], "restriction.quad_order",
                     MAX_QUAD_ORDER))


@dataclass(frozen=True)
class CoercivityBlock:
    cells: tuple
    modes_per_cell: int

    @staticmethod
    def parse(block: dict) -> "CoercivityBlock":
        vals = _take(block, "coercivity",
                     {"cells": [8, 16, 32, 64], "modes_per_cell": 8})
        cells = _cell_counts(vals["cells"], "coercivity.cells")
        return CoercivityBlock(cells, _bounded(vals["modes_per_cell"],
                                               "coercivity.modes_per_cell",
                                               MAX_MODES_PER_CELL))


@dataclass(frozen=True)
class SweepBlock:
    kind: str
    values: tuple           # floats; cell counts (ints) for a mesh sweep

    @staticmethod
    def parse(block: dict) -> "SweepBlock":
        vals = _take(block, "sweep", {"kind": None, "values": None})
        kind = str(_require(vals["kind"], "sweep", "kind"))
        if kind not in ("delta", "gain", "mesh"):
            raise ConfigError(f"unknown sweep kind {kind!r}")
        values = _require(vals["values"], "sweep", "values")
        values = (_cell_counts(values, "sweep.values") if kind == "mesh"
                  else _numbers(values, "sweep.values", finite=True))
        if len(values) < 1:
            raise ConfigError("sweep.values must be nonempty")
        return SweepBlock(kind, values)


@dataclass(frozen=True)
class TolerancesBlock:
    cross_integrator: float
    convergence: float
    low_mode: float

    @staticmethod
    def parse(block: dict) -> "TolerancesBlock":
        vals = _take(block, "tolerances",
                     {"cross_integrator": 1e-8, "convergence": 1e-6,
                      "low_mode": 1e-8})
        return TolerancesBlock(*(_finite(vals[k], f"tolerances.{k}") for k in
                                 ("cross_integrator", "convergence",
                                  "low_mode")))


_BLOCK_PARSERS = {
    "domain": DomainBlock.parse,
    "modes": ModesBlock.parse,
    "actuators": ActuatorBlock.parse,
    "control": ControlBlock.parse,
    "track": TrackBlock.parse,
    "plasmonic": PlasmonicBlock.parse,
    "restriction": RestrictionBlock.parse,
    "coercivity": CoercivityBlock.parse,
    "sweep": SweepBlock.parse,
    "tolerances": TolerancesBlock.parse,
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    domain: DomainBlock
    modes: ModesBlock
    actuators: ActuatorBlock
    control: ControlBlock
    track: TrackBlock
    plasmonic: PlasmonicBlock
    tolerances: TolerancesBlock
    restriction: RestrictionBlock | None = None
    coercivity: CoercivityBlock | None = None
    sweep: SweepBlock | None = None
    canonical: str = field(default="", compare=False)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()

    @staticmethod
    def from_mapping(data: dict, seed_override: int | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping of blocks")
        unknown = sorted(set(data) - set(_BLOCK_PARSERS) - {"seed"})
        if unknown:
            raise ConfigError(f"unknown top-level block(s) {unknown}")
        seed = data.get("seed")
        if seed_override is not None:
            seed = seed_override
        if seed is None:
            raise ConfigError("a seed is required (config key or --seed)")
        seed = _number(seed, "seed", int)
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        blocks = {}
        for name, parser in _BLOCK_PARSERS.items():
            raw = data.get(name)
            if raw is None:
                blocks[name] = None
            elif not isinstance(raw, dict):
                raise ConfigError(f"block '{name}' must be a mapping")
            else:
                blocks[name] = parser(raw)
        # Blocks every experiment relies on get their defaults when absent.
        for name in ("domain", "modes", "actuators", "control", "track",
                     "plasmonic", "tolerances"):
            if blocks[name] is None:
                blocks[name] = _BLOCK_PARSERS[name]({})
        canon_source = {k: v for k, v in data.items() if k != "seed"}
        canon_source["seed"] = seed
        # libyaml's emitter when PyYAML has it.  The pure-Python SafeDumper
        # writes the same text, but for where it wraps a quoted value
        # longer than a line once non-ASCII characters are escaped.
        canonical = yaml.dump(
            canon_source, sort_keys=True,
            Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
        return ExperimentConfig(seed=seed, canonical=canonical, **blocks)


def resolve_config_path(spec: str):
    """Map the literal name 'default' to the packaged config file."""
    if spec == "default":
        return resources.files("heattrack.configs") / "default.yaml"
    return spec


def load_config(path_or_name: str,
                seed_override: int | None = None) -> ExperimentConfig:
    resolved = resolve_config_path(path_or_name)
    try:
        if hasattr(resolved, "read_text"):
            text = resolved.read_text()
        else:
            with open(resolved, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from exc
    try:
        data = yaml.load(text,
                         Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return ExperimentConfig.from_mapping(data or {}, seed_override)
