"""Experiment configuration: a blocked key-value file, strictly validated.

Configs are YAML mappings of named blocks.  Every key is checked against
``_SCHEMA``, the one table of keys, defaults and converters, and unknown
keys are rejected, so a typo fails fast instead of silently running
defaults.  The canonical dump (sorted keys,
seed applied) is what run manifests hash.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from functools import partial
from importlib import resources
from typing import NamedTuple

import numpy as np
import yaml

from ..control import grid_steps
from ..errors import ConfigError
from ..spectral import DomainSpec

__all__ = ["ExperimentConfig", "load_config", "profile_samples",
           "build_domain", "MAX_CANDIDATES"]

PROFILE_NAMES = ("sine-bump",)

# Largest modes.count: on the default config an in-process track takes
# 0.19, 0.63, 3.1 and 18.5 s at 256, 512, 1024 and 2048 modes, and its
# convergence pass runs at twice the count.
MAX_MODES = 2048
# Largest mesh a coercivity run accepts: n cells ask for modes_per_cell * n
# interval modes; cells [8, 4096] take 24 ms at 8 per cell and 0.12 s at
# MAX_MODES_PER_CELL.
MAX_CELLS = 4096
# Most actuators a placement may have: actuators.count, modes.controlled
# (the default count, and a loop needs an actuator per controlled mode),
# the box grid prod(counts + 1) or the actuators.points entries.
MAX_ACTUATORS = 128
# Largest particle response of track and calibrate, (steps + 1) x count^2
# complex values, about 106 bytes each at peak.  At the cap, MAX_ACTUATORS
# at the default 500 steps, a calibrate takes 6.1 s and 0.87 GB on a 2-core
# host; 16 actuators at MAX_STEPS, 2% past it, take 11.3 s and 0.97 GB.
MAX_PARTICLE_RESPONSE = 501 * MAX_ACTUATORS ** 2
# Largest greedy grid, candidates_per_axis ** dim: on box3's 128 modes the
# search takes about 20 us per candidate and step (0.35 s for 4096 and 4
# actuators) and 3 KB per candidate, so its default 64 per axis would take
# 0.8 GB and about 20 s.
MAX_CANDIDATES = 4096
# Most track.deltas entries: each adds about 1.3 ms and 90 KB, kept to the
# end, to a default track run (1024 take 1.4 s and 132 MB RSS on a 2-core
# host); 200,000 crashed the interpreter under a 3 GB address-space limit.
MAX_DELTAS = 64
# Largest modes_per_cell a coercivity run accepts: at MAX_CELLS it asks for
# 64 * 4096 = 262,144 modes, about 0.12 s per mesh.
MAX_MODES_PER_CELL = 64
# Largest restriction.samples: each horizon sums the images of every
# (probe, source) pair at samples * quad_order nodes, about 0.25 s per
# horizon for two box3 pairs at 1024 * 100.
MAX_SAMPLES = 1024
# numpy's leggauss, an eigenvalue solve of this order, is tested up to 100.
MAX_QUAD_ORDER = 100
# Most coercivity.cells entries: the profile bisects every mesh's class
# table, (cells + 1) x modes_per_cell values per array, in one stack; 16
# meshes at MAX_CELLS x MAX_MODES_PER_CELL take 2.9 s and 250 MB peak RSS
# on a 2-core host.
MAX_MESHES = 16
# Most sweep.values entries: each gain closes one loop.  64 values take
# 0.11 s on the default config and 7.8 s at 512 modes.
MAX_SWEEP_VALUES = 64
# Most restriction.horizons entries: each sums the images of every (probe,
# source) pair once; 64 horizons take 0.04 s on the default block and
# 2.1 s at MAX_SAMPLES x MAX_QUAD_ORDER.
MAX_HORIZONS = 64
# Most restriction.probes and restriction.sources entries: each (probe,
# source) pair adds one image sum per horizon and holds samples *
# quad_order doubles.  On box3, 16 x 16 pairs take 0.36 s over five
# horizons at the default 48 x 12; at MAX_SAMPLES x MAX_QUAD_ORDER a pair
# costs about 90 ms and 0.8 MB per horizon.
MAX_PROBES = MAX_SOURCES = 16
# Largest probes x sources x horizons x samples x quad_order: one image sum
# per pair, horizon and quadrature node, 0.1-0.25 us each on an interval and
# 0.3-1.5 us on box3.  At the cap, 16 probes x 1 source x 3 horizons x
# 1024 x 85 take 4.9 s on box3, and each horizon holds probes x sources x
# samples x quad_order doubles, at most 11 MB (three horizons).
MAX_RESTRICTION_WORK = 1 << 22
# Most time steps, horizon / dt: at 32,768 (65,536) steps a default track
# takes 1.8 s and 230 MB (4.8 s, 406 MB) and a box3 track 10 s and 0.73 GB
# (22 s, 1.24 GB) on a 2-core host.
MAX_STEPS = 32768


def profile_samples(name: str, times: np.ndarray, horizon: float) -> np.ndarray:
    """Sample a named causal profile, vanishing at both horizon ends."""
    if name == "sine-bump":
        return np.sin(np.pi * np.asarray(times) / horizon) ** 2
    raise ConfigError(f"unknown profile {name!r}; known: {PROFILE_NAMES}")


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


def _signed(value, name: str, kind=float, zero: bool = False):
    """A finite ``kind`` above zero, or at least zero when ``zero`` is set."""
    number = _number(value, name, kind, finite=True)
    if number < 0 or (number == 0 and not zero):
        sign = "nonnegative" if zero else "positive"
        raise ConfigError(f"{name} must be {sign}, got {value!r}")
    return number


def _list(values, name: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return values


def _each(convert):
    """A list whose every entry ``convert`` accepts, as a tuple."""
    return lambda values, name: tuple(convert(v, name)
                                      for v in _list(values, name))


def _capped(top: int):
    """An integer in 1..top."""
    def convert(value, name: str) -> int:
        number = _number(value, name, int)
        if not 1 <= number <= top:
            raise ConfigError(f"{name} must be in 1..{top}, got {value!r}")
        return number
    return convert


_finite = partial(_number, finite=True)
_positive, _count = _signed, partial(_signed, kind=int)
_nonnegative = partial(_signed, zero=True)
_numbers, _finites = _each(_number), _each(_finite)
_positives, _nonnegatives = _each(_positive), _each(_nonnegative)
_table = _each(_finites)                    # one finite list per row


def _rows(rows, name: str) -> tuple:
    """One finite coordinate list per point; a bare number is a 1-D point."""
    return _table([row if isinstance(row, (list, tuple)) else [row]
                   for row in _list(rows, name)], name)


def _opt(convert):
    """None, or a value ``convert`` accepts."""
    return lambda value, name: None if value is None else convert(value, name)


def _or_word(word: str, convert):
    """The literal ``word``, or a value ``convert`` accepts."""
    return lambda value, name: value if value == word else convert(value, name)


def _choice(what: str, words: tuple):
    """One of ``words``; ``what`` names the key in the error."""
    def convert(value, name: str) -> str:
        if str(value) not in words:
            raise ConfigError(f"unknown {what} {str(value)!r}")
        return str(value)
    return convert


def _text(value, name: str) -> str:
    return str(value)


_REQUIRED = object()   # a default that says the key has none

# The one list of config keys: block -> key -> (default, convert), where
# ``convert(value, "block.key")`` returns the parsed value or raises
# ConfigError.  Each block parses to a namedtuple of its keys.
_SCHEMA = {
    "domain": {
        "kind": ("interval", _text),          # DomainSpec checks the rest
        "lengths": ((1.0,), _numbers),
        "kappa": (1.0, _number),
    },
    "modes": {
        "count": (32, _capped(MAX_MODES)),
        "controlled": (4, _capped(MAX_ACTUATORS)),
    },
    "actuators": {
        "kind": ("dct", _choice("actuator kind",
                                ("dct", "explicit", "greedy"))),
        "count": (None, _opt(_capped(MAX_ACTUATORS))),
        "counts": (None, _opt(_each(partial(_count, zero=True)))),
        "points": (None, _opt(_rows)),
        "candidates_per_axis": (64, _count),
    },
    "control": {
        "gain": (None, _opt(_nonnegative)),
        "target_rate": (None, _opt(_positive)),
        "horizon": (1.0, _finite),
        "dt": (0.002, _finite),
        "reference": (None, _opt(_finites)),
        "fixed_point": (True, _flag),
        "initial": (None, _opt(_finites)),
    },
    "track": {
        "delta": (0.05, _nonnegative),
        "mu": (1.0, _positive),
        "deltas": ((0.2, 0.1, 0.05, 0.025), _nonnegatives),
        "profile": ("sine-bump", _choice("profile", PROFILE_NAMES)),
    },
    "plasmonic": {
        "c_m": (1.0, _positive),
        "kappa": (None, _opt(_positive)),
        "contrasts": ("ones", _or_word("ones", _finites)),
        "coupling_scale": (0.05, _finite),
        "dictionary": ("identity", _or_word("identity", _table)),
        "perturb_interaction": (False, _flag),
    },
    "restriction": {
        "probes": (_REQUIRED, _rows),
        "horizons": (_REQUIRED, _positives),
        "sources": (None, _opt(_rows)),
        "amplitudes": (None, _opt(_finites)),
        "samples": (48, _capped(MAX_SAMPLES)),
        "quad_order": (12, _capped(MAX_QUAD_ORDER)),
    },
    "coercivity": {
        "cells": ((8, 16, 32, 64), _each(_capped(MAX_CELLS))),
        "modes_per_cell": (8, _capped(MAX_MODES_PER_CELL)),
    },
    "sweep": {
        "kind": (_REQUIRED, _choice("sweep kind", ("gain",))),
        "values": (_REQUIRED, _nonnegatives),
    },
    "tolerances": {
        "cross_integrator": (1e-8, _positive),
        "convergence": (1e-6, _positive),
        "low_mode": (1e-8, _positive),
    },
}

# Blocks a config may leave out entirely; the others get their defaults.
_OPTIONAL = ("restriction", "sweep")

_BLOCKS = {name: namedtuple(f"{name.title()}Block", keys)
           for name, keys in _SCHEMA.items()}


def _modes(block):
    # the tail bound and the contraction diagnostics need a tail mode
    if block.controlled >= block.count:
        raise ConfigError(f"modes.controlled ({block.controlled}) must be "
                          f"less than modes.count ({block.count})")
    return block


def _control(block):
    if block.gain is None and block.target_rate is None:
        raise ConfigError("control needs either gain or target_rate")
    try:
        steps = grid_steps(block.horizon, block.dt)
    except ValueError as exc:
        raise ConfigError(f"control (dt={block.dt:g}): {exc}") from None
    if steps > MAX_STEPS:
        raise ConfigError(f"control.horizon / control.dt is {steps} steps; "
                          f"at most {MAX_STEPS}")
    return block


def _at_most(entries, name: str, top: int) -> None:
    if len(entries) > top:
        raise ConfigError(f"{name} has {len(entries)} entries; at most {top}")


def _actuators(block):
    _at_most(block.points or (), "actuators.points", MAX_ACTUATORS)
    # a box places counts[l] + 1 cosine nodes on axis l
    grid = math.prod(n + 1 for n in block.counts or ())
    if grid > MAX_ACTUATORS:
        raise ConfigError(f"actuators.counts {list(block.counts)} place "
                          f"{grid} actuators; at most {MAX_ACTUATORS}")
    return block


def _track(block):
    _at_most(block.deltas, "track.deltas", MAX_DELTAS)
    # Budget assertions are tagged ``{delta:g}``; abs gives -0.0 0.0's tag.
    if len({f"{abs(d):g}" for d in block.deltas}) < len(block.deltas):
        raise ConfigError(f"track.deltas must be distinct at 6 significant "
                          f"digits, got {list(block.deltas)}")
    if block.delta not in block.deltas:
        raise ConfigError(f"track.deltas must be nonempty and contain "
                          f"track.delta ({block.delta:g})")
    return block


def _restriction(block):
    _at_most(block.horizons, "restriction.horizons", MAX_HORIZONS)
    _at_most(block.probes, "restriction.probes", MAX_PROBES)
    _at_most(block.sources or (), "restriction.sources", MAX_SOURCES)
    # the fit of log(gap) against d^2 / T needs three abscissae
    if len(set(block.horizons)) < 3:
        raise ConfigError(f"restriction.horizons needs at least three "
                          f"distinct entries, got {list(block.horizons)}")
    if block.sources is not None:
        _restriction_work(block, len(block.sources))
    return block


def _restriction_work(block, sources: int) -> None:
    """Reject a restriction block whose image sums, with ``sources``
    sources, exceed MAX_RESTRICTION_WORK."""
    work = (len(block.probes) * sources * len(block.horizons)
            * block.samples * block.quad_order)
    if work > MAX_RESTRICTION_WORK:
        raise ConfigError(f"restriction probes x sources x horizons x "
                          f"samples x quad_order is {work}; at most "
                          f"{MAX_RESTRICTION_WORK}")


def _coercivity(block):
    _at_most(block.cells, "coercivity.cells", MAX_MESHES)
    # the log-log fit of the constants needs two mesh sizes
    if len(set(block.cells)) < 2:
        raise ConfigError(f"coercivity.cells needs at least two distinct "
                          f"entries, got {list(block.cells)}")
    return block


def _sweep(block):
    if len(block.values) < 1:
        raise ConfigError("sweep.values must be nonempty")
    _at_most(block.values, "sweep.values", MAX_SWEEP_VALUES)
    return block


# Rules that tie keys of one block together, run after every key parsed.
_RULES = {"modes": _modes, "actuators": _actuators, "control": _control,
          "track": _track, "restriction": _restriction,
          "coercivity": _coercivity, "sweep": _sweep}


def parse_block(name: str, raw: dict):
    """One block's keys, defaulted and converted, checked by its rule."""
    schema = _SCHEMA[name]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in block '{name}'")
    values = {}
    for key, (default, convert) in schema.items():
        if default is _REQUIRED and raw.get(key) is None:
            raise ConfigError(f"block '{name}' requires key '{key}'")
        values[key] = convert(raw.get(key, default), f"{name}.{key}")
    block = _BLOCKS[name](**values)
    rule = _RULES.get(name)
    return block if rule is None else rule(block)


def build_domain(block) -> DomainSpec:
    """The domain a ``domain`` block describes."""
    try:
        return DomainSpec(block.kind, block.lengths, block.kappa)
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}") from exc


class ExperimentConfig(NamedTuple):
    seed: int
    domain: tuple
    modes: tuple
    actuators: tuple
    control: tuple
    track: tuple
    plasmonic: tuple
    tolerances: tuple
    restriction: tuple | None = None
    coercivity: tuple | None = None
    sweep: tuple | None = None
    canonical: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()

    def check_restriction_work(self, sources: int) -> None:
        """The ``MAX_RESTRICTION_WORK`` check of the restriction block, for
        a run whose ``sources`` sources are the actuators."""
        _restriction_work(self.restriction, sources)

    def check_particle_response(self, count: int) -> None:
        """The ``MAX_PARTICLE_RESPONSE`` check for ``count`` particles."""
        steps = grid_steps(self.control.horizon, self.control.dt)
        size = (steps + 1) * count ** 2
        if size > MAX_PARTICLE_RESPONSE:
            raise ConfigError(f"{count} actuators over {steps} steps give a "
                              f"particle response of {size} values; at most "
                              f"{MAX_PARTICLE_RESPONSE}")

    @staticmethod
    def from_mapping(data: dict, seed_override: int | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping of blocks")
        unknown = sorted(set(data) - set(_SCHEMA) - {"seed"})
        if unknown:
            raise ConfigError(f"unknown top-level block(s) {unknown}")
        seed = data.get("seed") if seed_override is None else seed_override
        if seed is None:
            raise ConfigError("a seed is required (config key or --seed)")
        seed = _signed(seed, "seed", int, zero=True)
        blocks = {}
        for name in _SCHEMA:
            raw = data.get(name)
            if raw is not None and not isinstance(raw, dict):
                raise ConfigError(f"block '{name}' must be a mapping")
            blocks[name] = (None if raw is None and name in _OPTIONAL
                            else parse_block(name, raw or {}))
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
