"""Experiment configuration: one versioned JSON document for every run.

The configuration is a tree of frozen dataclasses with the repository's
default operating point baked in.  JSON documents may override any
subset of fields; unknown keys are rejected with their full dotted path
so typos never silently fall back to defaults.  A short content hash of
the canonical form is stamped into every output file, which is what
makes reruns byte-comparable.
"""

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field

from .channel import KIND_AWGN, KIND_RAYLEIGH
from .modem import check_power_split
from .regions import check_region_settings
from .srate import GAMMA_DB_LIMIT

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


def _check_range(section, key, lo, hi):
    """Sizes have upper bounds far above any run this package makes: beyond
    them a value is a typo that would run out of time or memory."""
    if not lo <= getattr(section, key) <= hi:
        raise ValueError(f"{key} must be in {lo}..{hi}")


def _check_db(section, *keys):
    """SNRs share the accuracy CSV's dB range: beyond it a value
    is a units or typing error, and far beyond it 10**(dB / 10) overflows
    or a grid step vanishes against the bound."""
    for key in keys:
        if not abs(getattr(section, key)) <= GAMMA_DB_LIMIT:
            raise ValueError(f"{key} must lie in [-{GAMMA_DB_LIMIT:g}, {GAMMA_DB_LIMIT:g}] dB")


@dataclass(frozen=True)
class QuantSection:
    bits_near: int = 2
    bits_far: int = 2
    bound_s: float = 5.0
    bound_d: float = 1.0

    def __post_init__(self):
        for key in ("bits_near", "bits_far"):
            if not 1 <= getattr(self, key) <= 16:
                raise ValueError(f"{key} must be in 1..16")
        if not (0 < self.bound_d < self.bound_s):
            raise ValueError("bounds must satisfy 0 < bound_d < bound_s")


@dataclass(frozen=True)
class LinkSection:
    rho_near: float = 0.3
    rho_far: float = 0.7
    superposition: str = "sqrt"

    def __post_init__(self):
        check_power_split(self.rho_near, self.rho_far, self.superposition)


@dataclass(frozen=True)
class TrainSection:
    epochs: int = 2000
    batch_size: int = 4
    learning_rate: float = 0.1
    dataset_size: int = 64
    snr_train_near_db: float = 14.0
    snr_train_far_db: float = 6.0
    hidden: tuple = (32, 32, 32)

    def __post_init__(self):
        _check_range(self, "epochs", 1, 1_000_000)
        if not (0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be a positive finite number")
        if self.dataset_size > 100_000:
            raise ValueError("dataset_size must be at most 100000")
        if not 1 <= self.batch_size <= self.dataset_size:
            raise ValueError("batch_size must be in 1..dataset_size")
        if len(self.hidden) > 8:
            raise ValueError("hidden must list at most 8 widths")
        if not all(1 <= w <= 256 for w in self.hidden):
            raise ValueError("hidden widths must be in 1..256")
        _check_db(self, "snr_train_near_db", "snr_train_far_db")


@dataclass(frozen=True)
class SweepSection:
    snr_near_lo_db: float = 0.0
    snr_near_hi_db: float = 28.0
    snr_far_lo_db: float = -8.0
    snr_far_hi_db: float = 20.0
    grid_step_db: float = 2.0
    n_symbols: int = 20000
    kind: str = KIND_AWGN
    estimation_error_delta: float = 0.0

    def __post_init__(self):
        _check_db(self, "snr_near_lo_db", "snr_near_hi_db", "snr_far_lo_db", "snr_far_hi_db")
        for user in ("near", "far"):
            if not getattr(self, f"snr_{user}_lo_db") <= getattr(self, f"snr_{user}_hi_db"):
                raise ValueError(f"snr_{user}_lo_db must not exceed snr_{user}_hi_db")
        if not (0 < self.grid_step_db < math.inf):
            raise ValueError("grid_step_db must be a positive finite number")
        _check_range(self, "n_symbols", 1, 1_000_000)
        # about the cells of cli.cmd_sweep's grids; inf if too many to count
        cells = math.prod((getattr(self, f"snr_{u}_hi_db") - getattr(self, f"snr_{u}_lo_db"))
                          / self.grid_step_db + 1.0 for u in ("near", "far"))
        if not cells <= 100_000:
            raise ValueError(f"grid_step_db {self.grid_step_db:g} gives about {cells:.3g} "
                             "SNR cells; at most 100000 are allowed")
        if self.kind not in (KIND_AWGN, KIND_RAYLEIGH):
            raise ValueError(f"kind must be {KIND_AWGN!r} or {KIND_RAYLEIGH!r}, "
                             f"got {self.kind!r}")
        if not (0 <= self.estimation_error_delta < math.inf):
            raise ValueError("estimation_error_delta must be a finite number >= 0")


@dataclass(frozen=True)
class RequirementCase:
    name: str = "high"
    xi_req_far: float = 0.75
    rate_req_near: float = 0.075
    rate_req_far: float = 5.0

    def __post_init__(self):
        check_region_settings(self)


@dataclass(frozen=True)
class RegionSection:
    gain_near_db: float = 20.0
    gain_far_db: float = 16.0
    bandwidth_hz: float = 12.0
    p_max_watts: float = 1e6
    xi_req_near: float = 0.6
    xi_req_far: float = 0.7
    text_k_symbols: int = 128
    image_compression: float = 0.33
    grid_points: int = 2048
    sweep_points: int = 33
    power_level_lo: float = 0.6
    power_level_hi: float = 0.84
    power_sweep_points: int = 13
    cases: tuple = (
        RequirementCase("high", 0.75, 0.075, 5.0),
        RequirementCase("med", 0.68, 0.069, 4.13),
        RequirementCase("low", 0.65, 0.063, 3.13),
    )

    def __post_init__(self):
        # gains, bandwidth, power ceiling, requirements and the two grids
        # face the checks of regions.RegionQuery
        check_region_settings(self)
        _check_range(self, "text_k_symbols", 1, 1_000_000)
        if not 0 < self.image_compression <= 1:
            raise ValueError("image_compression must lie in (0, 1]")
        _check_range(self, "power_sweep_points", 2, 1024)
        if not 0 < self.power_level_lo <= self.power_level_hi < 1:
            raise ValueError("power levels must satisfy "
                             "0 < power_level_lo <= power_level_hi < 1")


@dataclass(frozen=True)
class ExperimentConfig:
    schema: int = SCHEMA_VERSION
    seed: int = 0
    quant: QuantSection = field(default_factory=QuantSection)
    link: LinkSection = field(default_factory=LinkSection)
    train: TrainSection = field(default_factory=TrainSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    region: RegionSection = field(default_factory=RegionSection)

    def __post_init__(self):
        check_seed(self.seed)


def check_seed(seed: int):
    """Raise ConfigError unless seed fits the 64-bit seed part of a stream key."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in 0..2**64 - 1, got {seed}")


_SCALARS = {int, float, str, bool}


def _coerce_scalar(value, target, path):
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        # json reads NaN, Infinity and integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, target):
        raise ConfigError(f"{path}: expected {target.__name__}, got {value!r}")
    return value


def _build(cls, data, path):
    """Recursively build dataclass cls from a JSON mapping."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config field: {dotted}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        sub = f"{path}.{f.name}" if path else f.name
        target = hints[f.name]
        value = data[f.name]
        if dataclasses.is_dataclass(target):
            kwargs[f.name] = _build(target, value, sub)
        elif target in _SCALARS:
            kwargs[f.name] = _coerce_scalar(value, target, sub)
        elif target is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{sub}: expected a list, got {value!r}")
            if f.name == "cases":
                kwargs[f.name] = tuple(
                    _build(RequirementCase, v, f"{sub}[{i}]")
                    for i, v in enumerate(value))
            elif f.name == "hidden":
                kwargs[f.name] = tuple(
                    _coerce_scalar(v, int, f"{sub}[{i}]")
                    for i, v in enumerate(value))
            else:
                kwargs[f.name] = tuple(value)
        else:
            raise ConfigError(f"{sub}: unsupported field type {target!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "")
    if cfg.schema != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: expected version {SCHEMA_VERSION}, got {cfg.schema}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain JSON-level document; feeding it back to config_from_dict
    reproduces the configuration."""
    return _jsonify(dataclasses.asdict(cfg))


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True,
                      separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    """ 12 hex chars identifying the full configuration content."""
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]
