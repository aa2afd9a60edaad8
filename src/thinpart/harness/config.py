"""Experiment configuration: a flat record, a strict JSON loader, and the
derived group data shared by every runner."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from ..slgroup import (
    RadiusParams,
    SemisimpleParams,
    expanding_element,
    radius_params,
    unipotence_bound_holds,
)


class ConfigError(ValueError):
    """A configuration the runners refuse to start from."""


# "lambda" is a keyword, so the attribute carries a trailing underscore;
# the JSON schema uses the bare name.
_JSON_NAMES = {"lambda_": "lambda"}


@dataclass(frozen=True)
class ExperimentConfig:
    group_n: int = 2
    lambda_: float = 55.0
    x0: float = math.exp(-1.0)
    a1: float = 2.0
    n_base_points: int = 200
    n_mc_samples: int = 500
    walk_length: int = 10_000
    eps_grid: tuple = (3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6)
    seed: int = 20260819
    workers: int = 1

    def __post_init__(self):
        for name in ("group_n", "n_base_points", "n_mc_samples", "walk_length", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("lambda_", "x0", "a1"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ConfigError(f"{_JSON_NAMES.get(name, name)} must be a finite number")
            # a JSON 55 and 55.0 give the same config and the same report bytes
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.x0 < 1.0:
            raise ConfigError(f"x0 must lie in (0, 1), got {self.x0}")
        if self.a1 <= 1.0:
            raise ConfigError(f"a1 must exceed 1, got {self.a1}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if not isinstance(self.eps_grid, (list, tuple)) or any(
            not isinstance(e, (int, float)) or isinstance(e, bool) for e in self.eps_grid
        ):
            raise ConfigError(f"eps_grid must be a list of numbers, got {self.eps_grid!r}")
        eps = tuple(float(e) for e in self.eps_grid)
        if len(eps) < 1:
            raise ConfigError("eps_grid must not be empty")
        if any(not (e > 0.0 and math.isfinite(e)) for e in eps):
            raise ConfigError("eps_grid entries must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps_grid must be strictly decreasing")
        object.__setattr__(self, "eps_grid", eps)

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[_JSON_NAMES.get(f.name, f.name)] = value
        return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from JSON field names; unknown keys are an error."""
    attr_for = {_JSON_NAMES.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(attr_for))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[attr_for[key]] = value
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


def derive_group(cfg: ExperimentConfig) -> tuple:
    """(SemisimpleParams, RadiusParams) for cfg, with the eps grid checked
    against the derived search radius."""
    try:
        sp: SemisimpleParams = expanding_element(cfg.group_n, cfg.lambda_, cfg.x0)
    except (ValueError, ArithmeticError) as exc:  # ArithmeticError: OverflowError too
        raise ConfigError(f"group parameters rejected: {exc}") from exc
    rp: RadiusParams = radius_params(sp)
    if not unipotence_bound_holds(cfg.group_n, rp.rho):
        raise ConfigError(
            f"search radius {rp.rho} is too large for the unipotence bound "
            f"at n = {cfg.group_n}"
        )
    too_big = [e for e in cfg.eps_grid if e >= rp.rho]
    if too_big:
        raise ConfigError(
            f"eps_grid entries {too_big} are not below the search radius {rp.rho}"
        )
    return sp, rp
