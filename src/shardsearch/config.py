"""YAML experiment configuration with strict key checking.

A config file has up to seven sections: ``model`` and ``hardware`` (required)
plus ``action_space``, ``simulation``, ``reward``, ``ppo`` and ``sa`` (each
optional, falling back to package defaults). Unknown keys anywhere are hard
errors naming the full dotted path, so typos never silently revert a knob to
its default.

Each section is checked by its dataclass, whose fields' annotations decide
the check (``model.check_fields``). YAML's number grammar treats exponent
literals without a dot or sign (for example ``989e12``) as strings; float
fields therefore accept strings and convert them, so datasheet-style notation
works either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .baselines import SaConfig
from .env import RewardConfig
from .model import HardwareSpec, ModelSpec, check_fields
from .ppo import PpoConfig
from .simulator import SimRequest
from .strategy import AXIS_BY_NAME, ActionSpaceSpec, AxisChoice, canonical_fused_ops, check_space


class ConfigError(ValueError):
    """Configuration file cannot be used; the message names the bad key."""


@dataclass(frozen=True)
class SimulationSettings:
    """Workload knobs shared by every simulator call of an experiment."""

    context_len: int
    slo_tpot: float = SimRequest.slo_tpot

    def __post_init__(self) -> None:
        check_fields("simulation", self)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    hardware: HardwareSpec
    space: ActionSpaceSpec
    simulation: SimulationSettings
    reward: RewardConfig
    ppo: PpoConfig
    sa: SaConfig


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _as_tuple(value: Any, path: str) -> tuple[Any, ...]:
    # A list check first: tuple() of a string would split it into characters.
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list of integers, got {value!r}")
    return tuple(value)


def _as_axis(value: Any, path: str) -> AxisChoice:
    if not isinstance(value, str) or value not in AXIS_BY_NAME:
        raise ConfigError(
            f"{path} must be one of {sorted(AXIS_BY_NAME)}, got {value!r}"
        )
    return AXIS_BY_NAME[value]


def _mapping_section(data: Mapping[str, Any], name: str) -> dict[str, Any]:
    section = data.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {section!r}")
    return section


def _check_keys(mapping: Mapping[str, Any], path: str, allowed: Mapping[str, Any]) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        listed = ", ".join(f"'{path}.{key}'" for key in unknown)
        raise ConfigError(f"unknown key {listed}; allowed keys: {sorted(allowed)}")


def _build_section(cls: type, data: Mapping[str, Any], path: str) -> Any:
    """One section's dataclass: its fields are the allowed keys and a field
    without a default is required. The dataclass checks each value by its
    field's annotation; a float field also takes a string, which YAML makes
    of exponent literals such as ``989e12``."""
    mapping = _mapping_section(data, path)
    fields = dataclasses.fields(cls)
    _check_keys(mapping, path, {f.name: None for f in fields})
    kwargs = {}
    for f in fields:
        if f.name not in mapping:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"missing key '{path}.{f.name}'")
            continue
        value = mapping[f.name]
        if f.type == "float" and isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"{path}.{f.name} must be a number, got {value!r}") from None
        kwargs[f.name] = value
    return cls(**kwargs)


_SPACE_KEYS = ("tp", "ep", "pp", "batch", "ops", "pins")

_TOP_LEVEL = ("model", "hardware", "action_space", "simulation", "reward", "ppo", "sa")


def _parse_space(section: Mapping[str, Any], model: ModelSpec) -> ActionSpaceSpec:
    _check_keys(section, "action_space", {k: None for k in _SPACE_KEYS})
    kwargs: dict[str, Any] = {}
    for key, field in (("tp", "tp_domain"), ("ep", "ep_domain"), ("pp", "pp_domain"), ("batch", "batch_domain")):
        if key in section:
            kwargs[field] = _as_tuple(section[key], f"action_space.{key}")

    # The searched operators default to all of the model's own operators.
    raw_ops = section.get("ops", "all")
    if raw_ops == "all":
        ops = tuple(op.name for op in canonical_fused_ops(model))
    elif isinstance(raw_ops, list):
        ops = tuple(_as_str(v, f"action_space.ops[{i}]") for i, v in enumerate(raw_ops))
    else:
        raise ConfigError(
            f"action_space.ops must be 'all' or a list of operator names, got {raw_ops!r}"
        )
    kwargs["op_names"] = ops

    if "pins" in section:
        raw_pins = section["pins"]
        if not isinstance(raw_pins, dict):
            raise ConfigError(f"action_space.pins must be a mapping, got {raw_pins!r}")
        kwargs["pinned"] = tuple(
            (name, _as_axis(axis, f"action_space.pins.{name}")) for name, axis in raw_pins.items()
        )

    try:
        space = ActionSpaceSpec(**kwargs)
        check_space(space, model)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return space


def parse_config(data: Any, source: str = "<config>") -> ExperimentConfig:
    """Validate a parsed YAML document into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    _check_keys(data, source, {k: None for k in _TOP_LEVEL})
    for required in ("model", "hardware", "simulation"):
        if required not in data:
            raise ConfigError(f"{source}: missing section '{required}'")

    try:
        model = _build_section(ModelSpec, data, "model")
        hardware = _build_section(HardwareSpec, data, "hardware")
        simulation = _build_section(SimulationSettings, data, "simulation")
        space = _parse_space(_mapping_section(data, "action_space"), model)
        reward = _build_section(RewardConfig, data, "reward")
        ppo = _build_section(PpoConfig, data, "ppo")
        sa = _build_section(SaConfig, data, "sa")
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None

    return ExperimentConfig(
        model=model,
        hardware=hardware,
        space=space,
        simulation=simulation,
        reward=reward,
        ppo=ppo,
        sa=sa,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate one YAML config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}") from None
    return parse_config(data, source=str(path))


def packaged_config_path(name: str) -> Path:
    """Path of a config shipped inside the package, by stem name."""
    root = Path(str(resources.files("shardsearch").joinpath("configs")))
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        available = sorted(p.stem for p in root.glob("*.yaml"))
        raise ConfigError(f"no packaged config named '{name}'; available: {available}")
    return candidate


def resolve_config_path(spec: str) -> Path:
    """Interpret a CLI config argument: a filesystem path or a packaged name."""
    path = Path(spec)
    if path.is_file():
        return path
    if "/" not in spec and not spec.endswith(".yaml"):
        return packaged_config_path(spec)
    raise ConfigError(f"config file not found: {spec}")
