"""Strict YAML config parsing, the field rule and the shipped configs."""

import dataclasses
import math
import re

import pytest
import yaml

from shardsearch.baselines import SaConfig
from shardsearch.config import (
    ConfigError,
    SimulationSettings,
    load_config,
    packaged_config_path,
    parse_config,
    resolve_config_path,
)
from shardsearch.env import RewardConfig
from shardsearch.model import HardwareSpec, ModelSpec
from shardsearch.ppo import PpoConfig
from shardsearch.simulator import SimRequest
from shardsearch.strategy import AxisChoice, Strategy, count_parameters


# Every float field of the learner, reward and annealing sections.
FLOAT_KNOBS = (
    "ppo.lr_initial",
    "ppo.clip_eps",
    "ppo.value_coef",
    "ppo.entropy_coef",
    "ppo.tau",
    "reward.alpha",
    "reward.beta",
    "reward.invalid_penalty",
    "sa.t_initial",
)


def minimal_doc(**overrides):
    doc = {
        "model": {
            "name": "m",
            "num_layers": 4,
            "hidden_dim": 256,
            "num_heads": 8,
            "head_dim": 32,
            "num_kv_heads": 4,
            "ffn_dim": 128,
            "num_experts": 8,
            "experts_per_token": 2,
            "has_shared_expert": True,
            "vocab_size": 4096,
            "dtype_bytes": 2,
        },
        "hardware": {
            "name": "hw",
            "peak_flops": 1e15,
            "hbm_bandwidth": 3e12,
            "hbm_capacity": 8e10,
            "intra_node_bw": 9e11,
            "inter_node_bw": 5e10,
            "node_size": 8,
            "device_budget": 64,
            "kernel_overhead": 0.0,
            "per_collective_latency": 0.0,
        },
        "simulation": {"context_len": 256},
    }
    doc.update(overrides)
    return doc


class TestStrictParsing:
    def test_minimal_document_parses_with_defaults(self):
        cfg = parse_config(minimal_doc())
        assert cfg.model.hidden_dim == 256
        assert cfg.simulation.slo_tpot == 0.05
        assert cfg.reward.alpha == 1.0
        assert cfg.ppo.budget == 4000
        assert cfg.sa.t_initial == 100.0
        assert cfg.space.vector_length == 16  # full default op set

    def test_unknown_top_level_section_named(self):
        with pytest.raises(ConfigError, match="'<config>.extras'"):
            parse_config(minimal_doc(extras={}))

    def test_unknown_model_key_named_with_full_path(self):
        doc = minimal_doc()
        doc["model"]["head_dimm"] = 32
        with pytest.raises(ConfigError, match="'model.head_dimm'"):
            parse_config(doc)

    def test_unknown_ppo_key_named(self):
        doc = minimal_doc(ppo={"learning_rate": 1e-3})
        with pytest.raises(ConfigError, match="'ppo.learning_rate'"):
            parse_config(doc)

    def test_sa_takes_no_neighbor_moves(self):
        doc = minimal_doc(sa={"neighbor_moves": 2})
        with pytest.raises(ConfigError, match="'sa.neighbor_moves'"):
            parse_config(doc)

    def test_missing_required_key_named(self):
        doc = minimal_doc()
        del doc["model"]["num_layers"]
        with pytest.raises(ConfigError, match="'model.num_layers'"):
            parse_config(doc)

    def test_missing_section_named(self):
        doc = minimal_doc()
        del doc["simulation"]
        with pytest.raises(ConfigError, match="simulation"):
            parse_config(doc)

    def test_float_accepts_datasheet_string_notation(self):
        doc = minimal_doc()
        doc["hardware"]["peak_flops"] = "989e12"  # YAML would keep this a str
        cfg = parse_config(doc)
        assert cfg.hardware.peak_flops == 989e12

    def test_bool_is_not_an_integer(self):
        doc = minimal_doc()
        doc["model"]["num_layers"] = True
        with pytest.raises(ConfigError, match="model.num_layers"):
            parse_config(doc)

    def test_non_numeric_string_rejected_for_float(self):
        doc = minimal_doc()
        doc["hardware"]["hbm_capacity"] = "lots"
        with pytest.raises(ConfigError, match="hardware.hbm_capacity"):
            parse_config(doc)

    def test_spec_validation_errors_become_config_errors(self):
        doc = minimal_doc()
        doc["model"]["num_heads"] = 7  # heads * head_dim != hidden_dim
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_non_finite_hardware_value_named(self):
        doc = minimal_doc()
        doc["hardware"]["kernel_overhead"] = float("nan")
        with pytest.raises(ConfigError, match="hardware.kernel_overhead"):
            parse_config(doc)

    def test_nan_slo_tpot_named(self):
        doc = minimal_doc(simulation={"context_len": 256, "slo_tpot": float("nan")})
        with pytest.raises(ConfigError, match="simulation.slo_tpot"):
            parse_config(doc)

    def test_ppo_section_validated(self):
        doc = minimal_doc(ppo={"budget": 10, "chunks": 3})
        with pytest.raises(ConfigError, match="divide"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", FLOAT_KNOBS)
    def test_non_finite_knob_named(self, key, value):
        section, name = key.split(".")
        doc = minimal_doc(**{section: {name: value}})
        with pytest.raises(ConfigError, match=rf"{re.escape(key)} must be finite"):
            parse_config(doc)

    def test_yaml_nan_knob_fails_at_load(self, tmp_path):
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(minimal_doc()) + "ppo:\n  tau: .nan\n")
        with pytest.raises(ConfigError, match="ppo.tau must be finite"):
            load_config(path)


class TestActionSpaceSection:
    def test_domains_and_ops_subset(self):
        doc = minimal_doc(
            action_space={
                "tp": [1, 2, 4],
                "ep": [1, 2, 4],
                "pp": [1, 2, 4],
                "batch": [1, 4, 16],
                "ops": ["qkv_proj", "attn_out_proj", "expert_ffn1", "expert_ffn2"],
            }
        )
        cfg = parse_config(doc)
        assert cfg.space.vector_length == 8
        assert cfg.space.size == 81 * 81

    def test_ops_all_keyword(self):
        doc = minimal_doc(action_space={"ops": "all"})
        cfg = parse_config(doc)
        assert cfg.space.num_ops == 12

    def test_default_ops_are_the_models_own_operators(self):
        doc = minimal_doc()
        doc["model"]["has_shared_expert"] = False
        cfg = parse_config(doc)
        assert cfg.space.num_ops == 10
        assert not any(name.startswith("shared_ffn") for name in cfg.space.op_names)

    def test_unknown_op_rejected(self):
        doc = minimal_doc(action_space={"ops": ["qkv_projj"]})
        with pytest.raises(ConfigError, match="qkv_projj"):
            parse_config(doc)

    def test_pins_parsed_to_axes(self):
        doc = minimal_doc(
            action_space={
                "ops": ["qkv_proj"],
                "pins": {"attn_out_proj": "dim0", "lm_head": "dim1"},
            }
        )
        cfg = parse_config(doc)
        assert ("attn_out_proj", AxisChoice.DIM0) in cfg.space.pinned
        assert ("lm_head", AxisChoice.DIM1) in cfg.space.pinned

    def test_bad_axis_name_rejected(self):
        doc = minimal_doc(
            action_space={"ops": ["qkv_proj"], "pins": {"lm_head": "dim2"}}
        )
        with pytest.raises(ConfigError, match="pins.lm_head"):
            parse_config(doc)

    def test_inadmissible_pin_fails_at_load(self, tmp_path):
        # Pinned to an axis its operator cannot take, every strategy would
        # stop at the layout gate; the config must not load.
        doc = yaml.safe_load(packaged_config_path("tiny").read_text(encoding="utf-8"))
        doc["action_space"]["pins"] = {"kv_cache_io": "dim0"}
        path = tmp_path / "pinned.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"action_space\.pins\.kv_cache_io.*dim0"):
            load_config(path)

    def test_unknown_pinned_op_rejected(self):
        doc = minimal_doc(action_space={"pins": {"mystery": "dim0"}})
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(doc)

    def test_domain_validation_propagates(self):
        doc = minimal_doc(action_space={"tp": [1, 1, 2]})
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tp", [0], "action_space.tp entries must be positive integers"),
            ("ep", [], "action_space.ep must not be empty"),
            ("pp", [2, 2], "action_space.pp entries must be unique"),
            ("batch", [1, 1], "action_space.batch entries must be unique"),
            ("ops", [], "action_space.ops must not be empty"),
            ("ops", ["lm_head", "lm_head"], "action_space.ops entries must be unique"),
            ("pins", {"lm_head": "dim1"}, "action_space.pins must not repeat"),
            ("tp", [1, "x"], "action_space.tp entries must be positive integers"),
            ("tp", [True], "action_space.tp entries must be positive integers"),
        ],
    )
    def test_space_errors_name_the_config_key(self, key, value, message):
        doc = minimal_doc(action_space={key: value})
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)


def valid_fields(cls):
    """Keyword arguments of one valid instance of each checked spec."""
    doc = minimal_doc()
    strategy = {
        "tp": 1,
        "ep": 1,
        "pp": 1,
        "batch": 1,
        "op_names": ("qkv_proj",),
        "op_dims": (AxisChoice.UNSHARDED,),
    }
    return {
        ModelSpec: doc["model"],
        HardwareSpec: doc["hardware"],
        SimulationSettings: doc["simulation"],
        SimRequest: {
            "model": ModelSpec(**doc["model"]),
            "hw": HardwareSpec(**doc["hardware"]),
            "strategy": Strategy(**strategy),
            "context_len": 256,
        },
        RewardConfig: {},
        PpoConfig: {},
        SaConfig: {},
        Strategy: strategy,
    }[cls]


# Each spec with the section its errors name; the first six are config
# sections.
SPEC_SECTIONS = (
    (ModelSpec, "model"),
    (HardwareSpec, "hardware"),
    (SimulationSettings, "simulation"),
    (RewardConfig, "reward"),
    (PpoConfig, "ppo"),
    (SaConfig, "sa"),
    (SimRequest, "simulation"),
    (Strategy, "strategy"),
)
CONFIG_SPECS = {cls for cls, _ in SPEC_SECTIONS[:6]}
NON_NEGATIVE = {
    "hardware.kernel_overhead",
    "hardware.per_collective_latency",
    "ppo.value_coef",
    "ppo.entropy_coef",
}
NEGATIVE = {"reward.invalid_penalty"}


def bad_field_values():
    """(spec, section, field, value) for each value the field rule refuses."""
    for cls, section in SPEC_SECTIONS:
        for f in dataclasses.fields(cls):
            key = f"{section}.{f.name}"
            if f.type == "bool":
                bad = [1, "yes"]
            elif f.type == "str":
                bad = [3, None]
            elif f.type in ("int", "float"):
                bad = [math.nan, math.inf, -math.inf, True] if f.type == "float" else [2.5, True]
                bad += [1] if key in NEGATIVE else [-1] if key in NON_NEGATIVE else [0, -1]
            else:
                continue
            for value in bad:
                yield pytest.param(
                    cls, section, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}"
                )


class TestFieldRule:
    """Every spec checks each field by its annotation, from code and YAML."""

    @pytest.mark.parametrize("cls, section, name, value", bad_field_values())
    def test_bad_value_names_the_key(self, cls, section, name, value):
        kwargs = {**valid_fields(cls), name: value}
        message = rf"^{re.escape(section)}\.{name} must be "
        if isinstance(value, float) and not math.isfinite(value):
            message += "finite"
        with pytest.raises(ValueError, match=message):
            cls(**kwargs)
        if cls in CONFIG_SPECS:
            doc = minimal_doc()
            doc[section] = {**doc.get(section, {}), name: value}
            with pytest.raises(ConfigError, match=message):
                parse_config(doc)

    def test_float_fields_take_integers(self):
        doc = minimal_doc()
        doc["hardware"]["kernel_overhead"] = 0
        doc["hardware"]["peak_flops"] = 10**15
        assert parse_config(doc).hardware.peak_flops == 1e15


class TestShippedConfigs:
    def test_tiny_config_is_the_oracle_instance(self):
        cfg = load_config(packaged_config_path("tiny"))
        assert cfg.space.size == 6561
        assert cfg.space.op_names == (
            "embedding",
            "qkv_proj",
            "expert_ffn1",
            "expert_ffn2",
        )
        assert cfg.hardware.device_budget == 16
        assert cfg.ppo.budget == 1000

    def test_1p2t_class_parameter_count_within_5_percent(self):
        cfg = load_config(packaged_config_path("moe_1p2t_h100"))
        total = count_parameters(cfg.model).total
        assert abs(total - 1.2e12) / 1.2e12 <= 0.05

    def test_1p6t_class_parameter_count_within_5_percent(self):
        cfg = load_config(packaged_config_path("moe_1p6t_h100"))
        total = count_parameters(cfg.model).total
        assert abs(total - 1.6e12) / 1.6e12 <= 0.05

    def test_large_configs_use_the_full_default_space(self):
        cfg = load_config(packaged_config_path("moe_1p2t_h100"))
        assert cfg.space.size == 2_005_126_893
        assert cfg.simulation.context_len == 16384

    def test_packaged_lookup_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="available"):
            packaged_config_path("nonesuch")

    def test_resolve_accepts_paths_and_names(self, tmp_path):
        by_name = resolve_config_path("tiny")
        assert by_name.name == "tiny.yaml"
        copy = tmp_path / "x.yaml"
        copy.write_text(by_name.read_text())
        assert resolve_config_path(str(copy)) == copy
        with pytest.raises(ConfigError, match="not found"):
            resolve_config_path(str(tmp_path / "missing.yaml"))


class TestYamlErrors:
    def test_invalid_yaml_reported(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: [unclosed")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(bad)

    def test_non_mapping_document_rejected(self, tmp_path):
        bad = tmp_path / "list.yaml"
        bad.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(bad)
