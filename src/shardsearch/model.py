"""Model and hardware descriptions used by the layout planner and simulator.

Both specs are plain immutable dataclasses. Validation lives in
``__post_init__`` so a bad spec fails at construction time no matter where it
came from (YAML, tests, or code). ``check_fields`` is the one field rule that
every spec of the package applies there.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import Any

_SIGNS = {"positive": operator.gt, "non-negative": operator.ge, "negative": operator.lt}


@functools.cache
def _field_rules(cls: type, non_negative: tuple[str, ...], negative: tuple[str, ...]):
    """(name, annotation, accepted types, sign test, wording) per checked field."""
    rules = []
    for f in dataclasses.fields(cls):
        sign = (
            "non-negative" if f.name in non_negative
            else "negative" if f.name in negative
            else "positive"
        )
        kinds = {
            "int": (int, _SIGNS[sign], f"a {sign} integer"),
            "float": ((int, float), _SIGNS[sign], f"finite and {sign}"),
            "bool": (bool, None, "a boolean"),
            "str": (str, None, "a string"),
        }
        if f.type in kinds:
            rules.append((f.name, f.type, *kinds[f.type]))
    return tuple(rules)


def check_fields(
    section: str,
    spec: Any,
    non_negative: tuple[str, ...] = (),
    negative: tuple[str, ...] = (),
) -> None:
    """Check each field of a dataclass instance by its annotation.

    An ``int`` field must be an integer and a ``float`` field an integer or
    float that is finite, neither a bool; both must be positive unless the
    field is named in ``non_negative`` or ``negative``. ``bool`` and ``str``
    fields must have their type; fields of any other annotation are left to
    the spec. The error names ``section.field``, the config key.
    """
    for name, kind, types, in_sign, wording in _field_rules(
        type(spec), non_negative, negative
    ):
        value = getattr(spec, name)
        if (
            not isinstance(value, types)
            or (type(value) is bool) != (kind == "bool")
            or (kind == "float" and not math.isfinite(value))
            or (in_sign is not None and not in_sign(value, 0))
        ):
            raise ValueError(f"{section}.{name} must be {wording}, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Shape description of a decoder-only MoE transformer.

    Every layer carries attention, a router, ``num_experts`` routed experts
    and, optionally, one always-on shared expert. Routed and shared expert
    MLPs both use two matrices of shape [hidden_dim, ffn_dim] and
    [ffn_dim, hidden_dim].
    """

    name: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    head_dim: int
    num_kv_heads: int
    ffn_dim: int
    num_experts: int
    experts_per_token: int
    has_shared_expert: bool
    vocab_size: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        check_fields("model", self)
        if self.num_heads * self.head_dim != self.hidden_dim:
            raise ValueError(
                f"model.num_heads * model.head_dim must equal model.hidden_dim "
                f"({self.num_heads} * {self.head_dim} != {self.hidden_dim})"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"model.num_kv_heads must divide model.num_heads "
                f"({self.num_kv_heads} does not divide {self.num_heads})"
            )
        if self.experts_per_token > self.num_experts:
            raise ValueError(
                f"model.experts_per_token must not exceed model.num_experts "
                f"({self.experts_per_token} > {self.num_experts})"
            )


@dataclass(frozen=True)
class HardwareSpec:
    """Per-device and interconnect capabilities of the target cluster.

    All rates are bytes/s or FLOP/s, all times seconds. ``intra_node_bw`` and
    ``inter_node_bw`` are per-device unidirectional collective bandwidths; a
    communication group uses the intra-node rate only while it fits inside a
    single node of ``node_size`` devices.
    """

    name: str
    peak_flops: float
    hbm_bandwidth: float
    hbm_capacity: float
    intra_node_bw: float
    inter_node_bw: float
    node_size: int
    device_budget: int
    kernel_overhead: float
    per_collective_latency: float

    def __post_init__(self) -> None:
        check_fields(
            "hardware", self, non_negative=("kernel_overhead", "per_collective_latency")
        )
