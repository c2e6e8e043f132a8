"""Model and hardware descriptions used by the layout planner and simulator.

Both specs are plain immutable dataclasses. Validation lives in
``__post_init__`` so a bad spec fails at construction time no matter where it
came from (YAML, tests, or code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        counts = {
            "num_layers": self.num_layers,
            "hidden_dim": self.hidden_dim,
            "num_heads": self.num_heads,
            "head_dim": self.head_dim,
            "num_kv_heads": self.num_kv_heads,
            "ffn_dim": self.ffn_dim,
            "num_experts": self.num_experts,
            "experts_per_token": self.experts_per_token,
            "vocab_size": self.vocab_size,
            "dtype_bytes": self.dtype_bytes,
        }
        for field, value in counts.items():
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"model.{field} must be a positive integer, got {value!r}")
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

    @property
    def qkv_out_dim(self) -> int:
        """Fused QKV projection output width (Q heads plus K and V heads)."""
        return (self.num_heads + 2 * self.num_kv_heads) * self.head_dim


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
        rates = {
            "peak_flops": self.peak_flops,
            "hbm_bandwidth": self.hbm_bandwidth,
            "hbm_capacity": self.hbm_capacity,
            "intra_node_bw": self.intra_node_bw,
            "inter_node_bw": self.inter_node_bw,
        }
        for field, value in rates.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"hardware.{field} must be finite and positive, got {value!r}"
                )
        if not isinstance(self.node_size, int) or self.node_size < 1:
            raise ValueError(f"hardware.node_size must be a positive integer, got {self.node_size!r}")
        if not isinstance(self.device_budget, int) or self.device_budget < 1:
            raise ValueError(
                f"hardware.device_budget must be a positive integer, got {self.device_budget!r}"
            )
        for field, value in (
            ("kernel_overhead", self.kernel_overhead),
            ("per_collective_latency", self.per_collective_latency),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"hardware.{field} must be finite and non-negative, got {value!r}"
                )


@dataclass(frozen=True)
class ParameterCount:
    """Weight-count breakdown in parameters (not bytes)."""

    embedding: int
    lm_head: int
    attention: int
    router: int
    routed_experts: int
    shared_expert: int
    norms: int

    @property
    def dense(self) -> int:
        """Parameters replicated across the expert-parallel group."""
        return (
            self.embedding
            + self.lm_head
            + self.attention
            + self.router
            + self.shared_expert
            + self.norms
        )

    @property
    def total(self) -> int:
        return self.dense + self.routed_experts


def count_parameters(model: ModelSpec) -> ParameterCount:
    """Count weights exactly from the model shapes.

    Attention is one fused QKV matrix plus the output projection per layer.
    Expert MLPs are two-matrix (no gating third matmul). Norms are one scale
    and one shift per block plus the final norm, negligible but counted.
    """
    h = model.hidden_dim
    per_layer_attn = h * model.qkv_out_dim + model.num_heads * model.head_dim * h
    per_layer_router = h * model.num_experts
    per_expert = 2 * h * model.ffn_dim
    per_layer_norms = 4 * h  # two norms per block, scale and shift each
    shared = per_expert if model.has_shared_expert else 0
    return ParameterCount(
        embedding=model.vocab_size * h,
        lm_head=model.vocab_size * h,
        attention=model.num_layers * per_layer_attn,
        router=model.num_layers * per_layer_router,
        routed_experts=model.num_layers * model.num_experts * per_expert,
        shared_expert=model.num_layers * shared,
        norms=model.num_layers * per_layer_norms + h,
    )
