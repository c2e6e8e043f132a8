"""Strategy space: coarse parallelism degrees plus per-operator shard axes.

The operator table (``canonical_fused_ops``) holds every per-operator fact
in one row: layout class, cost kind, feature widths, the extent of each
admissible shard axis and the Megatron reference axis. The model's weight
count (``count_parameters``) is summed from it.

A deployment strategy is the tuple (tp, ep, pp, batch) together with one
shard-axis choice per fused operator. Strategies round-trip losslessly
through a flat integer index vector, which is the representation consumed by
the search algorithms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Mapping

from .model import ModelSpec, check_fields


class AxisChoice(IntEnum):
    """Weight shard axis for one operator.

    UNSHARDED replicates the operator on every device of the tensor-parallel
    group. DIM0 shards the weight's first (contraction) axis, DIM1 the second
    (output) axis. Index values are the wire encoding, so UNSHARDED must stay
    at 0: the all-zeros vector is the trivial single-device strategy.
    """

    UNSHARDED = 0
    DIM0 = 1
    DIM1 = 2


# The one spelling of axis names in configs, flags and printed plans.
AXIS_BY_NAME = {axis.name.lower(): axis for axis in AxisChoice}
# Members by wire index, so decoding indexes a tuple instead of calling the enum.
_AXES = tuple(AxisChoice)


class OpClass(IntEnum):
    """Operator families the layout planner knows how to propagate."""

    DENSE_MATMUL = 0
    MOE_MATMUL = 1
    ATTENTION_CORE = 2
    ROUTER = 3
    ELEMENTWISE = 4


class CostKind(Enum):
    """Which roofline formula the simulator prices an operator with."""

    MATMUL = "matmul"  # weights [in, out], split tp ways when sharded
    EXPERT_MATMUL = "expert_matmul"  # one weight read per busy local expert
    LOOKUP = "lookup"  # embedding row reads, no arithmetic
    KV_IO = "kv_io"  # KV cache append
    ATTENTION = "attention"  # score and mix against the cached context
    NORM = "norm"


@dataclass(frozen=True)
class FusedOpDescriptor:
    """One fused operator of the per-token decode graph, sized for one model.

    ``extents`` maps each shard axis the operator admits to the size of the
    dimension it splits over the tensor-parallel group (attention splits at
    head granularity, matmuls at element granularity); UNSHARDED is always
    admitted and never listed. ``in_features`` and ``out_features`` are the
    activation widths per token before and after the operator.
    ``megatron_axis`` is the operator's axis in the textbook 1-D
    tensor-parallel layout, None when it has none. Operators with
    per_layer=True occur once per transformer layer, the rest once per model.
    """

    name: str
    op_class: OpClass
    cost: CostKind
    per_layer: bool
    in_features: int
    out_features: int
    extents: Mapping[AxisChoice, int]
    megatron_axis: AxisChoice | None = None

    def admits(self, axis: AxisChoice) -> bool:
        return axis is AxisChoice.UNSHARDED or axis in self.extents


_U, _D0, _D1 = AxisChoice.UNSHARDED, AxisChoice.DIM0, AxisChoice.DIM1
_DENSE, _MOE, _ATTN = OpClass.DENSE_MATMUL, OpClass.MOE_MATMUL, OpClass.ATTENTION_CORE
_ROUTER, _ELEM = OpClass.ROUTER, OpClass.ELEMENTWISE

# Canonical fused-operator table of one decode step. Order matters: the
# planner walks it as the dataflow order within a layer, with the four
# non-per-layer ops forming the pre/post segments around the layer stack.
# Widths and extents are symbols that canonical_fused_ops resolves per model.
# The Megatron column is the classic 1-D tensor-parallel hand layout: project
# QKV and the first FFN matrix on their output axes, contract the following
# matmul on its input axis so each block ends in a partial sum, and gather
# logits from a vocab-split LM head. Everything token-routing or
# normalization related stays replicated.
_OP_TABLE = (
    # name           class    cost                    layer  in      out        extents                    megatron
    ("embedding",     _DENSE,  CostKind.LOOKUP,        False, "vocab", "h",       {_D0: "vocab", _D1: "h"},  _U),
    ("qkv_proj",      _DENSE,  CostKind.MATMUL,        True,  "h",     "qkv",     {_D0: "h", _D1: "heads"},  _D1),
    ("kv_cache_io",   _ELEM,   CostKind.KV_IO,         True,  "qkv",   "qkv",     {},                        _U),
    ("attn_core",     _ATTN,   CostKind.ATTENTION,     True,  "qkv",   "attn",    {_D1: "heads"},            _D1),
    ("attn_out_proj", _DENSE,  CostKind.MATMUL,        True,  "attn",  "h",       {_D0: "heads", _D1: "h"},  _D0),
    ("router_gate",   _ROUTER, CostKind.MATMUL,        True,  "h",     "experts", {},                        _U),
    ("expert_ffn1",   _MOE,    CostKind.EXPERT_MATMUL, True,  "h",     "ffn",     {_D0: "h", _D1: "ffn"},    _D1),
    ("expert_ffn2",   _MOE,    CostKind.EXPERT_MATMUL, True,  "ffn",   "h",       {_D0: "ffn", _D1: "h"},    _D0),
    ("shared_ffn1",   _DENSE,  CostKind.MATMUL,        True,  "h",     "ffn",     {_D0: "h", _D1: "ffn"},    _D1),
    ("shared_ffn2",   _DENSE,  CostKind.MATMUL,        True,  "ffn",   "h",       {_D0: "ffn", _D1: "h"},    _D0),
    ("final_norm",    _ELEM,   CostKind.NORM,          False, "h",     "h",       {},                        _U),
    ("lm_head",       _DENSE,  CostKind.MATMUL,        False, "h",     "vocab",   {_D0: "h", _D1: "vocab"},  _D1),
)

@functools.cache
def canonical_fused_ops(model: ModelSpec) -> tuple[FusedOpDescriptor, ...]:
    """Fused-operator table for one decode step of ``model``, built once.

    Models without a shared expert drop the shared_ffn pair; everything else
    is always present.
    """
    width = {
        "h": model.hidden_dim,
        "qkv": (model.num_heads + 2 * model.num_kv_heads) * model.head_dim,
        "attn": model.num_heads * model.head_dim,
        "heads": model.num_heads,
        "experts": model.num_experts,
        "ffn": model.ffn_dim,
        "vocab": model.vocab_size,
    }
    rows = (r for r in _OP_TABLE if model.has_shared_expert or not r[0].startswith("shared_ffn"))
    return tuple(
        FusedOpDescriptor(
            name,
            op_class,
            cost,
            per_layer,
            width[w_in],
            width[w_out],
            {axis: width[extent] for axis, extent in extents.items()},
            megatron,
        )
        for name, op_class, cost, per_layer, w_in, w_out, extents, megatron in rows
    )


@dataclass(frozen=True)
class ParameterCount:
    """Weight count in parameters (not bytes)."""

    dense: int  # replicated across the expert-parallel group
    routed_experts: int

    @property
    def total(self) -> int:
        return self.dense + self.routed_experts


@functools.cache
def count_parameters(model: ModelSpec) -> ParameterCount:
    """Weights of ``model`` summed over its operator table, counted once.

    MATMUL and LOOKUP rows hold one [in, out] matrix, EXPERT_MATMUL rows one
    per routed expert and the NORM row a scale per feature; per-layer rows
    count once per layer. The two norms of each layer, a scale and a shift
    each, are not in the decode graph and are added on top.
    """
    dense = routed = 0
    for op in canonical_fused_ops(model):
        if op.cost is CostKind.NORM:
            size = op.out_features
        elif op.cost in (CostKind.MATMUL, CostKind.LOOKUP, CostKind.EXPERT_MATMUL):
            size = op.in_features * op.out_features
        else:
            continue  # KV cache traffic and attention scores hold no weights
        if op.per_layer:
            size *= model.num_layers
        if op.cost is CostKind.EXPERT_MATMUL:
            routed += size * model.num_experts
        else:
            dense += size
    return ParameterCount(dense + 4 * model.hidden_dim * model.num_layers, routed)


# Power-of-two degree ladders. Batch extends to 1024 because decode
# throughput keeps improving with batch until KV cache or latency kills it.
DEFAULT_DEGREE_DOMAIN = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_BATCH_DOMAIN = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class EncodingError(ValueError):
    """Strategy component not present in its action-space domain."""


class DecodingError(ValueError):
    """Index vector malformed or out of range for the action space."""


@dataclass(frozen=True)
class ActionSpaceSpec:
    """Search domains for every sub-action.

    ``op_names`` are the operators the searcher controls, in head order;
    ``pinned`` fixes the remaining operators to constant axes (anything not
    listed is pinned UNSHARDED). Axis heads always have exactly
    ``DIM_CHOICES`` alternatives, admissible or not: picking an axis the
    operator does not admit yields an invalid strategy, not an encoding error.
    """

    tp_domain: tuple[int, ...] = DEFAULT_DEGREE_DOMAIN
    ep_domain: tuple[int, ...] = DEFAULT_DEGREE_DOMAIN
    pp_domain: tuple[int, ...] = DEFAULT_DEGREE_DOMAIN
    batch_domain: tuple[int, ...] = DEFAULT_BATCH_DOMAIN
    op_names: tuple[str, ...] = tuple(row[0] for row in _OP_TABLE)
    pinned: tuple[tuple[str, AxisChoice], ...] = ()

    DIM_CHOICES = 3

    def __post_init__(self) -> None:
        # Errors name the config keys of the action_space section.
        for key, domain in (
            ("tp", self.tp_domain),
            ("ep", self.ep_domain),
            ("pp", self.pp_domain),
            ("batch", self.batch_domain),
        ):
            if len(domain) == 0:
                raise ValueError(f"action_space.{key} must not be empty")
            if any(type(v) is bool or not isinstance(v, int) or v < 1 for v in domain):
                raise ValueError(f"action_space.{key} entries must be positive integers")
            if len(set(domain)) != len(domain):
                raise ValueError(f"action_space.{key} entries must be unique")
        if len(self.op_names) == 0:
            raise ValueError("action_space.ops must not be empty")
        if len(set(self.op_names)) != len(self.op_names):
            raise ValueError("action_space.ops entries must be unique")
        pinned_names = [name for name, _ in self.pinned]
        if len(set(pinned_names)) != len(pinned_names):
            raise ValueError("action_space.pins entries must be unique")
        overlap = set(pinned_names) & set(self.op_names)
        if overlap:
            raise ValueError(f"action_space.pins must not repeat controlled ops: {sorted(overlap)}")

    @property
    def num_ops(self) -> int:
        return len(self.op_names)

    @property
    def vector_length(self) -> int:
        """Length of the flat index encoding: four coarse heads plus one per op."""
        return 4 + self.num_ops

    @functools.cached_property
    def head_sizes(self) -> tuple[int, ...]:
        """Domain size per sub-action head, in encoding order, computed once
        per instance (``dataclasses.replace`` makes a new one)."""
        return (
            len(self.tp_domain),
            len(self.ep_domain),
            len(self.pp_domain),
            len(self.batch_domain),
        ) + (self.DIM_CHOICES,) * self.num_ops

    @property
    def size(self) -> int:
        """Total number of encodable strategies."""
        n = 1
        for k in self.head_sizes:
            n *= k
        return n


def check_space(space: ActionSpaceSpec, model: ModelSpec) -> None:
    """Refuses a space that names an operator ``model`` lacks or pins one to
    an axis it does not admit; errors name the action_space config keys."""
    op_by_name = {op.name: op for op in canonical_fused_ops(model)}
    known = list(op_by_name)
    for name in space.op_names:
        if name not in op_by_name:
            raise ValueError(f"action_space.ops names unknown operator '{name}'; known: {known}")
    for name, axis in space.pinned:
        if name not in op_by_name:
            raise ValueError(f"action_space.pins names unknown operator '{name}'; known: {known}")
        if not op_by_name[name].admits(axis):
            raise ValueError(
                f"action_space.pins.{name}: {name} does not admit shard axis '{axis.name.lower()}'"
            )


@dataclass(frozen=True)
class Strategy:
    """One fully specified deployment: coarse degrees plus per-op axes.

    ``op_dims`` aligns with ``op_names``; operators outside that list take
    their axis from ``pinned_dims`` and default to UNSHARDED. A Strategy is
    self-describing so the simulator never needs the action space back.
    """

    tp: int
    ep: int
    pp: int
    batch: int
    op_names: tuple[str, ...]
    op_dims: tuple[AxisChoice, ...]
    pinned_dims: tuple[tuple[str, AxisChoice], ...] = field(default=())

    def __post_init__(self) -> None:
        check_fields("strategy", self)
        if len(self.op_dims) != len(self.op_names):
            raise ValueError(
                f"strategy.op_dims length {len(self.op_dims)} != op_names length {len(self.op_names)}"
            )

    @property
    def world_size(self) -> int:
        """Devices consumed by the deployment (batch is free, degrees are not)."""
        return self.tp * self.ep * self.pp

    def axis_of(self, op_name: str) -> AxisChoice:
        """Shard axis assigned to ``op_name``, following pins for uncontrolled ops."""
        # A membership test, not a caught ValueError from ``index``: raising
        # costs several times a scan of these short tuples.
        if op_name in self.op_names:
            return self.op_dims[self.op_names.index(op_name)]
        for name, axis in self.pinned_dims:
            if name == op_name:
                return axis
        return AxisChoice.UNSHARDED


def encode_strategy(strategy: Strategy, space: ActionSpaceSpec) -> tuple[int, ...]:
    """Flatten a strategy into its index vector under ``space``.

    Raises EncodingError when any component value is not in its domain or the
    op lists disagree.
    """
    if strategy.op_names != space.op_names:
        raise EncodingError(
            f"strategy op_names {strategy.op_names} do not match action space {space.op_names}"
        )
    indices = []
    for label, value, domain in (
        ("tp", strategy.tp, space.tp_domain),
        ("ep", strategy.ep, space.ep_domain),
        ("pp", strategy.pp, space.pp_domain),
        ("batch", strategy.batch, space.batch_domain),
    ):
        try:
            indices.append(domain.index(value))
        except ValueError:
            allowed = ", ".join(str(v) for v in domain)
            raise EncodingError(
                f"{label}={value} is not in the configured domain; allowed: {allowed}"
            ) from None
    indices.extend(int(axis) for axis in strategy.op_dims)
    return tuple(indices)


def decode_strategy(vector: tuple[int, ...], space: ActionSpaceSpec) -> Strategy:
    """Inverse of encode_strategy. Raises DecodingError on malformed vectors."""
    if len(vector) != space.vector_length:
        raise DecodingError(
            f"index vector has length {len(vector)}, expected {space.vector_length}"
        )
    sizes = space.head_sizes
    for pos, (idx, size) in enumerate(zip(vector, sizes)):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < size:
            raise DecodingError(f"index {idx!r} at position {pos} out of range [0, {size})")
    return Strategy(
        tp=space.tp_domain[vector[0]],
        ep=space.ep_domain[vector[1]],
        pp=space.pp_domain[vector[2]],
        batch=space.batch_domain[vector[3]],
        op_names=space.op_names,
        op_dims=tuple(_AXES[idx] for idx in vector[4:]),
        pinned_dims=space.pinned,
    )


def megatron_fine_dims(ops: tuple[FusedOpDescriptor, ...]) -> tuple[AxisChoice, ...]:
    """Reference per-op axes of the textbook 1-D tensor-parallel layout.

    An operator without a reference axis is an error, so it cannot silently
    be pinned UNSHARDED.
    """
    missing = [op.name for op in ops if op.megatron_axis is None]
    if missing:
        raise ValueError(f"no reference axis for ops: {missing}")
    return tuple(op.megatron_axis for op in ops)
