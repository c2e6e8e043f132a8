"""Roofline performance and memory model for one decode step.

Per-operator time is the classic roofline bound plus a fixed launch cost:

    op_time = max(flops / peak_flops, bytes / hbm_bandwidth) + kernel_overhead

Collectives follow the standard bandwidth-optimal ring terms with a latency
term growing with the log of the group:

    all_reduce      2 * (n-1)/n * S / bw   + latency * ceil(log2 n)
    all_gather      (n-1)/n * S / bw       + latency * ceil(log2 n)
    reduce_scatter  (n-1)/n * S / bw       + latency * ceil(log2 n)
    all_to_all      (n-1)/n * S / bw       + latency * ceil(log2 n)
    point_to_point  S / bw                 + latency

where S is the full logical tensor size in bytes and bw the per-device
bandwidth of the wire the group runs over. Groups of one device and no-ops
cost exactly zero.

The decode step of a pipeline executes every stage once, so

    tpot = sum of stage times + (pp - 1) * point_to_point(activation)

while steady-state throughput is set by the slowest stage cycle:

    tokens/s/chip = batch / max_stage_cycle / world_size
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from .layout import (
    CollectiveKind,
    CollectiveOp,
    Interconnect,
    LayerPlan,
    LayoutError,
    PlanStep,
    Segment,
    plan_layer,
)
from .model import HardwareSpec, ModelSpec, check_fields
from .strategy import (
    AxisChoice,
    CostKind,
    Strategy,
    canonical_fused_ops,
    count_parameters,
)


class InvalidReason(str, Enum):
    NONE = "none"
    OVER_DEVICE_BUDGET = "over_device_budget"
    LAYOUT_ERROR = "layout_error"
    OOM = "oom"
    SLO_VIOLATION = "slo_violation"


@dataclass(frozen=True)
class SimRequest:
    """One what-if question: a strategy on a model, hardware, and context."""

    model: ModelSpec
    hw: HardwareSpec
    strategy: Strategy
    context_len: int
    slo_tpot: float = 0.050

    def __post_init__(self) -> None:
        check_fields("simulation", self)


@dataclass(frozen=True)
class TimeBreakdown:
    """Where the decode step spends its time; parts sum exactly to tpot."""

    compute_s: float
    comm_s: float
    pipeline_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.pipeline_s


@dataclass(frozen=True)
class SimResult:
    valid: bool
    invalid_reason: InvalidReason
    # Fields a gate stops before keep their defaults.
    throughput: float = 0.0  # tokens/s/chip, the raw objective; 0 when invalid
    tpot_s: float = 0.0
    memory_bytes: float = 0.0
    breakdown: TimeBreakdown = TimeBreakdown(0.0, 0.0, 0.0)
    detail: str = ""
    # The per-layer plan that was priced; None when a gate stopped the
    # strategy before pricing.
    layer_plan: LayerPlan | None = field(default=None, compare=False, repr=False)


def op_time(flops: float, bytes_moved: float, hw: HardwareSpec) -> float:
    """Roofline bound of one kernel launch."""
    if flops < 0 or bytes_moved < 0:
        raise ValueError("flops and bytes_moved must be non-negative")
    return max(flops / hw.peak_flops, bytes_moved / hw.hbm_bandwidth) + hw.kernel_overhead


def collective_time(coll: CollectiveOp, hw: HardwareSpec) -> float:
    """Alpha-beta cost of one collective; zero for no-ops and lone devices."""
    n = coll.group_size
    if coll.kind is CollectiveKind.NO_OP or n <= 1:
        return 0.0
    bw = hw.intra_node_bw if coll.interconnect is Interconnect.INTRA_NODE else hw.inter_node_bw
    if coll.kind is CollectiveKind.POINT_TO_POINT:
        return coll.payload_bytes / bw + hw.per_collective_latency
    hops = math.ceil(math.log2(n))
    if coll.kind is CollectiveKind.ALL_REDUCE:
        volume = 2.0 * (n - 1) / n * coll.payload_bytes
    else:  # all_gather, reduce_scatter, all_to_all move the tensor once
        volume = (n - 1) / n * coll.payload_bytes
    return volume / bw + hw.per_collective_latency * hops


def _kv_share(model: ModelSpec, strategy: Strategy) -> int:
    """Ways the KV cache is split across the TP group.

    Head-sharded attention splits the cache by KV heads, capped by the head
    count (grouped-query models replicate KV once tp exceeds kv heads).
    Unsharded attention keeps a full cache replica on every device.
    """
    if strategy.axis_of("attn_core") is AxisChoice.DIM1:
        return min(strategy.tp, model.num_kv_heads)
    return 1


def memory_per_device(
    model: ModelSpec, strategy: Strategy, context_len: int, batch: int
) -> float:
    """Bytes of HBM one device needs to host its model and cache slice.

    Weights split by the degree products regardless of fine axes (a desk
    approximation; replicated compute is punished in time, not space). The
    KV cache follows the attention sharding, and a flat workspace covers
    transient activations.
    """
    counts = count_parameters(model)
    d = model.dtype_bytes
    weight_bytes = (
        counts.dense * d / strategy.tp / strategy.pp
        + counts.routed_experts * d / (strategy.ep * strategy.tp) / strategy.pp
    )
    kv_bytes = (
        2.0
        * (model.num_layers / strategy.pp)
        * (model.num_kv_heads * model.head_dim / _kv_share(model, strategy))
        * context_len
        * batch
        * d
    )
    workspace = 2.0 * batch * (model.hidden_dim + model.ffn_dim) * d
    return weight_bytes + kv_bytes + workspace


def _op_cost(
    step: PlanStep, model: ModelSpec, strategy: Strategy, context_len: int
) -> tuple[float, float]:
    """(flops, bytes) one device spends on one planned op instance.

    ``step.tokens`` is the device's token load for the op. Sharded operators
    split weights and arithmetic ``tp`` ways; unsharded operators replicate
    the full cost on every device of the TP group, which is precisely why
    leaving a large matmul unsharded hurts.
    """
    op, axis, t = step.op, step.axis, step.tokens
    d = model.dtype_bytes
    s = strategy.tp if axis is not AxisChoice.UNSHARDED else 1
    kind = op.cost

    if kind is CostKind.MATMUL or kind is CostKind.EXPERT_MATMUL:
        weight_copies = 1.0
        if kind is CostKind.EXPERT_MATMUL:
            # Every local expert whose queue is non-empty pays a full weight
            # read; with balanced routing at most one expert per token slot.
            local_experts = model.num_experts / strategy.ep
            weight_copies = min(local_experts, t) if t > 0 else 0.0
        # Weights and arithmetic split across the group; activation traffic
        # is charged at full logical shape on every device, so plans with
        # the same coarse degrees differ only through their collectives.
        in_dim, out_dim = op.in_features, op.out_features
        flops = 2.0 * t * in_dim * out_dim / s
        weight = weight_copies * in_dim * out_dim * d / s
        return flops, weight + t * (in_dim + out_dim) * d
    if kind is CostKind.LOOKUP:
        # Token lookup touches one row per token: negligible flops, row reads.
        return 0.0, 2.0 * t * op.out_features * d / s
    if kind is CostKind.KV_IO:
        share = _kv_share(model, strategy)
        return 0.0, t * 2.0 * model.num_kv_heads * model.head_dim * d / share
    if kind is CostKind.ATTENTION:
        heads_local = model.num_heads / s
        share = _kv_share(model, strategy)
        kv_read = t * context_len * 2.0 * (model.num_kv_heads / share) * model.head_dim * d
        q_io = 2.0 * t * heads_local * model.head_dim * d
        flops = 4.0 * t * heads_local * model.head_dim * context_len
        return flops, kv_read + q_io
    if kind is CostKind.NORM:
        h = op.out_features
        return 8.0 * t * h, 2.0 * t * h * d
    raise ValueError(f"no cost model for {kind} of op {op.name}")


@functools.cache
def _segments(model: ModelSpec) -> tuple[Segment, Segment, Segment]:
    """(pre, layer, post) operator segments of one decode step.

    The per-layer ops form the layer stack; the once-per-model ops before
    the first of them run on the first stage, the rest on the last.
    """
    ops = canonical_fused_ops(model)
    first = next(i for i, op in enumerate(ops) if op.per_layer)
    return (
        Segment.of(ops[:first]),
        Segment.of(tuple(op for op in ops if op.per_layer)),
        Segment.of(tuple(op for op in ops[first:] if not op.per_layer)),
    )


def _plan_times(
    plan: LayerPlan,
    model: ModelSpec,
    hw: HardwareSpec,
    strategy: Strategy,
    context_len: int,
) -> tuple[float, float]:
    """(compute seconds, communication seconds) of one plan execution."""
    compute = sum(
        op_time(*_op_cost(step, model, strategy, context_len), hw) for step in plan.steps
    )
    comm = sum(collective_time(c, hw) for c in plan.all_collectives())
    return compute, comm


def simulate(req: SimRequest) -> SimResult:
    """Score one strategy. Gates run in a fixed order so the reported
    invalid_reason is deterministic: device budget, layout, memory, then SLO.
    """
    model, hw, s = req.model, req.hw, req.strategy
    if s.world_size > hw.device_budget:
        return SimResult(
            valid=False,
            invalid_reason=InvalidReason.OVER_DEVICE_BUDGET,
            detail=f"needs {s.world_size} devices, budget is {hw.device_budget}",
        )

    pre_seg, layer_seg, post_seg = _segments(model)
    try:
        if model.num_layers % s.pp != 0:
            raise LayoutError(
                f"pp={s.pp} does not divide num_layers={model.num_layers}"
            )
        layer_plan = plan_layer(model, layer_seg, s, s.batch, hw.node_size)
        pre_plan = plan_layer(model, pre_seg, s, s.batch, hw.node_size)
        post_plan = plan_layer(model, post_seg, s, s.batch, hw.node_size)
    except LayoutError as err:
        return SimResult(
            valid=False, invalid_reason=InvalidReason.LAYOUT_ERROR, detail=str(err)
        )

    memory = memory_per_device(model, s, req.context_len, s.batch)
    if memory > hw.hbm_capacity:
        return SimResult(
            valid=False,
            invalid_reason=InvalidReason.OOM,
            memory_bytes=memory,
            detail=f"needs {memory / 1e9:.2f} GB, capacity is {hw.hbm_capacity / 1e9:.2f} GB",
        )

    layers_per_stage = model.num_layers // s.pp
    layer_c, layer_m = _plan_times(layer_plan, model, hw, s, req.context_len)
    pre_c, pre_m = _plan_times(pre_plan, model, hw, s, req.context_len)
    post_c, post_m = _plan_times(post_plan, model, hw, s, req.context_len)

    hop_s = 0.0
    if s.pp > 1:
        hop_wire = (
            Interconnect.INTRA_NODE if s.world_size <= hw.node_size else Interconnect.INTER_NODE
        )
        hop = CollectiveOp(
            CollectiveKind.POINT_TO_POINT,
            group_size=2,
            payload_bytes=s.batch * model.hidden_dim * model.dtype_bytes,
            interconnect=hop_wire,
            purpose="stage handoff",
        )
        hop_s = collective_time(hop, hw)

    compute_s = model.num_layers * layer_c + pre_c + post_c
    comm_s = model.num_layers * layer_m + pre_m + post_m
    pipeline_s = (s.pp - 1) * hop_s
    breakdown = TimeBreakdown(compute_s, comm_s, pipeline_s)
    tpot = breakdown.total_s

    # Slowest stage cycle bounds steady-state throughput. The first stage
    # carries the embedding, the last the head; senders absorb their hop.
    stage_body = layers_per_stage * (layer_c + layer_m)
    cycles = []
    for stage in range(s.pp):
        cycle = stage_body
        if stage == 0:
            cycle += pre_c + pre_m
        if stage == s.pp - 1:
            cycle += post_c + post_m
        else:
            cycle += hop_s
        cycles.append(cycle)
    max_cycle = max(cycles)
    throughput = s.batch / max_cycle / s.world_size

    if tpot > req.slo_tpot:
        return SimResult(
            valid=False,
            invalid_reason=InvalidReason.SLO_VIOLATION,
            tpot_s=tpot,
            memory_bytes=memory,
            breakdown=breakdown,
            detail=f"tpot {tpot * 1e3:.2f} ms exceeds SLO {req.slo_tpot * 1e3:.2f} ms",
            layer_plan=layer_plan,
        )

    return SimResult(
        valid=True,
        invalid_reason=InvalidReason.NONE,
        throughput=throughput,
        tpot_s=tpot,
        memory_bytes=memory,
        breakdown=breakdown,
        layer_plan=layer_plan,
    )


def explain(req: SimRequest) -> str:
    """Human-readable account of one strategy: verdict, plan, and times."""
    s = req.strategy
    result = simulate(req)
    lines = [
        f"strategy: tp={s.tp} ep={s.ep} pp={s.pp} batch={s.batch} "
        f"world_size={s.world_size}",
        "fine dims: "
        + " ".join(f"{n}={a.name.lower()}" for n, a in zip(s.op_names, s.op_dims)),
        f"valid: {result.valid}"
        + (f" ({result.invalid_reason.value}: {result.detail})" if not result.valid else ""),
    ]
    if result.invalid_reason in (InvalidReason.OVER_DEVICE_BUDGET, InvalidReason.LAYOUT_ERROR):
        return "\n".join(lines)
    lines.append(f"memory per device: {result.memory_bytes / 1e9:.3f} GB")
    if result.invalid_reason is InvalidReason.OOM:
        return "\n".join(lines)
    lines.append(f"tpot: {result.tpot_s * 1e3:.4f} ms")
    lines.append(
        f"breakdown: compute {result.breakdown.compute_s * 1e3:.4f} ms, "
        f"comm {result.breakdown.comm_s * 1e3:.4f} ms, "
        f"pipeline {result.breakdown.pipeline_s * 1e3:.4f} ms"
    )
    if result.valid:
        lines.append(f"throughput: {result.throughput:.4f} tokens/s/chip")
    lines.append("per-layer plan:")
    lines.extend("  " + ln for ln in result.layer_plan.describe().splitlines())
    return "\n".join(lines)
