"""Layout propagation over the tensor-parallel group.

Activations flowing between fused operators live in one of three
distribution states over the strategy's TP group:

    replicated      every device holds the full tensor
    sharded(dim1)   the feature axis is split, one slice per device
    partial_sum     every device holds a full-shape partial term; the true
                    tensor is the elementwise sum over the group

On a one-device group every state is replicated. Each operator, given its
weight shard axis, demands one input state and yields one output state
(``_RULES``). Whenever the producer state and the consumer demand disagree,
exactly one collective reconciles them (``_RECONCILE``):

    from \\ to     replicated      sharded(dim1)
    replicated    (no-op)         no-op local slice
    sharded       all_gather      (no-op)
    partial_sum   all_reduce      reduce_scatter

Planning first resolves every operator's layouts in walk order, so an
unrealizable strategy fails before any plan record exists. It then walks the
segment once, inserts the table's collective at every disagreement, and
restores the replicated state at block boundaries where residual adds and
normalization need full activations.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import ModelSpec
from .strategy import AxisChoice, FusedOpDescriptor, OpClass, Strategy


class LayoutKind(Enum):
    REPLICATED = "replicated"
    SHARDED = "sharded(dim1)"
    PARTIAL_SUM = "partial_sum"


class CollectiveKind(str, Enum):
    NO_OP = "no_op"
    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    POINT_TO_POINT = "point_to_point"


class Interconnect(str, Enum):
    INTRA_NODE = "intra"
    INTER_NODE = "inter"


class LayoutError(ValueError):
    """Sharding choice that cannot be realized by the layout algebra."""


class CollectiveOp(NamedTuple):
    """One communication step: what moves, over how many devices, on which wire."""

    kind: CollectiveKind
    group_size: int
    payload_bytes: float
    interconnect: Interconnect
    purpose: str = ""

    def describe(self) -> str:
        return (
            f"{self.kind.value}(group={self.group_size}, "
            f"{self.payload_bytes / 1e6:.3f} MB, {self.interconnect.value})"
            + (f"  # {self.purpose}" if self.purpose else "")
        )


_R, _S, _P = LayoutKind.REPLICATED, LayoutKind.SHARDED, LayoutKind.PARTIAL_SUM
_U, _D0, _D1 = AxisChoice.UNSHARDED, AxisChoice.DIM0, AxisChoice.DIM1

# (input demanded, output yielded) per op class and admitted axis. A matmul
# split on its output axis yields sharded features; one split on its
# contraction axis must see sharded features and leaves partial terms.
# Elementwise ops take whatever arrives and pass it on (None, None).
_MATMUL = {_U: (_R, _R), _D1: (_R, _S), _D0: (_S, _P)}
_RULES = {
    OpClass.DENSE_MATMUL: _MATMUL,
    OpClass.MOE_MATMUL: _MATMUL,
    OpClass.ATTENTION_CORE: {_U: (_R, _R), _D1: (_S, _S)},
    OpClass.ROUTER: {_U: (_R, _R)},
    OpClass.ELEMENTWISE: {_U: (None, None)},
}

# (from, to) -> the one collective that turns a producer's state into a
# consumer's demand; equal states need none, and no pair ends partial_sum.
_RECONCILE = {
    (_R, _S): CollectiveKind.NO_OP,  # every device slices locally
    (_S, _R): CollectiveKind.ALL_GATHER,
    (_P, _R): CollectiveKind.ALL_REDUCE,
    (_P, _S): CollectiveKind.REDUCE_SCATTER,
}


def op_layouts(
    op: FusedOpDescriptor, axis: AxisChoice, tp: int
) -> tuple[LayoutKind | None, LayoutKind | None]:
    """(input demanded, output yielded) by ``op`` under ``axis`` on ``tp`` devices.

    None, None marks an elementwise pass-through. Raises LayoutError when the
    axis is inadmissible for the operator or its sharded extent does not
    divide evenly over the group.
    """
    if not op.admits(axis):
        raise LayoutError(f"{op.name} does not admit shard axis {axis.name}")
    demanded, yielded = _RULES[op.op_class][axis]
    if tp == 1:
        return (None, None) if demanded is None else (_R, _R)
    if axis is not _U and op.extents[axis] % tp != 0:
        raise LayoutError(
            f"{op.name} cannot shard {axis.name}: "
            f"extent {op.extents[axis]} not divisible by tp={tp}"
        )
    return demanded, yielded


class PlanStep(NamedTuple):
    """One operator instance in a layer plan with its reconciliation traffic."""

    op: FusedOpDescriptor
    axis: AxisChoice
    input_layout: LayoutKind
    output_layout: LayoutKind
    collectives_before: tuple[CollectiveOp, ...]
    tokens: float  # tokens this op processes per device group per step

    def describe(self) -> str:
        lines = [c.describe() for c in self.collectives_before]
        lines.append(
            f"{self.op.name}[{self.axis.name.lower()}]: "
            f"{self.input_layout.value} -> {self.output_layout.value}"
        )
        return "\n".join(lines)


class LayerPlan(NamedTuple):
    """Planned operator walk plus trailing boundary reconciliation."""

    steps: tuple[PlanStep, ...]
    exit_collectives: tuple[CollectiveOp, ...]

    def all_collectives(self) -> tuple[CollectiveOp, ...]:
        out: list[CollectiveOp] = []
        for step in self.steps:
            out.extend(step.collectives_before)
        out.extend(self.exit_collectives)
        return tuple(out)

    def describe(self) -> str:
        lines = [step.describe() for step in self.steps]
        lines.extend(c.describe() for c in self.exit_collectives)
        return "\n".join(lines)


class Segment(NamedTuple):
    """One operator segment in walk order, computed once per operator table.

    ``prefix`` runs linearly up to ``router``, which holds the router or
    nothing; after it, the ``routed`` expert ops and the ``shared`` others
    form two parallel branches. A segment without a router is all prefix.
    ``has_experts`` says whether any op is a routed-expert matmul, where the
    ep constraints bind.
    """

    prefix: tuple[FusedOpDescriptor, ...]
    router: tuple[FusedOpDescriptor, ...]
    routed: tuple[FusedOpDescriptor, ...]
    shared: tuple[FusedOpDescriptor, ...]
    has_experts: bool

    @classmethod
    def of(cls, ops: tuple[FusedOpDescriptor, ...]) -> Segment:
        branch_point = next(
            (i for i, op in enumerate(ops) if op.op_class is OpClass.ROUTER), len(ops)
        )
        branch = ops[branch_point + 1 :]
        return cls(
            prefix=ops[:branch_point],
            router=ops[branch_point : branch_point + 1],
            routed=tuple(op for op in branch if op.op_class is OpClass.MOE_MATMUL),
            shared=tuple(op for op in branch if op.op_class is not OpClass.MOE_MATMUL),
            has_experts=any(op.op_class is OpClass.MOE_MATMUL for op in ops),
        )


# (op, axis, input demanded, output yielded) of one operator under a strategy.
_Resolved = tuple[FusedOpDescriptor, AxisChoice, LayoutKind | None, LayoutKind | None]


def _resolve(ops: tuple[FusedOpDescriptor, ...], strategy: Strategy) -> list[_Resolved]:
    out = []
    for op in ops:
        axis = strategy.axis_of(op.name)
        out.append((op, axis, *op_layouts(op, axis, strategy.tp)))
    return out


class _Walker:
    """Mutable cursor over one operator segment: layout, width, pending comm."""

    def __init__(
        self, model: ModelSpec, tp: int, tokens: float, tp_wire: Interconnect
    ) -> None:
        self.tp = tp
        self.tokens = tokens
        self.tp_wire = tp_wire
        self.dtype = model.dtype_bytes
        self.state = _R
        self.features = model.hidden_dim
        self.pending: list[CollectiveOp] = []
        self.steps: list[PlanStep] = []

    def tensor_bytes(self) -> float:
        return self.tokens * self.features * self.dtype

    def reconcile(self, target: LayoutKind, purpose: str) -> None:
        if self.state is target:
            return
        kind = _RECONCILE[self.state, target]
        if kind is not CollectiveKind.NO_OP:
            self.pending.append(
                CollectiveOp(kind, self.tp, self.tensor_bytes(), self.tp_wire, purpose)
            )
        self.state = target

    def run_op(
        self,
        op: FusedOpDescriptor,
        axis: AxisChoice,
        demanded: LayoutKind | None,
        yielded: LayoutKind | None,
    ) -> None:
        if demanded is not None:
            self.reconcile(demanded, f"feed {op.name}")
        out = yielded or self.state
        self.steps.append(
            PlanStep(op, axis, self.state, out, tuple(self.pending), self.tokens)
        )
        self.pending = []
        self.state = out
        self.features = op.out_features


def plan_layer(
    model: ModelSpec,
    segment: Segment,
    strategy: Strategy,
    batch_tokens: int,
    node_size: int,
) -> LayerPlan:
    """Plan one pass over ``segment`` starting and ending replicated.

    The walk follows the canonical segment structure: an attention block that
    must hand a replicated activation to its residual/norm, a router feeding
    parallel routed-expert and shared-expert branches whose outputs merge by
    addition, and a trailing boundary that restores the replicated state for
    the next layer. Expert-parallel dispatch and combine appear as all_to_all
    steps around the routed branch. Raises LayoutError for unrealizable
    strategies (degree overflows first, then inadmissible axes and
    indivisible extents in walk order) before building any plan record.
    """
    tp, ep = strategy.tp, strategy.ep
    if segment.has_experts:
        # Segments without expert ops (embedding, lm head) are planned under
        # any ep; the degree constraints bind where the routed branch lives.
        if ep > model.num_experts:
            raise LayoutError(f"ep={ep} exceeds num_experts={model.num_experts}")
        if model.num_experts % ep != 0:
            raise LayoutError(f"ep={ep} does not divide num_experts={model.num_experts}")
    prefix = _resolve(segment.prefix, strategy)
    router = _resolve(segment.router, strategy)
    routed = _resolve(segment.routed, strategy)
    shared = _resolve(segment.shared, strategy)

    tp_wire = Interconnect.INTRA_NODE if tp <= node_size else Interconnect.INTER_NODE
    walker = _Walker(model, tp, float(batch_tokens), tp_wire)

    # Linear prefix: everything up to the router feeds the next op directly.
    for resolved in prefix:
        walker.run_op(*resolved)
        if resolved[0].name == "attn_out_proj":
            # Residual add and the following norm consume full activations.
            walker.reconcile(_R, "attention residual")

    if router:
        walker.run_op(*router[0])

        # Routed branch. Dispatch scatters each token to its experts across
        # the EP group; with balanced routing every device then holds
        # batch * experts_per_token / ep token slots.
        ep_wire = Interconnect.INTRA_NODE if tp * ep <= node_size else Interconnect.INTER_NODE
        routed_tokens = batch_tokens * model.experts_per_token / ep
        dispatch_bytes = routed_tokens * model.hidden_dim * model.dtype_bytes
        expert_walker = _Walker(model, tp, routed_tokens, tp_wire)
        if ep > 1:
            expert_walker.pending.append(
                CollectiveOp(
                    CollectiveKind.ALL_TO_ALL, ep, dispatch_bytes, ep_wire, "expert dispatch"
                )
            )
        for resolved in routed:
            expert_walker.run_op(*resolved)
        if ep > 1:
            expert_walker.pending.append(
                CollectiveOp(
                    CollectiveKind.ALL_TO_ALL, ep, dispatch_bytes, ep_wire, "expert combine"
                )
            )

        # Shared branch (the other ops after the router), computed from the
        # same replicated layer input.
        shared_walker = _Walker(model, tp, float(batch_tokens), tp_wire)
        for resolved in shared:
            shared_walker.run_op(*resolved)

        for branch_walker in (expert_walker, shared_walker):
            walker.steps.extend(branch_walker.steps)
            walker.pending.extend(branch_walker.pending)

        walker.features = model.hidden_dim
        if shared_walker.steps and shared_walker.state is not expert_walker.state:
            # Branch outputs add elementwise, so they must agree; replicate
            # each side before the sum when they disagree.
            for branch_walker, label in ((expert_walker, "routed"), (shared_walker, "shared")):
                walker.state = branch_walker.state
                walker.reconcile(_R, f"align {label} expert output")
        else:
            walker.state = expert_walker.state

    walker.reconcile(_R, "layer exit")
    return LayerPlan(steps=tuple(walker.steps), exit_collectives=tuple(walker.pending))
