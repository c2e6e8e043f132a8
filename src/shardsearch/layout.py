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
at most one collective reconciles them (``_RECONCILE``):

    from \\ to     replicated      sharded(dim1)
    replicated    (no-op)         no-op local slice
    sharded       all_gather      (no-op)
    partial_sum   all_reduce      reduce_scatter

``Segment.resolve`` gives every operator's layouts in walk order and is
the one layout verdict: it raises LayoutError for an unrealizable strategy.
``plan_layer`` then walks a resolved segment once, inserts the table's
collective at every disagreement that needs one, and restores the replicated
state at block boundaries where residual adds and normalization need full
activations.
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


def wire(span: int, node_size: int) -> Interconnect:
    """The wire of a group spanning ``span`` devices: intra-node while it fits one node."""
    return Interconnect.INTRA_NODE if span <= node_size else Interconnect.INTER_NODE


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
# consumer's demand. Equal states need none, nor does replicated -> sharded,
# where every device slices locally; no pair ends partial_sum.
_RECONCILE = {
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
    """One operator instance in a layer plan."""

    op: FusedOpDescriptor
    axis: AxisChoice
    input_layout: LayoutKind
    output_layout: LayoutKind
    tokens: float  # tokens this op processes per device group per step

    def describe(self) -> str:
        return (
            f"{self.op.name}[{self.axis.name.lower()}]: "
            f"{self.input_layout.value} -> {self.output_layout.value}"
        )


# A layer plan: its op steps and the collectives between them, in execution order.
LayerPlan = tuple[PlanStep | CollectiveOp, ...]


# (op, axis, input demanded, output yielded) of one operator under a strategy,
# and a segment's four walk parts made of them.
_Resolved = tuple[FusedOpDescriptor, AxisChoice, LayoutKind | None, LayoutKind | None]
ResolvedSegment = tuple[list[_Resolved], ...]


class Segment(NamedTuple):
    """One operator segment in walk order, computed once per operator table.

    ``prefix`` runs linearly up to ``router``, which holds the router or
    nothing; after it, the ``routed`` expert ops and the ``shared`` others
    form two parallel branches. A segment without a router is all prefix.
    """

    prefix: tuple[FusedOpDescriptor, ...]
    router: tuple[FusedOpDescriptor, ...]
    routed: tuple[FusedOpDescriptor, ...]
    shared: tuple[FusedOpDescriptor, ...]

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
        )

    def resolve(self, strategy: Strategy) -> ResolvedSegment:
        """Every op's layouts under ``strategy`` in walk order, part by part.
        Raises LayoutError at the first inadmissible axis or indivisible extent.
        """
        tp = strategy.tp
        parts = []
        for ops in self:  # prefix, router, routed, shared
            part = []
            for op in ops:
                axis = strategy.axis_of(op.name)
                part.append((op, axis, *op_layouts(op, axis, tp)))
            parts.append(part)
        return tuple(parts)


class _Walker:
    """Mutable cursor over one operator segment: layout, width, plan so far."""

    def __init__(
        self, model: ModelSpec, tp: int, tokens: float, tp_wire: Interconnect
    ) -> None:
        self.tp = tp
        self.tokens = tokens
        self.tp_wire = tp_wire
        self.dtype = model.dtype_bytes
        self.state = _R
        self.features = model.hidden_dim
        self.plan: list[PlanStep | CollectiveOp] = []

    def reconcile(self, target: LayoutKind, purpose: str) -> None:
        kind = _RECONCILE.get((self.state, target))
        if kind is not None:
            payload = self.tokens * self.features * self.dtype
            self.plan.append(CollectiveOp(kind, self.tp, payload, self.tp_wire, purpose))
        self.state = target

    def run_op(
        self,
        op: FusedOpDescriptor,
        axis: AxisChoice,
        demanded: LayoutKind | None,
        yielded: LayoutKind | None,
    ) -> None:
        if demanded is not None and demanded is not self.state:
            self.reconcile(demanded, f"feed {op.name}")
        out = yielded or self.state
        self.plan.append(PlanStep(op, axis, self.state, out, self.tokens))
        self.state = out
        self.features = op.out_features


def plan_layer(
    model: ModelSpec, segment: ResolvedSegment, strategy: Strategy, node_size: int
) -> LayerPlan:
    """Plan one pass over a resolved ``segment`` starting and ending replicated.

    The walk follows the canonical segment structure: an attention block that
    must hand a replicated activation to its residual/norm, a router feeding
    parallel routed-expert and shared-expert branches whose outputs merge by
    addition, and a trailing boundary that restores the replicated state for
    the next layer. Expert-parallel dispatch and combine appear as all_to_all
    steps around the routed branch; the combine is placed after the shared
    branch, where the branch outputs meet. The strategy has passed every
    gate, so planning raises nothing.
    """
    prefix, router, routed, shared = segment
    tp, ep, batch = strategy.tp, strategy.ep, strategy.batch
    walker = _Walker(model, tp, float(batch), wire(tp, node_size))

    # Linear prefix: everything up to the router feeds the next op directly.
    for resolved in prefix:
        walker.run_op(*resolved)

    if router:
        # The prefix ends the attention block: its residual add and the
        # following norm consume full activations.
        walker.reconcile(_R, "attention residual")
        walker.run_op(*router[0])

        # Routed branch. Dispatch scatters each token to its experts across
        # the EP group; with balanced routing every device then holds
        # batch * experts_per_token / ep token slots.
        ep_wire = wire(tp * ep, node_size)
        routed_tokens = batch * model.experts_per_token / ep
        dispatch_bytes = routed_tokens * model.hidden_dim * model.dtype_bytes
        all_to_all = (CollectiveKind.ALL_TO_ALL, ep, dispatch_bytes, ep_wire)
        if ep > 1:
            walker.plan.append(CollectiveOp(*all_to_all, "expert dispatch"))
        # Each branch starts from the replicated layer input at full width.
        walker.state, walker.features, walker.tokens = _R, model.hidden_dim, routed_tokens
        for resolved in routed:
            walker.run_op(*resolved)
        routed_state = walker.state

        # Shared branch (the other ops after the router).
        walker.state, walker.features, walker.tokens = _R, model.hidden_dim, float(batch)
        for resolved in shared:
            walker.run_op(*resolved)
        if ep > 1:
            walker.plan.append(CollectiveOp(*all_to_all, "expert combine"))

        walker.features = model.hidden_dim
        if shared and walker.state is not routed_state:
            # Branch outputs add elementwise, so they must agree; replicate
            # each side before the sum when they disagree.
            shared_state = walker.state
            for state, label in ((routed_state, "routed"), (shared_state, "shared")):
                walker.state = state
                walker.reconcile(_R, f"align {label} expert output")
        else:
            walker.state = routed_state

    walker.reconcile(_R, "layer exit")
    return tuple(walker.plan)
