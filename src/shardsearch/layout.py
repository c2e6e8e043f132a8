"""Layout propagation over the tensor-parallel group.

Activations flowing between fused operators live in one of three
distribution states relative to the TP group:

    replicated    every device holds the full tensor
    sharded(d)    the tensor is split along axis d, one slice per device
    partial_sum   every device holds a full-shape partial term; the true
                  tensor is the elementwise sum over the group

Each operator, given its weight shard axis, demands a specific input state
and yields a specific output state. Whenever the producer state and the
consumer demand disagree, exactly one collective reconciles them:

    from \\ to     replicated      sharded(d)        partial_sum
    replicated    (no-op)         no-op local slice  --
    sharded(d)    all_gather      no-op / all_to_all --
    partial_sum   all_reduce      reduce_scatter     (no-op)

Planning walks a layer's operator sequence once, inserts the table's
collective at every disagreement, and restores the replicated state at block
boundaries where residual adds and normalization need full activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ModelSpec
from .strategy import AxisChoice, FusedOpDescriptor, OpClass, Strategy


class LayoutKind(Enum):
    REPLICATED = "replicated"
    SHARDED = "sharded"
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


@dataclass(frozen=True)
class TensorLayout:
    """Distribution state of one activation tensor over a device group."""

    kind: LayoutKind
    group_size: int
    axis: AxisChoice | None = None

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise LayoutError(f"group_size must be >= 1, got {self.group_size}")
        if self.kind is LayoutKind.SHARDED:
            if self.axis not in (AxisChoice.DIM0, AxisChoice.DIM1):
                raise LayoutError(f"sharded layout needs a shard axis, got {self.axis!r}")
        elif self.axis is not None:
            raise LayoutError(f"{self.kind.value} layout carries no axis")
        if self.group_size == 1 and self.kind is not LayoutKind.REPLICATED:
            raise LayoutError("group of one device can only be replicated")

    @staticmethod
    def replicated(group_size: int) -> "TensorLayout":
        return TensorLayout(LayoutKind.REPLICATED, group_size)

    @staticmethod
    def sharded(axis: AxisChoice, group_size: int) -> "TensorLayout":
        # A one-device group cannot be meaningfully sharded; collapse rather
        # than error so planning code never special-cases tp=1.
        if group_size == 1:
            return TensorLayout.replicated(1)
        return TensorLayout(LayoutKind.SHARDED, group_size, axis)

    @staticmethod
    def partial_sum(group_size: int) -> "TensorLayout":
        if group_size == 1:
            return TensorLayout.replicated(1)
        return TensorLayout(LayoutKind.PARTIAL_SUM, group_size)

    def describe(self) -> str:
        if self.kind is LayoutKind.SHARDED:
            return f"sharded(dim{int(self.axis) - 1})"
        return self.kind.value


@dataclass(frozen=True)
class CollectiveOp:
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


def transition(
    src: TensorLayout,
    dst: TensorLayout,
    payload_bytes: float,
    interconnect: Interconnect,
    purpose: str = "",
) -> CollectiveOp:
    """Single collective that converts ``src`` into ``dst``.

    ``payload_bytes`` is the size of the full logical tensor being
    reconciled. Identical layouts and replicated-to-sharded (a local slice)
    cost nothing. Replicated-to-partial_sum has no meaning and raises.
    """
    if src.group_size != dst.group_size:
        raise LayoutError(f"transition across group sizes {src.group_size} != {dst.group_size}")

    def make(kind: CollectiveKind) -> CollectiveOp:
        return CollectiveOp(kind, src.group_size, payload_bytes, interconnect, purpose)

    if src == dst:
        return make(CollectiveKind.NO_OP)
    if src.kind is LayoutKind.REPLICATED:
        if dst.kind is LayoutKind.SHARDED:
            return make(CollectiveKind.NO_OP)  # every device slices locally
        raise LayoutError("replicated -> partial_sum has no collective meaning")
    if src.kind is LayoutKind.SHARDED:
        if dst.kind is LayoutKind.REPLICATED:
            return make(CollectiveKind.ALL_GATHER)
        if dst.kind is LayoutKind.SHARDED:  # differing axes, resharding
            return make(CollectiveKind.ALL_TO_ALL)
        raise LayoutError("sharded -> partial_sum has no collective meaning")
    # src is partial_sum
    if dst.kind is LayoutKind.REPLICATED:
        return make(CollectiveKind.ALL_REDUCE)
    if dst.kind is LayoutKind.SHARDED:
        return make(CollectiveKind.REDUCE_SCATTER)
    raise LayoutError("unreachable transition")  # pragma: no cover


def _required_input(
    op: FusedOpDescriptor, axis: AxisChoice, tp: int
) -> TensorLayout | None:
    """Input state an operator demands under a shard axis; None accepts any."""
    if op.op_class is OpClass.ELEMENTWISE:
        return None
    if op.op_class is OpClass.ROUTER:
        return TensorLayout.replicated(tp)
    if op.op_class is OpClass.ATTENTION_CORE:
        if axis is AxisChoice.DIM1:
            return TensorLayout.sharded(AxisChoice.DIM1, tp)
        return TensorLayout.replicated(tp)
    # dense and MoE matmuls: contraction must see the full reduction axis
    if axis is AxisChoice.DIM0:
        return TensorLayout.sharded(AxisChoice.DIM1, tp)
    return TensorLayout.replicated(tp)


def infer_output_layout(
    op: FusedOpDescriptor,
    input_layout: TensorLayout,
    axis: AxisChoice,
) -> TensorLayout:
    """Output state produced by ``op`` under ``axis`` given a compatible input.

    Raises LayoutError when the axis is inadmissible for the operator, the
    sharded extent does not divide evenly, or the input state is not the one
    the operator demands. Reconciliation collectives are the consumer's
    business, never folded in here.
    """
    tp = input_layout.group_size
    if not op.admits(axis):
        raise LayoutError(f"{op.name} does not admit shard axis {axis.name}")
    if axis is not AxisChoice.UNSHARDED and tp > 1:
        extent = op.extents[axis]
        if extent % tp != 0:
            raise LayoutError(
                f"{op.name} cannot shard {axis.name}: extent {extent} not divisible by tp={tp}"
            )
    required = _required_input(op, axis, tp)
    if required is not None and input_layout != required:
        raise LayoutError(
            f"{op.name} with axis {axis.name} needs input {required.describe()}, "
            f"got {input_layout.describe()}"
        )
    if op.op_class is OpClass.ELEMENTWISE:
        return input_layout
    if op.op_class is OpClass.ROUTER:
        return TensorLayout.replicated(tp)
    if op.op_class is OpClass.ATTENTION_CORE:
        if axis is AxisChoice.DIM1:
            return TensorLayout.sharded(AxisChoice.DIM1, tp)
        return TensorLayout.replicated(tp)
    if axis is AxisChoice.UNSHARDED:
        return TensorLayout.replicated(tp)
    if axis is AxisChoice.DIM1:
        return TensorLayout.sharded(AxisChoice.DIM1, tp)
    return TensorLayout.partial_sum(tp)  # DIM0 contraction leaves partial terms


@dataclass(frozen=True)
class PlanStep:
    """One operator instance in a layer plan with its reconciliation traffic."""

    op: FusedOpDescriptor
    axis: AxisChoice
    input_layout: TensorLayout
    output_layout: TensorLayout
    collectives_before: tuple[CollectiveOp, ...]
    tokens: float  # tokens this op processes per device group per step

    def describe(self) -> str:
        lines = [c.describe() for c in self.collectives_before]
        lines.append(
            f"{self.op.name}[{self.axis.name.lower()}]: "
            f"{self.input_layout.describe()} -> {self.output_layout.describe()}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class LayerPlan:
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


class _Walker:
    """Mutable cursor over one operator segment: layout, width, pending comm."""

    def __init__(
        self, model: ModelSpec, strategy: Strategy, tokens: float, tp_wire: Interconnect
    ) -> None:
        self.strategy = strategy
        self.tokens = tokens
        self.tp_wire = tp_wire
        self.dtype = model.dtype_bytes
        self.state = TensorLayout.replicated(strategy.tp)
        self.features = model.hidden_dim
        self.pending: list[CollectiveOp] = []
        self.steps: list[PlanStep] = []

    def tensor_bytes(self) -> float:
        return self.tokens * self.features * self.dtype

    def reconcile(self, target: TensorLayout, purpose: str) -> None:
        if self.state == target:
            return
        coll = transition(self.state, target, self.tensor_bytes(), self.tp_wire, purpose)
        if coll.kind is not CollectiveKind.NO_OP:
            self.pending.append(coll)
        self.state = target

    def run_op(self, op: FusedOpDescriptor) -> None:
        axis = self.strategy.axis_of(op.name)
        required = _required_input(op, axis, self.strategy.tp)
        if required is not None:
            self.reconcile(required, f"feed {op.name}")
        out = infer_output_layout(op, self.state, axis)
        self.steps.append(
            PlanStep(op, axis, self.state, out, tuple(self.pending), self.tokens)
        )
        self.pending = []
        self.state = out
        self.features = op.out_features


def plan_layer(
    model: ModelSpec,
    ops: tuple[FusedOpDescriptor, ...],
    strategy: Strategy,
    batch_tokens: int,
    node_size: int,
) -> LayerPlan:
    """Plan one pass over ``ops`` starting and ending replicated.

    The walk follows the canonical segment structure: an attention block that
    must hand a replicated activation to its residual/norm, a router feeding
    parallel routed-expert and shared-expert branches whose outputs merge by
    addition, and a trailing boundary that restores the replicated state for
    the next layer. Expert-parallel dispatch and combine appear as all_to_all
    steps around the routed branch. Raises LayoutError for unrealizable
    strategies (inadmissible axes, indivisible extents, degree overflows).
    """
    tp, ep = strategy.tp, strategy.ep
    tp_wire = Interconnect.INTRA_NODE if tp <= node_size else Interconnect.INTER_NODE
    ep_wire = Interconnect.INTRA_NODE if tp * ep <= node_size else Interconnect.INTER_NODE
    if any(op.op_class is OpClass.MOE_MATMUL for op in ops):
        # Segments without expert ops (embedding, lm head) are planned under
        # any ep; the degree constraints bind where the routed branch lives.
        if ep > model.num_experts:
            raise LayoutError(f"ep={ep} exceeds num_experts={model.num_experts}")
        if model.num_experts % ep != 0:
            raise LayoutError(f"ep={ep} does not divide num_experts={model.num_experts}")

    walker = _Walker(model, strategy, float(batch_tokens), tp_wire)

    # Linear prefix: everything up to the router feeds the next op directly.
    branch_point = next(
        (i for i, op in enumerate(ops) if op.op_class is OpClass.ROUTER), len(ops)
    )
    for op in ops[:branch_point]:
        walker.run_op(op)
        if op.name == "attn_out_proj":
            # Residual add and the following norm consume full activations.
            walker.reconcile(TensorLayout.replicated(tp), "attention residual")

    if branch_point < len(ops):
        walker.run_op(ops[branch_point])
        walker.state = TensorLayout.replicated(tp)  # branch from the pre-router activation
        branch = ops[branch_point + 1 :]

        # Routed branch. Dispatch scatters each token to its experts across
        # the EP group; with balanced routing every device then holds
        # batch * experts_per_token / ep token slots.
        routed_tokens = batch_tokens * model.experts_per_token / ep
        dispatch_bytes = routed_tokens * model.hidden_dim * model.dtype_bytes
        expert_walker = _Walker(model, strategy, routed_tokens, tp_wire)
        if ep > 1:
            expert_walker.pending.append(
                CollectiveOp(
                    CollectiveKind.ALL_TO_ALL, ep, dispatch_bytes, ep_wire, "expert dispatch"
                )
            )
        for op in branch:
            if op.op_class is OpClass.MOE_MATMUL:
                expert_walker.run_op(op)
        if ep > 1:
            expert_walker.pending.append(
                CollectiveOp(
                    CollectiveKind.ALL_TO_ALL, ep, dispatch_bytes, ep_wire, "expert combine"
                )
            )

        # Shared branch (the other ops after the router), computed from the
        # same replicated layer input.
        shared_walker = _Walker(model, strategy, float(batch_tokens), tp_wire)
        for op in branch:
            if op.op_class is not OpClass.MOE_MATMUL:
                shared_walker.run_op(op)

        for branch_walker in (expert_walker, shared_walker):
            walker.steps.extend(branch_walker.steps)
            walker.pending.extend(branch_walker.pending)

        expert_state, shared_state = expert_walker.state, shared_walker.state
        hidden_bytes = batch_tokens * model.hidden_dim * model.dtype_bytes
        if shared_walker.steps and shared_state != expert_state:
            # Branch outputs add elementwise, so they must agree; replicate
            # each side before the sum when they disagree.
            for state, label in ((expert_state, "routed"), (shared_state, "shared")):
                coll = transition(
                    state,
                    TensorLayout.replicated(tp),
                    hidden_bytes,
                    tp_wire,
                    f"align {label} expert output",
                )
                if coll.kind is not CollectiveKind.NO_OP:
                    walker.pending.append(coll)
            walker.state = TensorLayout.replicated(tp)
        else:
            walker.state = expert_state
        walker.features = model.hidden_dim

    walker.reconcile(TensorLayout.replicated(tp), "layer exit")
    return LayerPlan(steps=tuple(walker.steps), exit_collectives=tuple(walker.pending))
