"""Layout algebra and layer planning golden traces."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from shardsearch import layout
from shardsearch.config import load_config, packaged_config_path
from shardsearch.layout import (
    CollectiveKind,
    Interconnect,
    LayoutError,
    LayoutKind,
    Segment,
    op_layouts,
    plan_layer,
)
from shardsearch.model import ModelSpec
from shardsearch.simulator import InvalidReason, SimRequest, simulate
from shardsearch.strategy import (
    AxisChoice,
    OpClass,
    Strategy,
    canonical_fused_ops,
    megatron_fine_dims,
)

def small_model(**overrides):
    base = dict(
        name="unit",
        num_layers=4,
        hidden_dim=256,
        num_heads=8,
        head_dim=32,
        num_kv_heads=4,
        ffn_dim=128,
        num_experts=8,
        experts_per_token=2,
        has_shared_expert=True,
        vocab_size=4096,
        dtype_bytes=2,
    )
    base.update(overrides)
    return ModelSpec(**base)


def make_strategy(model, tp=4, ep=1, pp=1, batch=8, overrides=None):
    ops = canonical_fused_ops(model)
    dims = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    dims.update(overrides or {})
    return Strategy(
        tp, ep, pp, batch,
        op_names=tuple(op.name for op in ops),
        op_dims=tuple(dims[op.name] for op in ops),
    )


def layer_segment(model):
    return Segment.of(tuple(op for op in canonical_fused_ops(model) if op.per_layer))


def kinds(plan):
    return Counter(c.kind for c in plan.all_collectives())


R, S, P = LayoutKind.REPLICATED, LayoutKind.SHARDED, LayoutKind.PARTIAL_SUM


def plan_with(model, tp=4, **axes):
    s = make_strategy(model, tp=tp, overrides=axes)
    return plan_layer(model, layer_segment(model), s, batch_tokens=8, node_size=8)


def steps_of(plan):
    return {step.op.name: step for step in plan.steps}


class TestTransitionTable:
    def setup_method(self):
        self.model = small_model()

    def test_exhaustive_pairs(self):
        # Each (from, to) pair of the reconcile table, reached in a plan.
        u, d0, d1 = AxisChoice.UNSHARDED, AxisChoice.DIM0, AxisChoice.DIM1
        # partial_sum -> replicated and sharded -> replicated at the residual.
        for out_axis, kind in ((d0, CollectiveKind.ALL_REDUCE), (d1, CollectiveKind.ALL_GATHER)):
            step = steps_of(plan_with(self.model, attn_out_proj=out_axis))["router_gate"]
            assert [(c.kind, c.purpose) for c in step.collectives_before] == [
                (kind, "attention residual")
            ]
        # replicated -> sharded is a local slice; partial_sum -> sharded
        # reduce-scatters into the head-sharded attention core.
        steps = steps_of(plan_with(self.model, qkv_proj=d0, attn_core=d1, attn_out_proj=u))
        assert steps["qkv_proj"].input_layout is S
        assert steps["qkv_proj"].collectives_before == ()
        assert steps["kv_cache_io"].output_layout is P
        assert [c.kind for c in steps["attn_core"].collectives_before] == [
            CollectiveKind.REDUCE_SCATTER
        ]

    def test_single_device_group_collapses_to_replicated(self):
        for op in canonical_fused_ops(self.model):
            for axis in AxisChoice:
                if op.admits(axis):
                    assert op_layouts(op, axis, 1) in ((R, R), (None, None)), (op.name, axis)

    def test_minimality_cost_ordering(self):
        # The table picks the one-collective reconciliation; sanity-check the
        # cheap direction: a gather moves half of what an all_reduce moves.
        from shardsearch.model import HardwareSpec
        from shardsearch.simulator import collective_time

        hw = HardwareSpec(
            name="t", peak_flops=1e15, hbm_bandwidth=3e12, hbm_capacity=8e10,
            intra_node_bw=4.5e11, inter_node_bw=5e10, node_size=8,
            device_budget=24000, kernel_overhead=0.0, per_collective_latency=0.0,
        )
        (gather,) = steps_of(
            plan_with(self.model, attn_out_proj=AxisChoice.DIM1)
        )["router_gate"].collectives_before
        (reduce,) = steps_of(
            plan_with(self.model, attn_out_proj=AxisChoice.DIM0)
        )["router_gate"].collectives_before
        assert gather.payload_bytes == reduce.payload_bytes
        assert collective_time(gather, hw) * 2 == collective_time(reduce, hw)


class TestInferOutputLayout:
    """The rule table: (input demanded, output yielded) per op and axis."""

    def setup_method(self):
        self.model = small_model()
        ops = canonical_fused_ops(self.model)
        self.by_name = {op.name: op for op in ops}

    def rule(self, name, axis, tp=4):
        return op_layouts(self.by_name[name], axis, tp)

    def test_dense_dim1_from_replicated_is_sharded(self):
        assert self.rule("qkv_proj", AxisChoice.DIM1) == (R, S)

    def test_dense_dim0_from_feature_sharded_is_partial(self):
        assert self.rule("attn_out_proj", AxisChoice.DIM0) == (S, P)

    def test_dense_unsharded_needs_replicated(self):
        assert self.rule("qkv_proj", AxisChoice.UNSHARDED) == (R, R)

    def test_expert_matmuls_follow_the_dense_rules(self):
        assert self.rule("expert_ffn1", AxisChoice.UNSHARDED) == (R, R)
        assert self.rule("expert_ffn1", AxisChoice.DIM1) == (R, S)
        assert self.rule("expert_ffn2", AxisChoice.DIM0) == (S, P)

    def test_attention_core_keeps_heads_where_they_are(self):
        assert self.rule("attn_core", AxisChoice.UNSHARDED) == (R, R)
        assert self.rule("attn_core", AxisChoice.DIM1) == (S, S)

    def test_router_reads_and_yields_replicated(self):
        assert self.rule("router_gate", AxisChoice.UNSHARDED) == (R, R)

    def test_attention_core_rejects_dim0(self):
        with pytest.raises(LayoutError, match="attn_core does not admit shard axis DIM0"):
            self.rule("attn_core", AxisChoice.DIM0)

    def test_elementwise_preserves_any_layout(self):
        assert self.rule("kv_cache_io", AxisChoice.UNSHARDED) == (None, None)
        for qkv_axis, state in ((AxisChoice.UNSHARDED, R), (AxisChoice.DIM1, S), (AxisChoice.DIM0, P)):
            step = steps_of(plan_with(self.model, qkv_proj=qkv_axis))["kv_cache_io"]
            assert (step.input_layout, step.output_layout) == (state, state)
            assert step.collectives_before == ()

    def test_extent_divisibility_enforced(self):
        # 8 query heads cannot split 16 ways.
        with pytest.raises(
            LayoutError, match="qkv_proj cannot shard DIM1: extent 8 not divisible by tp=16"
        ):
            self.rule("qkv_proj", AxisChoice.DIM1, tp=16)


class TestLayerPlans:
    def setup_method(self):
        self.model = small_model()
        self.segment = layer_segment(self.model)

    def test_megatron_layer_has_exactly_two_all_reduces(self):
        s = make_strategy(self.model, tp=4)
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        counts = kinds(plan)
        assert counts[CollectiveKind.ALL_REDUCE] == 2
        assert set(counts) == {CollectiveKind.ALL_REDUCE}
        # One reconciles the attention block, one the merged expert output.
        purposes = [c.purpose for c in plan.all_collectives()]
        assert any("attention" in p for p in purposes)
        assert any("exit" in p for p in purposes)

    def test_hidden_sharded_ffn2_swaps_reduce_for_gathers(self):
        s = make_strategy(
            self.model, tp=4,
            overrides={"expert_ffn2": AxisChoice.DIM1, "shared_ffn2": AxisChoice.DIM1},
        )
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        steps = {step.op.name: step for step in plan.steps}
        between = steps["expert_ffn2"].collectives_before
        assert [c.kind for c in between] == [CollectiveKind.ALL_GATHER]
        # The MLP section now communicates only through gathers: the single
        # remaining all_reduce belongs to the attention block.
        mlp_names = {"router_gate", "expert_ffn1", "expert_ffn2", "shared_ffn1", "shared_ffn2"}
        mlp_collectives = [
            c
            for name in mlp_names
            for c in steps[name].collectives_before
            if "attention" not in c.purpose
        ] + list(plan.exit_collectives)
        assert mlp_collectives
        assert all(c.kind is CollectiveKind.ALL_GATHER for c in mlp_collectives)

    def test_tensor_parallel_one_plans_no_communication(self):
        s = make_strategy(self.model, tp=1)
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        assert plan.all_collectives() == ()

    def test_expert_parallel_adds_dispatch_and_combine(self):
        s = make_strategy(self.model, tp=1, ep=4)
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        a2a = [c for c in plan.all_collectives() if c.kind is CollectiveKind.ALL_TO_ALL]
        assert len(a2a) == 2
        assert {c.purpose for c in a2a} == {"expert dispatch", "expert combine"}
        assert all(c.group_size == 4 for c in a2a)
        # Balanced routing: batch * top_k / ep tokens of hidden width each way.
        expected = 8 * 2 / 4 * 256 * 2
        assert all(c.payload_bytes == expected for c in a2a)

    def test_expert_parallel_beyond_expert_count_fails(self):
        s = make_strategy(self.model, tp=1, ep=16)
        with pytest.raises(LayoutError, match="exceeds num_experts"):
            plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)

    def test_unsharded_everything_plans_no_tensor_collectives(self):
        s = make_strategy(self.model, tp=4)
        s = dataclasses.replace(s, op_dims=tuple(AxisChoice.UNSHARDED for _ in s.op_dims))
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        assert plan.all_collectives() == ()

    def test_interconnect_follows_group_span(self):
        wide = make_strategy(self.model, tp=4, ep=4)
        plan = plan_layer(self.model, self.segment, wide, batch_tokens=8, node_size=8)
        a2a = [c for c in plan.all_collectives() if c.kind is CollectiveKind.ALL_TO_ALL]
        assert all(c.interconnect is Interconnect.INTER_NODE for c in a2a)
        narrow = make_strategy(self.model, tp=2, ep=4)
        plan = plan_layer(self.model, self.segment, narrow, batch_tokens=8, node_size=8)
        a2a = [c for c in plan.all_collectives() if c.kind is CollectiveKind.ALL_TO_ALL]
        assert all(c.interconnect is Interconnect.INTRA_NODE for c in a2a)

    def test_planning_is_pure_and_deterministic(self):
        s = make_strategy(self.model, tp=4, ep=2)
        first = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        second = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        assert first == second

    def test_mixed_branch_layouts_align_before_merge(self):
        # Routed pair ends partial_sum, shared pair ends sharded: both must
        # be replicated before the add. The shared branch also gathers
        # internally because its second matmul contracts over full features.
        s = make_strategy(self.model, tp=4, overrides={"shared_ffn2": AxisChoice.DIM1})
        plan = plan_layer(self.model, self.segment, s, batch_tokens=8, node_size=8)
        counts = kinds(plan)
        assert counts[CollectiveKind.ALL_REDUCE] == 2  # attention + routed align
        assert counts[CollectiveKind.ALL_GATHER] == 2  # shared internal + align


def reference_layout_verdict(model, strategy):
    """Text of the first LayoutError of the simulator's gate, None when none.

    Kept as the walk the planner must reproduce: the pp check, then for the
    layer, pre and post segments in turn the ep checks (where expert ops
    live) and every op's layouts over the prefix, the router, the routed
    expert ops and the shared ops.
    """
    if model.num_layers % strategy.pp != 0:
        return f"pp={strategy.pp} does not divide num_layers={model.num_layers}"
    ops = canonical_fused_ops(model)
    first = next(i for i, op in enumerate(ops) if op.per_layer)
    segments = (
        [op for op in ops if op.per_layer],
        list(ops[:first]),
        [op for op in ops[first:] if not op.per_layer],
    )
    for seg in segments:
        if any(op.op_class is OpClass.MOE_MATMUL for op in seg):
            if strategy.ep > model.num_experts:
                return f"ep={strategy.ep} exceeds num_experts={model.num_experts}"
            if model.num_experts % strategy.ep != 0:
                return f"ep={strategy.ep} does not divide num_experts={model.num_experts}"
        split = next(
            (i for i, op in enumerate(seg) if op.op_class is OpClass.ROUTER), len(seg)
        )
        after = seg[split + 1 :]
        walk = (
            seg[: split + 1]
            + [op for op in after if op.op_class is OpClass.MOE_MATMUL]
            + [op for op in after if op.op_class is not OpClass.MOE_MATMUL]
        )
        for op in walk:
            try:
                op_layouts(op, strategy.axis_of(op.name), strategy.tp)
            except LayoutError as err:
                return str(err)
    return None


class TestGateOrder:
    @pytest.mark.parametrize("config", ["moe_1p2t_h100", "moe_1p6t_h100", "tiny"])
    def test_layout_verdict_follows_the_reference_walk(self, config):
        cfg = load_config(packaged_config_path(config))
        model = cfg.model
        hw = dataclasses.replace(cfg.hardware, device_budget=1 << 40)
        ops = canonical_fused_ops(model)
        rng = np.random.default_rng(20261019)
        degrees = (1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256, 512)
        axes = tuple(AxisChoice)
        verdicts = Counter()
        for trial in range(400):
            s = Strategy(
                tp=int(rng.choice(degrees)),
                ep=int(rng.choice(degrees)),
                pp=int(rng.choice(degrees[:8])),
                batch=int(rng.choice((1, 8, 64))),
                op_names=tuple(op.name for op in ops),
                # Every axis, admissible or not, with UNSHARDED weighted up
                # so that some strategies pass the whole walk.
                op_dims=tuple(
                    axes[int(rng.choice(len(axes), p=(0.8, 0.1, 0.1)))] for _ in ops
                ),
            )
            expected = reference_layout_verdict(model, s)
            result = simulate(SimRequest(model, hw, s, cfg.simulation.context_len))
            got = result.detail if result.invalid_reason is InvalidReason.LAYOUT_ERROR else None
            assert got == expected, f"strategy {trial} differs: {s}"
            verdicts[expected is None] += 1
        # Both sides of the gate are exercised.
        assert verdicts[True] and verdicts[False]

    def test_a_late_layout_error_builds_no_plan_record(self, monkeypatch):
        model = small_model()
        built = Counter()
        for name in ("PlanStep", "CollectiveOp"):
            real = getattr(layout, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                built[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(layout, name, counting)
        unsharded = {op.name: AxisChoice.UNSHARDED for op in canonical_fused_ops(model)}
        # shared_ffn2 is the last op of the walk; 128 ffn rows do not split 3 ways.
        late = make_strategy(model, tp=3, overrides={**unsharded, "shared_ffn2": AxisChoice.DIM0})
        with pytest.raises(LayoutError, match="^shared_ffn2 cannot shard DIM0"):
            plan_layer(model, layer_segment(model), late, batch_tokens=8, node_size=8)
        assert built == Counter()
        # The counters see a plan that does get built.
        plan = plan_with(model, tp=4)
        assert built["PlanStep"] == len(plan.steps)
        assert built["CollectiveOp"] == len(plan.all_collectives())
