"""Layout algebra and layer planning golden traces."""

from collections import Counter

import pytest

from shardsearch.layout import (
    CollectiveKind,
    Interconnect,
    LayoutError,
    LayoutKind,
    TensorLayout,
    infer_output_layout,
    plan_layer,
    transition,
)
from shardsearch.model import ModelSpec
from shardsearch.strategy import (
    AxisChoice,
    Strategy,
    canonical_fused_ops,
    megatron_fine_dims,
)

WIRE = Interconnect.INTRA_NODE


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


def layer_ops(model):
    return tuple(op for op in canonical_fused_ops(model) if op.per_layer)


def kinds(plan):
    return Counter(c.kind for c in plan.all_collectives())


R4 = TensorLayout.replicated(4)
S0 = TensorLayout.sharded(AxisChoice.DIM0, 4)
S1 = TensorLayout.sharded(AxisChoice.DIM1, 4)
PS = TensorLayout.partial_sum(4)


class TestTransitionTable:
    # Expected single collective for every reachable (from, to) pair.
    TABLE = {
        (LayoutKind.PARTIAL_SUM, LayoutKind.REPLICATED): CollectiveKind.ALL_REDUCE,
        (LayoutKind.SHARDED, LayoutKind.REPLICATED): CollectiveKind.ALL_GATHER,
        (LayoutKind.PARTIAL_SUM, LayoutKind.SHARDED): CollectiveKind.REDUCE_SCATTER,
        (LayoutKind.REPLICATED, LayoutKind.SHARDED): CollectiveKind.NO_OP,
    }

    def all_states(self):
        return [R4, S0, S1, PS]

    def test_exhaustive_pairs(self):
        for src in self.all_states():
            for dst in self.all_states():
                if src == dst:
                    assert transition(src, dst, 1.0, WIRE).kind is CollectiveKind.NO_OP
                elif src.kind is LayoutKind.SHARDED and dst.kind is LayoutKind.SHARDED:
                    assert transition(src, dst, 1.0, WIRE).kind is CollectiveKind.ALL_TO_ALL
                elif dst.kind is LayoutKind.PARTIAL_SUM:
                    with pytest.raises(LayoutError):
                        transition(src, dst, 1.0, WIRE)
                else:
                    expected = self.TABLE[(src.kind, dst.kind)]
                    assert transition(src, dst, 1.0, WIRE).kind is expected

    def test_group_size_mismatch_rejected(self):
        with pytest.raises(LayoutError, match="group sizes"):
            transition(R4, TensorLayout.replicated(8), 1.0, WIRE)

    def test_single_device_group_collapses_to_replicated(self):
        assert TensorLayout.sharded(AxisChoice.DIM1, 1) == TensorLayout.replicated(1)
        assert TensorLayout.partial_sum(1) == TensorLayout.replicated(1)

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
        gather = transition(S1, R4, 1e6, WIRE)
        reduce = transition(PS, R4, 1e6, WIRE)
        assert collective_time(gather, hw) * 2 == collective_time(reduce, hw)
        assert collective_time(transition(R4, S1, 1e6, WIRE), hw) == 0.0


class TestInferOutputLayout:
    def setup_method(self):
        self.model = small_model()
        ops = canonical_fused_ops(self.model)
        self.by_name = {op.name: op for op in ops}

    def test_dense_dim1_from_replicated_is_sharded(self):
        out = infer_output_layout(self.by_name["qkv_proj"], R4, AxisChoice.DIM1)
        assert out == S1

    def test_dense_dim0_from_feature_sharded_is_partial(self):
        out = infer_output_layout(self.by_name["attn_out_proj"], S1, AxisChoice.DIM0)
        assert out == PS

    def test_dense_unsharded_needs_replicated(self):
        with pytest.raises(LayoutError, match="needs input"):
            infer_output_layout(self.by_name["qkv_proj"], S1, AxisChoice.UNSHARDED)

    def test_attention_core_rejects_dim0(self):
        with pytest.raises(LayoutError, match="does not admit"):
            infer_output_layout(self.by_name["attn_core"], R4, AxisChoice.DIM0)

    def test_elementwise_preserves_any_layout(self):
        op = self.by_name["kv_cache_io"]
        for state in (R4, S1, PS):
            assert infer_output_layout(op, state, AxisChoice.UNSHARDED) == state

    def test_extent_divisibility_enforced(self):
        # 8 query heads cannot split 16 ways.
        r16 = TensorLayout.replicated(16)
        with pytest.raises(LayoutError, match="not divisible"):
            infer_output_layout(self.by_name["qkv_proj"], r16, AxisChoice.DIM1)


class TestLayerPlans:
    def setup_method(self):
        self.model = small_model()
        self.ops = layer_ops(self.model)

    def test_megatron_layer_has_exactly_two_all_reduces(self):
        s = make_strategy(self.model, tp=4)
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
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
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
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
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
        assert plan.all_collectives() == ()

    def test_expert_parallel_adds_dispatch_and_combine(self):
        s = make_strategy(self.model, tp=1, ep=4)
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
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
            plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)

    def test_unsharded_everything_plans_no_tensor_collectives(self):
        s = make_strategy(self.model, tp=4)
        s = s.replace_dims(tuple(AxisChoice.UNSHARDED for _ in s.op_dims))
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
        assert plan.all_collectives() == ()

    def test_interconnect_follows_group_span(self):
        wide = make_strategy(self.model, tp=4, ep=4)
        plan = plan_layer(self.model, self.ops, wide, batch_tokens=8, node_size=8)
        a2a = [c for c in plan.all_collectives() if c.kind is CollectiveKind.ALL_TO_ALL]
        assert all(c.interconnect is Interconnect.INTER_NODE for c in a2a)
        narrow = make_strategy(self.model, tp=2, ep=4)
        plan = plan_layer(self.model, self.ops, narrow, batch_tokens=8, node_size=8)
        a2a = [c for c in plan.all_collectives() if c.kind is CollectiveKind.ALL_TO_ALL]
        assert all(c.interconnect is Interconnect.INTRA_NODE for c in a2a)

    def test_planning_is_pure_and_deterministic(self):
        s = make_strategy(self.model, tp=4, ep=2)
        first = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
        second = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
        assert first == second

    def test_mixed_branch_layouts_align_before_merge(self):
        # Routed pair ends partial_sum, shared pair ends sharded: both must
        # be replicated before the add. The shared branch also gathers
        # internally because its second matmul contracts over full features.
        s = make_strategy(self.model, tp=4, overrides={"shared_ffn2": AxisChoice.DIM1})
        plan = plan_layer(self.model, self.ops, s, batch_tokens=8, node_size=8)
        counts = kinds(plan)
        assert counts[CollectiveKind.ALL_REDUCE] == 2  # attention + routed align
        assert counts[CollectiveKind.ALL_GATHER] == 2  # shared internal + align
