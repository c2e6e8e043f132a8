"""Strategy encoding, action space, and model bookkeeping."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsearch.config import load_config, packaged_config_path
from shardsearch.strategy import (
    ActionSpaceSpec,
    AxisChoice,
    DecodingError,
    EncodingError,
    OpClass,
    Strategy,
    canonical_fused_ops,
    check_space,
    count_parameters,
    decode_strategy,
    encode_strategy,
    megatron_fine_dims,
)

from small_specs import small_model


def per_family_tally(model):
    """(dense, routed) weights summed by hand, family by family.

    Attention is one fused QKV matrix plus the output projection per layer;
    expert MLPs are two matrices; norms are a scale and a shift for each of
    a layer's two norms plus the final norm's scale.
    """
    h, layers = model.hidden_dim, model.num_layers
    qkv_out = (model.num_heads + 2 * model.num_kv_heads) * model.head_dim
    embedding = lm_head = model.vocab_size * h
    attention = layers * (h * qkv_out + model.num_heads * model.head_dim * h)
    router = layers * h * model.num_experts
    per_expert = 2 * h * model.ffn_dim
    shared = layers * per_expert if model.has_shared_expert else 0
    norms = layers * 4 * h + h
    routed = layers * model.num_experts * per_expert
    return embedding + lm_head + attention + router + shared + norms, routed


class TestModelSpec:
    def test_head_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            small_model(head_dim=16)

    def test_kv_heads_must_divide_heads(self):
        with pytest.raises(ValueError, match="num_kv_heads"):
            small_model(num_kv_heads=3)

    def test_top_k_bounded_by_experts(self):
        with pytest.raises(ValueError, match="experts_per_token"):
            small_model(experts_per_token=9)

    def test_parameter_count_matches_hand_total(self):
        m = small_model()
        counts = count_parameters(m)
        # Hand tally: embedding and lm_head 4096*256 each; per layer
        # qkv 256*(8+8)*32=131072, out 256*256=65536, router 256*8=2048,
        # experts 8*2*256*128=524288, shared 2*256*128=65536, norms 4*256;
        # the final norm 256.
        assert counts.dense == (
            2 * 4096 * 256 + 4 * (131072 + 65536 + 2048 + 65536 + 1024) + 256
        )
        assert counts.routed_experts == 4 * 524288
        assert counts.total == counts.dense + counts.routed_experts

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_parameter_count_equals_per_family_tally(self, data):
        num_heads = data.draw(st.integers(1, 64), label="num_heads")
        head_dim = data.draw(st.integers(1, 256), label="head_dim")
        divisors = [k for k in range(1, num_heads + 1) if num_heads % k == 0]
        num_experts = data.draw(st.integers(1, 512), label="num_experts")
        model = small_model(
            num_layers=data.draw(st.integers(1, 128), label="num_layers"),
            hidden_dim=num_heads * head_dim,
            num_heads=num_heads,
            head_dim=head_dim,
            num_kv_heads=data.draw(st.sampled_from(divisors), label="num_kv_heads"),
            ffn_dim=data.draw(st.integers(1, 65536), label="ffn_dim"),
            num_experts=num_experts,
            experts_per_token=data.draw(st.integers(1, num_experts), label="top_k"),
            has_shared_expert=data.draw(st.booleans(), label="has_shared_expert"),
            vocab_size=data.draw(st.integers(1, 262144), label="vocab_size"),
        )
        counts = count_parameters(model)
        assert (counts.dense, counts.routed_experts) == per_family_tally(model)

    def test_canonical_op_list_has_twelve_ops(self):
        ops = canonical_fused_ops(small_model())
        assert len(ops) == 12
        assert [op.name for op in ops] == [
            "embedding",
            "qkv_proj",
            "kv_cache_io",
            "attn_core",
            "attn_out_proj",
            "router_gate",
            "expert_ffn1",
            "expert_ffn2",
            "shared_ffn1",
            "shared_ffn2",
            "final_norm",
            "lm_head",
        ]

    def test_shared_expert_ops_dropped_without_shared_expert(self):
        ops = canonical_fused_ops(small_model(has_shared_expert=False))
        assert len(ops) == 10
        assert not any(op.name.startswith("shared_ffn") for op in ops)


class TestActionSpace:
    def test_default_space_size_exceeds_a_billion(self):
        space = ActionSpaceSpec()
        # 7 * 7 * 7 * 11 * 3**12 computed by hand.
        assert space.size == 2_005_126_893
        assert space.size >= 10**9

    def test_vector_length_counts_coarse_heads(self):
        assert ActionSpaceSpec().vector_length == 16

    def test_duplicate_domain_entries_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ActionSpaceSpec(tp_domain=(1, 2, 2))

    def test_pinned_overlap_with_controlled_rejected(self):
        with pytest.raises(ValueError, match="pins"):
            ActionSpaceSpec(pinned=(("qkv_proj", AxisChoice.DIM1),))

    def test_head_sizes_follow_replace_to_a_new_domain(self):
        space = ActionSpaceSpec()
        assert space.head_sizes[:4] == (7, 7, 7, 11)
        narrowed = dataclasses.replace(space, tp_domain=(1, 2), op_names=("qkv_proj",))
        assert narrowed.head_sizes == (2, 7, 7, 11, 3)
        assert narrowed.size == 2 * 7 * 7 * 11 * 3
        assert space.head_sizes == (7, 7, 7, 11) + (3,) * 12


class TestEncoding:
    def setup_method(self):
        self.space = ActionSpaceSpec()

    def test_all_zeros_decodes_to_trivial_strategy(self):
        s = decode_strategy((0,) * 16, self.space)
        assert (s.tp, s.ep, s.pp, s.batch) == (1, 1, 1, 1)
        assert all(axis is AxisChoice.UNSHARDED for axis in s.op_dims)

    def test_world_size_is_degree_product(self):
        s = Strategy(64, 16, 24, 8, ("qkv_proj",), (AxisChoice.DIM1,))
        assert s.world_size == 24576

    def test_round_trip_fixed_vector(self):
        vector = (3, 1, 0, 5, 0, 2, 0, 2, 1, 0, 2, 1, 2, 1, 0, 2)
        s = decode_strategy(vector, self.space)
        assert (s.tp, s.ep, s.pp, s.batch) == (8, 2, 1, 32)
        assert encode_strategy(s, self.space) == vector

    def test_value_outside_domain_is_encoding_error(self):
        s = decode_strategy((0,) * 16, self.space)
        bad = Strategy(3, s.ep, s.pp, s.batch, s.op_names, s.op_dims)
        with pytest.raises(EncodingError, match="tp=3"):
            encode_strategy(bad, self.space)

    def test_index_out_of_range_is_decoding_error(self):
        with pytest.raises(DecodingError, match="position 0"):
            decode_strategy((7,) + (0,) * 15, self.space)

    @pytest.mark.parametrize(
        "bad", [True, np.int64(1), -1, 3], ids=["bool", "numpy-int", "negative", "too-large"]
    )
    def test_malformed_index_is_a_decoding_error_naming_its_position(self, bad):
        vector = (0,) * 9 + (bad,) + (0,) * 6
        message = re.escape(f"index {bad!r} at position 9 out of range")
        with pytest.raises(DecodingError, match=message):
            decode_strategy(vector, self.space)

    def test_int_enum_indices_are_accepted(self):
        vector = (0, 0, 0, OpClass.ROUTER) + (AxisChoice.DIM1,) + (0,) * 11
        s = decode_strategy(vector, self.space)
        assert s.batch == 8
        assert s.op_dims[0] is AxisChoice.DIM1

    def test_op_dims_hold_the_axis_members(self):
        s = decode_strategy((0,) * 4 + (0, 1, 2) * 4, self.space)
        assert all(axis is AxisChoice(i % 3) for i, axis in enumerate(s.op_dims))

    def test_wrong_length_is_decoding_error(self):
        with pytest.raises(DecodingError, match="length"):
            decode_strategy((0,) * 15, self.space)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_is_bijective(self, data):
        space = ActionSpaceSpec()
        vector = tuple(
            data.draw(st.integers(0, size - 1), label=f"head{i}")
            for i, size in enumerate(space.head_sizes)
        )
        assert encode_strategy(decode_strategy(vector, space), space) == vector

    def test_axis_of_follows_pins_for_uncontrolled_ops(self):
        space = ActionSpaceSpec(
            op_names=("qkv_proj", "attn_out_proj"),
            pinned=(("expert_ffn1", AxisChoice.DIM1),),
        )
        s = decode_strategy((0, 0, 0, 0, 2, 1), space)
        assert s.axis_of("qkv_proj") is AxisChoice.DIM1
        assert s.axis_of("attn_out_proj") is AxisChoice.DIM0
        assert s.axis_of("expert_ffn1") is AxisChoice.DIM1
        assert s.axis_of("final_norm") is AxisChoice.UNSHARDED

    @pytest.mark.parametrize("config", ["tiny", "moe_1p2t_h100"])
    def test_axis_of_matches_a_reference_mapping_on_every_operator(self, config):
        cfg = load_config(packaged_config_path(config))
        ops = canonical_fused_ops(cfg.model)
        # The packaged space, and one that pins an uncontrolled operator to a
        # sharded axis and leaves another at the UNSHARDED default; a space
        # that controls every operator cedes two of them first.
        controlled = cfg.space.op_names
        if len(controlled) == len(ops):
            controlled = controlled[:-2]
        free = [op for op in ops if op.name not in controlled]
        pin = next(op for op in free if op.extents)
        assert any(op is not pin for op in free)
        pinned_space = dataclasses.replace(
            cfg.space, op_names=controlled, pinned=((pin.name, next(iter(pin.extents))),)
        )
        check_space(pinned_space, cfg.model)
        rng = np.random.default_rng(0)
        for space in (cfg.space, pinned_space):
            for _ in range(20):
                vector = tuple(int(rng.integers(k)) for k in space.head_sizes)
                reference = {op.name: AxisChoice.UNSHARDED for op in ops}
                reference.update(space.pinned)
                reference.update(zip(space.op_names, map(AxisChoice, vector[4:])))
                strategy = decode_strategy(vector, space)
                assert {op.name: strategy.axis_of(op.name) for op in ops} == reference


class TestMegatronDims:
    def test_reference_axes_for_canonical_ops(self):
        ops = canonical_fused_ops(small_model())
        dims = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
        assert dims["qkv_proj"] is AxisChoice.DIM1
        assert dims["attn_core"] is AxisChoice.DIM1
        assert dims["attn_out_proj"] is AxisChoice.DIM0
        assert dims["expert_ffn1"] is AxisChoice.DIM1
        assert dims["expert_ffn2"] is AxisChoice.DIM0
        assert dims["shared_ffn1"] is AxisChoice.DIM1
        assert dims["shared_ffn2"] is AxisChoice.DIM0
        assert dims["router_gate"] is AxisChoice.UNSHARDED
        assert dims["embedding"] is AxisChoice.UNSHARDED
        assert dims["final_norm"] is AxisChoice.UNSHARDED
        assert dims["kv_cache_io"] is AxisChoice.UNSHARDED

    def test_every_reference_axis_is_admissible(self):
        ops = canonical_fused_ops(small_model())
        for op, axis in zip(ops, megatron_fine_dims(ops)):
            assert op.admits(axis), op.name

    def test_unknown_op_rejected(self):
        from shardsearch.strategy import CostKind, FusedOpDescriptor, OpClass

        bogus = (
            FusedOpDescriptor("mystery", OpClass.DENSE_MATMUL, CostKind.MATMUL, True, 8, 8, {}),
        )
        with pytest.raises(ValueError, match="mystery"):
            megatron_fine_dims(bogus)
