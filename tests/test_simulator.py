"""Roofline cost model: closed forms, gates, and conservation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsearch.layout import (
    CollectiveKind,
    CollectiveOp,
    Interconnect,
)
from shardsearch import simulator
from shardsearch.model import HardwareSpec, ModelSpec
from shardsearch.simulator import (
    InvalidReason,
    SimRequest,
    collective_time,
    explain,
    memory_per_device,
    op_time,
    simulate,
)
from shardsearch.strategy import (
    AxisChoice,
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


def bare_hw(**overrides):
    base = dict(
        name="bare",
        peak_flops=1e15,
        hbm_bandwidth=3e12,
        hbm_capacity=8e10,
        intra_node_bw=9e11,
        inter_node_bw=5e10,
        node_size=8,
        device_budget=24000,
        kernel_overhead=0.0,
        per_collective_latency=0.0,
    )
    base.update(overrides)
    return HardwareSpec(**base)


def make_strategy(model, tp=1, ep=1, pp=1, batch=8, overrides=None):
    ops = canonical_fused_ops(model)
    dims = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    dims.update(overrides or {})
    return Strategy(
        tp, ep, pp, batch,
        op_names=tuple(op.name for op in ops),
        op_dims=tuple(dims[op.name] for op in ops),
    )


def request(model, hw, strategy, ctx=256, slo=0.050):
    return SimRequest(model=model, hw=hw, strategy=strategy, context_len=ctx, slo_tpot=slo)


class TestOpTime:
    def test_compute_bound_case(self):
        # 2e12 FLOPs vs 1e9 bytes: compute wins, 2 ms.
        assert op_time(2e12, 1e9, bare_hw()) == 2e-3

    def test_memory_bound_case(self):
        assert op_time(1e9, 3e9, bare_hw()) == 1e-3

    def test_overhead_added_once(self):
        hw = bare_hw(kernel_overhead=2e-6)
        assert op_time(2e12, 1e9, hw) == 2e-3 + 2e-6

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            op_time(-1.0, 0.0, bare_hw())


class TestCollectiveTime:
    def coll(self, kind, n=4, payload=float(2**30), wire=Interconnect.INTRA_NODE):
        return CollectiveOp(kind, n, payload, wire)

    def test_all_reduce_closed_form(self):
        # 2 * 3/4 * 2^30 / 9e11 computed by hand.
        t = collective_time(self.coll(CollectiveKind.ALL_REDUCE), bare_hw())
        assert t == pytest.approx(1.7895697066666667e-3, rel=1e-12)

    def test_gather_is_half_an_all_reduce(self):
        t = collective_time(self.coll(CollectiveKind.ALL_GATHER), bare_hw())
        assert t == pytest.approx(8.947848533333333e-4, rel=1e-12)

    def test_latency_scales_with_log_group(self):
        hw = bare_hw(per_collective_latency=5e-6)
        base = collective_time(self.coll(CollectiveKind.ALL_GATHER), bare_hw())
        t = collective_time(self.coll(CollectiveKind.ALL_GATHER), hw)
        assert t == pytest.approx(base + 2 * 5e-6, rel=1e-12)

    def test_point_to_point(self):
        hw = bare_hw(per_collective_latency=1e-6)
        c = CollectiveOp(CollectiveKind.POINT_TO_POINT, 2, 1e8, Interconnect.INTER_NODE)
        assert collective_time(c, hw) == pytest.approx(1e8 / 5e10 + 1e-6, rel=1e-12)

    def test_noop_and_singleton_groups_are_free(self):
        hw = bare_hw(per_collective_latency=5e-6)
        assert collective_time(self.coll(CollectiveKind.NO_OP), hw) == 0.0
        assert collective_time(self.coll(CollectiveKind.ALL_REDUCE, n=1), hw) == 0.0

    def test_closed_form_sweep(self):
        # Spot-check the alpha-beta forms over a deterministic grid.
        hw = bare_hw(per_collective_latency=3e-6)
        cases = [
            (kind, n, payload, wire)
            for kind in (
                CollectiveKind.ALL_REDUCE,
                CollectiveKind.ALL_GATHER,
                CollectiveKind.REDUCE_SCATTER,
                CollectiveKind.ALL_TO_ALL,
            )
            for n in (2, 3, 8, 64)
            for payload in (4096.0, 1.5e8)
            for wire in (Interconnect.INTRA_NODE, Interconnect.INTER_NODE)
        ]
        for kind, n, payload, wire in cases:
            bw = 9e11 if wire is Interconnect.INTRA_NODE else 5e10
            factor = 2.0 if kind is CollectiveKind.ALL_REDUCE else 1.0
            expected = factor * (n - 1) / n * payload / bw + 3e-6 * math.ceil(math.log2(n))
            got = collective_time(CollectiveOp(kind, n, payload, wire), hw)
            assert got == pytest.approx(expected, rel=1e-12), (kind, n, payload, wire)


class TestMemory:
    def tiny(self):
        return small_model(
            num_layers=2, hidden_dim=32, num_heads=4, head_dim=8, num_kv_heads=4,
            ffn_dim=16, num_experts=2, experts_per_token=1,
            has_shared_expert=False, vocab_size=64,
        )

    def test_hand_counted_total(self):
        model = self.tiny()
        s = make_strategy(model, batch=2)
        s = dataclasses.replace(s, op_dims=tuple(AxisChoice.UNSHARDED for _ in s.op_dims))
        # weights 33600 + kv 8192 + workspace 384, all tallied by hand:
        # kv = 2 dirs * 2 layers * (4*8) kv width * 16 ctx * 2 batch * 2 B.
        assert memory_per_device(model, s, context_len=16, batch=2) == 42176.0

    def test_kv_cache_component(self):
        model = self.tiny()
        s = make_strategy(model, batch=2)
        s = dataclasses.replace(s, op_dims=tuple(AxisChoice.UNSHARDED for _ in s.op_dims))
        with_kv = memory_per_device(model, s, 16, 2)
        # Doubling context adds exactly one more 8192-byte cache worth.
        doubled_ctx = memory_per_device(model, s, 32, 2)
        assert doubled_ctx - with_kv == 8192.0

    def test_pipeline_split_halves_weights_and_cache(self):
        model = self.tiny()
        base = make_strategy(model, pp=1, batch=2)
        split = make_strategy(model, pp=2, batch=2)
        m1 = memory_per_device(model, base, 16, 2)
        m2 = memory_per_device(model, split, 16, 2)
        workspace = 2.0 * 2 * (32 + 16) * 2
        assert m2 - workspace == (m1 - workspace) / 2

    def test_head_sharded_attention_splits_cache(self):
        model = self.tiny()
        sharded = make_strategy(model, tp=4, batch=2)  # attn_core dim1
        replicated = make_strategy(
            model, tp=4, batch=2, overrides={"attn_core": AxisChoice.UNSHARDED}
        )
        km = memory_per_device(model, sharded, 16, 2)
        ku = memory_per_device(model, replicated, 16, 2)
        # Full cache is 8192 bytes; a 4-way head split saves three quarters.
        assert ku - km == 8192.0 * 3 / 4


class TestSimulateGates:
    def setup_method(self):
        self.model = small_model()
        self.hw = bare_hw()

    def test_device_budget_checked_first(self):
        hw = bare_hw(device_budget=16, hbm_capacity=1.0)  # would also OOM
        s = make_strategy(self.model, tp=8, ep=4, pp=1)
        r = simulate(request(self.model, hw, s))
        assert not r.valid
        assert r.invalid_reason is InvalidReason.OVER_DEVICE_BUDGET

    def test_layout_error_before_memory(self):
        hw = bare_hw(hbm_capacity=1.0)
        s = make_strategy(self.model, tp=16)  # 8 heads cannot split 16 ways
        r = simulate(request(self.model, hw, s))
        assert r.invalid_reason is InvalidReason.LAYOUT_ERROR
        assert "not divisible" in r.detail

    def test_pipeline_must_divide_layers(self):
        s = make_strategy(self.model, pp=8)  # 4 layers
        r = simulate(request(self.model, self.hw, s))
        assert r.invalid_reason is InvalidReason.LAYOUT_ERROR
        assert "num_layers" in r.detail

    def test_oom_before_slo(self):
        hw = bare_hw(hbm_capacity=1e5)
        s = make_strategy(self.model, batch=64)
        r = simulate(request(self.model, hw, s, slo=1e-12))
        assert r.invalid_reason is InvalidReason.OOM
        assert r.memory_bytes > 1e5

    def test_slo_gate_last(self):
        s = make_strategy(self.model)
        r = simulate(request(self.model, self.hw, s, slo=1e-12))
        assert r.invalid_reason is InvalidReason.SLO_VIOLATION
        assert r.tpot_s > 1e-12
        assert r.throughput == 0.0

    def test_valid_strategy_reports_throughput(self):
        s = make_strategy(self.model)
        r = simulate(request(self.model, self.hw, s))
        assert r.valid
        assert r.invalid_reason is InvalidReason.NONE
        assert r.throughput > 0.0


class TestNonFiniteInputs:
    def test_nan_kernel_overhead_rejected(self):
        with pytest.raises(ValueError, match="hardware.kernel_overhead"):
            bare_hw(kernel_overhead=math.nan)

    def test_nan_collective_latency_rejected(self):
        with pytest.raises(ValueError, match="hardware.per_collective_latency"):
            bare_hw(per_collective_latency=math.nan)

    def test_infinite_peak_flops_rejected(self):
        with pytest.raises(ValueError, match="hardware.peak_flops"):
            bare_hw(peak_flops=math.inf)

    def test_nan_slo_tpot_rejected(self):
        model = small_model()
        s = make_strategy(model)
        with pytest.raises(ValueError, match="simulation.slo_tpot"):
            request(model, bare_hw(), s, slo=math.nan)

    @settings(max_examples=150, deadline=None)
    @given(
        tp=st.sampled_from((1, 2, 4, 8)),
        ep=st.sampled_from((1, 2, 4, 8)),
        pp=st.sampled_from((1, 2, 4)),
        batch=st.sampled_from((1, 8, 64)),
        peak_flops=st.floats(1e6, 1e20),
        hbm_bandwidth=st.floats(1e6, 1e16),
        link_bw=st.floats(1e3, 1e14),
        kernel_overhead=st.floats(0.0, 1e-2),
        per_collective_latency=st.floats(0.0, 1e-2),
    )
    def test_valid_result_has_finite_positive_figures(
        self, tp, ep, pp, batch, peak_flops, hbm_bandwidth, link_bw,
        kernel_overhead, per_collective_latency,
    ):
        model = small_model()
        hw = bare_hw(
            peak_flops=peak_flops,
            hbm_bandwidth=hbm_bandwidth,
            intra_node_bw=link_bw,
            inter_node_bw=link_bw,
            kernel_overhead=kernel_overhead,
            per_collective_latency=per_collective_latency,
        )
        s = make_strategy(model, tp=tp, ep=ep, pp=pp, batch=batch)
        r = simulate(request(model, hw, s, slo=1e9))
        if r.valid:
            assert math.isfinite(r.throughput) and r.throughput > 0.0
            assert math.isfinite(r.tpot_s) and r.tpot_s > 0.0


class TestAccounting:
    def setup_method(self):
        self.model = small_model()
        self.hw = bare_hw(kernel_overhead=1e-7, per_collective_latency=1e-6)

    def test_breakdown_sums_exactly_to_tpot(self):
        for tp, ep, pp in [(1, 1, 1), (4, 1, 1), (2, 2, 2), (1, 8, 4)]:
            s = make_strategy(self.model, tp=tp, ep=ep, pp=pp)
            r = simulate(request(self.model, self.hw, s, slo=10.0))
            b = r.breakdown
            assert r.tpot_s == b.compute_s + b.comm_s + b.pipeline_s

    def test_simulation_is_deterministic(self):
        s = make_strategy(self.model, tp=4, ep=2, pp=2, batch=16)
        first = simulate(request(self.model, self.hw, s, slo=10.0))
        second = simulate(request(self.model, self.hw, s, slo=10.0))
        assert first == second

    def test_pipeline_term_counts_hops(self):
        s1 = make_strategy(self.model, pp=1)
        s4 = make_strategy(self.model, pp=4)
        r1 = simulate(request(self.model, self.hw, s1, slo=10.0))
        r4 = simulate(request(self.model, self.hw, s4, slo=10.0))
        assert r1.breakdown.pipeline_s == 0.0
        hop = 8 * 256 * 2 / self.hw.intra_node_bw + 1e-6
        assert r4.breakdown.pipeline_s == pytest.approx(3 * hop, rel=1e-12)

    def test_fine_dims_change_only_comm(self):
        # Same coarse degrees, textbook dims vs hidden-sharded second FFN
        # matmuls: identical arithmetic, different collectives. Both plans
        # keep the attention all_reduce; only the MLP section differs. With
        # top_k=2 and ep=1 the routed branch carries 16 token slots of the
        # 8-token batch, so the wire volumes per layer (dtype 2) are
        #   textbook MLP: all_reduce of 8*256*2 B -> 2*(3/4)*4096 = 6144
        #   hidden MLP:   gathers of 16*128*2, 8*128*2, 8*256*2
        #                 -> (3/4)*(4096+2048+4096) = 7680
        # and the gather plan loses here because ffn_dim is h/2; it pays off
        # only once expert parallelism thins the routed tokens per device.
        hw = bare_hw()  # zero latency and overhead keeps the ratio pure
        meg = make_strategy(self.model, tp=4, batch=8)
        alt = make_strategy(
            self.model, tp=4, batch=8,
            overrides={"expert_ffn2": AxisChoice.DIM1, "shared_ffn2": AxisChoice.DIM1},
        )
        rm = simulate(request(self.model, hw, meg, slo=10.0))
        ra = simulate(request(self.model, hw, alt, slo=10.0))
        assert rm.breakdown.compute_s == ra.breakdown.compute_s
        assert rm.breakdown.pipeline_s == ra.breakdown.pipeline_s == 0.0
        delta = rm.breakdown.comm_s - ra.breakdown.comm_s
        expected = self.model.num_layers * (6144 - 7680) / self.hw.intra_node_bw
        assert delta == pytest.approx(expected, rel=1e-12)

    def test_unsharded_large_matmul_pays_replicated_cost(self):
        from shardsearch.simulator import _op_cost
        from shardsearch.layout import Segment, plan_layer

        segment = Segment.of(tuple(op for op in canonical_fused_ops(self.model) if op.per_layer))
        sharded = make_strategy(self.model, tp=4)
        unsharded = make_strategy(
            self.model, tp=4,
            overrides={"qkv_proj": AxisChoice.UNSHARDED, "attn_core": AxisChoice.UNSHARDED},
        )
        plan_s = plan_layer(self.model, segment, sharded, 8, 8)
        plan_u = plan_layer(self.model, segment, unsharded, 8, 8)
        step_s = next(s for s in plan_s.steps if s.op.name == "qkv_proj")
        step_u = next(s for s in plan_u.steps if s.op.name == "qkv_proj")
        flops_s, _ = _op_cost(step_s, self.model, sharded, 256)
        flops_u, _ = _op_cost(step_u, self.model, unsharded, 256)
        assert flops_u == 4 * flops_s

    def test_doubling_tp_halves_sharded_op_flops(self):
        from shardsearch.simulator import _op_cost
        from shardsearch.layout import Segment, plan_layer

        segment = Segment.of(tuple(op for op in canonical_fused_ops(self.model) if op.per_layer))
        costs = {}
        for tp in (2, 4):
            s = make_strategy(self.model, tp=tp)
            plan = plan_layer(self.model, segment, s, 8, 8)
            step = next(st for st in plan.steps if st.op.name == "qkv_proj")
            costs[tp] = _op_cost(step, self.model, s, 256)[0]
        assert costs[2] == 2 * costs[4]


class TestExplain:
    def test_prints_the_layer_plan_simulate_priced_without_replanning(self, monkeypatch):
        model, hw = small_model(), bare_hw()
        req = request(model, hw, make_strategy(model, tp=4, ep=2, pp=2, batch=16), slo=10.0)
        calls = []
        real_plan_layer = simulator.plan_layer

        def counting_plan_layer(*args, **kwargs):
            calls.append(args[1])
            return real_plan_layer(*args, **kwargs)

        monkeypatch.setattr(simulator, "plan_layer", counting_plan_layer)
        result = simulate(req)
        planned = len(calls)
        text = explain(req)
        assert len(calls) == 2 * planned  # explain's own simulate, nothing more
        assert result.valid and result.layer_plan is not None
        plan_lines = ["  " + ln for ln in result.layer_plan.describe().splitlines()]
        assert text.splitlines()[-len(plan_lines):] == plan_lines

    def test_gated_result_carries_no_plan(self):
        model = small_model()
        over_budget = bare_hw(device_budget=2)
        result = simulate(request(model, over_budget, make_strategy(model, tp=4)))
        assert result.invalid_reason is InvalidReason.OVER_DEVICE_BUDGET
        assert result.layer_plan is None
