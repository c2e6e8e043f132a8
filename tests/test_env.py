"""Reward shaping, budget accounting, and eval-log integrity."""

import functools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import (
    BudgetExhausted,
    EvalRecord,
    RewardConfig,
    SearchEnv,
    load_eval_log,
)
from shardsearch.model import HardwareSpec, ModelSpec
from shardsearch.simulator import InvalidReason, SimResult, TimeBreakdown
from shardsearch.strategy import (
    ActionSpaceSpec,
    AxisChoice,
    canonical_fused_ops,
    encode_strategy,
    megatron_fine_dims,
    decode_strategy,
)


def small_model():
    return ModelSpec(
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


def small_hw(**overrides):
    base = dict(
        name="bare",
        peak_flops=1e15,
        hbm_bandwidth=3e12,
        hbm_capacity=8e10,
        intra_node_bw=9e11,
        inter_node_bw=5e10,
        node_size=8,
        device_budget=64,
        kernel_overhead=0.0,
        per_collective_latency=0.0,
    )
    base.update(overrides)
    return HardwareSpec(**base)


def small_space():
    return ActionSpaceSpec(
        tp_domain=(1, 2, 4),
        ep_domain=(1, 2, 4),
        pp_domain=(1, 2, 4),
        batch_domain=(1, 4, 16),
    )


@functools.cache
def tiny_config():
    return load_config(packaged_config_path("tiny"))


def make_env(budget=16, log_path=None, reward=RewardConfig(), hw=None):
    return SearchEnv(
        model=small_model(),
        hw=hw or small_hw(),
        space=small_space(),
        context_len=256,
        budget=budget,
        reward=reward,
        log_path=log_path,
    )


def megatron_vector(space, tp=1, ep=1, pp=1, batch=1):
    model = small_model()
    ops = canonical_fused_ops(model)
    dims = megatron_fine_dims(ops)
    from shardsearch.strategy import Strategy

    s = Strategy(tp, ep, pp, batch, tuple(op.name for op in ops), dims)
    return encode_strategy(s, space)


class TestRewardShaping:
    def test_improvement_bonus_case(self):
        cfg = RewardConfig(alpha=1.0, beta=1.0)
        b = 8.0
        raw = 10.0
        assert cfg.alpha * raw + cfg.beta * (raw - b) == 12.0

    def test_underperformance_is_penalized_not_clamped(self):
        cfg = RewardConfig(alpha=1.0, beta=1.0)
        b = 8.0
        raw = 5.0
        assert cfg.alpha * raw + cfg.beta * (raw - b) == 2.0

    def test_reward_slope_is_alpha_plus_beta(self):
        for alpha, beta in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)]:
            cfg = RewardConfig(alpha=alpha, beta=beta)
            b = 4.0
            r1 = cfg.alpha * 5.0 + cfg.beta * (5.0 - b)
            r2 = cfg.alpha * 6.0 + cfg.beta * (6.0 - b)
            assert r2 - r1 == pytest.approx(alpha + beta)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RewardConfig(alpha=0.0)
        with pytest.raises(ValueError, match="beta"):
            RewardConfig(beta=-1.0)
        with pytest.raises(ValueError, match="invalid_penalty"):
            RewardConfig(invalid_penalty=0.0)


class TestStep:
    def test_first_valid_eval_gets_double_raw(self):
        # b starts at 0, so reward = (alpha+beta) * raw on the first success.
        env = make_env()
        vec = megatron_vector(env.space, tp=2, batch=4)
        reward, raw, valid = env.step(vec)
        assert valid
        assert raw > 0
        assert reward == pytest.approx(2.0 * raw)
        assert env.best_raw == raw

    def test_exclusive_best_and_update_order(self):
        env = make_env()
        good = megatron_vector(env.space, tp=2, batch=16)
        ok = megatron_vector(env.space, tp=2, batch=4)
        r_good, raw_good, _ = env.step(good)
        r_ok, raw_ok, _ = env.step(ok)
        assert raw_ok < raw_good  # smaller batch, lower throughput
        # Second reward shaped against the *previous* best, not itself.
        assert r_ok == pytest.approx(raw_ok + (raw_ok - raw_good))
        assert env.best_raw == raw_good  # no update on a worse sample

    def test_invalid_strategy_penalized_and_budget_consumed(self):
        env_small = make_env(hw=small_hw(hbm_capacity=1e4))  # everything OOMs
        reward, raw, valid = env_small.step(megatron_vector(env_small.space))
        assert not valid
        assert raw == 0.0
        assert reward == env_small.reward_cfg.invalid_penalty
        assert env_small.best_raw == 0.0
        assert env_small.evals_used == 1
        assert env_small.eval_log[0].reason == "oom"

    def test_budget_exhaustion_signals(self):
        env = make_env(budget=2)
        vec = megatron_vector(env.space, tp=2, batch=4)
        env.step(vec)
        env.step(vec)
        with pytest.raises(BudgetExhausted):
            env.step(vec)
        assert env.evals_used == 2

    def test_best_raw_non_decreasing(self):
        env = make_env(budget=30)
        seen = []
        vectors = [
            megatron_vector(env.space, tp=2, batch=1),
            megatron_vector(env.space, tp=2, batch=16),
            megatron_vector(env.space, tp=2, batch=4),
            megatron_vector(env.space, tp=4, batch=16),
            megatron_vector(env.space, tp=1, batch=1),
        ]
        for vec in vectors:
            env.step(vec)
            seen.append(env.best_raw)
        assert seen == sorted(seen)

    def test_evals_used_equals_step_calls(self):
        env = make_env(budget=10)
        vec = megatron_vector(env.space, tp=2, batch=4)
        for _ in range(7):
            env.step(vec)
        assert env.evals_used == 7
        assert len(env.eval_log) == 7


def earliest_best(records):
    """The earliest maximal valid record by raw throughput, or None."""
    best = None
    for record in records:
        if record.valid and (best is None or record.raw > best.raw):
            best = record
    return best


def stub_result(raw):
    return SimResult(
        valid=True,
        invalid_reason=InvalidReason.NONE,
        throughput=raw,
        tpot_s=0.001,
        memory_bytes=0.0,
        breakdown=TimeBreakdown(0.001, 0.0, 0.0),
    )


class TestSelection:
    """The env keeps the run's best in ``best_raw`` and ``best_vector``: the
    best valid record by raw throughput, earliest on ties."""

    def test_argmax_by_raw(self):
        env = make_env()
        lo = megatron_vector(env.space, tp=2, batch=16)
        hi = megatron_vector(env.space, tp=1, batch=16)
        env.step(lo)
        env.step(hi)  # higher raw, but lower reward: lo raised the baseline
        first, second = env.eval_log
        assert second.raw > first.raw and second.reward < first.reward
        assert env.best_vector == hi
        assert env.best_raw == second.raw

    def test_ties_break_earliest(self):
        env = make_env()
        a = megatron_vector(env.space, tp=2, batch=4)
        b = megatron_vector(env.space, tp=1, batch=4)
        raws = iter((1.0, 5.0, 5.0))
        env.evaluate_raw = lambda strategy: stub_result(next(raws))
        for vector in (a, b, a):
            env.step(vector)
        assert env.best_vector == b
        assert env.best_raw == 5.0

    def test_all_invalid_has_no_best_vector(self):
        env = make_env(hw=small_hw(hbm_capacity=1e4))
        env.step(megatron_vector(env.space, tp=1, batch=1))
        env.step(megatron_vector(env.space, tp=1, batch=4))
        assert not any(r.valid for r in env.eval_log)
        assert env.best_vector is None
        assert env.best_raw == 0.0
        assert env.evals_used == 2

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_best_is_the_earliest_maximal_valid_record_of_the_log(self, data):
        cfg = tiny_config()
        heads = [st.integers(0, k - 1) for k in cfg.space.head_sizes]
        # Few coarse tuples under many shard axes make equal raws common
        # (at tp=1 every axis prices the same), so ties get exercised.
        coarse = data.draw(st.lists(st.tuples(*heads[:4]), min_size=1, max_size=3))
        vectors = data.draw(
            st.lists(
                st.builds(lambda c, f: c + f, st.sampled_from(coarse), st.tuples(*heads[4:])),
                min_size=1,
                max_size=40,
            )
        )
        env = SearchEnv(
            cfg.model,
            cfg.hardware,
            cfg.space,
            context_len=cfg.simulation.context_len,
            budget=len(vectors),
            reward=cfg.reward,
            slo_tpot=cfg.simulation.slo_tpot,
        )
        for vector in vectors:
            env.step(vector)
        best = earliest_best(env.eval_log)
        assert env.best_vector == (None if best is None else best.vector)
        assert env.best_raw == (0.0 if best is None else best.raw)


class TestEvalLog:
    def test_stream_and_replay_bit_for_bit(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=8, log_path=log)
        for tp, batch in [(1, 4), (2, 16), (4, 16), (2, 1)]:
            env.step(megatron_vector(env.space, tp=tp, batch=batch))
        env.close()
        records = load_eval_log(log)
        assert [r.index for r in records] == [0, 1, 2, 3]
        assert records == env.eval_log
        for record in records:
            result = env.evaluate_raw(decode_strategy(record.vector, env.space))
            recomputed = result.throughput if result.valid else 0.0
            assert recomputed == record.raw  # bit-for-bit, not approx

    def test_second_env_on_one_log_is_refused(self, tmp_path):
        # A log holds one run: a second env must not append to it.
        log = tmp_path / "evals.ndjson"
        env1 = make_env(budget=4, log_path=log)
        env1.step(megatron_vector(env1.space, tp=2, batch=4))
        env1.close()
        first = log.read_bytes()
        with pytest.raises(FileExistsError, match="evals.ndjson"):
            make_env(budget=4, log_path=log)
        assert log.read_bytes() == first
        assert len(load_eval_log(log)) == 1

    def test_space_naming_an_operator_the_model_lacks_is_refused_before_the_log(
        self, tmp_path
    ):
        # The tiny model has no shared expert; the default space names one.
        cfg = tiny_config()
        assert "shared_ffn1" in ActionSpaceSpec().op_names
        log = tmp_path / "evals.ndjson"
        with pytest.raises(ValueError, match="unknown operator 'shared_ffn1'"):
            SearchEnv(cfg.model, cfg.hardware, ActionSpaceSpec(), context_len=128,
                      budget=10, log_path=log)
        assert not log.exists()
        pinned = ActionSpaceSpec(op_names=("qkv_proj",), pinned=(("kv_cache_io", AxisChoice.DIM0),))
        with pytest.raises(ValueError, match=r"pins\.kv_cache_io: kv_cache_io does not admit"):
            SearchEnv(cfg.model, cfg.hardware, pinned, context_len=128, budget=10)

    def test_interrupted_style_partial_log_is_loadable(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=8, log_path=log)
        env.step(megatron_vector(env.space, tp=2, batch=4))
        # No close: the flush-per-record policy must leave a readable file.
        records = load_eval_log(log)
        assert len(records) == 1
        env.close()


GOOD_RECORD = {
    "index": 1, "vector": [0, 2, 1], "raw": 12.5, "reward": -10.0,
    "valid": True, "reason": "none",
}


class TestEvalRecordJson:
    @given(
        index=st.integers(min_value=0, max_value=1 << 70),
        vector=st.lists(st.integers(min_value=-(1 << 70), max_value=1 << 70), max_size=12),
        raw=st.one_of(
            st.floats(),
            st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
            st.integers(min_value=-(1 << 80), max_value=1 << 80),
        ),
        reward=st.floats(),
        valid=st.booleans(),
        reason=st.sampled_from([r.value for r in InvalidReason]),
    )
    @settings(max_examples=300, deadline=None)
    def test_to_json_writes_the_bytes_of_json_dumps(
        self, index, vector, raw, reward, valid, reason
    ):
        record = EvalRecord(index, tuple(vector), raw, reward, valid, reason)
        line = record.to_json()
        assert line == json.dumps(vars(record))
        if all(isinstance(x, int) or math.isfinite(x) for x in (raw, reward)):
            assert EvalRecord.from_json(line) == record

    @pytest.mark.parametrize(
        "field, value",
        [
            ("index", "1"), ("index", True), ("index", 1.0),
            ("vector", "012"), ("vector", [0, True, 1]), ("vector", [0, 1.0]),
            ("vector", [0, "1"]),
            ("raw", "12"), ("raw", False), ("raw", None), ("raw", float("nan")),
            ("reward", float("inf")), ("reward", "-10"),
            ("valid", 1), ("valid", "true"),
            ("reason", "bogus"), ("reason", 0), ("reason", ["none"]),
        ],
    )
    def test_a_field_of_the_wrong_type_names_the_line(self, tmp_path, field, value):
        log = tmp_path / "evals.ndjson"
        bad = {**GOOD_RECORD, field: value}
        log.write_text(json.dumps({**GOOD_RECORD, "index": 0}) + "\n" + json.dumps(bad) + "\n")
        expected = re.escape(f"{log}:2 is not an eval record: ") + f".*'{field}'"
        with pytest.raises(ValueError, match=expected):
            load_eval_log(log)

    def test_a_well_typed_record_loads(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        log.write_text(json.dumps(GOOD_RECORD) + "\n")
        (record,) = load_eval_log(log)
        assert record == EvalRecord(1, (0, 2, 1), 12.5, -10.0, True, "none")

    @pytest.mark.parametrize("line", ["[1, 2]", '{"index": 0}'])
    def test_a_line_without_the_record_fields_is_refused(self, tmp_path, line):
        log = tmp_path / "evals.ndjson"
        log.write_text(line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{log}:1 is not an eval record")):
            load_eval_log(log)
