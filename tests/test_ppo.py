"""PPO loss math, chunked budget protocol, and determinism.

The full-loss finite-difference test is the oracle for the trainer's
gradient wiring end to end (surrogate, value, entropy terms together).
"""

import itertools
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import shardsearch.ppo as ppo_module
from shardsearch.cli import main
from shardsearch.env import BudgetExhausted, RewardConfig, SearchEnv
from shardsearch.model import HardwareSpec, ModelSpec
from shardsearch.policy import (
    EliteBuffer,
    NumericsError,
    PolicyNetwork,
    build_observation,
    confidence,
)
from shardsearch.ppo import (
    Adam,
    ChunkExit,
    LossReport,
    PpoConfig,
    RolloutSample,
    collect,
    cosine_decay,
    loss_and_grads,
    ppo_update,
    run_chunk,
    run_search,
)
from shardsearch.strategy import ActionSpaceSpec, canonical_fused_ops


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


def small_hw():
    return HardwareSpec(
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


def small_space():
    return ActionSpaceSpec(
        tp_domain=(1, 2, 4),
        ep_domain=(1, 2, 4),
        pp_domain=(1, 2, 4),
        batch_domain=(1, 4, 16),
    )


def make_env(budget=64):
    return SearchEnv(
        model=small_model(),
        hw=small_hw(),
        space=small_space(),
        context_len=256,
        budget=budget,
        reward=RewardConfig(),
    )


def make_policy(seed=0, width=16):
    return PolicyNetwork(
        small_space(),
        canonical_fused_ops(small_model()),
        rng=np.random.default_rng(seed),
        history_len=3,
        width=width,
    )


def small_cfg(**overrides):
    base = dict(budget=20, chunks=5, width=16)
    base.update(overrides)
    return PpoConfig(**base)


def force_one_hot(policy, action):
    """Pin every head to one choice via dominating bias logits."""
    start = 0
    for k, idx in zip(policy.head_sizes, action):
        policy.params["head.b"][start : start + k] = -50.0
        policy.params["head.b"][start + idx] = 50.0
        start += k


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts of ``PolicyNetwork.forward_cached`` and ``build_observation``."""
    counts = {"forward": 0, "observation": 0}
    forward = PolicyNetwork.forward_cached

    def counted_forward(self, obs):
        counts["forward"] += 1
        return forward(self, obs)

    def counted_observation(buf, space):
        counts["observation"] += 1
        return build_observation(buf, space)

    monkeypatch.setattr(PolicyNetwork, "forward_cached", counted_forward)
    monkeypatch.setattr(ppo_module, "build_observation", counted_observation)
    return counts


class TestPpoConfig:
    def test_chunks_must_divide_budget(self):
        with pytest.raises(ValueError, match="divide"):
            PpoConfig(budget=4001, chunks=5)

    def test_defaults_are_the_published_protocol(self):
        cfg = PpoConfig()
        assert cfg.budget == 4000
        assert cfg.chunks == 5
        assert cfg.n_steps == 2
        assert cfg.epochs_per_update == 2
        assert cfg.lr_initial == 1e-3
        assert cfg.clip_eps == 0.2
        assert cfg.tau == 0.95
        assert cfg.history_len == 3
        assert cfg.width == 256

    def test_positivity_validated(self):
        with pytest.raises(ValueError, match="n_steps"):
            PpoConfig(n_steps=0)
        with pytest.raises(ValueError, match="lr_initial"):
            PpoConfig(lr_initial=-1.0)
        with pytest.raises(ValueError, match="value_coef"):
            PpoConfig(value_coef=-0.1)


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_decay(1e-3, 0.0) == 1e-3
        assert cosine_decay(1e-3, 1.0) == 0.0
        assert cosine_decay(1e-3, 1.0) <= 1e-6

    def test_midpoint_is_half(self):
        assert cosine_decay(1e-3, 0.5) == pytest.approx(5e-4, rel=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_decay(1e-3, p) for p in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_progress_clamped(self):
        assert cosine_decay(1e-3, -0.5) == 1e-3
        assert cosine_decay(1e-3, 1.5) == 0.0


def reference_adam_steps(tensors, grad_steps, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam, written as plain array expressions, one dict per step."""
    params = {name: t.copy() for name, t in tensors.items()}
    m = {name: np.zeros_like(t) for name, t in tensors.items()}
    v = {name: np.zeros_like(t) for name, t in tensors.items()}
    for step, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        bias1 = 1.0 - beta1**step
        bias2 = 1.0 - beta2**step
        for name, grad in grads.items():
            m[name] = m[name] * beta1 + (1.0 - beta1) * grad
            v[name] = v[name] * beta2 + (1.0 - beta2) * grad * grad
            update = lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
            params[name] = params[name] - update
    return params


class TestAdam:
    def test_first_step_has_unit_scale(self):
        # With bias correction the first step is lr * g / (|g| + eps).
        params = np.array([1.0])
        opt = Adam(params)
        opt.apply(params, np.array([2.0]), lr=0.1)
        assert params[0] == pytest.approx(0.9, rel=1e-6)

    def test_descends_a_quadratic(self):
        params = np.array([3.0])
        opt = Adam(params)
        for _ in range(200):
            opt.apply(params, 2.0 * params, lr=0.05)
        assert abs(params[0]) < 0.1

    def test_flat_update_matches_per_tensor_reference_bit_for_bit(self):
        # Width 128 spans several update blocks, the last one partial, with
        # tensors straddling block boundaries.
        policy = make_policy(seed=21, width=128)
        assert policy.flat.size > 3 * Adam.BLOCK and policy.flat.size % Adam.BLOCK
        rng = np.random.default_rng(22)
        steps, lrs = [], []
        for step in range(20):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=policy.flat.size)
            grad[rng.random(grad.size) < 0.05] = 0.0
            steps.append(grad)
            lrs.append(1e-3 * (1.0 + step) / 7.0)
        grads = []
        for g in steps:
            policy.grad[:] = g
            grads.append({name: t.copy() for name, t in policy.grads.items()})
        expected = reference_adam_steps(
            {name: t.copy() for name, t in policy.params.items()}, grads, lrs
        )
        opt = Adam(policy.flat)
        for grad, lr in zip(steps, lrs):
            opt.apply(policy.flat, grad, lr)
        for name, tensor in policy.params.items():
            np.testing.assert_array_equal(tensor, expected[name], err_msg=name)

    def test_import_and_a_single_block_search_start_no_thread(self):
        # A fresh interpreter, so no earlier test has started the worker.
        script = textwrap.dedent(
            """
            import dataclasses, sys, threading
            from shardsearch.config import load_config, packaged_config_path
            from shardsearch.env import SearchEnv
            from shardsearch.ppo import run_search
            assert "concurrent.futures" not in sys.modules
            threads = threading.active_count()
            cfg = load_config(packaged_config_path("tiny"))
            env = SearchEnv(cfg.model, cfg.hardware, cfg.space,
                            context_len=cfg.simulation.context_len, budget=10,
                            reward=cfg.reward, slo_tpot=cfg.simulation.slo_tpot)
            run_search(env, dataclasses.replace(cfg.ppo, budget=10), seed=0)
            assert threading.active_count() == threads, threading.enumerate()
            """
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)

    def test_worker_keeps_no_reference_to_a_finished_step(self):
        params = np.zeros(3 * Adam.BLOCK)
        opt = Adam(params)
        opt.apply(params, np.ones(params.size), 1e-3)
        refs = [weakref.ref(params), weakref.ref(opt.m)]
        del params, opt
        assert [ref() for ref in refs] == [None, None]

    def test_concurrent_callers_each_get_their_own_step(self):
        # More callers than cores share the one worker thread. Each call must
        # wait for its own upper half, so the parameters read right after
        # every step equal those of the same steps taken alone.
        rng = np.random.default_rng(5)
        start = rng.normal(size=3 * Adam.BLOCK + 7)
        grads = [rng.normal(size=start.size) for _ in range(4)]

        def trajectory(grad):
            params = start.copy()
            opt = Adam(params)
            seen = []
            for _ in range(10):
                opt.apply(params, grad.copy(), 1e-3)
                seen.append(params.copy())
            return seen

        expected = [trajectory(grad) for grad in grads]
        results = [None] * len(grads)

        def run(i):
            results[i] = trajectory(grads[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grads))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(np.array(got), np.array(want))

    @pytest.mark.skipif(sys.platform != "linux", reason="needs the fork start method")
    def test_forked_child_steps_a_multi_block_vector(self):
        params = np.linspace(-1.0, 1.0, 3 * Adam.BLOCK + 5)
        grad = np.cos(7.0 * params)
        expected = params.copy()
        Adam(expected).apply(expected, grad.copy(), 1e-3)
        if len(os.sched_getaffinity(0)) >= 2:
            assert any(t.name == "adam-worker" for t in threading.enumerate())

        def child():
            stepped = params.copy()
            Adam(stepped).apply(stepped, grad.copy(), 1e-3)
            sys.exit(0 if np.array_equal(stepped, expected) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("forked child did not finish its Adam step")
        assert proc.exitcode == 0


class TestCollect:
    def test_consumes_exactly_n_budget_units(self):
        env = make_env(budget=10)
        policy = make_policy()
        buf = EliteBuffer(3)
        batch = collect(env, policy, buf, 2, np.random.default_rng(0))
        assert len(batch) == 2
        assert env.evals_used == 2

    def test_invalid_samples_keep_penalty_and_stay_out_of_elites(self):
        oom_hw = HardwareSpec(
            name="bare",
            peak_flops=1e15,
            hbm_bandwidth=3e12,
            hbm_capacity=1e4,  # nothing fits: every strategy is invalid
            intra_node_bw=9e11,
            inter_node_bw=5e10,
            node_size=8,
            device_budget=64,
            kernel_overhead=0.0,
            per_collective_latency=0.0,
        )
        env = SearchEnv(
            model=small_model(),
            hw=oom_hw,
            space=small_space(),
            context_len=256,
            budget=8,
            reward=RewardConfig(),
        )
        policy = make_policy(seed=1)
        buf = EliteBuffer(3)
        batch = collect(env, policy, buf, 8, np.random.default_rng(1))
        assert all(s.reward == env.reward_cfg.invalid_penalty for s in batch)
        assert buf.entries == ()

    def test_frozen_one_hot_policy_repeats_one_strategy(self):
        env = make_env(budget=10)
        policy = make_policy()
        force_one_hot(policy, (0,) * 16)
        batch = collect(env, policy, EliteBuffer(3), 2, np.random.default_rng(2))
        assert batch[0].action == (0,) * 16
        assert batch[1].action == (0,) * 16

    def test_budget_exhaustion_discards_partial_batch(self):
        env = make_env(budget=1)
        policy = make_policy()
        with pytest.raises(BudgetExhausted):
            collect(env, policy, EliteBuffer(3), 2, np.random.default_rng(0))
        assert env.evals_used == 1  # the spent eval stays spent

    def test_forward_pass_is_reused_until_the_buffer_changes(self, forward_calls):
        env = make_env(budget=10)
        policy = make_policy()
        force_one_hot(policy, (0,) * 16)
        buf = EliteBuffer(3)
        batch = collect(env, policy, buf, 3, np.random.default_rng(2))
        assert all(record.valid for record in env.eval_log)
        # Step 0 fills the empty buffer; steps 1 and 2 repeat its vector,
        # which the buffer rejects, so only step 1 needs a new pass.
        assert forward_calls == {"forward": 2, "observation": 2}
        assert batch[0].obs is not batch[1].obs
        assert batch[0].forward[0] is not batch[1].forward[0]
        assert batch[1].obs is batch[2].obs
        assert batch[1].forward[0] is batch[2].forward[0]
        np.testing.assert_array_equal(batch[1].obs, build_observation(buf, policy.space))

    def test_an_unchanged_buffer_costs_one_forward_pass_per_batch(self, forward_calls):
        env = SearchEnv(
            model=small_model(),
            hw=HardwareSpec(**{**vars(small_hw()), "hbm_capacity": 1e4}),
            space=small_space(),
            context_len=256,
            budget=8,
            reward=RewardConfig(),
        )
        batch = collect(env, make_policy(seed=1), EliteBuffer(3), 8, np.random.default_rng(1))
        assert not any(record.valid for record in env.eval_log)
        assert forward_calls == {"forward": 1, "observation": 1}
        assert all(sample.obs is batch[0].obs for sample in batch)

    def test_logprob_old_matches_recomputation_before_update(self):
        env = make_env(budget=10)
        policy = make_policy(seed=3)
        buf = EliteBuffer(3)
        batch = collect(env, policy, buf, 4, np.random.default_rng(3))
        for sample in batch:
            out = policy.forward_cached(sample.obs)[0]
            assert out.logprob(sample.action) == pytest.approx(sample.logprob_old, abs=1e-9)


class TestPpoUpdate:
    def batch_of(self, policy, env, n=2, seed=0):
        return collect(env, policy, EliteBuffer(3), n, np.random.default_rng(seed))

    def test_reused_forward_equals_fresh_forward(self):
        def arrays(out, cache):
            yield from (out.logits, out.probs, out.log_probs)
            yield np.array(out.value)
            for entry in cache.values():
                yield from entry if isinstance(entry, tuple) else (entry,)

        env = make_env()
        policy = make_policy(seed=14)
        batch = self.batch_of(policy, env)
        for sample in batch:
            kept = list(arrays(*sample.forward))
            fresh = list(arrays(*policy.forward_cached(sample.obs)))
            assert len(kept) == len(fresh)
            for a, b in zip(kept, fresh):
                np.testing.assert_array_equal(a, b)
        reused, reused_grads = loss_and_grads(
            policy, batch, small_cfg(), reuse_forward=True
        )
        reused_grads = {name: g.copy() for name, g in reused_grads.items()}
        recomputed, fresh_grads = loss_and_grads(policy, batch, small_cfg())
        assert reused.total_loss == recomputed.total_loss
        assert reused.mean_ratio == recomputed.mean_ratio
        for name in policy.params:
            np.testing.assert_array_equal(reused_grads[name], fresh_grads[name])

    def test_samples_of_one_observation_share_one_forward_pass(self, forward_calls):
        policy = make_policy(seed=15)
        rng = np.random.default_rng(15)
        shared, other = rng.random((3, 16)), rng.random((3, 16))
        batch = []
        for obs in (shared, other, shared):
            out = policy.forward_cached(obs)[0]
            action, logprob = policy.sample(out, rng)
            batch.append(
                RolloutSample(
                    obs=obs,
                    action=action,
                    logprob_old=logprob - 0.1,
                    reward=out.value + rng.normal(),
                    value_old=out.value,
                )
            )
        # Copies of the observations: no two samples share an object.
        apart = [replace(sample, obs=sample.obs.copy()) for sample in batch]
        report_apart, grads = loss_and_grads(policy, apart, small_cfg())
        grads_apart = {name: g.copy() for name, g in grads.items()}
        forward_calls["forward"] = 0
        report, grads = loss_and_grads(policy, batch, small_cfg())
        assert forward_calls["forward"] == 2
        assert replace(report, lr=0.0) == replace(report_apart, lr=0.0)  # lr is NaN
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, grads_apart[name], err_msg=name)

    @pytest.mark.parametrize(
        "width, name",
        [(8, "ffn.w1"), (128, "value.w1")],
        ids=["one-block", "two-threads"],
    )
    def test_a_non_finite_step_names_the_tensor(self, monkeypatch, width, name):
        monkeypatch.setattr(ppo_module, "_usable_cpus", lambda: 2)
        env = make_env()
        policy = make_policy(seed=16, width=width)
        batch = self.batch_of(policy, env, seed=16)
        optimizer = Adam(policy.flat)
        offset = (policy.params[name].ctypes.data - policy.flat.ctypes.data) // policy.flat.itemsize
        if width == 8:
            assert optimizer._split is None
        else:
            assert optimizer._split is not None and offset >= optimizer._split
        backward = policy.backward

        def poisoned(*args, **kwargs):
            grads = backward(*args, **kwargs)
            grads[name][0, 0] = np.nan
            return grads

        monkeypatch.setattr(policy, "backward", poisoned)
        with pytest.raises(NumericsError, match=rf"non-finite values in {re.escape(name)}$"):
            ppo_update(policy, batch, small_cfg(width=width), 1e-3, optimizer)

    def test_ratio_is_one_on_first_epoch(self):
        env = make_env()
        policy = make_policy(seed=4)
        batch = self.batch_of(policy, env)
        report, _ = loss_and_grads(policy, batch, small_cfg())
        assert report.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.clip_fraction == 0.0

    def test_zero_advantage_zero_value_error_moves_nothing(self):
        policy = make_policy(seed=5)
        obs = np.zeros((3, 16))
        out = policy.forward_cached(obs)[0]
        action, logprob = policy.sample(out, np.random.default_rng(0))
        sample = RolloutSample(
            obs=obs,
            action=action,
            logprob_old=logprob,
            reward=out.value,  # advantage and value error both vanish
            value_old=out.value,
        )
        cfg = small_cfg(entropy_coef=1e-9)
        cfg = PpoConfig(**{**cfg.__dict__, "entropy_coef": 0.0})
        report, grads = loss_and_grads(policy, (sample,), cfg)
        assert report.policy_loss == 0.0
        assert report.value_loss == 0.0
        for grad in grads.values():
            np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_positive_advantage_raises_action_probability(self):
        policy = make_policy(seed=6)
        obs = np.zeros((3, 16))
        out = policy.forward_cached(obs)[0]
        action, logprob = policy.sample(out, np.random.default_rng(1))
        sample = RolloutSample(
            obs=obs,
            action=action,
            logprob_old=logprob,
            reward=out.value + 1.0,  # advantage +1
            value_old=out.value,
        )
        cfg = small_cfg(entropy_coef=0.0)
        optimizer = Adam(policy.flat)
        before = out.logprob(action)
        ppo_update(policy, (sample,), cfg, lr=1e-3, optimizer=optimizer)
        after = policy.forward_cached(obs)[0].logprob(action)
        assert after > before

    def test_two_epochs_applied(self):
        env = make_env()
        policy = make_policy(seed=7)
        batch = self.batch_of(policy, env, seed=7)
        optimizer = Adam(policy.flat)
        reports = ppo_update(policy, batch, small_cfg(), lr=1e-3, optimizer=optimizer)
        assert len(reports) == 2
        assert [r.lr for r in reports] == [1e-3, 1e-3]
        assert optimizer.step_count == 2
        # Second epoch runs under moved parameters: ratio leaves 1.
        assert reports[1].mean_ratio != pytest.approx(1.0, abs=1e-15)

    def test_loss_gradients_match_finite_differences(self):
        policy = make_policy(seed=8, width=8)
        rng = np.random.default_rng(9)
        # Randomize output layers so every gradient path carries signal.
        for name in policy.params:
            if name.startswith(("head.", "value.w", "value.b")):
                policy.params[name][...] = rng.normal(scale=0.3, size=policy.params[name].shape)

        samples = []
        for advantage in (0.7, -0.4):
            obs = rng.random((3, 16))
            out = policy.forward_cached(obs)[0]
            action, logprob = policy.sample(out, rng)
            samples.append(
                RolloutSample(
                    obs=obs,
                    action=action,
                    # Offset keeps the ratio near exp(0.05), inside the clip
                    # band and away from its kinks.
                    logprob_old=logprob - 0.05,
                    reward=out.value + advantage,
                    value_old=out.value,
                )
            )
        batch = tuple(samples)
        cfg = small_cfg()

        # Copied: the returned views are the policy's own, and the probes
        # below overwrite them.
        grads = {name: g.copy() for name, g in loss_and_grads(policy, batch, cfg)[1].items()}
        step = 1e-5
        for name, tensor in policy.params.items():
            for idx in np.ndindex(tensor.shape):
                original = tensor[idx]
                tensor[idx] = original + step
                up = loss_and_grads(policy, batch, cfg)[0].total_loss
                tensor[idx] = original - step
                down = loss_and_grads(policy, batch, cfg)[0].total_loss
                tensor[idx] = original
                numeric = (up - down) / (2.0 * step)
                analytic = grads[name][idx]
                rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
                assert rel <= 1e-4, f"{name}{idx}: {analytic} vs {numeric}"

    def test_non_finite_loss_aborts(self):
        policy = make_policy(seed=10)
        obs = np.zeros((3, 16))
        out = policy.forward_cached(obs)[0]
        action, logprob = policy.sample(out, np.random.default_rng(2))
        sample = RolloutSample(
            obs=obs,
            action=action,
            logprob_old=logprob,
            reward=float("inf"),
            value_old=out.value,
        )
        with pytest.raises(FloatingPointError):
            loss_and_grads(policy, (sample,), small_cfg())


class TestRunChunk:
    def test_tau_above_one_never_exits_early(self):
        env = make_env(budget=8)
        policy = make_policy(seed=11)
        outcome = run_chunk(
            env,
            policy,
            EliteBuffer(3),
            allowance=8,
            cfg=small_cfg(tau=2.0),
            rng=np.random.default_rng(4),
        )
        assert outcome.exit is ChunkExit.EXHAUSTED
        assert outcome.evals_used == 8
        assert env.evals_used == 8

    def test_one_hot_policy_exits_immediately(self):
        env = make_env(budget=8)
        policy = make_policy(seed=12)
        force_one_hot(policy, (0,) * 16)
        outcome = run_chunk(
            env,
            policy,
            EliteBuffer(3),
            allowance=8,
            cfg=small_cfg(),
            rng=np.random.default_rng(5),
        )
        assert outcome.exit is ChunkExit.EARLY_EXIT
        assert outcome.evals_used == 2  # one rollout, then confident

    def test_early_exit_condition_is_all_heads(self):
        # One uncertain head must block the exit even when the rest saturate.
        env = make_env(budget=8)
        policy = make_policy(seed=13)
        force_one_hot(policy, (0,) * 16)
        policy.params["head.b"][:3] = 0.0  # tp head stays uniform
        outcome = run_chunk(
            env,
            policy,
            EliteBuffer(3),
            allowance=8,
            cfg=small_cfg(),
            rng=np.random.default_rng(6),
        )
        assert outcome.exit is ChunkExit.EXHAUSTED

    def test_spends_at_most_allowance(self):
        env = make_env(budget=64)
        policy = make_policy(seed=14)
        outcome = run_chunk(
            env,
            policy,
            EliteBuffer(3),
            allowance=7,  # not a multiple of n_steps: final rollout is short
            cfg=small_cfg(tau=2.0),
            rng=np.random.default_rng(7),
        )
        assert outcome.evals_used == 7


class TestRunSearch:
    def test_no_early_exit_spends_budget_in_five_chunks(self):
        env = make_env(budget=20)
        restarts = run_search(env, small_cfg(tau=2.0), seed=0)
        assert env.evals_used == 20
        assert restarts == (0, 4, 8, 12, 16)
        assert len(env.eval_log) == 20

    def test_early_exits_roll_budget_forward_and_still_spend_all(self):
        # tau far below any reachable confidence: every chunk exits after one
        # update, leftover budget funds extra restarts until spent.
        env = make_env(budget=20)
        restarts = run_search(env, small_cfg(tau=1e-6), seed=1)
        assert env.evals_used == 20
        assert restarts == tuple(range(0, 20, 2))

    def test_environment_baseline_never_decreases(self):
        env = make_env(budget=20)
        baselines = []
        original_step = env.step

        def spying_step(action):
            result = original_step(action)
            baselines.append(env.best_raw)
            return result

        env.step = spying_step
        run_search(env, small_cfg(tau=1e-6), seed=2)
        assert all(a <= b for a, b in zip(baselines, baselines[1:]))

    def test_same_seed_reproduces_everything_but_the_clock(self):
        restarts, envs = [], []
        for _ in range(2):
            env = make_env(budget=20)
            restarts.append(run_search(env, small_cfg(), seed=7))
            envs.append(env)
        a, b = envs
        assert a.eval_log == b.eval_log
        assert a.best_vector == b.best_vector
        assert a.best_raw == b.best_raw
        assert restarts[0] == restarts[1]

    def test_different_restarts_draw_different_parameters(self):
        rng = np.random.default_rng(0)
        ops = canonical_fused_ops(small_model())
        first = PolicyNetwork(small_space(), ops, rng=rng, width=16)
        second = PolicyNetwork(small_space(), ops, rng=rng, width=16)
        assert not np.array_equal(first.params["embed.w"], second.params["embed.w"])

    def test_insufficient_environment_budget_rejected(self):
        env = make_env(budget=10)
        with pytest.raises(ValueError, match="evals left"):
            run_search(env, small_cfg(budget=20), seed=0)

    def test_elites_survive_across_chunks(self):
        # Run one chunk, then hand the same buffer to a fresh agent: entries
        # and the environment baseline both carry over.
        env = make_env(budget=30)
        buf = EliteBuffer(3)
        cfg = small_cfg(tau=2.0)
        rng = np.random.default_rng(8)
        ops = canonical_fused_ops(small_model())
        first = PolicyNetwork(small_space(), ops, rng=rng, width=16)
        run_chunk(env, first, buf, allowance=10, cfg=cfg, rng=rng)
        entries_before = buf.entries
        baseline_before = env.best_raw
        assert entries_before, "chunk should have found at least one valid strategy"

        fresh = PolicyNetwork(small_space(), ops, rng=rng, width=16)
        run_chunk(env, fresh, buf, allowance=10, cfg=cfg, rng=rng)
        assert set(entries_before) <= set(buf.entries) or len(buf.entries) == 3
        assert env.best_raw >= baseline_before


class TestForwardPasses:
    def test_a_tiny_search_runs_about_one_forward_pass_per_eval(
        self, tmp_path, capsys, forward_calls
    ):
        budget = 200
        args = ["search", "--config", "tiny", "--algo", "ppo", "--budget", str(budget),
                "--seeds", "1", "--out", str(tmp_path / "run")]
        assert main(args) == 0
        capsys.readouterr()
        # Each two-step update needs one pass for its second epoch and one
        # for the confidence check; a buffer change costs one more.
        assert budget <= forward_calls["forward"] <= 1.1 * budget


class TestSearchReport:
    def test_best_so_far_curve_is_non_decreasing(self):
        env = make_env(budget=20)
        run_search(env, small_cfg(), seed=4)
        # The curve `report` draws: a running max of the log's raws.
        curve = list(itertools.accumulate((r.raw for r in env.eval_log), max))
        assert len(curve) == 20
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == env.best_raw
