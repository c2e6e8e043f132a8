"""PPO loss math, chunked budget protocol, and determinism.

The full-loss finite-difference test is the oracle for the trainer's
gradient wiring end to end (surrogate, value, entropy terms together).
"""

import itertools
import math
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import shardsearch.ppo as ppo_module
from shardsearch.cli import main
from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import BudgetExhausted, RewardConfig, SearchEnv, load_eval_log
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
    Visit,
    collect,
    cosine_decay,
    loss_and_grads,
    ppo_update,
    run_chunk,
    run_search,
)
from shardsearch.strategy import canonical_fused_ops

from small_specs import small_hw, small_model, small_space


def make_env(budget=64, log_path=None):
    return SearchEnv(
        model=small_model(),
        hw=small_hw(),
        space=small_space(),
        context_len=256,
        budget=budget,
        reward=RewardConfig(),
        log_path=log_path,
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


def fresh_forwards(policy, visits):
    """One forward pass per visit under the current parameters."""
    return [policy.forward_cached(visit.obs) for visit in visits]


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


@pytest.fixture
def backward_calls(monkeypatch):
    """A one-item list counting ``PolicyNetwork.backward`` calls."""
    count = [0]
    backward = PolicyNetwork.backward

    def counted_backward(self, *args, **kwargs):
        count[0] += 1
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(PolicyNetwork, "backward", counted_backward)
    return count


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
        assert cfg.width == 64

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
    """Per-tensor Adam in ``Adam``'s scaled-moment algebra, written as plain
    array expressions: ``m`` and ``v`` hold the moments over ``1 - beta``."""
    params = {name: t.copy() for name, t in tensors.items()}
    m = {name: np.zeros_like(t) for name, t in tensors.items()}
    v = {name: np.zeros_like(t) for name, t in tensors.items()}
    for step, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        bias1 = 1.0 - beta1**step
        bias2 = 1.0 - beta2**step
        c2 = math.sqrt((1.0 - beta2) / bias2)
        size = lr * (1.0 - beta1) / bias1 / c2
        for name, grad in grads.items():
            m[name] = m[name] * beta1 + grad
            v[name] = v[name] * beta2 + grad * grad
            update = m[name] / (np.sqrt(v[name]) + eps / c2) * size
            params[name] = params[name] - update
    return params


def textbook_adam_steps(tensors, grad_steps, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam as Kingma & Ba write it, one dict of gradients per step."""
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


def adam_gradients(policy, steps, seed):
    """Seeded flat gradients of scale 1e-6 to 10, 5% of entries zero."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=policy.flat.size)
        grad[rng.random(grad.size) < 0.05] = 0.0
        yield grad


def per_tensor(policy, flat_grads):
    """Each flat gradient as a dict of per-tensor copies."""
    for grad in flat_grads:
        policy.grad[:] = grad
        yield {name: t.copy() for name, t in policy.grads.items()}


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
        lrs = [1e-3 * (1.0 + step) / 7.0 for step in range(20)]
        expected = reference_adam_steps(
            {name: t.copy() for name, t in policy.params.items()},
            per_tensor(policy, adam_gradients(policy, len(lrs), seed=22)),
            lrs,
        )
        opt = Adam(policy.flat)
        for grad, lr in zip(adam_gradients(policy, len(lrs), seed=22), lrs):
            opt.apply(policy.flat, grad, lr)
        for name, tensor in policy.params.items():
            np.testing.assert_array_equal(tensor, expected[name], err_msg=name)

    def test_flat_update_matches_the_textbook_formula(self):
        # 800 steps, as many as a chunk of a 4000-eval search runs: past
        # step 350 the first-moment bias correction rounds to 1.
        policy = make_policy(seed=23, width=8)
        lrs = [cosine_decay(1e-3, step / 800) for step in range(800)]
        expected = textbook_adam_steps(
            {name: t.copy() for name, t in policy.params.items()},
            per_tensor(policy, adam_gradients(policy, len(lrs), seed=24)),
            lrs,
        )
        opt = Adam(policy.flat)
        for grad, lr in zip(adam_gradients(policy, len(lrs), seed=24), lrs):
            opt.apply(policy.flat, grad, lr)
        for name, tensor in policy.params.items():
            np.testing.assert_allclose(tensor, expected[name], rtol=1e-12, atol=1e-15, err_msg=name)

    def test_state_is_two_moment_vectors_and_a_step_allocates_nothing(self):
        # Width 128 spans several update blocks.
        policy = make_policy(seed=25, width=128)
        grad = next(adam_gradients(policy, 1, seed=26))
        tracemalloc.start()
        try:
            opt = Adam(policy.flat)
            state = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            opt.apply(policy.flat, grad, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - state
        finally:
            tracemalloc.stop()
        assert state <= 2.05 * policy.flat.nbytes, state / policy.flat.nbytes
        assert peak < 16 * 1024, peak

    def test_import_and_a_multi_block_search_start_no_thread(self):
        # A fresh interpreter, so no earlier test has started a thread. The
        # packaged 1.2T learner spans two Adam blocks.
        script = textwrap.dedent(
            """
            import dataclasses, sys, threading
            import numpy as np
            from shardsearch.config import load_config, packaged_config_path
            from shardsearch.env import SearchEnv
            from shardsearch.policy import PolicyNetwork
            from shardsearch.ppo import Adam, run_search
            from shardsearch.strategy import canonical_fused_ops
            assert "concurrent.futures" not in sys.modules
            threads = threading.active_count()
            cfg = load_config(packaged_config_path("moe_1p2t_h100"))
            env = SearchEnv(cfg.model, cfg.hardware, cfg.space,
                            context_len=cfg.simulation.context_len, budget=10,
                            reward=cfg.reward, slo_tpot=cfg.simulation.slo_tpot)
            policy = PolicyNetwork(cfg.space, canonical_fused_ops(cfg.model),
                                   rng=np.random.default_rng(0),
                                   history_len=cfg.ppo.history_len, width=cfg.ppo.width)
            assert policy.flat.size > Adam.BLOCK, policy.flat.size
            run_search(env, dataclasses.replace(cfg.ppo, budget=10), seed=0)
            assert threading.active_count() == threads, threading.enumerate()
            """
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


class TestCollect:
    def test_consumes_exactly_n_budget_units(self):
        env = make_env(budget=10)
        policy = make_policy()
        buf = EliteBuffer(3)
        visits = collect(env, policy, buf, 2, np.random.default_rng(0))
        assert sum(len(visit.samples) for visit in visits) == 2
        assert env.evals_used == 2

    def test_invalid_samples_keep_penalty_and_stay_out_of_elites(self):
        oom_hw = small_hw(hbm_capacity=1e4)  # nothing fits: every strategy is invalid
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
        (visit,) = collect(env, policy, buf, 8, np.random.default_rng(1))
        assert all(s.reward == env.reward_cfg.invalid_penalty for s in visit.samples)
        assert buf.entries == ()

    def test_frozen_one_hot_policy_repeats_one_strategy(self):
        env = make_env(budget=10)
        policy = make_policy()
        force_one_hot(policy, (0,) * 16)
        visits = collect(env, policy, EliteBuffer(3), 2, np.random.default_rng(2))
        batch = [sample for visit in visits for sample in visit.samples]
        assert batch[0].action == (0,) * 16
        assert batch[1].action == (0,) * 16

    def test_budget_exhaustion_discards_partial_batch(self):
        env = make_env(budget=1)
        policy = make_policy()
        with pytest.raises(BudgetExhausted):
            collect(env, policy, EliteBuffer(3), 2, np.random.default_rng(0))
        assert env.evals_used == 1  # the spent eval stays spent

    def test_forward_pass_is_reused_until_the_buffer_changes(self, forward_calls, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=10, log_path=log)
        policy = make_policy()
        force_one_hot(policy, (0,) * 16)
        buf = EliteBuffer(3)
        visits = collect(env, policy, buf, 3, np.random.default_rng(2))
        assert all(record.valid for record in load_eval_log(log))
        # Step 0 fills the empty buffer; steps 1 and 2 repeat its vector,
        # which the buffer rejects, so only step 1 needs a new pass.
        assert forward_calls == {"forward": 2, "observation": 2}
        assert [len(visit.samples) for visit in visits] == [1, 2]
        assert visits[0].obs is not visits[1].obs
        assert visits[0].forward[0] is not visits[1].forward[0]
        np.testing.assert_array_equal(visits[1].obs, build_observation(buf, policy.space))

    def test_an_unchanged_buffer_costs_one_forward_pass_per_batch(self, forward_calls, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = SearchEnv(
            model=small_model(),
            hw=small_hw(hbm_capacity=1e4),
            space=small_space(),
            context_len=256,
            budget=8,
            reward=RewardConfig(),
            log_path=log,
        )
        visits = collect(env, make_policy(seed=1), EliteBuffer(3), 8, np.random.default_rng(1))
        assert not any(record.valid for record in load_eval_log(log))
        assert forward_calls == {"forward": 1, "observation": 1}
        assert [len(visit.samples) for visit in visits] == [8]

    def test_logprob_old_matches_recomputation_before_update(self):
        env = make_env(budget=10)
        policy = make_policy(seed=3)
        buf = EliteBuffer(3)
        visits = collect(env, policy, buf, 4, np.random.default_rng(3))
        for visit in visits:
            out = policy.forward_cached(visit.obs)[0]
            for sample in visit.samples:
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
        for visit in batch:
            kept = list(arrays(*visit.forward))
            fresh = list(arrays(*policy.forward_cached(visit.obs)))
            assert len(kept) == len(fresh)
            for a, b in zip(kept, fresh):
                np.testing.assert_array_equal(a, b)
        reused, reused_grads = loss_and_grads(
            policy, batch, [visit.forward for visit in batch], small_cfg()
        )
        reused_grads = {name: g.copy() for name, g in reused_grads.items()}
        recomputed, fresh_grads = loss_and_grads(
            policy, batch, fresh_forwards(policy, batch), small_cfg()
        )
        assert reused.total_loss == recomputed.total_loss
        assert reused.mean_ratio == recomputed.mean_ratio
        for name in policy.params:
            np.testing.assert_array_equal(reused_grads[name], fresh_grads[name])

    def test_samples_of_one_observation_share_one_forward_pass(self, monkeypatch):
        policy = make_policy(seed=15)
        rng = np.random.default_rng(15)
        batch = []
        for obs, k in ((rng.random((3, 16)), 2), (rng.random((3, 16)), 1)):
            forward = policy.forward_cached(obs)
            out = forward[0]
            samples = []
            for _ in range(k):
                action, logprob = policy.sample(out, rng)
                samples.append(
                    RolloutSample(
                        action=action,
                        logprob_old=logprob - 0.1,
                        reward=out.value + rng.normal(),
                    )
                )
            batch.append(Visit(obs, forward, samples))
        calls = []
        backward = policy.backward

        def spy(cache, d_logits, d_value, accumulate=False):
            calls.append((cache, d_logits.copy(), d_value, accumulate))
            return backward(cache, d_logits, d_value, accumulate=accumulate)

        monkeypatch.setattr(policy, "backward", spy)
        # One visit per sample: no two samples share a forward pass.
        apart = [
            Visit(visit.obs, visit.forward, [sample])
            for visit in batch
            for sample in visit.samples
        ]
        report_apart, grads = loss_and_grads(
            policy, apart, fresh_forwards(policy, apart), small_cfg()
        )
        grads_apart = {name: g.copy() for name, g in grads.items()}
        per_sample = [(d_logits, d_value) for _, d_logits, d_value, _ in calls]
        assert len(per_sample) == 3
        calls.clear()
        report, grads = loss_and_grads(
            policy, batch, fresh_forwards(policy, batch), small_cfg()
        )
        grads = {name: g.copy() for name, g in grads.items()}
        assert replace(report, lr=0.0) == replace(report_apart, lr=0.0)  # lr is NaN

        # One backward pass per visit, in visit order; the shared pass gets
        # the per-sample upstream gradients summed in batch order.
        shared_call, other_call = calls
        assert shared_call[0] is not other_call[0]
        assert (shared_call[3], other_call[3]) == (False, True)
        sum_logits = per_sample[0][0] + per_sample[1][0]
        sum_value = per_sample[0][1] + per_sample[1][1]
        np.testing.assert_array_equal(shared_call[1], sum_logits)
        assert shared_call[2] == sum_value
        np.testing.assert_array_equal(other_call[1], per_sample[2][0])
        assert other_call[2] == per_sample[2][1]
        backward(shared_call[0], sum_logits, sum_value)
        reference = backward(other_call[0], *per_sample[2], accumulate=True)
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, reference[name], err_msg=name)
            # Summing upstream gradients first rounds differently from
            # summing per-sample parameter gradients, by about an ulp.
            np.testing.assert_allclose(
                grad, grads_apart[name], rtol=1e-12, atol=1e-15, err_msg=name
            )

    @pytest.mark.parametrize(
        "width, name",
        [(8, "ffn.w1"), (128, "value.w1")],
        ids=["one-block", "multi-block"],
    )
    def test_a_non_finite_step_names_the_tensor(self, monkeypatch, width, name):
        env = make_env()
        policy = make_policy(seed=16, width=width)
        batch = self.batch_of(policy, env, seed=16)
        optimizer = Adam(policy.flat)
        offset = (policy.params[name].ctypes.data - policy.flat.ctypes.data) // policy.flat.itemsize
        assert (offset >= Adam.BLOCK) == (width > 8)
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
        report, _ = loss_and_grads(policy, batch, fresh_forwards(policy, batch), small_cfg())
        assert report.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.clip_fraction == 0.0

    def test_zero_advantage_zero_value_error_moves_nothing(self):
        policy = make_policy(seed=5)
        obs = np.zeros((3, 16))
        forward = policy.forward_cached(obs)
        out = forward[0]
        action, logprob = policy.sample(out, np.random.default_rng(0))
        sample = RolloutSample(
            action=action,
            logprob_old=logprob,
            reward=out.value,  # advantage and value error both vanish
        )
        cfg = small_cfg(entropy_coef=1e-9)
        cfg = PpoConfig(**{**cfg.__dict__, "entropy_coef": 0.0})
        report, grads = loss_and_grads(policy, [Visit(obs, forward, [sample])], [forward], cfg)
        assert report.policy_loss == 0.0
        assert report.value_loss == 0.0
        for grad in grads.values():
            np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_positive_advantage_raises_action_probability(self):
        policy = make_policy(seed=6)
        obs = np.zeros((3, 16))
        forward = policy.forward_cached(obs)
        out = forward[0]
        action, logprob = policy.sample(out, np.random.default_rng(1))
        sample = RolloutSample(
            action=action,
            logprob_old=logprob,
            reward=out.value + 1.0,  # advantage +1
        )
        cfg = small_cfg(entropy_coef=0.0)
        optimizer = Adam(policy.flat)
        before = out.logprob(action)
        ppo_update(policy, [Visit(obs, forward, [sample])], cfg, lr=1e-3, optimizer=optimizer)
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

        visits = []
        for advantage in (0.7, -0.4):
            obs = rng.random((3, 16))
            forward = policy.forward_cached(obs)
            out = forward[0]
            action, logprob = policy.sample(out, rng)
            sample = RolloutSample(
                action=action,
                # Offset keeps the ratio near exp(0.05), inside the clip
                # band and away from its kinks.
                logprob_old=logprob - 0.05,
                reward=out.value + advantage,
            )
            visits.append(Visit(obs, forward, [sample]))
        batch = tuple(visits)
        cfg = small_cfg()

        def loss(batch, cfg):
            return loss_and_grads(policy, batch, fresh_forwards(policy, batch), cfg)

        # Copied: the returned views are the policy's own, and the probes
        # below overwrite them.
        grads = {name: g.copy() for name, g in loss(batch, cfg)[1].items()}
        step = 1e-5
        for name, tensor in policy.params.items():
            for idx in np.ndindex(tensor.shape):
                original = tensor[idx]
                tensor[idx] = original + step
                up = loss(batch, cfg)[0].total_loss
                tensor[idx] = original - step
                down = loss(batch, cfg)[0].total_loss
                tensor[idx] = original
                numeric = (up - down) / (2.0 * step)
                analytic = grads[name][idx]
                rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
                assert rel <= 1e-4, f"{name}{idx}: {analytic} vs {numeric}"

    def test_non_finite_loss_aborts(self):
        policy = make_policy(seed=10)
        obs = np.zeros((3, 16))
        forward = policy.forward_cached(obs)
        action, logprob = policy.sample(forward[0], np.random.default_rng(2))
        sample = RolloutSample(action=action, logprob_old=logprob, reward=float("inf"))
        with pytest.raises(FloatingPointError):
            loss_and_grads(policy, [Visit(obs, forward, [sample])], [forward], small_cfg())


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
    def test_no_early_exit_spends_budget_in_five_chunks(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=20, log_path=log)
        restarts = run_search(env, small_cfg(tau=2.0), seed=0)
        assert env.evals_used == 20
        assert restarts == (0, 4, 8, 12, 16)
        assert len(load_eval_log(log)) == 20

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

    def test_same_seed_reproduces_everything_but_the_clock(self, tmp_path):
        restarts, envs = [], []
        for name in ("a", "b"):
            with make_env(budget=20, log_path=tmp_path / name) as env:
                restarts.append(run_search(env, small_cfg(), seed=7))
            envs.append(env)
        a, b = envs
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
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
    @pytest.fixture
    def tiny_search(self, tmp_path, capsys, monkeypatch, forward_calls, backward_calls):
        """Pass, visit and chunk counts of a seeded 200-eval tiny search."""
        counts = {"visits": 0, "chunks": 0}
        collect, run_chunk = ppo_module.collect, ppo_module.run_chunk

        def counted_collect(*args, **kwargs):
            visits = collect(*args, **kwargs)
            counts["visits"] += len(visits)
            return visits

        def counted_run_chunk(*args, **kwargs):
            counts["chunks"] += 1
            return run_chunk(*args, **kwargs)

        monkeypatch.setattr(ppo_module, "collect", counted_collect)
        monkeypatch.setattr(ppo_module, "run_chunk", counted_run_chunk)
        args = ["search", "--config", "tiny", "--algo", "ppo", "--budget", "200",
                "--seeds", "1", "--out", str(tmp_path / "run")]
        assert main(args) == 0
        capsys.readouterr()
        return {**counts, "forward": forward_calls["forward"], "backward": backward_calls[0]}

    def test_a_tiny_search_runs_one_backward_pass_per_visit_and_epoch(self, tiny_search):
        epochs = load_config(packaged_config_path("tiny")).ppo.epochs_per_update
        assert tiny_search["backward"] == epochs * tiny_search["visits"]

    def test_a_tiny_search_runs_one_forward_pass_per_backward_pass_and_chunk(self, tiny_search):
        # A visit runs one forward pass per epoch; its first comes from
        # `collect` or from the last update's confidence check. A chunk's
        # final confidence check starts no visit: one more pass per chunk.
        assert tiny_search["forward"] == tiny_search["backward"] + tiny_search["chunks"]


class TestSearchReport:
    def test_best_so_far_curve_is_non_decreasing(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=20, log_path=log)
        run_search(env, small_cfg(), seed=4)
        # The curve `report` draws: a running max of the log's raws.
        curve = list(itertools.accumulate((r.raw for r in load_eval_log(log)), max))
        assert len(curve) == 20
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == env.best_raw
