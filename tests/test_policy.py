"""Elite buffer semantics, network forward/backward and sampling.

The gradient tests are the load-bearing part: every analytic gradient is
checked entry-by-entry against central finite differences on a width-8 toy
network, so the hand-written backward pass has an independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsearch.policy import (
    MASKED_LOGIT,
    EliteBuffer,
    NumericsError,
    PolicyNetwork,
    PolicyOutput,
    build_observation,
    confidence,
    head_masks,
)
from shardsearch.strategy import (
    ActionSpaceSpec,
    AxisChoice,
    CostKind,
    FusedOpDescriptor,
    OpClass,
)

# Hand oracle: softmax([2, 0]) gives max prob e^2 / (e^2 + 1).
SOFTMAX_2_0_MAX = 0.8807970779778824


def toy_ops():
    both = {AxisChoice.DIM0: 8, AxisChoice.DIM1: 8}
    return (
        FusedOpDescriptor("alpha", OpClass.DENSE_MATMUL, CostKind.MATMUL, True, 8, 8, both),
        FusedOpDescriptor(
            "beta", OpClass.ATTENTION_CORE, CostKind.ATTENTION, True, 8, 8, {AxisChoice.DIM1: 8}
        ),
        FusedOpDescriptor("gamma", OpClass.ELEMENTWISE, CostKind.NORM, True, 8, 8, {}),
    )


def toy_space():
    return ActionSpaceSpec(
        tp_domain=(1, 2),
        ep_domain=(1, 2),
        pp_domain=(1,),
        batch_domain=(1, 4, 16),
        op_names=("alpha", "beta", "gamma"),
    )


def toy_policy(seed=0, width=8, history_len=3):
    return PolicyNetwork(
        toy_space(),
        toy_ops(),
        rng=np.random.default_rng(seed),
        history_len=history_len,
        width=width,
    )


class TestEliteBuffer:
    def test_empty_buffer_accepts_any_entry(self):
        buf = EliteBuffer(capacity=3)
        assert buf.offer((0, 0, 0), -5.0) is True
        assert len(buf) == 1

    def test_full_buffer_evicts_minimum(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((1,), 9.0)
        buf.offer((2,), 7.0)
        buf.offer((3,), 5.0)
        assert buf.offer((4,), 6.0) is True
        assert [e.reward for e in buf.entries] == [9.0, 7.0, 6.0]
        assert all(e.vector != (3,) for e in buf.entries)

    def test_full_buffer_rejects_below_minimum(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((1,), 9.0)
        buf.offer((2,), 7.0)
        buf.offer((3,), 5.0)
        assert buf.offer((4,), 4.0) is False
        assert [e.reward for e in buf.entries] == [9.0, 7.0, 5.0]

    def test_tie_with_minimum_is_rejected(self):
        buf = EliteBuffer(capacity=2)
        buf.offer((1,), 3.0)
        buf.offer((2,), 1.0)
        assert buf.offer((3,), 1.0) is False

    def test_duplicate_vector_never_reinserted(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((1, 2), 5.0)
        assert buf.offer((1, 2), 50.0) is False
        assert len(buf) == 1
        assert buf.entries[0].reward == 5.0

    def test_sorted_best_first_regardless_of_insert_order(self):
        buf = EliteBuffer(capacity=3)
        for vec, reward in (((1,), 5.0), ((2,), 9.0), ((3,), 7.0)):
            buf.offer(vec, reward)
        assert [e.reward for e in buf.entries] == [9.0, 7.0, 5.0]

    def test_min_reward_is_minus_inf_until_full(self):
        buf = EliteBuffer(capacity=2)
        assert buf.min_reward == float("-inf")
        buf.offer((1,), 3.0)
        assert buf.min_reward == float("-inf")
        buf.offer((2,), 1.0)
        assert buf.min_reward == 1.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EliteBuffer(capacity=0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_invariants_hold_after_every_offer(self, offers):
        buf = EliteBuffer(capacity=3)
        prev_min = float("-inf")
        for key, reward in offers:
            buf.offer((key,), reward)
            rewards = [e.reward for e in buf.entries]
            assert len(buf) <= 3
            assert rewards == sorted(rewards, reverse=True)
            vectors = [e.vector for e in buf.entries]
            assert len(set(vectors)) == len(vectors)
            assert buf.min_reward >= prev_min
            prev_min = buf.min_reward


class TestBuildObservation:
    def test_empty_buffer_is_all_zeros(self):
        buf = EliteBuffer(capacity=3)
        obs = build_observation(buf, toy_space())
        assert obs.shape == (3, 7)
        assert np.all(obs == 0.0)

    def test_all_minimal_strategy_is_a_zero_row(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((0,) * 7, 1.0)
        obs = build_observation(buf, toy_space())
        assert np.all(obs == 0.0)

    def test_rows_ordered_best_first(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((0,) * 7, 5.0)
        buf.offer((1, 1, 0, 1, 1, 1, 1), 9.0)
        buf.offer((0, 1, 0, 1, 1, 1, 1), 7.0)
        obs = build_observation(buf, toy_space())
        # head sizes (2, 2, 1, 3, 3, 3, 3): index 1 normalizes to 1 for the
        # binary heads, 0 for the single-choice pp head, 1/2 elsewhere.
        np.testing.assert_allclose(obs[0], [1, 1, 0, 0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(obs[1], [0, 1, 0, 0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(obs[2], np.zeros(7))

    def test_max_indices_normalize_to_one(self):
        buf = EliteBuffer(capacity=1)
        buf.offer((1, 1, 0, 2, 2, 2, 2), 1.0)
        obs = build_observation(buf, toy_space())
        np.testing.assert_allclose(obs[0], [1, 1, 0, 1, 1, 1, 1])

    def test_partial_buffer_pads_with_zero_rows(self):
        buf = EliteBuffer(capacity=3)
        buf.offer((1, 1, 0, 2, 2, 2, 2), 1.0)
        obs = build_observation(buf, toy_space())
        assert np.all(obs[1:] == 0.0)


class TestHeadMasks:
    def test_masks_follow_op_admissibility(self):
        masks = head_masks(toy_space(), toy_ops())
        # One row per head, padded to the widest head (3 choices).
        assert masks[:4].tolist() == [
            [True, True, False],
            [True, True, False],
            [True, False, False],
            [True, True, True],
        ]
        assert masks[4].tolist() == [True, True, True]  # both axes
        assert masks[5].tolist() == [True, False, True]  # dim1 only
        assert masks[6].tolist() == [True, False, False]  # unsharded only

    def test_unknown_op_name_rejected(self):
        space = ActionSpaceSpec(
            tp_domain=(1,),
            ep_domain=(1,),
            pp_domain=(1,),
            batch_domain=(1,),
            op_names=("nonesuch",),
        )
        with pytest.raises(ValueError, match="nonesuch"):
            head_masks(space, toy_ops())


class TestForward:
    def test_fresh_policy_is_uniform_over_admissible_choices(self):
        policy = toy_policy()
        out = policy.forward(np.zeros((3, 7)))
        np.testing.assert_allclose(out.probs[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(out.probs[2], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out.probs[3], [1 / 3] * 3)
        np.testing.assert_allclose(out.probs[4], [1 / 3] * 3)
        np.testing.assert_allclose(out.probs[5], [0.5, 0.0, 0.5])
        np.testing.assert_allclose(out.probs[6], [1.0, 0.0, 0.0])
        assert out.value == 0.0

    def test_forward_is_deterministic(self):
        policy = toy_policy(seed=3)
        obs = np.random.default_rng(1).random((3, 7))
        a = policy.forward(obs)
        b = policy.forward(obs)
        for la, lb in zip(a.logits, b.logits):
            np.testing.assert_array_equal(la, lb)
        assert a.value == b.value

    def test_row_permutation_invariance(self):
        policy = toy_policy(seed=5)
        rng = np.random.default_rng(2)
        obs = rng.random((3, 7))
        base = policy.forward(obs)
        for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
            permuted = policy.forward(obs[list(perm)])
            for la, lb in zip(base.logits, permuted.logits):
                np.testing.assert_allclose(la, lb, atol=1e-10)
            assert permuted.value == pytest.approx(base.value, abs=1e-10)

    def test_softmax_sums_to_one_on_random_params(self):
        for seed in range(8):
            policy = toy_policy(seed=seed)
            # Randomize the zero-initialized output layers too.
            rng = np.random.default_rng(100 + seed)
            for name in policy.params:
                if name.startswith(("head.", "value.")):
                    policy.params[name][...] = rng.normal(
                        scale=0.5, size=policy.params[name].shape
                    )
            obs = rng.random((3, 7))
            out = policy.forward(obs)
            for probs in out.probs:
                assert abs(float(np.sum(probs)) - 1.0) <= 1e-6

    def test_masked_entries_have_zero_probability(self):
        policy = toy_policy()
        out = policy.forward(np.zeros((3, 7)))
        assert out.logits[5][1] == MASKED_LOGIT
        assert out.probs[5][1] == 0.0
        assert out.probs[6][1] == 0.0 and out.probs[6][2] == 0.0
        # Padding cells past a head's size are masked the same way.
        assert out.logits[0][2] == MASKED_LOGIT and out.probs[0][2] == 0.0
        assert out.probs[2][1] == 0.0 and out.probs[2][2] == 0.0

    def test_non_finite_parameter_surfaces_as_numerics_error(self):
        policy = toy_policy()
        policy.params["ffn.w1"][0, 0] = np.nan
        with pytest.raises(NumericsError):
            policy.forward(np.zeros((3, 7)))
        with pytest.raises(NumericsError):
            policy.check_finite()

    def test_wrong_observation_shape_rejected(self):
        policy = toy_policy()
        with pytest.raises(ValueError, match="shape"):
            policy.forward(np.zeros((2, 7)))

    def test_parameter_count_matches_hand_total(self):
        policy = toy_policy(width=8)
        d = 8
        obs_dim = 7
        expected = (
            (obs_dim * d + d)  # embed
            + 4 * (d * d + d)  # attention projections
            + 4 * d  # two layer norms
            + (d * d + d) + (d * d + d)  # ffn
            + sum(d * k + k for k in (2, 2, 1, 3, 3, 3, 3))  # heads
            + (d * d + d) + (d + 1)  # value mlp
        )
        assert policy.flat.size == expected


class TestSample:
    def test_one_hot_logits_sample_deterministically(self):
        policy = toy_policy()
        head = np.full(policy.mask.shape, -20.0)
        head[:, 0] = 20.0
        logits = np.where(policy.mask, head, MASKED_LOGIT)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        out = PolicyOutput(logits=logits, probs=probs, value=0.0, pooled=np.zeros(8))
        rng = np.random.default_rng(0)
        for _ in range(20):
            action, _, entropy = policy.sample(out, rng)
            assert action == (0,) * 7
            assert entropy < 1e-8

    def test_uniform_head_frequencies_within_two_percent(self):
        policy = toy_policy()
        out = admissible_uniform_output(policy)
        np.testing.assert_array_equal(out.probs[3], np.full(3, 1.0 / 3.0))
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        draws = 100_000
        for _ in range(draws):
            counts[policy.sample(out, rng)[0][3]] += 1
        np.testing.assert_allclose(counts / draws, out.probs[3], atol=0.02)

    def test_zero_probability_entries_never_sampled(self):
        policy = toy_policy()
        out = admissible_uniform_output(policy)
        np.testing.assert_array_equal(out.probs[5], [0.5, 0.0, 0.5])
        rng = np.random.default_rng(3)
        actions = [policy.sample(out, rng)[0] for _ in range(5000)]
        assert 1 not in {action[5] for action in actions}
        assert {action[2] for action in actions} == {0}  # padding never wins
        assert {action[6] for action in actions} == {0}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sample_matches_per_head_searchsorted_reference(self, data):
        coarse = data.draw(st.tuples(*(st.integers(min_value=1, max_value=5),) * 4))
        ops = data.draw(st.integers(min_value=1, max_value=3))
        space = ActionSpaceSpec(
            *(tuple(range(1, k + 1)) for k in coarse),
            op_names=("alpha", "beta", "gamma")[:ops],
        )
        policy = PolicyNetwork(
            space, toy_ops(), rng=np.random.default_rng(0), width=2
        )
        weight = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
        probs = np.zeros(policy.mask.shape)
        for row, k in enumerate(space.head_sizes):
            weights = data.draw(st.lists(weight, min_size=k, max_size=k).filter(any))
            probs[row, :k] = np.asarray(weights) / np.sum(weights)
        logits = np.log(probs, where=probs > 0, out=np.full(probs.shape, MASKED_LOGIT))
        out = PolicyOutput(logits=logits, probs=probs, value=0.0, pooled=np.zeros(2))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        action = policy.sample(out, rng)[0]
        heads = [probs[row, :k] for row, k in enumerate(space.head_sizes)]
        assert action == reference_sample(heads, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_logprob_matches_recomputed_log_softmax(self):
        policy = toy_policy(seed=11)
        rng = np.random.default_rng(4)
        for name in policy.params:
            if name.startswith("head."):
                policy.params[name][...] = rng.normal(scale=0.3, size=policy.params[name].shape)
        out = policy.forward(rng.random((3, 7)))
        action, logprob, entropy = policy.sample(out, np.random.default_rng(9))
        expected = 0.0
        for head, idx in zip(out.logits, action):
            shifted = head - head.max()
            expected += float(shifted[idx] - np.log(np.exp(shifted).sum()))
        assert logprob == pytest.approx(expected, rel=1e-12)
        relogprob, reentropy = policy.action_logprob_entropy(out, action)
        assert relogprob == pytest.approx(logprob, rel=1e-12)
        assert reentropy == pytest.approx(entropy, rel=1e-12)

    def test_same_seed_same_action_sequence(self):
        policy = toy_policy(seed=2)
        obs = np.random.default_rng(5).random((3, 7))
        out = policy.forward(obs)
        first = [policy.sample(out, np.random.default_rng(42))[0] for _ in range(5)]
        second = [policy.sample(out, np.random.default_rng(42))[0] for _ in range(5)]
        assert first == second

    def test_action_length_validated(self):
        policy = toy_policy()
        out = policy.forward(np.zeros((3, 7)))
        with pytest.raises(ValueError):
            policy.action_logprob_entropy(out, (0, 0))


def admissible_uniform_output(policy):
    """A hand-built output, uniform over each head's admissible choices."""
    logits = np.where(policy.mask, 0.0, MASKED_LOGIT)
    probs = policy.mask / policy.mask.sum(axis=1, keepdims=True)
    return PolicyOutput(logits=logits, probs=probs, value=0.0, pooled=np.zeros(policy.width))


def reference_sample(heads, rng):
    """Per-head inverse-CDF draws, one scalar uniform per head in order."""
    action = []
    for probs in heads:
        cumulative = np.cumsum(probs)
        draw = rng.random() * cumulative[-1]
        idx = int(np.searchsorted(cumulative, draw, side="right"))
        action.append(min(idx, len(probs) - 1))
    return tuple(action)


class TestConfidence:
    def test_uniform_logits_give_one_over_k(self):
        policy = toy_policy()
        out = policy.forward(np.zeros((3, 7)))
        cs = confidence(out)
        assert cs[0] == pytest.approx(0.5)
        assert cs[3] == pytest.approx(1.0 / 3.0)

    def test_single_choice_heads_are_fully_confident(self):
        policy = toy_policy()
        out = policy.forward(np.zeros((3, 7)))
        assert cs_of(out, 2) == 1.0  # pp domain has one value
        assert cs_of(out, 6) == 1.0  # unsharded-only op

    def test_two_zero_logits_hand_case(self):
        probs = np.array([np.exp(2.0), 1.0])
        probs /= probs.sum()
        out = PolicyOutput(
            logits=np.array([[2.0, 0.0]]),
            probs=probs[None, :],
            value=0.0,
            pooled=np.zeros(1),
        )
        assert confidence(out)[0] == pytest.approx(SOFTMAX_2_0_MAX, rel=1e-12)

    def test_one_hot_confidence_saturates(self):
        probs = np.array([1.0, 0.0, 0.0])
        out = PolicyOutput(
            logits=np.array([[40.0, -40.0, -40.0]]),
            probs=probs[None, :],
            value=0.0,
            pooled=np.zeros(1),
        )
        assert confidence(out)[0] == pytest.approx(1.0)

    def test_confidence_bounded_by_one(self):
        for seed in range(5):
            policy = toy_policy(seed=seed)
            obs = np.random.default_rng(seed).random((3, 7))
            cs = confidence(policy.forward(obs))
            assert np.all(cs > 0.0) and np.all(cs <= 1.0)


def cs_of(out, head):
    return float(np.max(out.probs[head]))


class TestGradients:
    """Central finite differences as the oracle for the hand backward pass."""

    @staticmethod
    def randomized_policy(seed):
        policy = toy_policy(seed=seed, width=8)
        rng = np.random.default_rng(1000 + seed)
        # Zero-initialized output layers would leave entire gradient paths
        # trivially zero; randomize them so every path carries signal.
        for name in policy.params:
            if name.startswith(("head.", "value.")) and not name.startswith("value.b"):
                policy.params[name][...] = rng.normal(scale=0.4, size=policy.params[name].shape)
        return policy

    @staticmethod
    def scalar_loss(policy, obs, coeffs, value_coeff):
        out = policy.forward(obs)
        total = value_coeff * out.value
        for c, logits, mask in zip(coeffs, out.logits, policy.mask):
            total += float(np.sum(np.where(mask, c * logits, 0.0)))
        return total

    def test_backward_matches_central_differences_everywhere(self):
        policy = self.randomized_policy(seed=0)
        rng = np.random.default_rng(77)
        obs = rng.random((3, 7))
        coeffs = [rng.normal(size=m.shape) for m in policy.mask]
        value_coeff = float(rng.normal())

        out, cache = policy.forward_cached(obs)
        d_logits = np.where(policy.mask, coeffs, 0.0)
        grads = policy.backward(cache, d_logits, value_coeff)
        assert set(grads) == set(policy.params)

        step = 1e-5
        worst = 0.0
        for name, tensor in policy.params.items():
            grad = grads[name]
            assert grad.shape == tensor.shape
            for idx in np.ndindex(tensor.shape):
                original = tensor[idx]
                tensor[idx] = original + step
                up = self.scalar_loss(policy, obs, coeffs, value_coeff)
                tensor[idx] = original - step
                down = self.scalar_loss(policy, obs, coeffs, value_coeff)
                tensor[idx] = original
                numeric = (up - down) / (2.0 * step)
                analytic = grad[idx]
                rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
                worst = max(worst, rel)
                assert rel <= 1e-4, f"{name}{idx}: {analytic} vs {numeric}"
        assert worst <= 1e-4

    def test_masked_logit_gradients_are_zero(self):
        policy = self.randomized_policy(seed=1)
        obs = np.random.default_rng(8).random((3, 7))
        out, cache = policy.forward_cached(obs)
        d_logits = np.ones(policy.mask.shape)
        grads = policy.backward(cache, d_logits, 0.0)
        # Head 6 admits only choice 0; its masked columns must not move.
        assert np.all(grads["head.6.w"][:, 1:] == 0.0)
        assert np.all(grads["head.6.b"][1:] == 0.0)
