"""Random-walk, simulated-annealing, and exhaustive-sweep baselines."""

import numpy as np
import pytest

from shardsearch.baselines import (
    NoValidConfiguration,
    SaConfig,
    acceptance_probability,
    megatron_exhaustive,
    megatron_vectors,
    mutate_vector,
    random_walk,
    simulated_annealing,
    uniform_vector,
)
from shardsearch.env import RewardConfig, SearchEnv, load_eval_log
from shardsearch.simulator import SimRequest, simulate
from shardsearch.strategy import (
    ActionSpaceSpec,
    canonical_fused_ops,
    decode_strategy,
    megatron_fine_dims,
)

from small_specs import small_hw, small_model, small_space


# Hand oracle: exp(-50 / 100) for the Metropolis rule.
EXP_MINUS_HALF = 0.6065306597126334


def make_env(budget=16, hw=None, log_path=None):
    return SearchEnv(
        model=small_model(),
        hw=hw or small_hw(),
        space=small_space(),
        context_len=256,
        budget=budget,
        reward=RewardConfig(),
        log_path=log_path,
    )


class TestUniformAndMutate:
    def test_uniform_vector_respects_domains(self):
        space = small_space()
        rng = np.random.default_rng(0)
        for _ in range(200):
            vec = uniform_vector(space, rng)
            assert len(vec) == space.vector_length
            assert all(0 <= v < k for v, k in zip(vec, space.head_sizes))

    def test_mutation_changes_exactly_one_coordinate(self):
        space = small_space()
        rng = np.random.default_rng(1)
        base = uniform_vector(space, rng)
        for _ in range(200):
            moved = mutate_vector(base, space, rng)
            diffs = [i for i, (a, b) in enumerate(zip(base, moved)) if a != b]
            assert len(diffs) == 1
            coord = diffs[0]
            assert 0 <= moved[coord] < space.head_sizes[coord]

    def test_single_choice_heads_never_mutated(self):
        space = ActionSpaceSpec(
            tp_domain=(1,),
            ep_domain=(1,),
            pp_domain=(1,),
            batch_domain=(1, 4),
            op_names=("qkv_proj",),
        )
        rng = np.random.default_rng(3)
        base = (0, 0, 0, 0, 0)
        for _ in range(50):
            moved = mutate_vector(base, space, rng)
            assert moved[0:3] == (0, 0, 0)
            assert moved != base  # batch or the op head moved


def reference_mutate(vector, space, rng):
    """``mutate_vector`` as first written: a ``rng.choice`` pick and the head
    sizes rebuilt on every call."""
    mutable = [i for i, k in enumerate(space.head_sizes) if k > 1]
    if not mutable:
        return vector
    (pick,) = rng.choice(len(mutable), size=1, replace=False)
    coord = mutable[int(pick)]
    drawn = int(rng.integers(space.head_sizes[coord] - 1))
    out = list(vector)
    out[coord] = drawn if drawn < out[coord] else drawn + 1
    return tuple(out)


class TestRandomStreams:
    """The numpy stream equalities that the baselines' cheaper draws rely on.

    If a numpy release changes either algorithm, these fail first and name
    the cause, before any golden eval-log digest moves.
    """

    def test_one_bounded_integer_equals_a_single_pick_without_replacement(self):
        for n in range(1, 41):
            for seed in range(20):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(30):
                    assert fast.integers(n) == slow.choice(n, size=1, replace=False)[0], n
                    assert fast.integers(n + 5) == slow.integers(n + 5)
                    assert fast.random() == slow.random()

    def test_one_integers_call_over_sizes_equals_one_scalar_draw_each(self):
        sizes = (7, 7, 1, 11, 3, 2, 3, 1, 40, 3)
        for seed in range(100):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                assert fast.integers(sizes).tolist() == [int(slow.integers(k)) for k in sizes]
                assert fast.random() == slow.random()

    @pytest.mark.parametrize("seed", [1])
    def test_mutate_vector_matches_the_reference(self, seed):
        spaces = (
            small_space(),
            ActionSpaceSpec(tp_domain=(1,), ep_domain=(1,), pp_domain=(1, 2),
                            batch_domain=(1, 4), op_names=("qkv_proj", "lm_head")),
        )
        for space in spaces:
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            vector = uniform_vector(space, fast)
            assert vector == uniform_vector(space, slow)
            for _ in range(300):
                moved = mutate_vector(vector, space, fast)
                assert moved == reference_mutate(vector, space, slow)
                vector = moved


class TestAcceptanceRule:
    def test_non_worsening_always_accepted(self):
        assert acceptance_probability(0.0, 1e-12) == 1.0
        assert acceptance_probability(5.0, 1e-12) == 1.0

    def test_hand_case(self):
        assert acceptance_probability(-50.0, 100.0) == pytest.approx(
            EXP_MINUS_HALF, rel=1e-12
        )

    def test_zero_temperature_is_greedy(self):
        assert acceptance_probability(-1e-9, 0.0) == 0.0
        assert acceptance_probability(-1e-9, -1.0) == 0.0

    def test_infinite_temperature_accepts_everything(self):
        assert acceptance_probability(-1e6, 1e300) == pytest.approx(1.0)

    def test_cold_limit_rejects_worsening(self):
        assert acceptance_probability(-1.0, 1e-300) == 0.0


class TestRandomWalk:
    def test_budget_one_report(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=4, log_path=log)
        assert random_walk(env, budget=1, seed=0) is None
        assert env.evals_used == 1
        (only,) = load_eval_log(log)
        assert env.best_vector == (only.vector if only.valid else None)
        assert env.best_raw == only.raw

    def test_same_seed_same_sequence(self, tmp_path):
        vectors = []
        for name in ("a", "b"):
            log = tmp_path / name
            random_walk(make_env(budget=12, log_path=log), budget=12, seed=9)
            vectors.append([r.vector for r in load_eval_log(log)])
        assert vectors[0] == vectors[1]

    def test_report_best_matches_log_argmax(self, tmp_path):
        log = tmp_path / "evals.ndjson"
        env = make_env(budget=24, log_path=log)
        random_walk(env, budget=24, seed=3)
        best = max((r for r in load_eval_log(log) if r.valid), key=lambda r: r.raw)
        assert env.best_raw == best.raw
        assert env.best_vector == best.vector


class TestSimulatedAnnealing:
    def test_consumes_exactly_budget(self):
        env = make_env(budget=30)
        simulated_annealing(env, SaConfig(), budget=30, seed=0)
        assert env.evals_used == 30

    def test_same_seed_reproducible(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            log = tmp_path / name
            simulated_annealing(make_env(budget=20, log_path=log), SaConfig(), budget=20, seed=5)
            logs.append([r.vector for r in load_eval_log(log)])
        assert logs[0] == logs[1]

    def test_reports_best_valid_raw_ever_seen(self, tmp_path):
        # Seed 1 finds nothing valid in 20 proposals; seed 3 finds 12.
        for seed in (1, 3):
            log = tmp_path / f"seed_{seed}"
            env = make_env(budget=20, log_path=log)
            simulated_annealing(env, SaConfig(), budget=20, seed=seed)
            valid = [r for r in load_eval_log(log) if r.valid]
            best = max(valid, key=lambda r: r.raw) if valid else None
            assert env.best_raw == (best.raw if best else 0.0)
            assert env.best_vector == (best.vector if best else None)

    def test_temperature_limits_run_clean(self):
        # Near-zero start temperature: pure hill climbing; huge start
        # temperature: accept-everything. Both must spend the exact budget.
        for t0 in (1e-9, 1e9):
            env = make_env(budget=16)
            simulated_annealing(env, SaConfig(t_initial=t0), budget=16, seed=2)
            assert env.evals_used == 16

    def test_config_validation(self):
        with pytest.raises(ValueError, match="t_initial"):
            SaConfig(t_initial=0.0)


class TestMegatronExhaustive:
    GRID = 3 * 3 * 3 * 3

    def sweep(self, hw=None, log_path=None):
        env = make_env(budget=self.GRID, hw=hw, log_path=log_path)
        megatron_exhaustive(env)
        return env

    def test_grid_size_and_pinned_tails(self, tmp_path):
        space = small_space()
        ops = canonical_fused_ops(small_model())
        vectors = megatron_vectors(space, ops)
        assert len(vectors) == self.GRID
        log = tmp_path / "evals.ndjson"
        env = self.sweep(log_path=log)
        assert env.evals_used == self.GRID
        assert [r.vector for r in load_eval_log(log)] == vectors
        fine = tuple(int(d) for d in megatron_fine_dims(ops))
        assert {v[4:] for v in vectors} == {fine}
        assert env.best_vector[4:] == fine

    def test_winner_is_best_valid_by_raw_reverified(self, tmp_path):
        space = small_space()
        log = tmp_path / "evals.ndjson"
        env = self.sweep(log_path=log)
        # Re-simulate the winner directly; its raw must equal the env's best.
        strategy = decode_strategy(env.best_vector, space)
        result = simulate(
            SimRequest(
                model=small_model(),
                hw=small_hw(),
                strategy=strategy,
                context_len=256,
                slo_tpot=env.slo_tpot,
            )
        )
        assert result.valid
        assert result.throughput == env.best_raw
        # And nothing on the grid beats it.
        assert env.best_raw == max(r.raw for r in load_eval_log(log) if r.valid)

    def test_deterministic_across_calls(self, tmp_path):
        a = self.sweep(log_path=tmp_path / "a")
        b = self.sweep(log_path=tmp_path / "b")
        assert a.best_vector == b.best_vector
        raws = [[r.raw for r in load_eval_log(tmp_path / name)] for name in "ab"]
        assert raws[0] == raws[1]

    def test_zero_valid_configurations_is_an_error(self):
        oom = small_hw(hbm_capacity=1e4)
        with pytest.raises(NoValidConfiguration):
            self.sweep(hw=oom)
