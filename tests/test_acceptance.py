"""End-to-end acceptance bars for the whole package, one test per criterion.

Each test states an externally observable bar: search quality against an
enumerated oracle, head-to-head searcher comparisons on the flagship
workload, plan-structure guarantees, numerical oracles, protocol accounting,
and reward arithmetic. The expensive search fixtures are module-scoped so
the bars share one set of runs.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from shardsearch.baselines import (
    SaConfig,
    megatron_exhaustive,
    megatron_vectors,
    random_walk,
    simulated_annealing,
)
from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import RewardConfig, SearchEnv, load_eval_log
from shardsearch.layout import CollectiveKind, CollectiveOp, Interconnect, Segment, plan_layer
from shardsearch.policy import EliteBuffer, PolicyNetwork
from shardsearch.ppo import (
    ChunkExit,
    PpoConfig,
    RolloutSample,
    loss_and_grads,
    run_chunk,
    run_search,
)
from shardsearch.simulator import (
    InvalidReason,
    SimRequest,
    SimResult,
    TimeBreakdown,
    collective_time,
    simulate,
)
from shardsearch.strategy import (
    AxisChoice,
    Strategy,
    canonical_fused_ops,
    decode_strategy,
    encode_strategy,
    megatron_fine_dims,
)

SEEDS = range(10)

# Exhaustively verified optimum of the packaged tiny workload; used where a
# known-valid point is needed without re-enumerating.
TINY_BEST_VECTOR = (1, 0, 2, 2, 1, 2, 2, 2)


def best_valid_raw(env: SearchEnv) -> float:
    return max((rec.raw for rec in env.eval_log if rec.valid), default=0.0)


def make_env(cfg, budget: int, log_path=None) -> SearchEnv:
    return SearchEnv(
        model=cfg.model,
        hw=cfg.hardware,
        space=cfg.space,
        context_len=cfg.simulation.context_len,
        budget=budget,
        slo_tpot=cfg.simulation.slo_tpot,
        log_path=log_path,
    )


@pytest.fixture(scope="module")
def tiny_cfg():
    return load_config(packaged_config_path("tiny"))


@pytest.fixture(scope="module")
def tiny_oracle(tiny_cfg):
    """Ground-truth optimum of the fully enumerable 6561-point space."""
    best = 0.0
    for vector in itertools.product(range(3), repeat=tiny_cfg.space.vector_length):
        result = simulate(
            SimRequest(
                model=tiny_cfg.model,
                hw=tiny_cfg.hardware,
                strategy=decode_strategy(vector, tiny_cfg.space),
                context_len=tiny_cfg.simulation.context_len,
                slo_tpot=tiny_cfg.simulation.slo_tpot,
            )
        )
        if result.valid and result.throughput > best:
            best = result.throughput
    assert best > 0.0
    return best


@pytest.fixture(scope="module")
def tiny_policy_runs(tiny_cfg):
    """Ten seeded policy searches on the oracle instance, with wall time."""
    bests = []
    start = time.perf_counter()
    for seed in SEEDS:
        env = make_env(tiny_cfg, tiny_cfg.ppo.budget)
        run_search(env, tiny_cfg.ppo, seed)
        best = max(
            (rec for rec in env.eval_log if rec.valid),
            key=lambda rec: rec.raw,
            default=None,
        )
        assert best is not None, f"seed {seed} found no valid strategy"
        bests.append(best)
    return {"bests": bests, "elapsed_s": time.perf_counter() - start}


@pytest.fixture(scope="module")
def flagship_runs():
    """PPO vs annealing vs random sampling on the 1.2T-class workload."""
    cfg = load_config(packaged_config_path("moe_1p2t_h100"))
    budget = 4000
    out = {}
    for name in ("rw", "sa", "ppo"):
        bests = []
        start = time.perf_counter()
        for seed in SEEDS:
            env = make_env(cfg, budget)
            if name == "rw":
                random_walk(env, budget, seed)
            elif name == "sa":
                simulated_annealing(env, SaConfig(), budget, seed)
            else:
                run_search(env, dataclasses.replace(cfg.ppo, budget=budget), seed)
            bests.append(best_valid_raw(env))
        out[name] = {"bests": bests, "elapsed_s": time.perf_counter() - start}
    return out


def test_small_space_search_recovers_the_enumerated_optimum(
    tiny_oracle, tiny_policy_runs
):
    fractions = [rec.raw / tiny_oracle for rec in tiny_policy_runs["bests"]]
    hits = sum(1 for frac in fractions if frac >= 0.95)
    assert hits >= 8, f"only {hits}/10 seeds reached 95% of the oracle: {fractions}"
    assert tiny_policy_runs["elapsed_s"] < 120.0


def test_flagship_search_beats_annealing_and_random_sampling(flagship_runs):
    means = {
        name: sum(stats["bests"]) / len(stats["bests"])
        for name, stats in flagship_runs.items()
    }
    assert means["ppo"] > means["sa"], means
    assert means["ppo"] > means["rw"], means
    assert means["ppo"] / means["rw"] >= 1.5, means
    for name, stats in flagship_runs.items():
        assert stats["elapsed_s"] < 600.0, (name, stats["elapsed_s"])


def test_best_found_plan_beats_the_heuristic_with_different_shard_axes(
    tiny_cfg, tiny_policy_runs
):
    ops = canonical_fused_ops(tiny_cfg.model)
    heuristic = make_env(tiny_cfg, len(megatron_vectors(tiny_cfg.space, ops)))
    megatron_exhaustive(heuristic)
    assert heuristic.best_vector is not None
    winner = max(tiny_policy_runs["bests"], key=lambda rec: rec.raw)
    assert winner.raw >= heuristic.best_raw

    by_name = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    heuristic_tail = tuple(int(by_name[n]) for n in tiny_cfg.space.op_names)
    assert tuple(winner.vector[4:]) != heuristic_tail


def test_allgather_between_ffn_matmuls_replaces_the_mlp_allreduce():
    cfg = load_config(packaged_config_path("moe_1p2t_h100"))
    ops = canonical_fused_ops(cfg.model)
    names = tuple(op.name for op in ops)
    by_name = dict(zip(names, megatron_fine_dims(ops)))
    ffn_ops = {"expert_ffn1", "expert_ffn2", "shared_ffn1", "shared_ffn2"}

    def plan_with(dims_by_name):
        strategy = Strategy(
            tp=4,
            ep=1,
            pp=1,
            batch=64,
            op_names=names,
            op_dims=tuple(dims_by_name[n] for n in names),
        )
        return plan_layer(
            cfg.model, Segment.of(ops), strategy, batch_tokens=64, node_size=cfg.hardware.node_size
        )

    def mlp_collectives(plan):
        # The MLP block proper: the expert/shared matmul steps plus the
        # trailing boundary. The reconciliation attached to the router input
        # completes the attention block and is excluded.
        kinds = []
        for step in plan.steps:
            if step.op.name in ffn_ops:
                kinds.extend(c.kind for c in step.collectives_before)
        kinds.extend(c.kind for c in plan.exit_collectives)
        return kinds

    alternative = dict(by_name)
    alternative.update(expert_ffn2=AxisChoice.DIM1, shared_ffn2=AxisChoice.DIM1)
    alt_plan = plan_with(alternative)
    ffn2_step = next(s for s in alt_plan.steps if s.op.name == "expert_ffn2")
    assert any(
        c.kind is CollectiveKind.ALL_GATHER for c in ffn2_step.collectives_before
    )
    assert CollectiveKind.ALL_REDUCE not in mlp_collectives(alt_plan)

    mega_plan = plan_with(dict(by_name))
    assert mlp_collectives(mega_plan).count(CollectiveKind.ALL_REDUCE) == 1
    mega_ffn2 = next(s for s in mega_plan.steps if s.op.name == "expert_ffn2")
    assert not any(
        c.kind
        in (
            CollectiveKind.ALL_GATHER,
            CollectiveKind.ALL_REDUCE,
            CollectiveKind.REDUCE_SCATTER,
        )
        for c in mega_ffn2.collectives_before
    )


def test_gradients_collective_costs_breakdown_and_codec_are_exact(tiny_cfg):
    # (a) full-loss analytic gradients against central finite differences
    # on a width-8 network, every parameter entry.
    space = tiny_cfg.space
    ops = canonical_fused_ops(tiny_cfg.model)
    rng = np.random.default_rng(5)
    policy = PolicyNetwork(space, ops, rng=rng, width=8)
    for name in policy.params:
        if name.startswith(("head.", "value.w", "value.b")):
            policy.params[name][...] = rng.normal(scale=0.3, size=policy.params[name].shape)
    samples = []
    for advantage in (0.8, -0.5):
        obs = rng.random((3, space.vector_length))
        out = policy.forward_cached(obs)[0]
        action, logprob = policy.sample(out, rng)
        samples.append(
            RolloutSample(
                obs=obs,
                action=action,
                # Offset keeps the ratio inside the clip band, off its kinks.
                logprob_old=logprob - 0.05,
                reward=out.value + advantage,
                value_old=out.value,
            )
        )
    batch = tuple(samples)
    cfg = PpoConfig(budget=8, chunks=1, width=8)
    # Copied: the returned views are the policy's own, and the probes below
    # overwrite them.
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

    # (b) collective costs against the closed-form alpha-beta model for 20
    # random (kind, group, payload, wire) tuples.
    hw = tiny_cfg.hardware
    rng = np.random.default_rng(11)
    kinds = (
        CollectiveKind.ALL_REDUCE,
        CollectiveKind.ALL_GATHER,
        CollectiveKind.REDUCE_SCATTER,
        CollectiveKind.ALL_TO_ALL,
        CollectiveKind.POINT_TO_POINT,
    )
    for _ in range(20):
        kind = kinds[rng.integers(len(kinds))]
        n = int(rng.integers(2, 65))
        payload = float(rng.uniform(1e3, 1e9))
        wire = Interconnect.INTRA_NODE if rng.random() < 0.5 else Interconnect.INTER_NODE
        bw = hw.intra_node_bw if wire is Interconnect.INTRA_NODE else hw.inter_node_bw
        lat = hw.per_collective_latency
        hops = math.ceil(math.log2(n))
        if kind is CollectiveKind.ALL_REDUCE:
            expected = 2.0 * (n - 1) / n * payload / bw + lat * hops
        elif kind is CollectiveKind.POINT_TO_POINT:
            expected = payload / bw + lat
        else:
            expected = (n - 1) / n * payload / bw + lat * hops
        got = collective_time(CollectiveOp(kind, n, payload, wire), hw)
        assert got == pytest.approx(expected, rel=1e-12), (kind, n, payload, wire)

    # (c) the time breakdown sums to tpot with no residue.
    result = simulate(
        SimRequest(
            model=tiny_cfg.model,
            hw=tiny_cfg.hardware,
            strategy=decode_strategy(TINY_BEST_VECTOR, tiny_cfg.space),
            context_len=tiny_cfg.simulation.context_len,
            slo_tpot=tiny_cfg.simulation.slo_tpot,
        )
    )
    assert result.valid
    parts = result.breakdown
    assert parts.compute_s + parts.comm_s + parts.pipeline_s == result.tpot_s

    # (d) encode/decode is a bijection over 100000 random action vectors.
    big = load_config(packaged_config_path("moe_1p2t_h100")).space
    sizes = np.array(
        [
            len(big.tp_domain),
            len(big.ep_domain),
            len(big.pp_domain),
            len(big.batch_domain),
        ]
        + [3] * len(big.op_names)
    )
    rng = np.random.default_rng(13)
    for row in rng.integers(0, sizes, size=(100_000, len(sizes))):
        vector = tuple(int(v) for v in row)
        assert encode_strategy(decode_strategy(vector, big), big) == vector


def test_chunk_protocol_restarts_budget_accounting_and_replay(tiny_cfg, tmp_path):
    space = tiny_cfg.space
    ops = canonical_fused_ops(tiny_cfg.model)
    chunk_cfg = PpoConfig(budget=8, chunks=1, n_steps=2, width=16)

    def fresh_policy(seed):
        return PolicyNetwork(
            space, ops, rng=np.random.default_rng(seed), width=16
        )

    def one_hot(policy, action):
        start = 0
        for k, idx in zip(policy.head_sizes, action):
            policy.params["head.b"][start : start + k] = -50.0
            policy.params["head.b"][start + idx] = 50.0
            start += k

    # Early exit fires when every head is confident...
    env = make_env(tiny_cfg, 8)
    policy = fresh_policy(0)
    one_hot(policy, (0,) * len(policy.head_sizes))
    outcome = run_chunk(
        env, policy, EliteBuffer(3), allowance=8, cfg=chunk_cfg,
        rng=np.random.default_rng(1),
    )
    assert outcome.exit is ChunkExit.EARLY_EXIT

    # ... and one uncertain head blocks it.
    env = make_env(tiny_cfg, 8)
    policy = fresh_policy(2)
    one_hot(policy, (0,) * len(policy.head_sizes))
    policy.params["head.b"][: len(space.tp_domain)] = 0.0
    outcome = run_chunk(
        env, policy, EliteBuffer(3), allowance=8, cfg=chunk_cfg,
        rng=np.random.default_rng(3),
    )
    assert outcome.exit is ChunkExit.EXHAUSTED

    # Chunk boundaries keep the environment baseline and the elite buffer
    # while the policy parameters start over.
    env = make_env(tiny_cfg, 50)
    env.step(TINY_BEST_VECTOR)
    pre_best = env.best_raw
    assert pre_best > 0.0
    buf = EliteBuffer(3)
    buf.offer(TINY_BEST_VECTOR, 1e9)  # sentinel no later offer can evict
    rng = np.random.default_rng(4)
    first = PolicyNetwork(space, ops, rng=rng, width=16)
    run_chunk(env, first, buf, allowance=20, cfg=chunk_cfg, rng=rng)
    assert env.best_raw >= pre_best
    second = PolicyNetwork(space, ops, rng=rng, width=16)
    assert not np.array_equal(first.params["embed.w"], second.params["embed.w"])
    run_chunk(env, second, buf, allowance=20, cfg=chunk_cfg, rng=rng)
    assert env.best_raw >= pre_best
    assert any(e.reward == 1e9 for e in buf.entries)

    # Full runs spend the budget exactly, whether or not chunks exit early,
    # and the restart offsets trace the protocol.
    for tau, restarts in ((2.0, (0, 4, 8, 12, 16)), (1e-6, tuple(range(0, 20, 2)))):
        env = make_env(tiny_cfg, 20)
        cfg = PpoConfig(budget=20, chunks=5, n_steps=2, tau=tau, width=16)
        assert run_search(env, cfg, seed=5) == restarts
        assert env.evals_used == 20

        # The baseline each step paid its bonus against is recoverable from
        # the shaped reward (alpha = beta = 1); it must equal the running
        # best-so-far at every step, so restarts never reset it.
        running = 0.0
        for rec in env.eval_log:
            if rec.valid:
                baseline_used = 2.0 * rec.raw - rec.reward
                assert baseline_used == pytest.approx(running, rel=1e-9, abs=1e-9)
                running = max(running, rec.raw)

    # Streamed logs replay through the simulator bit for bit.
    log_path = tmp_path / "evals.ndjson"
    with make_env(tiny_cfg, 30, log_path=log_path) as env:
        run_search(
            env,
            PpoConfig(budget=30, chunks=5, n_steps=2, width=16),
            seed=6,
        )
    records = load_eval_log(log_path)
    assert len(records) == 30
    for record in records:
        result = env.evaluate_raw(decode_strategy(record.vector, env.space))
        assert record.raw == (result.throughput if result.valid else 0.0)


def test_reward_shaping_substitution_cases(tiny_cfg):
    def stub(raw=None, reason=InvalidReason.NONE):
        valid = raw is not None
        return SimResult(
            valid=valid,
            invalid_reason=InvalidReason.NONE if valid else reason,
            throughput=raw if valid else 0.0,
            tpot_s=0.001,
            memory_bytes=0.0,
            breakdown=TimeBreakdown(0.001, 0.0, 0.0),
        )

    action = (0,) * tiny_cfg.space.vector_length
    env = make_env(tiny_cfg, 3)
    env.reward_cfg = RewardConfig(alpha=1.0, beta=1.0, invalid_penalty=-10.0)

    # Improvement: shaped reward adds the bonus, then the baseline moves.
    env.best_raw = 8.0
    env.evaluate_raw = lambda strategy: stub(raw=10.0)
    assert env.step(action) == (12.0, 10.0, True)
    assert env.best_raw == 10.0

    # Underperformance: negative bonus, baseline stays put.
    env.best_raw = 8.0
    env.evaluate_raw = lambda strategy: stub(raw=5.0)
    assert env.step(action) == (2.0, 5.0, True)
    assert env.best_raw == 8.0

    # Invalid: flat penalty, baseline untouched, budget still consumed.
    env.evaluate_raw = lambda strategy: stub(reason=InvalidReason.OOM)
    assert env.step(action) == (-10.0, 0.0, False)
    assert env.best_raw == 8.0
    assert env.evals_used == 3
    assert env.eval_log[-1].reason == "oom"
