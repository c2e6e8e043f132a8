"""Non-learning search baselines sharing the PPO environment.

Every baseline consumes the environment through the same ``step`` interface
as the learned search, so validity gates, reward shaping and budget
accounting are identical by construction and auditable from the eval log.

Three searches are provided: an i.i.d. uniform random walk, single-site
simulated annealing with a cosine temperature schedule, and the exhaustive
sweep over coarse parallelism degrees with per-operator shard axes pinned to
the standard megatron assignment. The first two optimize the shaped reward
(the same signal PPO sees); the exhaustive sweep stands in for a heuristic
planner that never sees the reward game. Every search reports its best
valid record by raw throughput (``build_report``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .env import SearchEnv, require_finite
from .ppo import SearchReport, build_report, cosine_decay
from .strategy import ActionSpaceSpec, canonical_fused_ops, megatron_fine_dims


class NoValidConfiguration(RuntimeError):
    """An exhaustive sweep found nothing that passes the validity gates."""


@dataclass(frozen=True)
class SaConfig:
    """Simulated-annealing knobs."""

    t_initial: float = 100.0
    neighbor_moves: int = 1

    def __post_init__(self) -> None:
        require_finite("sa", self)
        if self.t_initial <= 0:
            raise ValueError(f"sa.t_initial must be positive, got {self.t_initial}")
        if self.neighbor_moves < 1:
            raise ValueError(
                f"sa.neighbor_moves must be >= 1, got {self.neighbor_moves}"
            )


def uniform_vector(
    space: ActionSpaceSpec, rng: np.random.Generator
) -> tuple[int, ...]:
    """One strategy sampled uniformly over the full joint space."""
    return tuple(int(rng.integers(k)) for k in space.head_sizes)


def mutate_vector(
    vector: tuple[int, ...],
    space: ActionSpaceSpec,
    rng: np.random.Generator,
    moves: int = 1,
) -> tuple[int, ...]:
    """Change ``moves`` distinct coordinates, each to a different value.

    Single-choice heads cannot change and are never picked; if every head is
    single-choice the vector is returned unchanged.
    """
    mutable = [i for i, k in enumerate(space.head_sizes) if k > 1]
    if not mutable:
        return vector
    picks = rng.choice(len(mutable), size=min(moves, len(mutable)), replace=False)
    out = list(vector)
    for pick in np.atleast_1d(picks):
        coord = mutable[int(pick)]
        k = space.head_sizes[coord]
        # Uniform over the k-1 values that differ from the current one.
        drawn = int(rng.integers(k - 1))
        out[coord] = drawn if drawn < out[coord] else drawn + 1
    return tuple(out)


def acceptance_probability(delta: float, temperature: float) -> float:
    """Metropolis rule: non-worsening moves always pass, worsening moves
    pass with probability exp(delta / T)."""
    if delta >= 0:
        return 1.0
    if temperature <= 0:
        return 0.0
    return math.exp(delta / temperature)


def random_walk(env: SearchEnv, budget: int, seed: int) -> SearchReport:
    """Budget-many i.i.d. uniform samples."""
    if budget < 1:
        raise ValueError("random walk budget must be >= 1")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    first = env.evals_used
    for _ in range(budget):
        env.step(uniform_vector(env.space, rng))
    records = env.eval_log[first : first + budget]
    return build_report(
        algorithm="rw",
        seed=seed,
        records=records,
        restarts=(),
        budget=budget,
        wall_clock_s=time.perf_counter() - start,
    )


def simulated_annealing(
    env: SearchEnv, cfg: SaConfig, budget: int, seed: int
) -> SearchReport:
    """Single-chain annealing on the shaped reward.

    The temperature follows a cosine decay from ``t_initial`` to 0 across
    the budget, so the chain is explorative early and greedy late. The
    report covers every proposal, accepted or not.
    """
    if budget < 1:
        raise ValueError("simulated annealing budget must be >= 1")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    first = env.evals_used

    current = uniform_vector(env.space, rng)
    current_reward, _, _ = env.step(current)
    for step in range(1, budget):
        temperature = cosine_decay(cfg.t_initial, step / budget)
        candidate = mutate_vector(current, env.space, rng, cfg.neighbor_moves)
        candidate_reward, _, _ = env.step(candidate)
        delta = candidate_reward - current_reward
        if rng.random() < acceptance_probability(delta, temperature):
            current, current_reward = candidate, candidate_reward

    records = env.eval_log[first : first + budget]
    return build_report(
        algorithm="sa",
        seed=seed,
        records=records,
        restarts=(),
        budget=budget,
        wall_clock_s=time.perf_counter() - start,
    )


def megatron_exhaustive(
    env_factory: Callable[[int], SearchEnv], space: ActionSpaceSpec
) -> SearchReport:
    """Sweep every coarse degree tuple with megatron-pinned shard axes.

    ``env_factory(budget)`` must build an environment over ``space``; the
    sweep sizes the budget to the coarse grid exactly. The sweep is
    deterministic and seed-free.
    """
    grid_size = (
        len(space.tp_domain)
        * len(space.ep_domain)
        * len(space.pp_domain)
        * len(space.batch_domain)
    )
    start = time.perf_counter()
    with env_factory(grid_size) as env:
        if env.space != space:
            raise ValueError("env_factory produced an environment over a different space")
        ops = canonical_fused_ops(env.model)
        dims_by_name = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
        fine_tail = tuple(int(dims_by_name[name]) for name in space.op_names)

        ranges = [
            range(len(space.tp_domain)),
            range(len(space.ep_domain)),
            range(len(space.pp_domain)),
            range(len(space.batch_domain)),
        ]
        for coarse in itertools.product(*ranges):
            env.step(coarse + fine_tail)

        records = env.eval_log[-grid_size:]
        if not any(r.valid for r in records):
            raise NoValidConfiguration(
                f"no valid configuration among {grid_size} megatron-pinned points"
            )
    return build_report(
        algorithm="exhaustive",
        seed=None,
        records=records,
        restarts=(),
        budget=grid_size,
        wall_clock_s=time.perf_counter() - start,
    )
