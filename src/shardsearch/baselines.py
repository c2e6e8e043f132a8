"""Non-learning search baselines sharing the PPO environment.

Every baseline consumes the environment through the same ``step`` interface
as the learned search, so validity gates, reward shaping and budget
accounting are identical by construction and auditable from the eval log.

Three searches are provided: an i.i.d. uniform random walk, single-site
simulated annealing with a cosine temperature schedule, and the exhaustive
sweep over coarse parallelism degrees with per-operator shard axes pinned to
the standard megatron assignment. The first two optimize the shaped reward
(the same signal PPO sees); the exhaustive sweep stands in for a heuristic
planner that never sees the reward game. The searches only step the
environment, which keeps the run's best.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .env import SearchEnv
from .model import check_fields
from .ppo import cosine_decay
from .strategy import (
    ActionSpaceSpec,
    AxisChoice,
    FusedOpDescriptor,
    canonical_fused_ops,
    megatron_fine_dims,
)


class NoValidConfiguration(RuntimeError):
    """An exhaustive sweep found nothing that passes the validity gates."""


@dataclass(frozen=True)
class SaConfig:
    """Simulated-annealing knobs."""

    t_initial: float = 100.0

    def __post_init__(self) -> None:
        check_fields("sa", self)


def uniform_vector(
    space: ActionSpaceSpec, rng: np.random.Generator
) -> tuple[int, ...]:
    """One strategy sampled uniformly over the full joint space.

    One ``rng.integers(space.head_sizes)`` call draws the same numbers as one
    scalar ``rng.integers(k)`` per head, in head order.
    """
    return tuple(rng.integers(space.head_sizes).tolist())


@functools.cache
def _mutable_heads(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of the heads with more than one choice."""
    return tuple(i for i, k in enumerate(sizes) if k > 1)


def mutate_vector(
    vector: tuple[int, ...], space: ActionSpaceSpec, rng: np.random.Generator
) -> tuple[int, ...]:
    """Change one coordinate to a different value.

    The coordinate is ``rng.integers(len(mutable))`` over the heads with more
    than one choice; if every head is single-choice the vector is returned
    unchanged. The new value is uniform over the head's other values.
    """
    sizes = space.head_sizes
    mutable = _mutable_heads(sizes)
    if not mutable:
        return vector
    coord = mutable[rng.integers(len(mutable))]
    drawn = int(rng.integers(sizes[coord] - 1))
    out = list(vector)
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


def random_walk(env: SearchEnv, budget: int, seed: int) -> None:
    """Budget-many i.i.d. uniform samples."""
    if budget < 1:
        raise ValueError("random walk budget must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        env.step(uniform_vector(env.space, rng))


def simulated_annealing(env: SearchEnv, cfg: SaConfig, budget: int, seed: int) -> None:
    """Single-chain annealing on the shaped reward.

    The temperature follows a cosine decay from ``t_initial`` to 0 across
    the budget, so the chain is explorative early and greedy late.
    """
    if budget < 1:
        raise ValueError("simulated annealing budget must be >= 1")
    rng = np.random.default_rng(seed)
    current = uniform_vector(env.space, rng)
    current_reward, _, _ = env.step(current)
    for step in range(1, budget):
        temperature = cosine_decay(cfg.t_initial, step / budget)
        candidate = mutate_vector(current, env.space, rng)
        candidate_reward, _, _ = env.step(candidate)
        delta = candidate_reward - current_reward
        if rng.random() < acceptance_probability(delta, temperature):
            current, current_reward = candidate, candidate_reward


def megatron_space_dims(
    space: ActionSpaceSpec, ops: tuple[FusedOpDescriptor, ...]
) -> tuple[AxisChoice, ...]:
    """The megatron shard axis of each operator ``space`` controls, in its order."""
    dims_by_name = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    return tuple(dims_by_name[name] for name in space.op_names)


def megatron_vectors(
    space: ActionSpaceSpec, ops: tuple[FusedOpDescriptor, ...]
) -> list[tuple[int, ...]]:
    """Every coarse degree tuple of ``space`` with megatron-pinned shard axes."""
    fine_tail = tuple(int(axis) for axis in megatron_space_dims(space, ops))
    domains = (space.tp_domain, space.ep_domain, space.pp_domain, space.batch_domain)
    return [
        coarse + fine_tail
        for coarse in itertools.product(*(range(len(d)) for d in domains))
    ]


def megatron_exhaustive(env: SearchEnv) -> None:
    """Step every point of the megatron-pinned coarse grid, deterministically.

    ``env`` needs a budget of at least the grid size.
    """
    vectors = megatron_vectors(env.space, canonical_fused_ops(env.model))
    for vector in vectors:
        env.step(vector)
    if env.best_vector is None:
        raise NoValidConfiguration(
            f"no valid configuration among {len(vectors)} megatron-pinned points"
        )
