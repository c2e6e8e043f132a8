"""Chunked PPO search loop over the strategy environment.

Episodes have length one: the policy proposes a strategy, the environment
scores it, done. The observation is the elite buffer, which evolves as a
side effect of good proposals, so the advantage is simply reward minus the
critic's estimate, with no discounting or bootstrapping.

The evaluation budget is split into equal chunks. Within a chunk the policy
trains under a cosine learning-rate schedule; when every sub-action head is
confident (max probability >= tau), the chunk exits early and its unspent
evaluations roll into the next chunk's allowance. Each new chunk restarts
from freshly initialized parameters and a fresh optimizer while keeping the
environment's best-so-far baseline and the elite buffer, so later agents
exploit everything earlier agents learned about the space. Leftover budget
after the last scheduled chunk funds additional restarts, so one search
always spends its budget exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .env import SearchEnv
from .model import check_fields
from .policy import (
    EliteBuffer,
    NumericsError,
    PolicyNetwork,
    PolicyOutput,
    build_observation,
    confidence,
    left_sum,
)
from .strategy import canonical_fused_ops


@dataclass(frozen=True)
class PpoConfig:
    """Hyperparameters of the chunked PPO search."""

    budget: int = 4000
    chunks: int = 5
    n_steps: int = 2  # rollout buffer size; one update per rollout
    epochs_per_update: int = 2
    lr_initial: float = 1e-3
    clip_eps: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    tau: float = 0.95
    history_len: int = 3
    width: int = 64

    def __post_init__(self) -> None:
        check_fields("ppo", self, non_negative=("value_coef", "entropy_coef"))
        if self.budget % self.chunks != 0:
            raise ValueError(
                f"ppo.chunks ({self.chunks}) must divide ppo.budget ({self.budget})"
            )


@dataclass(frozen=True)
class RolloutSample:
    """One on-policy step: what was seen, done, and scored.

    ``forward`` is the (output, cache) pair of the forward pass that chose
    the action, kept so the first optimization epoch, which runs under the
    same parameters, need not recompute it.
    """

    obs: np.ndarray
    action: tuple[int, ...]
    logprob_old: float
    reward: float
    value_old: float
    forward: tuple[PolicyOutput, dict] | None = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class LossReport:
    """Diagnostics of one optimization epoch."""

    policy_loss: float
    value_loss: float
    entropy: float
    total_loss: float
    lr: float
    clip_fraction: float
    mean_ratio: float


class ChunkExit(str, Enum):
    EXHAUSTED = "exhausted"
    EARLY_EXIT = "early_exit"


@dataclass(frozen=True)
class ChunkOutcome:
    exit: ChunkExit
    evals_used: int


class Adam:
    """Adam with bias correction over one flat parameter vector.

    ``m`` and ``v`` are flat vectors shaped like the parameters; the
    learning rate is supplied per ``apply`` call. The update runs in place,
    ``BLOCK`` elements at a time, with the gradient block and one
    block-sized scratch row as its only temporaries, so a step allocates
    nothing.
    """

    BLOCK = 1 << 15
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: np.ndarray) -> None:
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty(min(params.size, self.BLOCK))

    def apply(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One step: ``params -= lr * m_hat / (sqrt(v_hat) + eps)``, in place.

        ``grad`` is consumed: it serves as scratch space and holds no
        gradient afterwards.
        """
        self.step_count += 1
        bias1 = 1.0 - self.BETA1**self.step_count
        bias2 = 1.0 - self.BETA2**self.step_count
        for lo in range(0, params.size, self.BLOCK):
            hi = min(lo + self.BLOCK, params.size)
            g = grad[lo:hi]
            m = self.m[lo:hi]
            v = self.v[lo:hi]
            t = self._scratch[: hi - lo]
            v *= self.BETA2
            np.multiply(1.0 - self.BETA2, g, out=t)
            t *= g
            v += t
            m *= self.BETA1
            g *= 1.0 - self.BETA1
            m += g
            np.divide(m, bias1, out=g)
            g *= lr
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += self.EPS
            g /= t
            params[lo:hi] -= g


def cosine_decay(initial: float, progress: float) -> float:
    """Cosine decay from ``initial`` at progress 0 to exactly 0 at progress 1."""
    clamped = min(max(progress, 0.0), 1.0)
    return initial * 0.5 * (1.0 + math.cos(math.pi * clamped))


def collect(
    env: SearchEnv,
    policy: PolicyNetwork,
    buf: EliteBuffer,
    n: int,
    rng: np.random.Generator,
    first: tuple[np.ndarray, PolicyOutput, dict] | None = None,
) -> tuple[RolloutSample, ...]:
    """Run ``n`` one-step episodes under the current policy.

    Valid strategies are offered to the elite buffer with the reward they
    earned; invalid ones stay in the batch (the penalty is signal) but never
    become elites. BudgetExhausted propagates and discards the partial batch.
    ``first`` is an (observation, output, cache) triple already computed on
    the current buffer and parameters; the first step uses it as its
    forward pass.

    The parameters do not move within a batch, so a forward pass stays
    valid until the buffer changes: steps after an unchanged buffer reuse
    the previous step's observation and forward pass.
    """
    samples = []
    current = first
    for _ in range(n):
        if current is None:
            obs = build_observation(buf, policy.space)
            current = (obs, *policy.forward_cached(obs))
        obs, out, cache = current
        action, logprob = policy.sample(out, rng)
        reward, _, valid = env.step(action)
        if valid and buf.offer(action, reward):
            current = None
        samples.append(
            RolloutSample(
                obs=obs,
                action=action,
                logprob_old=logprob,
                reward=reward,
                value_old=out.value,
                forward=(out, cache),
            )
        )
    return tuple(samples)


def loss_and_grads(
    policy: PolicyNetwork,
    batch: Sequence[RolloutSample],
    cfg: PpoConfig,
    reuse_forward: bool = False,
) -> tuple[LossReport, Mapping[str, np.ndarray]]:
    """Clipped-surrogate PPO loss and its exact parameter gradients.

    Loss per sample, advantage A = reward - value_old:
        -min(rho * A, clip(rho, 1 +- eps) * A)
        + value_coef * (value - reward)^2
        - entropy_coef * sum_m H(p_m)
    averaged over the batch. rho multiplies per-head probabilities, i.e. it
    exponentiates the summed log-probs.

    The gradient is written into ``policy.grad`` and returned as the
    policy's named views into it, which the next call overwrites. With
    ``reuse_forward`` each sample's stored forward pass stands in for a new
    one, which is exact only while the parameters are those it was taken
    under. Otherwise samples holding the same observation object, as
    ``collect`` hands out while the buffer stands still, share one new
    forward pass.

    The backward pass is linear in its upstream gradients for a fixed
    forward cache, so it runs once per distinct forward pass: samples that
    share a cache add their ``d_logits`` tables and ``d_value`` floats in
    batch order, and each cache's sums go through ``policy.backward`` once,
    in first-seen order. An epoch thus costs one backward pass per forward
    pass, and an eval one forward pass, one backward pass and one Adam step.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty rollout batch")
    policy_loss = 0.0
    value_loss = 0.0
    entropy_total = 0.0
    clipped = 0
    ratio_sum = 0.0
    forwards: dict[int, tuple[PolicyOutput, dict]] = {}
    # [cache, d_logits sum, d_value sum] per forward pass, keyed by the
    # cache's id; each entry keeps its cache alive, so ids stay distinct.
    upstream: dict[int, list] = {}

    for sample in batch:
        if not (
            math.isfinite(sample.reward)
            and math.isfinite(sample.value_old)
            and math.isfinite(sample.logprob_old)
        ):
            raise NumericsError(f"non-finite rollout sample: {sample}")
        if reuse_forward and sample.forward is not None:
            out, cache = sample.forward
        else:
            # ``batch`` keeps every observation alive, so ids stay distinct.
            forward = forwards.get(id(sample.obs))
            if forward is None:
                forward = forwards[id(sample.obs)] = policy.forward_cached(sample.obs)
            out, cache = forward
        advantage = sample.reward - sample.value_old
        logprob_new = out.logprob(sample.action)
        head_entropy = out.head_entropies()
        entropy = left_sum(head_entropy)

        ratio = math.exp(logprob_new - sample.logprob_old)
        unclipped = ratio * advantage
        clip_lo, clip_hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
        clamped = min(max(ratio, clip_lo), clip_hi) * advantage
        surrogate = min(unclipped, clamped)
        # The unclipped branch carries the gradient whenever it attains the
        # min; outside the clip band the clamped branch is constant in rho.
        d_ratio = -advantage / n if unclipped <= clamped else 0.0
        if not (clip_lo < ratio < clip_hi):
            clipped += 1
        ratio_sum += ratio

        value_err = out.value - sample.reward
        policy_loss += -surrogate / n
        value_loss += cfg.value_coef * value_err * value_err / n
        entropy_total += entropy / n

        d_value = 2.0 * cfg.value_coef * value_err / n
        d_logprob = d_ratio * ratio
        one_hot = np.zeros_like(out.probs)
        one_hot[np.arange(len(sample.action)), sample.action] = 1.0
        d_logits = d_logprob * (one_hot - out.probs)
        # d(-coef * H)/d logit_j = coef * p_j (log p_j + H); masked
        # cells contribute exactly zero because p_j = 0 there.
        d_logits += (
            cfg.entropy_coef * out.probs * (out.log_probs + head_entropy[:, None]) / n
        )

        summed = upstream.get(id(cache))
        if summed is None:
            upstream[id(cache)] = [cache, d_logits, d_value]
        else:
            summed[1] += d_logits
            summed[2] += d_value

    total = policy_loss + value_loss - cfg.entropy_coef * entropy_total
    if not math.isfinite(total):
        raise NumericsError(f"non-finite loss: {total}")
    report = LossReport(
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=entropy_total,
        total_loss=total,
        lr=float("nan"),  # filled in by ppo_update
        clip_fraction=clipped / n,
        mean_ratio=ratio_sum / n,
    )
    for j, (cache, d_logits, d_value) in enumerate(upstream.values()):
        grads = policy.backward(cache, d_logits, d_value, accumulate=j > 0)
    return report, grads


def ppo_update(
    policy: PolicyNetwork,
    batch: Sequence[RolloutSample],
    cfg: PpoConfig,
    lr: float,
    optimizer: Adam,
) -> tuple[LossReport, ...]:
    """Run ``epochs_per_update`` gradient steps on one batch.

    Later epochs recompute probabilities under moved parameters, so the
    ratio leaves 1 and clipping becomes active. Parameters are verified
    finite after every step; a non-finite update is a training bug and
    aborts the run.
    """
    reports = []
    for epoch in range(cfg.epochs_per_update):
        # Epoch 0 runs under the parameters the batch was collected with.
        report, _ = loss_and_grads(policy, batch, cfg, reuse_forward=epoch == 0)
        optimizer.apply(policy.flat, policy.grad, lr)
        policy.check_finite()
        reports.append(replace(report, lr=lr))
    return tuple(reports)


def run_chunk(
    env: SearchEnv,
    policy: PolicyNetwork,
    buf: EliteBuffer,
    allowance: int,
    cfg: PpoConfig,
    rng: np.random.Generator,
) -> ChunkOutcome:
    """Train one fresh agent until its allowance is spent or it is confident.

    The confidence check runs after every update on the observation built
    from the current elite buffer; single-choice heads are confident by
    construction (their max probability is 1). Neither the buffer nor the
    parameters change before the next rollout's first step, so that step
    reuses the check's forward pass.
    """
    if allowance < 1:
        raise ValueError("chunk allowance must be >= 1")
    optimizer = Adam(policy.flat)
    spent = 0
    first = None
    while spent < allowance:
        n = min(cfg.n_steps, allowance - spent)
        lr = cosine_decay(cfg.lr_initial, spent / allowance)
        batch = collect(env, policy, buf, n, rng, first)
        spent += len(batch)
        ppo_update(policy, batch, cfg, lr, optimizer)
        obs = build_observation(buf, policy.space)
        out, cache = policy.forward_cached(obs)
        if bool(np.all(confidence(out) >= cfg.tau)):
            return ChunkOutcome(exit=ChunkExit.EARLY_EXIT, evals_used=spent)
        first = (obs, out, cache)
    return ChunkOutcome(exit=ChunkExit.EXHAUSTED, evals_used=spent)


def run_search(env: SearchEnv, cfg: PpoConfig, seed: int) -> tuple[int, ...]:
    """Full chunked-restart PPO search; consumes exactly ``cfg.budget`` evals
    and returns the eval offsets at which each agent started.

    The environment must have at least ``cfg.budget`` evaluations left. One
    seeded generator drives parameter initialization and action sampling, so
    a run is a pure function of (env inputs, cfg, seed); successive restarts
    draw from later stream positions and are therefore independent.
    """
    if env.budget_left < cfg.budget:
        raise ValueError(
            f"environment has {env.budget_left} evals left, need {cfg.budget}"
        )
    rng = np.random.default_rng(seed)
    ops = canonical_fused_ops(env.model)
    buf = EliteBuffer(cfg.history_len)

    restarts: list[int] = []
    evals_done = 0
    chunk_budget = cfg.budget // cfg.chunks
    while evals_done < cfg.budget:
        # The k-th scheduled chunk may bring the total to k chunk budgets, so
        # an early exit's unspent evals roll into the next chunk. Restarts past
        # the last scheduled chunk spend what an early exit there left over.
        scheduled = min(len(restarts) + 1, cfg.chunks)
        allowance = scheduled * chunk_budget - evals_done
        restarts.append(evals_done)
        # Each agent owns parameter and gradient vectors; it is freed before
        # the next one is built.
        policy = PolicyNetwork(
            env.space,
            ops,
            rng=rng,
            history_len=cfg.history_len,
            width=cfg.width,
        )
        outcome = run_chunk(env, policy, buf, allowance, cfg, rng)
        del policy
        evals_done += outcome.evals_used

    return tuple(restarts)
