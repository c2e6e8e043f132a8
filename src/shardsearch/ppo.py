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
    """One on-policy step: what was done and how it scored."""

    action: tuple[int, ...]
    logprob_old: float
    reward: float


@dataclass(frozen=True)
class Visit:
    """The steps taken while the elite buffer stood still.

    They all saw ``obs``, and ``forward`` is the (output, cache) pair of the
    one forward pass that chose their actions; its value is each sample's
    ``value_old``.
    """

    obs: np.ndarray
    forward: tuple[PolicyOutput, dict]
    samples: list[RolloutSample] = field(default_factory=list)


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

    ``m`` and ``v`` store the moments pre-scaled, ``m_t / (1 - beta1)`` and
    ``v_t / (1 - beta2)``, and the bias corrections fold into the step size
    (Kingma & Ba 2015, section 2). The learning rate is supplied per ``apply``
    call. The update runs in place, ``BLOCK`` elements at a time, with the
    consumed gradient as its only scratch, so a step allocates nothing.
    """

    BLOCK = 1 << 15
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: np.ndarray) -> None:
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def apply(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One step: ``params -= lr * m_hat / (sqrt(v_hat) + eps)``, in place,
        computed as ``step * m / (sqrt(v) + eps / c2)``: equal in exact
        arithmetic, not bit for bit. ``grad`` is consumed: it serves as
        scratch space and holds no gradient afterwards.
        """
        self.step_count += 1
        bias1 = 1.0 - self.BETA1**self.step_count
        bias2 = 1.0 - self.BETA2**self.step_count
        c2 = math.sqrt((1.0 - self.BETA2) / bias2)
        step = lr * (1.0 - self.BETA1) / bias1 / c2
        eps = self.EPS / c2
        for lo in range(0, params.size, self.BLOCK):
            hi = min(lo + self.BLOCK, params.size)
            g = grad[lo:hi]
            m = self.m[lo:hi]
            v = self.v[lo:hi]
            m *= self.BETA1
            m += g
            g *= g
            v *= self.BETA2
            v += g
            np.sqrt(v, out=g)
            g += eps
            np.divide(m, g, out=g)
            g *= step
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
    first: Visit | None = None,
) -> list[Visit]:
    """Run ``n`` one-step episodes under the current policy.

    Valid strategies are offered to the elite buffer with the reward they
    earned; invalid ones stay in the batch (the penalty is signal) but never
    become elites. BudgetExhausted propagates and discards the partial batch.

    The parameters do not move within a batch, so a forward pass stays
    valid until the buffer changes: a step joins the last visit, and a new
    visit, with a new observation and forward pass, starts only after
    ``buf.offer`` changed the buffer. ``first`` is a visit with no samples
    yet, taken on the current buffer and parameters.
    """
    visits = [] if first is None else [first]
    changed = first is None
    for _ in range(n):
        if changed:
            obs = build_observation(buf, policy.space)
            visits.append(Visit(obs, policy.forward_cached(obs)))
        visit = visits[-1]
        action, logprob = policy.sample(visit.forward[0], rng)
        reward, _, valid = env.step(action)
        visit.samples.append(RolloutSample(action, logprob, reward))
        changed = valid and buf.offer(action, reward)
    return visits


def loss_and_grads(
    policy: PolicyNetwork,
    visits: Sequence[Visit],
    forwards: Sequence[tuple[PolicyOutput, dict]],
    cfg: PpoConfig,
) -> tuple[LossReport, Mapping[str, np.ndarray]]:
    """Clipped-surrogate PPO loss and its exact parameter gradients.

    Loss per sample, advantage A = reward - value_old:
        -min(rho * A, clip(rho, 1 +- eps) * A)
        + value_coef * (value - reward)^2
        - entropy_coef * sum_m H(p_m)
    averaged over the batch. rho multiplies per-head probabilities, i.e. it
    exponentiates the summed log-probs.

    ``forwards`` holds one (output, cache) pair per visit, taken on the
    visit's observation under the current parameters. The gradient is
    written into ``policy.grad`` and returned as the policy's named views
    into it, which the next call overwrites.

    The backward pass is linear in its upstream gradients for a fixed
    forward cache, so it runs once per visit: the visit's samples add their
    ``d_logits`` tables and ``d_value`` floats in batch order, and the sums
    go through ``policy.backward``, visit by visit. An epoch thus costs one
    backward pass per forward pass, and an eval about one forward pass, one
    backward pass and one Adam step.
    """
    if not visits or not all(visit.samples for visit in visits):
        raise ValueError("empty rollout visit")
    n = sum(len(visit.samples) for visit in visits)
    policy_loss = 0.0
    value_loss = 0.0
    entropy_total = 0.0
    clipped = 0
    ratio_sum = 0.0
    clip_lo, clip_hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps

    for j, (visit, (out, cache)) in enumerate(zip(visits, forwards, strict=True)):
        value_old = visit.forward[0].value
        head_entropy = out.head_entropies()
        entropy = left_sum(head_entropy)
        # d(-coef * H)/d logit_j = coef * p_j (log p_j + H); masked
        # cells contribute exactly zero because p_j = 0 there.
        d_entropy = cfg.entropy_coef * out.probs * (out.log_probs + head_entropy[:, None]) / n
        for i, sample in enumerate(visit.samples):
            if not (
                math.isfinite(sample.reward)
                and math.isfinite(value_old)
                and math.isfinite(sample.logprob_old)
            ):
                raise NumericsError(f"non-finite rollout sample: {sample}, value_old {value_old}")
            advantage = sample.reward - value_old
            ratio = math.exp(out.logprob(sample.action) - sample.logprob_old)
            unclipped = ratio * advantage
            clamped = min(max(ratio, clip_lo), clip_hi) * advantage
            surrogate = min(unclipped, clamped)
            # The unclipped branch carries the gradient whenever it attains
            # the min; outside the clip band the clamped branch is constant
            # in rho.
            d_ratio = -advantage / n if unclipped <= clamped else 0.0
            if not (clip_lo < ratio < clip_hi):
                clipped += 1
            ratio_sum += ratio

            value_err = out.value - sample.reward
            policy_loss += -surrogate / n
            value_loss += cfg.value_coef * value_err * value_err / n
            entropy_total += entropy / n

            d_value = 2.0 * cfg.value_coef * value_err / n
            one_hot = np.zeros_like(out.probs)
            one_hot[np.arange(len(sample.action)), sample.action] = 1.0
            d_logits = d_ratio * ratio * (one_hot - out.probs)
            d_logits += d_entropy
            if i == 0:
                d_logits_sum, d_value_sum = d_logits, d_value
            else:
                d_logits_sum += d_logits
                d_value_sum += d_value
        grads = policy.backward(cache, d_logits_sum, d_value_sum, accumulate=j > 0)

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
    return report, grads


def ppo_update(
    policy: PolicyNetwork,
    visits: Sequence[Visit],
    cfg: PpoConfig,
    lr: float,
    optimizer: Adam,
) -> tuple[LossReport, ...]:
    """Run ``epochs_per_update`` gradient steps on one batch.

    Epoch 0 runs under the parameters the batch was collected with, so it
    uses the visits' own forward passes. Later epochs run one new forward
    pass per visit under moved parameters, so the ratio leaves 1 and
    clipping becomes active. Parameters are verified finite after every
    step; a non-finite update is a training bug and aborts the run.
    """
    reports = []
    forwards = [visit.forward for visit in visits]
    for epoch in range(cfg.epochs_per_update):
        if epoch > 0:
            forwards = [policy.forward_cached(visit.obs) for visit in visits]
        report, _ = loss_and_grads(policy, visits, forwards, cfg)
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
    parameters change before the next rollout's first step, so the check's
    forward pass is that rollout's first visit.
    """
    if allowance < 1:
        raise ValueError("chunk allowance must be >= 1")
    optimizer = Adam(policy.flat)
    spent = 0
    first = None
    while spent < allowance:
        n = min(cfg.n_steps, allowance - spent)
        lr = cosine_decay(cfg.lr_initial, spent / allowance)
        visits = collect(env, policy, buf, n, rng, first)
        spent += n
        ppo_update(policy, visits, cfg, lr, optimizer)
        obs = build_observation(buf, policy.space)
        first = Visit(obs, policy.forward_cached(obs))
        if bool(np.all(confidence(first.forward[0]) >= cfg.tau)):
            return ChunkOutcome(exit=ChunkExit.EARLY_EXIT, evals_used=spent)
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
