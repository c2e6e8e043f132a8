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
import os
import queue
import threading
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
    width: int = 256

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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs submitted calls in order."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="adam-worker", daemon=True).start()

    def _serve(self) -> None:
        while True:
            fn, args, reply = self._calls.get()
            error = None
            try:
                fn(*args)
            except Exception as exc:
                error = exc
            # Dropped before the reply: a finished call's arrays must not
            # stay alive while the thread waits for the next call.
            del fn, args
            reply.put(error)
            del error, reply

    def submit(self, fn, *args) -> queue.SimpleQueue:
        """Queue ``fn(*args)``; the returned queue receives None or its error."""
        reply: queue.SimpleQueue = queue.SimpleQueue()
        self._calls.put((fn, args, reply))
        return reply


_worker: _Worker | None = None


def _adam_worker() -> _Worker:
    """The process's worker, started on first use.

    One per process, shared by every ``Adam``: each chunk builds a fresh
    optimizer, and a thread per optimizer would outlive it. A forked child
    inherits the object but not its thread, so a changed process id builds
    a new one.
    """
    global _worker
    if _worker is None or _worker.pid != os.getpid():
        _worker = _Worker()
    return _worker


class Adam:
    """Adam with bias correction over one flat parameter vector.

    ``m`` and ``v`` are flat vectors shaped like the parameters; the
    learning rate is supplied per ``apply`` call. The update runs in place,
    ``BLOCK`` elements at a time, with the gradient block and one
    block-sized scratch row per thread as its only temporaries, so a step
    allocates nothing.

    A vector of two or more blocks, in a process that may run on two CPUs,
    is stepped on two threads: the caller steps the lower half of the
    blocks while a worker thread steps the upper half. numpy releases the
    GIL inside each ufunc and every element gets the same arithmetic, so
    the result is bit-identical to a serial step.
    """

    BLOCK = 1 << 15

    def __init__(
        self,
        params: np.ndarray,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        blocks = -(-params.size // self.BLOCK)
        split = blocks >= 2 and _usable_cpus() >= 2
        # First element of the worker's blocks; None steps serially.
        self._split = (blocks + 1) // 2 * self.BLOCK if split else None
        self._scratch = np.empty((2 if split else 1, min(params.size, self.BLOCK)))

    def apply(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One step: ``params -= lr * m_hat / (sqrt(v_hat) + eps)``, in place.

        ``grad`` is consumed: it serves as scratch space and holds no
        gradient afterwards.
        """
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        step = (params, grad, lr, bias1, bias2)
        if self._split is None:
            self._steps(*step, 0, params.size, self._scratch[0])
            return
        reply = _adam_worker().submit(
            self._steps, *step, self._split, params.size, self._scratch[1]
        )
        try:
            self._steps(*step, 0, self._split, self._scratch[0])
        finally:
            error = reply.get()
        if error is not None:
            raise error

    def _steps(
        self,
        params: np.ndarray,
        grad: np.ndarray,
        lr: float,
        bias1: float,
        bias2: float,
        start: int,
        stop: int,
        scratch: np.ndarray,
    ) -> None:
        """Step elements ``[start, stop)``, one block at a time."""
        for lo in range(start, stop, self.BLOCK):
            hi = min(lo + self.BLOCK, stop)
            g = grad[lo:hi]
            m = self.m[lo:hi]
            v = self.v[lo:hi]
            t = scratch[: hi - lo]
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=t)
            t *= g
            v += t
            m *= self.beta1
            g *= 1.0 - self.beta1
            m += g
            np.divide(m, bias1, out=g)
            g *= lr
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
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
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty rollout batch")
    grads: Mapping[str, np.ndarray] | None = None
    policy_loss = 0.0
    value_loss = 0.0
    entropy_total = 0.0
    clipped = 0
    ratio_sum = 0.0
    forwards: dict[int, tuple[PolicyOutput, dict]] = {}

    for i, sample in enumerate(batch):
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

        grads = policy.backward(cache, d_logits, d_value, accumulate=i > 0)

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
    assert grads is not None
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
