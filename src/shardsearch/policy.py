"""Elite-conditioned stochastic policy over the strategy space.

The policy observes the best strategies found so far (the elite buffer) as a
fixed-shape matrix, encodes the rows with one self-attention block, and
mean-pools them into a single latent from which independent categorical
heads score every sub-action, alongside a scalar value estimate.

All math is float64 numpy with hand-written backward passes: the network is
small enough that explicit gradients are simpler than an autodiff dependency,
and they stay directly checkable against finite differences. Parameters live
in one contiguous float64 vector (``flat``); ``params`` maps each tensor name
to a view into it, so the optimizer steps the whole network as one vector
while the gradient checks still address named tensors.
Gradients use the same layout: ``backward`` writes into views of one flat
gradient vector.

Design notes:
  * No positional signal on the elite rows. Rank is already implied by the
    buffer's sort order, and omitting it makes the forward pass invariant to
    row permutation, which is a cheap correctness probe.
  * Head output layers start at zero, so an untrained policy samples every
    sub-action uniformly; the first rollouts are unbiased exploration.
  * Inadmissible axis choices are masked to a large negative logit rather
    than dropped, keeping every head a fixed-width categorical.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .strategy import ActionSpaceSpec, AxisChoice, FusedOpDescriptor

# Finite stand-in for -inf: exp() underflows to exactly 0.0, but arithmetic
# on it never produces NaN the way -inf - (-inf) would.
MASKED_LOGIT = -1e30

_LN_EPS = 1e-5


class NumericsError(FloatingPointError):
    """A forward pass or parameter update produced non-finite values."""


# ---------------------------------------------------------------------------
# Elite buffer


@dataclass(frozen=True)
class Elite:
    """One retained strategy: its encoded vector and the reward it earned."""

    vector: tuple[int, ...]
    reward: float


class EliteBuffer:
    """The top-``capacity`` valid strategies, ordered by reward, best first.

    Only valid strategies may be offered; the caller enforces that. A vector
    already present is never re-inserted, so entries stay distinct. The
    minimum retained reward is non-decreasing over a run: entries only leave
    by eviction for something strictly better.
    """

    def __init__(self, capacity: int = 3) -> None:
        if capacity < 1:
            raise ValueError("elite buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: list[Elite] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[Elite, ...]:
        return tuple(self._entries)

    @property
    def min_reward(self) -> float:
        """Reward of the worst retained elite; -inf while not full."""
        if len(self._entries) < self.capacity:
            return float("-inf")
        return self._entries[-1].reward

    def offer(self, vector: Sequence[int], reward: float) -> bool:
        """Insert if the buffer has room or ``reward`` beats the worst entry.

        Returns whether the buffer changed. Duplicates of a stored vector
        are rejected regardless of reward.
        """
        vec = tuple(int(v) for v in vector)
        if any(e.vector == vec for e in self._entries):
            return False
        if len(self._entries) >= self.capacity:
            if reward <= self._entries[-1].reward:
                return False
            self._entries.pop()
        self._entries.append(Elite(vector=vec, reward=float(reward)))
        # Stable sort keeps older entries ahead of equal-reward newcomers.
        self._entries.sort(key=lambda e: -e.reward)
        return True


def build_observation(buf: EliteBuffer, space: ActionSpaceSpec) -> np.ndarray:
    """Render the buffer as a ``capacity x vector_length`` float matrix.

    Rows are elite vectors best-first, each component normalized to [0, 1]
    by its domain size (single-choice heads normalize to 0). Missing rows
    are zero-padded so the observation shape never varies.
    """
    sizes = np.asarray(space.head_sizes, dtype=np.float64)
    denom = np.maximum(sizes - 1.0, 1.0)
    obs = np.zeros((buf.capacity, space.vector_length), dtype=np.float64)
    for row, elite in enumerate(buf.entries):
        obs[row] = np.asarray(elite.vector, dtype=np.float64) / denom
    return obs


def head_masks(
    space: ActionSpaceSpec, ops: Iterable[FusedOpDescriptor]
) -> tuple[np.ndarray, ...]:
    """Allowed-choice mask per sub-action head, in encoding order.

    Coarse degree heads are unrestricted. Axis heads expose UNSHARDED plus
    whichever shard axes their operator admits; everything else is masked
    so the policy never spends probability mass on structurally dead moves.
    """
    by_name = {op.name: op for op in ops}
    masks: list[np.ndarray] = [
        np.ones(len(space.tp_domain), dtype=bool),
        np.ones(len(space.ep_domain), dtype=bool),
        np.ones(len(space.pp_domain), dtype=bool),
        np.ones(len(space.batch_domain), dtype=bool),
    ]
    for name in space.op_names:
        if name not in by_name:
            raise ValueError(f"action space controls unknown operator {name!r}")
        op = by_name[name]
        masks.append(
            np.array(
                [True, op.admits(AxisChoice.DIM0), op.admits(AxisChoice.DIM1)],
                dtype=bool,
            )
        )
    return tuple(masks)


# ---------------------------------------------------------------------------
# Network


@dataclass(frozen=True)
class PolicyOutput:
    """Per-head categorical scores plus the critic's value estimate.

    ``log_probs`` is derived from ``logits`` when not given, so a
    hand-built output samples exactly like one from ``forward``.
    """

    logits: tuple[np.ndarray, ...]
    probs: tuple[np.ndarray, ...]
    value: float
    pooled: np.ndarray
    log_probs: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.log_probs is None:
            derived = tuple(masked_log_softmax(head)[0] for head in self.logits)
            object.__setattr__(self, "log_probs", derived)


def masked_log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable (log_probs, probs) for one head; masked entries get prob 0."""
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    total = np.sum(exp)
    log_probs = shifted - np.log(total)
    return log_probs, exp / total


def _layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    normed = centered * inv_std
    return gain * normed + bias, (centered, inv_std, normed, gain)


def _layer_norm_backward(
    d_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centered, inv_std, normed, gain = cache
    dim = centered.shape[-1]
    d_gain = np.sum(d_out * normed, axis=0)
    d_bias = np.sum(d_out, axis=0)
    d_normed = d_out * gain
    d_var = np.sum(d_normed * centered, axis=-1, keepdims=True) * (-0.5) * inv_std**3
    d_mean = (
        np.sum(-d_normed * inv_std, axis=-1, keepdims=True)
        + d_var * np.mean(-2.0 * centered, axis=-1, keepdims=True)
    )
    d_x = d_normed * inv_std + d_var * 2.0 * centered / dim + d_mean / dim
    return d_x, d_gain, d_bias


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index from a probability vector; zero-mass entries never win."""
    cumulative = np.cumsum(probs)
    draw = rng.random() * cumulative[-1]
    idx = int(np.searchsorted(cumulative, draw, side="right"))
    return min(idx, len(probs) - 1)


class PolicyNetwork:
    """Single-block encoder policy with one categorical head per sub-action.

    ``width`` is both the strategy-embedding size and the encoder width; the
    feed-forward inner width defaults to the same. The encoder block is
    post-norm: residual adds feed two LayerNorms, single-head scaled
    dot-product attention in between.
    """

    def __init__(
        self,
        space: ActionSpaceSpec,
        ops: Iterable[FusedOpDescriptor],
        *,
        rng: np.random.Generator,
        history_len: int = 3,
        width: int = 256,
        ffn_width: int = 256,
    ) -> None:
        if history_len < 1 or width < 1 or ffn_width < 1:
            raise ValueError("history_len, width and ffn_width must be >= 1")
        self.space = space
        self.masks = head_masks(space, ops)
        self.head_sizes = space.head_sizes
        self.history_len = int(history_len)
        self.width = int(width)
        self.ffn_width = int(ffn_width)
        self._scale = 1.0 / np.sqrt(float(width))
        tensors = self._init_params(rng)
        self._layout: list[tuple[str, int, int, tuple[int, ...]]] = []
        offset = 0
        for name, tensor in tensors.items():
            self._layout.append((name, offset, offset + tensor.size, tensor.shape))
            offset += tensor.size
        self.flat = np.concatenate([t.ravel() for t in tensors.values()])
        self.params: Mapping[str, np.ndarray] = self.tensor_views(self.flat)

    # -- parameters ---------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        obs_dim = self.space.vector_length
        d, f = self.width, self.ffn_width

        def fan_in(rows: int, cols: int) -> np.ndarray:
            limit = 1.0 / np.sqrt(float(rows))
            return rng.uniform(-limit, limit, size=(rows, cols))

        params: dict[str, np.ndarray] = {
            "embed.w": fan_in(obs_dim, d),
            "embed.b": np.zeros(d),
            "attn.wq": fan_in(d, d),
            "attn.bq": np.zeros(d),
            "attn.wk": fan_in(d, d),
            "attn.bk": np.zeros(d),
            "attn.wv": fan_in(d, d),
            "attn.bv": np.zeros(d),
            "attn.wo": fan_in(d, d),
            "attn.bo": np.zeros(d),
            "ln1.g": np.ones(d),
            "ln1.b": np.zeros(d),
            "ffn.w1": fan_in(d, f),
            "ffn.b1": np.zeros(f),
            "ffn.w2": fan_in(f, d),
            "ffn.b2": np.zeros(d),
            "ln2.g": np.ones(d),
            "ln2.b": np.zeros(d),
        }
        # Zero head outputs: step 0 samples uniformly over admissible choices.
        for i, k in enumerate(self.head_sizes):
            params[f"head.{i}.w"] = np.zeros((d, k))
            params[f"head.{i}.b"] = np.zeros(k)
        params["value.w1"] = fan_in(d, d)
        params["value.b1"] = np.zeros(d)
        params["value.w2"] = np.zeros((d, 1))
        params["value.b2"] = np.zeros(1)
        return params

    def tensor_views(self, vector: np.ndarray) -> Mapping[str, np.ndarray]:
        """Read-only name -> view map over a vector laid out like ``flat``.

        The mapping is read-only so no entry can be rebound to an array
        outside the vector; write through the views instead (``[...] =``).
        """
        return MappingProxyType(
            {
                name: vector[start:stop].reshape(shape)
                for name, start, stop, shape in self._layout
            }
        )

    @property
    def num_parameters(self) -> int:
        return self.flat.size

    def check_finite(self) -> None:
        """Raise NumericsError if any parameter went non-finite.

        One pass over ``flat``; the offending tensor is looked up only on
        failure.
        """
        if np.isfinite(self.flat).all():
            return
        for name, tensor in self.params.items():
            if not np.isfinite(tensor).all():
                raise NumericsError(f"non-finite values in {name}")

    # -- forward ------------------------------------------------------------

    def forward_cached(self, obs: np.ndarray) -> tuple[PolicyOutput, dict]:
        """Forward pass keeping every intermediate needed by ``backward``."""
        x = np.asarray(obs, dtype=np.float64)
        if x.shape != (self.history_len, self.space.vector_length):
            raise ValueError(
                f"observation shape {x.shape} != "
                f"({self.history_len}, {self.space.vector_length})"
            )
        p = self.params
        embedded = x @ p["embed.w"] + p["embed.b"]
        q = embedded @ p["attn.wq"] + p["attn.bq"]
        k = embedded @ p["attn.wk"] + p["attn.bk"]
        v = embedded @ p["attn.wv"] + p["attn.bv"]
        scores = (q @ k.T) * self._scale
        scores_shifted = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores_shifted)
        weights /= weights.sum(axis=-1, keepdims=True)
        context = weights @ v
        attn_out = context @ p["attn.wo"] + p["attn.bo"]
        res1 = embedded + attn_out
        hidden1, ln1_cache = _layer_norm_forward(res1, p["ln1.g"], p["ln1.b"])
        ffn_pre = hidden1 @ p["ffn.w1"] + p["ffn.b1"]
        ffn_act = np.maximum(ffn_pre, 0.0)
        ffn_out = ffn_act @ p["ffn.w2"] + p["ffn.b2"]
        res2 = hidden1 + ffn_out
        hidden2, ln2_cache = _layer_norm_forward(res2, p["ln2.g"], p["ln2.b"])
        pooled = hidden2.mean(axis=0)

        logits: list[np.ndarray] = []
        log_probs: list[np.ndarray] = []
        probs: list[np.ndarray] = []
        for i, mask in enumerate(self.masks):
            raw = pooled @ p[f"head.{i}.w"] + p[f"head.{i}.b"]
            masked = np.where(mask, raw, MASKED_LOGIT)
            logits.append(masked)
            head_log_probs, head_probs = masked_log_softmax(masked)
            log_probs.append(head_log_probs)
            probs.append(head_probs)

        value_pre = pooled @ p["value.w1"] + p["value.b1"]
        value_act = np.maximum(value_pre, 0.0)
        value = float((value_act @ p["value.w2"])[0] + p["value.b2"][0])

        if not np.isfinite(pooled).all():
            raise NumericsError("non-finite values in pooled latent")
        if not np.isfinite(np.concatenate(logits)).all():
            bad = next(i for i, h in enumerate(logits) if not np.isfinite(h).all())
            raise NumericsError(f"non-finite values in head {bad} logits")
        if not np.isfinite(value):
            raise NumericsError("non-finite value estimate")

        cache = {
            "x": x,
            "embedded": embedded,
            "q": q,
            "k": k,
            "v": v,
            "weights": weights,
            "context": context,
            "ln1": ln1_cache,
            "hidden1": hidden1,
            "ffn_pre": ffn_pre,
            "ffn_act": ffn_act,
            "ln2": ln2_cache,
            "hidden2": hidden2,
            "pooled": pooled,
            "value_pre": value_pre,
            "value_act": value_act,
        }
        out = PolicyOutput(
            logits=tuple(logits),
            probs=tuple(probs),
            value=value,
            pooled=pooled,
            log_probs=tuple(log_probs),
        )
        return out, cache

    def forward(self, obs: np.ndarray) -> PolicyOutput:
        return self.forward_cached(obs)[0]

    # -- backward -----------------------------------------------------------

    def backward(
        self,
        cache: dict,
        d_logits: Sequence[np.ndarray],
        d_value: float,
        grad: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> Mapping[str, np.ndarray]:
        """Gradients of a scalar loss given its direct logit/value gradients.

        ``d_logits[i]`` is d(loss)/d(logits of head i); entries at masked
        positions are ignored (the mask blocks the forward path). Gradients
        go into ``grad``, a vector laid out like ``flat`` (a fresh one when
        omitted): overwriting it, or adding to it when ``accumulate`` is set.
        Returns the named views into ``grad``, keyed exactly like ``params``.
        """
        p = self.params
        if grad is None:
            grad = np.empty_like(self.flat)
        grads = self.tensor_views(grad)
        rows = float(self.history_len)
        pooled = cache["pooled"]

        def emit(name: str, op: np.ufunc, a: np.ndarray, b) -> None:
            view = grads[name]
            if accumulate:
                view += op(a, b)
            else:
                op(a, b, out=view)

        def store(name: str, value) -> None:
            view = grads[name]
            if accumulate:
                view += value
            else:
                view[...] = value

        d_pooled = np.zeros_like(pooled)
        for i, mask in enumerate(self.masks):
            dl = np.where(mask, np.asarray(d_logits[i], dtype=np.float64), 0.0)
            emit(f"head.{i}.w", np.multiply, pooled[:, None], dl)  # outer product
            store(f"head.{i}.b", dl)
            d_pooled += p[f"head.{i}.w"] @ dl

        dv = float(d_value)
        emit("value.w2", np.multiply, cache["value_act"][:, None], dv)
        store("value.b2", dv)
        d_value_act = p["value.w2"][:, 0] * dv
        d_value_pre = d_value_act * (cache["value_pre"] > 0.0)
        emit("value.w1", np.multiply, pooled[:, None], d_value_pre)
        store("value.b1", d_value_pre)
        d_pooled += p["value.w1"] @ d_value_pre

        d_hidden2 = np.tile(d_pooled / rows, (self.history_len, 1))
        d_res2, d_gain, d_bias = _layer_norm_backward(d_hidden2, cache["ln2"])
        store("ln2.g", d_gain)
        store("ln2.b", d_bias)
        d_ffn_out = d_res2
        d_hidden1 = d_res2.copy()
        emit("ffn.w2", np.matmul, cache["ffn_act"].T, d_ffn_out)
        store("ffn.b2", d_ffn_out.sum(axis=0))
        d_ffn_act = d_ffn_out @ p["ffn.w2"].T
        d_ffn_pre = d_ffn_act * (cache["ffn_pre"] > 0.0)
        emit("ffn.w1", np.matmul, cache["hidden1"].T, d_ffn_pre)
        store("ffn.b1", d_ffn_pre.sum(axis=0))
        d_hidden1 += d_ffn_pre @ p["ffn.w1"].T

        d_res1, d_gain, d_bias = _layer_norm_backward(d_hidden1, cache["ln1"])
        store("ln1.g", d_gain)
        store("ln1.b", d_bias)
        d_embedded = d_res1.copy()
        d_attn_out = d_res1
        emit("attn.wo", np.matmul, cache["context"].T, d_attn_out)
        store("attn.bo", d_attn_out.sum(axis=0))
        d_context = d_attn_out @ p["attn.wo"].T

        weights = cache["weights"]
        d_weights = d_context @ cache["v"].T
        d_v = weights.T @ d_context
        # Row-wise softmax jacobian.
        d_scores = weights * (
            d_weights - np.sum(d_weights * weights, axis=-1, keepdims=True)
        )
        d_scores *= self._scale
        d_q = d_scores @ cache["k"]
        d_k = d_scores.T @ cache["q"]

        embedded = cache["embedded"]
        emit("attn.wq", np.matmul, embedded.T, d_q)
        store("attn.bq", d_q.sum(axis=0))
        emit("attn.wk", np.matmul, embedded.T, d_k)
        store("attn.bk", d_k.sum(axis=0))
        emit("attn.wv", np.matmul, embedded.T, d_v)
        store("attn.bv", d_v.sum(axis=0))
        d_embedded += d_q @ p["attn.wq"].T
        d_embedded += d_k @ p["attn.wk"].T
        d_embedded += d_v @ p["attn.wv"].T

        emit("embed.w", np.matmul, cache["x"].T, d_embedded)
        store("embed.b", d_embedded.sum(axis=0))
        return grads

    # -- action interface ---------------------------------------------------

    def sample(
        self, out: PolicyOutput, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], float, float]:
        """Draw one sub-action per head; returns (action, logprob, entropy)."""
        action = tuple(sample_categorical(probs, rng) for probs in out.probs)
        return (action, *self.action_logprob_entropy(out, action))

    def action_logprob_entropy(
        self, out: PolicyOutput, action: Sequence[int]
    ) -> tuple[float, float]:
        """Joint log-probability of ``action`` plus total head entropy."""
        if len(action) != len(out.logits):
            raise ValueError("action length does not match head count")
        logprob = 0.0
        entropy = 0.0
        for log_probs, probs, idx in zip(out.log_probs, out.probs, action):
            logprob += float(log_probs[int(idx)])
            entropy += float(-np.sum(probs * log_probs))
        return logprob, entropy


def confidence(out: PolicyOutput) -> np.ndarray:
    """Max categorical probability per head; 1.0 for single-choice heads."""
    return np.array([float(np.max(p)) for p in out.probs])
