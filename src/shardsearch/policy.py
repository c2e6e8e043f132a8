"""Elite-conditioned stochastic policy over the strategy space.

The policy observes the best strategies found so far (the elite buffer) as a
fixed-shape matrix, encodes the rows with one self-attention block, and
mean-pools them into a single latent from which independent categorical
heads score every sub-action, alongside a scalar value estimate. The heads
form one table of shape (heads x widest head): one matrix product scores
every choice of every head, and softmax, sampling, log-probabilities and
gradients each run once over the whole table.

All math is float64 numpy with hand-written backward passes: the network is
small enough that explicit gradients are simpler than an autodiff dependency,
and they stay directly checkable against finite differences. Parameters live
in one contiguous float64 vector (``flat``); ``params`` maps each stored
tensor's name to its view, so the optimizer steps the whole network as one
vector while the gradient checks still address named tensors. The heads
share one ``width x total-choices`` weight matrix ``head.w`` and one bias
vector ``head.b``; head ``i`` owns a run of their columns. Gradients use the
same layout: ``backward`` writes into ``grads``, views of one flat gradient
vector that each policy owns.

Design notes:
  * No positional signal on the elite rows. Rank is already implied by the
    buffer's sort order, and omitting it makes the forward pass invariant to
    row permutation, which is a cheap correctness probe.
  * Head output layers start at zero, so an untrained policy samples every
    sub-action uniformly; the first rollouts are unbiased exploration.
  * One boolean mask over the head table covers both the padding cells
    past each head's size and the inadmissible axis choices. Masked cells
    get a large negative logit, so their probability is exactly 0 and every
    head stays a categorical over its own admissible choices.
  * Reductions call ``np.add.reduce`` directly, divided by the count for a
    mean: at these sizes the ``np.sum`` and ``np.mean`` wrappers cost more
    than the arithmetic, and the results are bit-identical to theirs.
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

    @property
    def entries(self) -> tuple[Elite, ...]:
        return tuple(self._entries)

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
) -> np.ndarray:
    """Allowed cells of the (heads x widest head) table, in encoding order.

    Cells past a head's size are padding. Coarse degree heads allow every
    value. Axis heads allow UNSHARDED plus whichever shard axes their
    operator admits, so the policy never spends probability mass on
    structurally dead moves.
    """
    by_name = {op.name: op for op in ops}
    sizes = np.asarray(space.head_sizes)
    mask = np.arange(sizes.max()) < sizes[:, None]
    for row, name in enumerate(space.op_names, start=len(sizes) - len(space.op_names)):
        if name not in by_name:
            raise ValueError(f"action space controls unknown operator {name!r}")
        op = by_name[name]
        mask[row, AxisChoice.DIM0] = op.admits(AxisChoice.DIM0)
        mask[row, AxisChoice.DIM1] = op.admits(AxisChoice.DIM1)
    return mask


def left_sum(values: np.ndarray) -> float:
    """Sum left to right with plain float adds, one per element.

    ``sum`` is not used: from Python 3.12 it compensates float sums, and
    numpy's pairwise sum groups the terms differently.
    """
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def log_softmax_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable (log_probs, probs) of each row; masked cells get prob 0."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=-1, keepdims=True)
    return shifted - np.log(total), exp / total


# ---------------------------------------------------------------------------
# Network


@dataclass(frozen=True)
class PolicyOutput:
    """Categorical scores of every head plus the critic's value estimate.

    ``logits``, ``probs`` and ``log_probs`` are (heads x widest head)
    tables; masked cells hold ``MASKED_LOGIT`` and probability 0. Row ``i``
    scores head ``i``.
    """

    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    value: float

    def logprob(self, action: Sequence[int]) -> float:
        """Joint log-probability of ``action``, one choice per head."""
        return left_sum(self.log_probs[np.arange(len(action)), action])

    def head_entropies(self) -> np.ndarray:
        """Entropy of each head's categorical."""
        return -np.add.reduce(self.probs * self.log_probs, axis=-1)


def _layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    dim = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / dim
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / dim
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    normed = centered * inv_std
    return gain * normed + bias, (centered, inv_std, normed, gain)


def _layer_norm_backward(
    d_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centered, inv_std, normed, gain = cache
    dim = centered.shape[-1]
    d_gain = np.add.reduce(d_out * normed, axis=0)
    d_bias = np.add.reduce(d_out, axis=0)
    d_normed = d_out * gain
    d_var = (
        np.add.reduce(d_normed * centered, axis=-1, keepdims=True)
        * (-0.5)
        * inv_std**3
    )
    d_mean = (
        np.add.reduce(-d_normed * inv_std, axis=-1, keepdims=True)
        + d_var * (np.add.reduce(-2.0 * centered, axis=-1, keepdims=True) / dim)
    )
    d_x = d_normed * inv_std + d_var * 2.0 * centered / dim + d_mean / dim
    return d_x, d_gain, d_bias


class PolicyNetwork:
    """Single-block encoder policy with one categorical head per sub-action.

    ``width`` is the strategy-embedding size, the encoder width and the
    feed-forward inner width. The encoder block is post-norm: residual adds
    feed two LayerNorms, single-head scaled dot-product attention in between.
    """

    def __init__(
        self,
        space: ActionSpaceSpec,
        ops: Iterable[FusedOpDescriptor],
        *,
        rng: np.random.Generator,
        history_len: int = 3,
        width: int,
    ) -> None:
        if history_len < 1 or width < 1:
            raise ValueError("history_len and width must be >= 1")
        self.space = space
        self.mask = head_masks(space, ops)
        self.head_sizes = space.head_sizes
        self.history_len = int(history_len)
        self.width = int(width)
        self._scale = 1.0 / np.sqrt(float(width))
        # Head i owns choices [starts[i], starts[i] + sizes[i]) of the
        # matrix columns and the first sizes[i] cells of table row i.
        sizes = np.asarray(self.head_sizes)
        starts = np.cumsum(sizes) - sizes
        columns = np.arange(self.mask.shape[1])
        inside = columns < sizes[:, None]
        self._choice_of_cell = np.where(inside, starts[:, None] + columns, 0)
        self._cell_of_choice = np.flatnonzero(inside)
        self._last_choice = sizes - 1
        tensors = self._init_params(rng, int(sizes.sum()))
        self._layout: list[tuple[str, int, int, tuple[int, ...]]] = []
        offset = 0
        for name, tensor in tensors.items():
            self._layout.append((name, offset, offset + tensor.size, tensor.shape))
            offset += tensor.size
        self.flat = np.concatenate([t.ravel() for t in tensors.values()])
        self.params = self._views(self.flat)
        # ``backward`` writes here; its views are built once.
        self.grad = np.empty_like(self.flat)
        self.grads = self._views(self.grad)

    # -- parameters ---------------------------------------------------------

    def _init_params(
        self, rng: np.random.Generator, choices: int
    ) -> dict[str, np.ndarray]:
        obs_dim = self.space.vector_length
        d = self.width

        def fan_in(rows: int, cols: int) -> np.ndarray:
            limit = 1.0 / np.sqrt(float(rows))
            return rng.uniform(-limit, limit, size=(rows, cols))

        return {
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
            "ffn.w1": fan_in(d, d),
            "ffn.b1": np.zeros(d),
            "ffn.w2": fan_in(d, d),
            "ffn.b2": np.zeros(d),
            "ln2.g": np.ones(d),
            "ln2.b": np.zeros(d),
            # Zero head outputs: step 0 samples uniformly over admissible choices.
            "head.w": np.zeros((d, choices)),
            "head.b": np.zeros(choices),
            "value.w1": fan_in(d, d),
            "value.b1": np.zeros(d),
            "value.w2": np.zeros((d, 1)),
            "value.b2": np.zeros(1),
        }

    def _views(self, vector: np.ndarray) -> Mapping[str, np.ndarray]:
        """Name -> view of ``vector``, one per stored tensor."""
        return MappingProxyType({
            name: vector[start:stop].reshape(shape)
            for name, start, stop, shape in self._layout
        })

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
        weights /= np.add.reduce(weights, axis=-1, keepdims=True)
        context = weights @ v
        attn_out = context @ p["attn.wo"] + p["attn.bo"]
        res1 = embedded + attn_out
        hidden1, ln1_cache = _layer_norm_forward(res1, p["ln1.g"], p["ln1.b"])
        ffn_pre = hidden1 @ p["ffn.w1"] + p["ffn.b1"]
        ffn_act = np.maximum(ffn_pre, 0.0)
        ffn_out = ffn_act @ p["ffn.w2"] + p["ffn.b2"]
        res2 = hidden1 + ffn_out
        hidden2, ln2_cache = _layer_norm_forward(res2, p["ln2.g"], p["ln2.b"])
        pooled = np.add.reduce(hidden2, axis=0) / self.history_len

        choices = pooled @ p["head.w"] + p["head.b"]
        logits = np.where(self.mask, choices[self._choice_of_cell], MASKED_LOGIT)
        log_probs, probs = log_softmax_rows(logits)

        value_pre = pooled @ p["value.w1"] + p["value.b1"]
        value_act = np.maximum(value_pre, 0.0)
        value = float((value_act @ p["value.w2"])[0] + p["value.b2"][0])

        if not np.isfinite(pooled).all():
            raise NumericsError("non-finite values in pooled latent")
        finite = np.isfinite(logits).all(axis=-1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
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
        out = PolicyOutput(logits=logits, probs=probs, log_probs=log_probs, value=value)
        return out, cache

    # -- backward -----------------------------------------------------------

    def backward(
        self,
        cache: dict,
        d_logits: np.ndarray,
        d_value: float,
        accumulate: bool = False,
    ) -> Mapping[str, np.ndarray]:
        """Gradients of a scalar loss given its direct logit/value gradients.

        ``d_logits`` is d(loss)/d(logits), a table shaped like ``mask``;
        masked cells are ignored (the mask blocks the forward path).
        Gradients go into ``grad``, the policy's own vector laid out like
        ``flat``: overwriting it, or adding to it when ``accumulate`` is set.
        Returns ``grads``, the named views into ``grad``, keyed exactly like
        ``params``; the next call overwrites them.
        """
        p = self.params
        grads = self.grads
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

        d_choices = np.where(self.mask, d_logits, 0.0).take(self._cell_of_choice)
        emit("head.w", np.multiply, pooled[:, None], d_choices)  # outer product
        store("head.b", d_choices)
        d_pooled = p["head.w"] @ d_choices

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
        store("ffn.b2", np.add.reduce(d_ffn_out, axis=0))
        d_ffn_act = d_ffn_out @ p["ffn.w2"].T
        d_ffn_pre = d_ffn_act * (cache["ffn_pre"] > 0.0)
        emit("ffn.w1", np.matmul, cache["hidden1"].T, d_ffn_pre)
        store("ffn.b1", np.add.reduce(d_ffn_pre, axis=0))
        d_hidden1 += d_ffn_pre @ p["ffn.w1"].T

        d_res1, d_gain, d_bias = _layer_norm_backward(d_hidden1, cache["ln1"])
        store("ln1.g", d_gain)
        store("ln1.b", d_bias)
        d_embedded = d_res1.copy()
        d_attn_out = d_res1
        emit("attn.wo", np.matmul, cache["context"].T, d_attn_out)
        store("attn.bo", np.add.reduce(d_attn_out, axis=0))
        d_context = d_attn_out @ p["attn.wo"].T

        weights = cache["weights"]
        d_weights = d_context @ cache["v"].T
        d_v = weights.T @ d_context
        # Row-wise softmax jacobian.
        d_scores = weights * (
            d_weights - np.add.reduce(d_weights * weights, axis=-1, keepdims=True)
        )
        d_scores *= self._scale
        d_q = d_scores @ cache["k"]
        d_k = d_scores.T @ cache["q"]

        embedded = cache["embedded"]
        emit("attn.wq", np.matmul, embedded.T, d_q)
        store("attn.bq", np.add.reduce(d_q, axis=0))
        emit("attn.wk", np.matmul, embedded.T, d_k)
        store("attn.bk", np.add.reduce(d_k, axis=0))
        emit("attn.wv", np.matmul, embedded.T, d_v)
        store("attn.bv", np.add.reduce(d_v, axis=0))
        d_embedded += d_q @ p["attn.wq"].T
        d_embedded += d_k @ p["attn.wk"].T
        d_embedded += d_v @ p["attn.wv"].T

        emit("embed.w", np.matmul, cache["x"].T, d_embedded)
        store("embed.b", np.add.reduce(d_embedded, axis=0))
        return self.grads

    # -- action interface ---------------------------------------------------

    def sample(
        self, out: PolicyOutput, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], float]:
        """Draw one sub-action per head; returns (action, logprob).

        One uniform per head, in head order, scaled by the head's total
        mass, picks the first choice whose cumulative mass exceeds it
        (``searchsorted(side="right")``), clamped to the head's size; so
        zero-mass cells never win.
        """
        cumulative = np.cumsum(out.probs, axis=-1)
        draws = rng.random(len(self.head_sizes)) * cumulative[:, -1]
        picks = np.count_nonzero(cumulative <= draws[:, None], axis=-1)
        action = tuple(np.minimum(picks, self._last_choice).tolist())
        return action, out.logprob(action)


def confidence(out: PolicyOutput) -> np.ndarray:
    """Max categorical probability per head; 1.0 for single-choice heads."""
    return out.probs.max(axis=-1)
