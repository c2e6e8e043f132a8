"""One-step decision environment wrapping the simulator.

Every ``step`` scores one encoded strategy: decode, simulate, shape the
reward, account the budget. Rewards combine the raw objective with an
improvement bonus against the best raw value seen so far (exclusive of the
current sample),

    reward = alpha * raw + beta * (raw - best_so_far)

while invalid strategies earn a flat configured penalty and still consume
budget. The environment is the single bookkeeper of the run: every
evaluation lands in an append-only log that fully reproduces the search, and
``best_raw`` with ``best_vector`` is the run's best, the earliest maximal
valid record of that log (``None`` and 0 while nothing was valid).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .model import HardwareSpec, ModelSpec, check_fields
from .simulator import InvalidReason, SimRequest, simulate
from .strategy import ActionSpaceSpec, Strategy, check_space, decode_strategy


class BudgetExhausted(RuntimeError):
    """All simulator calls of the run's budget have been spent."""


@dataclass(frozen=True)
class RewardConfig:
    """Shaping knobs: scale factors and the flat penalty for invalid picks."""

    alpha: float = 1.0
    beta: float = 1.0
    invalid_penalty: float = -10.0

    def __post_init__(self) -> None:
        check_fields("reward", self, negative=("invalid_penalty",))


@dataclass(frozen=True)
class EvalRecord:
    """One logged evaluation, exactly as the search saw it."""

    index: int
    vector: tuple[int, ...]
    raw: float
    reward: float
    valid: bool
    reason: str

    def to_json(self) -> str:
        return _ENCODER.encode(vars(self))

    @staticmethod
    def from_json(line: str) -> "EvalRecord":
        """Parse one log line; a missing, unknown or ill-typed field is a ValueError."""
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        unknown, missing = d.keys() - _FIELD_CHECKS, _FIELD_CHECKS.keys() - d.keys()
        if unknown or missing:
            raise ValueError(f"unknown fields {sorted(unknown)}, missing fields {sorted(missing)}")
        for name, check in _FIELD_CHECKS.items():
            if not check(d[name]):
                raise ValueError(f"field {name!r} has a wrong value {d[name]!r}")
        d["vector"] = tuple(d["vector"])
        return EvalRecord(**d)


def _is_int(value: object) -> bool:
    return type(value) is int  # bool is an int subclass and is refused


def _is_finite_number(value: object) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


_REASONS = frozenset(reason.value for reason in InvalidReason)
_FIELD_CHECKS = {
    "index": _is_int,
    "vector": lambda v: type(v) is list and all(map(_is_int, v)),
    "raw": _is_finite_number,
    "reward": _is_finite_number,
    "valid": lambda v: type(v) is bool,
    "reason": lambda v: type(v) is str and v in _REASONS,
}
# One encoder for every log line; it writes the same bytes as json.dumps.
_ENCODER = json.JSONEncoder(check_circular=False)


class SearchEnv:
    """Budgeted strategy-evaluation environment over one workload.

    Single-writer: exactly one search loop owns an instance. When
    ``log_path`` is given, it must not exist yet: the log is created for
    this run alone, and every record is appended and flushed immediately so
    an interrupted run still leaves a valid, replayable log.
    """

    def __init__(
        self,
        model: ModelSpec,
        hw: HardwareSpec,
        space: ActionSpaceSpec,
        context_len: int,
        budget: int,
        reward: RewardConfig = RewardConfig(),
        slo_tpot: float = 0.050,
        log_path: str | Path | None = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        check_space(space, model)
        self.model = model
        self.hw = hw
        self.space = space
        self.context_len = context_len
        self.slo_tpot = slo_tpot
        self.budget = budget
        self.reward_cfg = reward
        self.best_raw = 0.0
        self.best_vector: tuple[int, ...] | None = None
        self.evals_used = 0
        self.eval_log: list[EvalRecord] = []
        self._sink: TextIO | None = None
        if log_path is not None:
            self._sink = open(log_path, "x", encoding="utf-8")

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "SearchEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def budget_left(self) -> int:
        return self.budget - self.evals_used

    def evaluate_raw(self, strategy: Strategy):
        """Simulator verdict for a strategy, without touching env state."""
        return simulate(
            SimRequest(
                model=self.model,
                hw=self.hw,
                strategy=strategy,
                context_len=self.context_len,
                slo_tpot=self.slo_tpot,
            )
        )

    def step(self, action: Sequence[int]) -> tuple[float, float, bool]:
        """Evaluate one encoded strategy; returns (reward, raw, valid)."""
        if self.evals_used >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations spent")
        vector = tuple(map(int, action))
        strategy = decode_strategy(vector, self.space)
        result = self.evaluate_raw(strategy)
        if result.valid:
            raw = result.throughput
            reward = self.reward_cfg.alpha * raw + self.reward_cfg.beta * (raw - self.best_raw)
        else:
            raw = 0.0
            reward = self.reward_cfg.invalid_penalty
        record = EvalRecord(
            index=self.evals_used,
            vector=vector,
            raw=raw,
            reward=reward,
            valid=result.valid,
            reason=result.invalid_reason.value,
        )
        self.evals_used += 1
        self.eval_log.append(record)
        if self._sink is not None:
            self._sink.write(record.to_json() + "\n")
            self._sink.flush()
        if result.valid and raw > self.best_raw:
            # After the reward: the bonus is exclusive. Every valid raw is
            # positive, so this keeps the earliest maximal valid record.
            self.best_raw = raw
            self.best_vector = vector
        return reward, raw, result.valid


def load_eval_log(path: str | Path) -> list[EvalRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(EvalRecord.from_json(line))
                except (ValueError, TypeError, KeyError) as exc:
                    raise ValueError(f"{path}:{number} is not an eval record: {exc}") from None
    return records
