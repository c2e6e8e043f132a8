"""Correctness checks on what a benchmarked search wrote and returned.

Every check compares a program output with a property or with a separate
computation made by the benchmark, never with a stored copy of an earlier
output. A check that fails raises ``CheckFailed`` naming what broke.

Eval-log records are the dicts of one ``evals.ndjson`` line. An "outcome" is
the benchmark's own re-simulation of a logged vector, as a dict with the
keys ``valid``, ``reason``, ``throughput``, ``tpot_s``, ``memory_bytes``,
``compute_s``, ``comm_s``, ``pipeline_s``, ``world_size``, ``pp`` and
``batch``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

# Relative slack for values that two code paths compute with the same
# float operations in possibly different order.
REL_TOL = 1e-12
# Slack for the pp=1 identity, which multiplies three rounded values.
IDENTITY_REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output broke a property the benchmark checks."""


@dataclass(frozen=True)
class Limits:
    """The gates a valid strategy must pass on one config."""

    slo_tpot: float
    hbm_capacity: float
    device_budget: int


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_log_length(records: Sequence[dict], budget: int) -> None:
    """The log holds exactly ``budget`` records, indexed 0..budget-1."""
    if len(records) != budget:
        raise CheckFailed(f"log holds {len(records)} records, budget is {budget}")
    for pos, rec in enumerate(records):
        if rec["index"] != pos:
            raise CheckFailed(f"record {pos} carries index {rec['index']}")


def check_valid_outcome(rec: dict, outcome: dict, limits: Limits) -> None:
    """A valid record passes every gate and its time parts add up."""
    raw = rec["raw"]
    if not (math.isfinite(raw) and raw > 0.0):
        raise CheckFailed(f"record {rec['index']}: valid with raw {raw!r}")
    if not outcome["tpot_s"] <= limits.slo_tpot:
        raise CheckFailed(
            f"record {rec['index']}: tpot {outcome['tpot_s']!r} over SLO {limits.slo_tpot}"
        )
    if not outcome["memory_bytes"] <= limits.hbm_capacity:
        raise CheckFailed(
            f"record {rec['index']}: memory {outcome['memory_bytes']!r} "
            f"over capacity {limits.hbm_capacity}"
        )
    if not outcome["world_size"] <= limits.device_budget:
        raise CheckFailed(
            f"record {rec['index']}: world size {outcome['world_size']} "
            f"over budget {limits.device_budget}"
        )
    parts = outcome["compute_s"] + outcome["comm_s"] + outcome["pipeline_s"]
    if not _close(parts, outcome["tpot_s"]):
        raise CheckFailed(
            f"record {rec['index']}: breakdown sums to {parts!r}, tpot is {outcome['tpot_s']!r}"
        )
    if outcome["pp"] == 1:
        product = outcome["throughput"] * outcome["tpot_s"] * outcome["world_size"]
        if not _close(product, outcome["batch"], IDENTITY_REL_TOL):
            raise CheckFailed(
                f"record {rec['index']}: throughput x tpot x world_size = {product!r}, "
                f"batch is {outcome['batch']}"
            )


def check_replay(rec: dict, outcome: dict) -> None:
    """Re-simulating the logged vector gives back the logged verdict and raw."""
    expected_raw = outcome["throughput"] if outcome["valid"] else 0.0
    if rec["valid"] != outcome["valid"] or rec["reason"] != outcome["reason"]:
        raise CheckFailed(
            f"record {rec['index']}: logged {rec['valid']}/{rec['reason']}, "
            f"re-simulated {outcome['valid']}/{outcome['reason']}"
        )
    if rec["raw"] != expected_raw:
        raise CheckFailed(
            f"record {rec['index']}: logged raw {rec['raw']!r}, re-simulated {expected_raw!r}"
        )


def best_of_log(records: Sequence[dict]) -> float:
    """Highest raw among valid records; 0 when none is valid."""
    return max((rec["raw"] for rec in records if rec["valid"]), default=0.0)


def check_seed_best(claimed: float, log_best: float) -> None:
    """The best a search reports equals the maximum over its own log."""
    if claimed != log_best:
        raise CheckFailed(f"search reports best {claimed!r}, its log's maximum is {log_best!r}")


def check_report_mean(report_mean: float, bests: Sequence[float]) -> None:
    """``report``'s mean best equals the mean of the per-search maxima."""
    expected = statistics.fmean(bests)
    if not _close(report_mean, expected):
        raise CheckFailed(f"report gives mean {report_mean!r}, the logs give {expected!r}")


def check_megatron(sweep_best: float, walk_best: float) -> None:
    """The exhaustive sweep's best equals the benchmark's own grid walk."""
    if not (walk_best > 0.0 and _close(sweep_best, walk_best)):
        raise CheckFailed(f"exhaustive sweep best {sweep_best!r}, own walk {walk_best!r}")


def check_oracle(bests: Sequence[float], oracle: float) -> None:
    """No search beats the optimum found by enumerating the whole space."""
    for best in bests:
        if best > oracle * (1.0 + REL_TOL):
            raise CheckFailed(f"best {best!r} exceeds the enumerated optimum {oracle!r}")


def check_repeat(first: bytes, again: bytes) -> None:
    """A seeded search run twice writes the same log."""
    if first != again:
        raise CheckFailed("a repeated seed wrote a different eval log")
