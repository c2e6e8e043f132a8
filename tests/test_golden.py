"""Golden check: seeded PPO eval logs must not change under refactors.

The files under ``tests/golden/`` hold, for each (config, seed) search at a
fixed budget, every record's vector, validity, reason and raw throughput.
Floats are stored by ``repr`` (JSON's float encoding), so they round-trip
exactly and the comparison is equality, not a tolerance.

To rewrite the files after an intended change of behaviour, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the logs moved.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import SearchEnv
from shardsearch.ppo import run_search

GOLDEN_DIR = Path(__file__).parent / "golden"
BUDGET = 200
CASES = (("tiny", 0), ("tiny", 1), ("moe_1p2t_h100", 0))


def golden_path(config: str, seed: int) -> Path:
    return GOLDEN_DIR / f"ppo-{config}-seed{seed}-budget{BUDGET}.json"


def search_records(config: str, seed: int) -> list[list]:
    cfg = load_config(packaged_config_path(config))
    env = SearchEnv(
        cfg.model,
        cfg.hardware,
        cfg.space,
        context_len=cfg.simulation.context_len,
        budget=BUDGET,
        reward=cfg.reward,
        slo_tpot=cfg.simulation.slo_tpot,
    )
    run_search(env, dataclasses.replace(cfg.ppo, budget=BUDGET), seed=seed)
    return [[list(r.vector), r.valid, r.reason, r.raw] for r in env.eval_log]


@pytest.mark.parametrize("config,seed", CASES)
def test_ppo_eval_log_matches_golden(config, seed):
    expected = json.loads(golden_path(config, seed).read_text(encoding="utf-8"))
    assert expected["budget"] == BUDGET
    assert search_records(config, seed) == expected["records"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for config, seed in CASES:
        payload = {
            "config": config,
            "seed": seed,
            "budget": BUDGET,
            "fields": ["vector", "valid", "reason", "raw"],
            "records": search_records(config, seed),
        }
        golden_path(config, seed).write_text(
            json.dumps(payload) + "\n", encoding="utf-8"
        )
        print(f"wrote {golden_path(config, seed)}")
