"""Golden check: seeded PPO eval logs, two simulator tables and one set of
command-line run outputs must not change under refactors.

The files under ``tests/golden/`` hold, for each (config, seed) search at a
fixed budget, every record's vector, validity, reason and raw throughput.
Two tables hold the simulator's verdict (validity, reason, raw throughput and
tpot) on every point of the tiny config's action space, in
``itertools.product`` order, and on every point of the Megatron-pinned
coarse grid of the 1.2T config. Floats are stored by ``repr`` (JSON's float
encoding), so they round-trip exactly and the comparison is equality, not a
tolerance. ``run-tiny-budget100/`` holds the ``summary.json`` of each
``search`` on tiny (ppo, sa and rw at budget 100 over seeds 0-1, and the
exhaustive sweep) and the ``table.csv`` and ``curves.csv`` that ``report``
writes over all four; they are compared byte for byte.
``panels-ppo-budget1000.json`` holds the sha256 of each ``seed_*/evals.ndjson``
that ``search --algo ppo --budget 1000`` writes on the benchmark's two PPO
panels: ``moe_1p2t_h100`` seeds 0-3 and ``tiny`` seeds 0-7.
``baselines-moe_1p2t_h100-budget4000.json`` holds the same digests for
``search --algo sa`` and ``--algo rw`` at budget 4000 over seeds 0-3 of the
1.2T config, the benchmark's annealing workload, and
``panels-sa-budget4000.json`` those of ``--algo sa`` over seeds 0-31, the
benchmark's whole annealing panel. ``panels-ppo-budget4000.json`` holds the
digest of ``search --algo ppo`` at the paper's budget of 4000 on seed 0 of
the 1.2T config: its chunks run 800 Adam steps each, long enough for the
first-moment bias correction to round to 1.
``explain-digests.json`` holds, for each of four strategy sets (the tiny
table, the 1.2T Megatron grid and seeded random vectors on the 1.2T and 1.6T
configs), one sha256 over every ``explain`` text and one over every
``simulate`` verdict (validity, reason, raw, tpot, memory, breakdown and
detail), so a change to any printed plan or any priced figure shows.

To rewrite the files after an intended change of behaviour, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the logs moved.
"""

import dataclasses
import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from shardsearch.cli import main
from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import SearchEnv, load_eval_log
from shardsearch.ppo import run_search
from shardsearch.simulator import SimRequest, explain, simulate
from shardsearch.strategy import (
    AxisChoice,
    canonical_fused_ops,
    decode_strategy,
    megatron_fine_dims,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
BUDGET = 200
CASES = (("tiny", 0), ("tiny", 1), ("moe_1p2t_h100", 0))
TABLES = (("tiny", "full"), ("moe_1p2t_h100", "megatron"))
RUN_DIR = GOLDEN_DIR / "run-tiny-budget100"
RUN_ALGOS = ("ppo", "sa", "rw", "exhaustive")
PANEL_BUDGET = 1000
PANELS = (("moe_1p2t_h100", 4), ("tiny", 8))
PANEL_PATH = GOLDEN_DIR / f"panels-ppo-budget{PANEL_BUDGET}.json"
BASELINE_CONFIG, BASELINE_BUDGET, BASELINE_SEEDS = "moe_1p2t_h100", 4000, 4
BASELINE_ALGOS = ("sa", "rw")
BASELINE_PATH = GOLDEN_DIR / f"baselines-{BASELINE_CONFIG}-budget{BASELINE_BUDGET}.json"
SA_PANEL_SEEDS = 32
SA_PANEL_PATH = GOLDEN_DIR / f"panels-sa-budget{BASELINE_BUDGET}.json"
PPO_PAPER_SEEDS = 1
PPO_PAPER_PATH = GOLDEN_DIR / f"panels-ppo-budget{BASELINE_BUDGET}.json"
EXPLAIN_SETS = TABLES + tuple(
    (config, grid)
    for config in ("moe_1p2t_h100", "moe_1p6t_h100")
    for grid in ("random", "admissible")
)
EXPLAIN_PATH = GOLDEN_DIR / "explain-digests.json"
RANDOM_POINTS = 1000
RANDOM_SEED = 20250


def golden_path(config: str, seed: int) -> Path:
    return GOLDEN_DIR / f"ppo-{config}-seed{seed}-budget{BUDGET}.json"


def search_records(config: str, seed: int) -> list[list]:
    cfg = load_config(packaged_config_path(config))
    with tempfile.TemporaryDirectory() as work:
        log = Path(work) / "evals.ndjson"
        with SearchEnv(
            cfg.model,
            cfg.hardware,
            cfg.space,
            context_len=cfg.simulation.context_len,
            budget=BUDGET,
            reward=cfg.reward,
            slo_tpot=cfg.simulation.slo_tpot,
            log_path=log,
        ) as env:
            run_search(env, dataclasses.replace(cfg.ppo, budget=BUDGET), seed=seed)
        records = load_eval_log(log)
    return [[list(r.vector), r.valid, r.reason, r.raw] for r in records]


def table_path(config: str, grid: str) -> Path:
    return GOLDEN_DIR / f"table-{config}-{grid}.json"


def table_vectors(config: str, grid: str) -> list[tuple[int, ...]]:
    """Every point of the full action space, the Megatron-pinned grid, or
    ``RANDOM_POINTS`` seeded vectors: uniform over every head ("random") or
    over each operator's admissible axes ("admissible")."""
    cfg = load_config(packaged_config_path(config))
    sizes = cfg.space.head_sizes
    if grid == "full":
        return list(itertools.product(*(range(k) for k in sizes)))
    ops = canonical_fused_ops(cfg.model)
    rng = np.random.default_rng(RANDOM_SEED)
    if grid == "random":
        draws = rng.integers(0, sizes, (RANDOM_POINTS, len(sizes)))
        return [tuple(int(i) for i in row) for row in draws]
    if grid == "admissible":
        by_name = {op.name: op for op in ops}
        axes = [[int(a) for a in AxisChoice if by_name[n].admits(a)] for n in cfg.space.op_names]
        return [
            tuple(int(rng.integers(k)) for k in sizes[:4])
            + tuple(int(rng.choice(choices)) for choices in axes)
            for _ in range(RANDOM_POINTS)
        ]
    dims_by_name = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    tail = tuple(int(dims_by_name[name]) for name in cfg.space.op_names)
    return [coarse + tail for coarse in itertools.product(*(range(k) for k in sizes[:4]))]


def table_requests(config: str, grid: str) -> list[SimRequest]:
    cfg = load_config(packaged_config_path(config))
    return [
        SimRequest(
            model=cfg.model,
            hw=cfg.hardware,
            strategy=decode_strategy(vector, cfg.space),
            context_len=cfg.simulation.context_len,
            slo_tpot=cfg.simulation.slo_tpot,
        )
        for vector in table_vectors(config, grid)
    ]


def table_records(config: str, grid: str) -> list[list]:
    rows = []
    for req in table_requests(config, grid):
        result = simulate(req)
        rows.append(
            [result.valid, result.invalid_reason.value, result.throughput, result.tpot_s]
        )
    return rows


def explain_digests(config: str, grid: str) -> dict:
    """sha256 over every explain text and every simulate verdict of a set."""
    texts, verdicts = hashlib.sha256(), hashlib.sha256()
    requests = table_requests(config, grid)
    for req in requests:
        r = simulate(req)
        b = r.breakdown
        verdict = (r.valid, r.invalid_reason.value, r.throughput, r.tpot_s, r.memory_bytes,
                   b.compute_s, b.comm_s, b.pipeline_s, r.detail)
        verdicts.update(repr(verdict).encode() + b"\n")
        texts.update(explain(req).encode() + b"\0")
    return {"points": len(requests), "explain": texts.hexdigest(), "verdict": verdicts.hexdigest()}


def run_outputs(work: Path) -> dict[str, bytes]:
    """The files of ``RUN_DIR``, produced afresh under ``work``."""
    for algo in RUN_ALGOS:
        argv = ["search", "--config", "tiny", "--algo", algo, "--out", str(work / algo)]
        if algo != "exhaustive":
            argv += ["--budget", "100", "--seeds", "2"]
        assert main(argv) == 0
    report = work / "report"
    assert main(["report", *(str(work / algo) for algo in RUN_ALGOS), "--out", str(report)]) == 0
    outputs = {
        f"summary-{algo}.json": (work / algo / "summary.json").read_bytes()
        for algo in RUN_ALGOS
    }
    for name in ("table.csv", "curves.csv"):
        outputs[name] = (report / name).read_bytes()
    return outputs


def log_digests(config: str, algo: str, budget: int, seeds: int, work: Path) -> list[str]:
    """sha256 of each seed's eval log from one search over seeds 0..seeds-1."""
    argv = ["search", "--config", config, "--algo", algo, "--out", str(work)]
    assert main(argv + ["--budget", str(budget), "--seeds", str(seeds)]) == 0
    return [
        hashlib.sha256((work / f"seed_{seed}" / "evals.ndjson").read_bytes()).hexdigest()
        for seed in range(seeds)
    ]


@pytest.mark.parametrize("config,seeds", PANELS)
def test_ppo_panel_logs_match_golden(config, seeds, tmp_path):
    expected = json.loads(PANEL_PATH.read_text(encoding="utf-8"))["sha256"][config]
    assert len(expected) == seeds
    actual = log_digests(config, "ppo", PANEL_BUDGET, seeds, tmp_path / config)
    moved = [seed for seed in range(seeds) if actual[seed] != expected[seed]]
    assert not moved, f"{config}: the eval logs of seeds {moved} differ from the golden digests"


@pytest.mark.parametrize("algo", BASELINE_ALGOS)
def test_baseline_logs_on_the_1p2t_config_match_golden(algo, tmp_path):
    expected = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))["sha256"][algo]
    assert len(expected) == BASELINE_SEEDS
    actual = log_digests(BASELINE_CONFIG, algo, BASELINE_BUDGET, BASELINE_SEEDS, tmp_path / algo)
    moved = [seed for seed in range(BASELINE_SEEDS) if actual[seed] != expected[seed]]
    assert not moved, f"{algo}: the eval logs of seeds {moved} differ from the golden digests"


def test_sa_panel_logs_on_the_1p2t_config_match_golden(tmp_path):
    expected = json.loads(SA_PANEL_PATH.read_text(encoding="utf-8"))["sha256"][BASELINE_CONFIG]
    assert len(expected) == SA_PANEL_SEEDS
    actual = log_digests(BASELINE_CONFIG, "sa", BASELINE_BUDGET, SA_PANEL_SEEDS, tmp_path)
    moved = [seed for seed in range(SA_PANEL_SEEDS) if actual[seed] != expected[seed]]
    assert not moved, f"sa: the eval logs of seeds {moved} differ from the golden digests"


def test_ppo_log_at_the_paper_budget_matches_golden(tmp_path):
    expected = json.loads(PPO_PAPER_PATH.read_text(encoding="utf-8"))["sha256"][BASELINE_CONFIG]
    assert len(expected) == PPO_PAPER_SEEDS
    actual = log_digests(BASELINE_CONFIG, "ppo", BASELINE_BUDGET, PPO_PAPER_SEEDS, tmp_path)
    assert actual == expected, "ppo: the eval log at budget 4000 differs from the golden digest"


def test_run_outputs_match_golden(tmp_path):
    outputs = run_outputs(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in RUN_DIR.iterdir())
    for name, data in outputs.items():
        assert data == (RUN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("config,grid", EXPLAIN_SETS)
def test_explain_and_verdicts_match_golden(config, grid):
    expected = json.loads(EXPLAIN_PATH.read_text(encoding="utf-8"))[f"{config}-{grid}"]
    assert explain_digests(config, grid) == expected


@pytest.mark.parametrize("config,grid", TABLES)
def test_simulator_table_matches_golden(config, grid):
    expected = json.loads(table_path(config, grid).read_text(encoding="utf-8"))
    assert expected["points"] == len(expected["records"])
    assert table_records(config, grid) == expected["records"]


@pytest.mark.parametrize("config,seed", CASES)
def test_ppo_eval_log_matches_golden(config, seed):
    expected = json.loads(golden_path(config, seed).read_text(encoding="utf-8"))
    assert expected["budget"] == BUDGET
    assert search_records(config, seed) == expected["records"]


def write_ppo_paper_digest() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = log_digests(
            BASELINE_CONFIG, "ppo", BASELINE_BUDGET, PPO_PAPER_SEEDS, Path(work)
        )
    payload = {
        "algo": "ppo",
        "budget": BASELINE_BUDGET,
        "file": "seed_<n>/evals.ndjson",
        "sha256": {BASELINE_CONFIG: digests},
    }
    PPO_PAPER_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PPO_PAPER_PATH}")


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
    for config, grid in TABLES:
        records = table_records(config, grid)
        payload = {
            "config": config,
            "grid": grid,
            "points": len(records),
            "fields": ["valid", "reason", "raw", "tpot_s"],
            "records": records,
        }
        table_path(config, grid).write_text(json.dumps(payload) + "\n", encoding="utf-8")
        print(f"wrote {table_path(config, grid)}")
    digests = {f"{config}-{grid}": explain_digests(config, grid) for config, grid in EXPLAIN_SETS}
    EXPLAIN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPLAIN_PATH}")
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in run_outputs(Path(work)).items():
            (RUN_DIR / name).write_bytes(data)
            print(f"wrote {RUN_DIR / name}")
    with tempfile.TemporaryDirectory() as work:
        digests = {
            config: log_digests(config, "ppo", PANEL_BUDGET, seeds, Path(work) / config)
            for config, seeds in PANELS
        }
    payload = {
        "algo": "ppo",
        "budget": PANEL_BUDGET,
        "file": "seed_<n>/evals.ndjson",
        "sha256": digests,
    }
    PANEL_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PANEL_PATH}")
    with tempfile.TemporaryDirectory() as work:
        digests = {
            algo: log_digests(
                BASELINE_CONFIG, algo, BASELINE_BUDGET, BASELINE_SEEDS, Path(work) / algo
            )
            for algo in BASELINE_ALGOS
        }
    payload = {
        "config": BASELINE_CONFIG,
        "budget": BASELINE_BUDGET,
        "file": "seed_<n>/evals.ndjson",
        "sha256": digests,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH}")
    with tempfile.TemporaryDirectory() as work:
        digests = log_digests(
            BASELINE_CONFIG, "sa", BASELINE_BUDGET, SA_PANEL_SEEDS, Path(work)
        )
    payload = {
        "algo": "sa",
        "budget": BASELINE_BUDGET,
        "file": "seed_<n>/evals.ndjson",
        "sha256": {BASELINE_CONFIG: digests},
    }
    SA_PANEL_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {SA_PANEL_PATH}")
    write_ppo_paper_digest()
