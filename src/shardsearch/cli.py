"""Command-line front end: score strategies, run searches, compare runs.

Exit codes: 0 success, 2 strategy judged invalid by the simulator, 1 any
tool error (bad flags, config problems, unusable run directories).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from .baselines import (
    NoValidConfiguration,
    megatron_exhaustive,
    megatron_space_dims,
    megatron_vectors,
    random_walk,
    simulated_annealing,
)
from .config import ConfigError, ExperimentConfig, load_config, resolve_config_path
from .env import SearchEnv, load_eval_log
from .ppo import run_search
from .simulator import SimRequest, SimResult, explain, simulate, verdict_lines
from .strategy import (
    AXIS_BY_NAME,
    AxisChoice,
    Strategy,
    canonical_fused_ops,
    encode_strategy,
)

CONFIG_ENV_VAR = "SHARDSEARCH_CONFIG"

EXIT_OK = 0
EXIT_TOOL_ERROR = 1
EXIT_INVALID_STRATEGY = 2

class CliError(RuntimeError):
    """Tool-level failure: bad flags, bad inputs, unusable run directory."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for invalid strategies."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_TOOL_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shardsearch",
        description="Roofline-simulated search over parallelization strategies "
        "for large-model decode serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="score one strategy on a workload")
    _add_config_flag(sim)
    sim.add_argument("--tp", type=int, required=True, help="tensor-parallel degree")
    sim.add_argument("--ep", type=int, required=True, help="expert-parallel degree")
    sim.add_argument("--pp", type=int, required=True, help="pipeline-parallel degree")
    sim.add_argument("--batch", type=int, required=True, help="tokens in flight")
    fine = sim.add_mutually_exclusive_group()
    fine.add_argument(
        "--megatron",
        action="store_true",
        help="use the standard megatron shard axes for all controlled operators",
    )
    fine.add_argument(
        "--dims",
        action="append",
        metavar="OP=AXIS",
        help="shard axis for one operator (axis: unsharded, dim0, dim1); "
        "repeatable; unnamed operators stay unsharded",
    )
    sim.add_argument("--context", type=int, help="override the config's context length")
    shown = sim.add_mutually_exclusive_group()
    shown.add_argument(
        "--explain",
        action="store_true",
        help="after the verdict, print the per-operator layout and collective trace",
    )
    shown.add_argument(
        "--json", action="store_true", help="machine-readable result on stdout"
    )

    srch = sub.add_parser("search", help="run seeded strategy searches")
    _add_config_flag(srch)
    srch.add_argument(
        "--algo",
        required=True,
        choices=("ppo", "sa", "rw", "exhaustive"),
        help="search algorithm",
    )
    srch.add_argument(
        "--budget",
        type=int,
        help="evaluation budget per seed (default: ppo.budget from the config)",
    )
    srch.add_argument(
        "--seeds", type=int, help="number of independent seeded runs (default 1)"
    )
    srch.add_argument("--seed0", type=int, help="first seed value (default 0)")
    srch.add_argument(
        "--out", help="run directory (default: runs/<config-name>-<algo>)"
    )

    rep = sub.add_parser("report", help="compare finished run directories")
    rep.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    rep.add_argument(
        "--out", help="also write table.csv and curves.csv to this directory"
    )
    return parser


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        help="config file path or packaged config name "
        f"(falls back to ${CONFIG_ENV_VAR})",
    )


def _load_experiment(config_flag: str | None) -> tuple[ExperimentConfig, Path]:
    spec = config_flag or os.environ.get(CONFIG_ENV_VAR)
    if not spec:
        raise CliError(f"no config given: pass --config or set {CONFIG_ENV_VAR}")
    path = resolve_config_path(spec)
    return load_config(path), path


def _fine_dims(
    megatron: bool, dim_flags: Sequence[str] | None, cfg: ExperimentConfig
) -> tuple[AxisChoice, ...]:
    space = cfg.space
    if megatron:
        return megatron_space_dims(space, canonical_fused_ops(cfg.model))
    chosen = {name: AxisChoice.UNSHARDED for name in space.op_names}
    named = set()
    for flag in dim_flags or ():
        name, sep, axis_text = flag.partition("=")
        if not sep:
            raise CliError(f"--dims expects OP=AXIS, got {flag!r}")
        if name in named:
            raise CliError(f"--dims names operator {name!r} twice")
        named.add(name)
        if name not in chosen:
            raise CliError(
                f"--dims names unknown operator {name!r}; "
                f"controlled operators: {', '.join(space.op_names)}"
            )
        if axis_text not in AXIS_BY_NAME:
            raise CliError(
                f"--dims axis for {name} must be one of "
                f"{', '.join(AXIS_BY_NAME)}; got {axis_text!r}"
            )
        chosen[name] = AXIS_BY_NAME[axis_text]
    return tuple(chosen[name] for name in space.op_names)


def _result_payload(strategy: Strategy, result: SimResult) -> dict:
    return {
        "valid": result.valid,
        "invalid_reason": result.invalid_reason.value,
        "detail": result.detail,
        "world_size": strategy.world_size,
        "throughput": result.throughput,
        "tpot_s": result.tpot_s,
        "memory_bytes": result.memory_bytes,
        "compute_s": result.breakdown.compute_s,
        "comm_s": result.breakdown.comm_s,
        "pipeline_s": result.breakdown.pipeline_s,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, _ = _load_experiment(args.config)
    strategy = Strategy(
        tp=args.tp,
        ep=args.ep,
        pp=args.pp,
        batch=args.batch,
        op_names=cfg.space.op_names,
        op_dims=_fine_dims(args.megatron, args.dims, cfg),
        pinned_dims=cfg.space.pinned,
    )
    encode_strategy(strategy, cfg.space)  # rejects a degree outside its domain
    context = args.context if args.context is not None else cfg.simulation.context_len
    req = SimRequest(
        model=cfg.model,
        hw=cfg.hardware,
        strategy=strategy,
        context_len=context,
        slo_tpot=cfg.simulation.slo_tpot,
    )
    result = simulate(req)
    if args.json:
        print(json.dumps(_result_payload(strategy, result)))
    elif args.explain:
        print(explain(req))
    else:
        print("\n".join(verdict_lines(strategy, result)))
    return EXIT_OK if result.valid else EXIT_INVALID_STRATEGY


def _summarize(algo: str, budget: int, rows: list[dict]) -> dict:
    bests = [row["best_raw"] for row in rows]
    best_idx = max(range(len(bests)), key=lambda i: (bests[i], -i))
    return {
        "algorithm": algo,
        "budget": budget,
        "runs": len(rows),
        "per_seed": rows,
        "mean_best_raw": statistics.fmean(bests),
        "best_of_k_raw": bests[best_idx],
        "best_of_k_seed": rows[best_idx]["seed"],
        "best_of_k_vector": rows[best_idx]["best_vector"],
    }


def _seed_dir(seed: int | None) -> str:
    """A seed's directory in a run: the exhaustive sweep's is ``grid``."""
    return "grid" if seed is None else f"seed_{seed}"


def cmd_search(args: argparse.Namespace) -> int:
    cfg, config_path = _load_experiment(args.config)
    algo = args.algo
    if algo == "exhaustive":
        given = {"--budget": args.budget, "--seeds": args.seeds, "--seed0": args.seed0}
        ignored = [flag for flag, value in given.items() if value is not None]
        if ignored:
            print(
                "warning: the exhaustive sweep is deterministic; "
                f"ignoring {' and '.join(ignored)}",
                file=sys.stderr,
            )
        budget = len(megatron_vectors(cfg.space, canonical_fused_ops(cfg.model)))
        seeds: list[int | None] = [None]
    else:
        budget = args.budget if args.budget is not None else cfg.ppo.budget
        if budget < 1:
            raise CliError(f"--budget must be positive, got {budget}")
        seeds_count = args.seeds if args.seeds is not None else 1
        if seeds_count < 1:
            raise CliError(f"--seeds must be positive, got {seeds_count}")
        seed0 = args.seed0 if args.seed0 is not None else 0
        if seed0 < 0:
            raise CliError(f"--seed0 must be non-negative, got {seed0}")
        seeds = list(range(seed0, seed0 + seeds_count))
    # Built before any directory is made: it rejects a budget that the
    # chunks do not divide.
    ppo_cfg = dataclasses.replace(cfg.ppo, budget=budget) if algo == "ppo" else cfg.ppo
    # Searchers only step the environment, which keeps the run's best;
    # run_search returns the one fact only it knows, its restart offsets.
    searchers: dict[str, Callable[[SearchEnv, int | None], tuple[int, ...] | None]] = {
        "ppo": lambda env, seed: run_search(env, ppo_cfg, seed),
        "sa": lambda env, seed: simulated_annealing(env, cfg.sa, budget, seed),
        "rw": lambda env, seed: random_walk(env, budget, seed),
        "exhaustive": lambda env, seed: megatron_exhaustive(env),
    }

    out_dir = Path(args.out) if args.out else Path("runs") / f"{config_path.stem}-{algo}"
    if out_dir.exists() and any(out_dir.iterdir()):
        raise CliError(f"refusing to write into {out_dir}: it exists and is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(config_path, out_dir / "config.yaml")

    # summary.json's rows are the run's manifest; report.json holds the rest.
    rows = []
    for seed in seeds:
        run_dir = out_dir / _seed_dir(seed)
        run_dir.mkdir()
        with SearchEnv(
            cfg.model,
            cfg.hardware,
            cfg.space,
            context_len=cfg.simulation.context_len,
            budget=budget,
            reward=cfg.reward,
            slo_tpot=cfg.simulation.slo_tpot,
            log_path=run_dir / "evals.ndjson",
        ) as env:
            start = time.perf_counter()
            restarts = searchers[algo](env, seed) or ()
            wall_clock_s = time.perf_counter() - start
        report = {"restarts": restarts, "wall_clock_s": wall_clock_s}
        (run_dir / "report.json").write_text(json.dumps(report) + "\n", encoding="utf-8")
        rows.append({"seed": seed, "best_raw": env.best_raw,
                     "best_vector": env.best_vector, "evals": env.evals_used})
        print(f"{run_dir.name}: best raw {env.best_raw:.6f} ({env.evals_used} evals)")

    summary = _summarize(algo, budget, rows)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(f"mean best raw: {summary['mean_best_raw']:.6f}")
    print(f"best of {summary['runs']}: {summary['best_of_k_raw']:.6f}")
    print(f"run directory: {out_dir}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class _SeedRun:
    seed: int | None
    best_raw: float
    curve: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class _RunDir:
    path: Path
    cfg: ExperimentConfig
    workload: str
    algorithm: str
    budget: int
    seeds: tuple[_SeedRun, ...]


def _read_run(path: Path) -> _RunDir:
    """The seeds that ``summary.json`` lists, each read from its own log."""
    config_path = path / "config.yaml"
    summary_path = path / "summary.json"
    if not config_path.is_file() or not summary_path.is_file():
        raise CliError(
            f"{path} is not a finished run directory "
            "(missing config.yaml or summary.json)"
        )
    cfg = load_config(config_path)
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        algorithm, budget = str(summary["algorithm"]), summary["budget"]
        rows = [(row["seed"], row["evals"]) for row in summary["per_seed"]]
    except (ValueError, LookupError, TypeError) as exc:
        raise CliError(f"{summary_path} is not a run summary: {type(exc).__name__} {exc}") from None
    if not rows:
        raise CliError(f"{summary_path} lists no seeds")
    seeds = []
    for seed, evals in rows:
        log = path / _seed_dir(seed) / "evals.ndjson"
        records = load_eval_log(log)
        if not records or len(records) != evals:
            raise CliError(
                f"{log} holds {len(records)} records but {summary_path} reports {evals} evals"
            )
        if any(r.index != i for i, r in enumerate(records)):
            raise CliError(f"{log} does not number its records 0..{evals - 1}")
        # Invalid records log raw 0, so the running max of the raws is the
        # best valid raw so far, and its last value is the seed's best.
        curve = tuple(itertools.accumulate((r.raw for r in records), max))
        seeds.append(_SeedRun(seed=seed, best_raw=curve[-1], curve=curve))
    workload = f"{cfg.model.name}@{cfg.simulation.context_len}"
    return _RunDir(
        path=path,
        cfg=cfg,
        workload=workload,
        algorithm=algorithm,
        budget=budget,
        seeds=tuple(seeds),
    )


def _searcher_settings(run: _RunDir) -> dict:
    """The config section of the run's searcher, ``ppo`` without its budget
    (``--budget`` overrides it, and budgets are checked on their own)."""
    if run.algorithm == "ppo":
        return {**dataclasses.asdict(run.cfg.ppo), "budget": None}
    if run.algorithm == "sa":
        return dataclasses.asdict(run.cfg.sa)
    return {}


def _comparison_table(runs: Sequence[_RunDir]) -> list[dict]:
    """One row per workload and algorithm, merged over ``runs``.

    The first run to reach a scope fixes what that scope shares, and a later
    run that differs is refused:

    - a workload fixes its model, hardware, action_space, simulation and
      reward sections;
    - a workload's seeded runs fix one budget, since each row is normalized
      by the rw mean (the exhaustive sweep's budget is its grid);
    - a row fixes its searcher settings;
    - a (row, seed) pair occurs once, even within one run directory.
    """
    fixed: dict[tuple, tuple[_RunDir, object]] = {}

    def fix(scope: tuple, run: _RunDir, value: object,
            refusal: Callable[[_RunDir], str]) -> None:
        prior, first = fixed.setdefault(scope, (run, value))
        if first != value:
            raise CliError(refusal(prior))

    merged: dict[tuple[str, str], list[_SeedRun]] = {}
    for run in runs:
        cfg, key = run.cfg, (run.workload, run.algorithm)
        fix(("workload", run.workload), run,
            (cfg.model, cfg.hardware, cfg.space, cfg.simulation, cfg.reward),
            lambda prior: f"run directories {prior.path} and {run.path} both claim "
            f"workload {run.workload!r} but their configs disagree; refusing to compare")
        if run.algorithm != "exhaustive":
            fix(("budget", run.workload), run, run.budget,
                lambda prior: f"seeded runs on {run.workload} ran with budget "
                f"{prior.budget} in {prior.path} but {run.budget} in {run.path}; "
                "refusing to compare them")
        fix(("settings", *key), run, _searcher_settings(run),
            lambda prior: f"{run.algorithm} on {run.workload} ran with different "
            f"{run.algorithm} settings in {prior.path} and {run.path}; "
            "refusing to average them")
        # Each copy of a seed is its own value, so a second copy always differs.
        for seed_run in run.seeds:
            fix(("seed", *key, seed_run.seed), run, object(),
                lambda prior: f"seed {seed_run.seed} of {run.algorithm} on {run.workload} "
                f"appears in both {prior.path} and {run.path}; refusing to count it twice")
        merged.setdefault(key, []).extend(run.seeds)

    table = {}
    for (workload, algo), seeds in merged.items():
        bests = [s.best_raw for s in seeds]
        table[workload, algo] = {
            "workload": workload,
            "algorithm": algo,
            "runs": len(bests),
            "mean_best_raw": statistics.fmean(bests),
            "best_of_k_raw": max(bests),
        }
    for row in table.values():
        rw_base = table.get((row["workload"], "rw"), {}).get("mean_best_raw", 0.0)
        ex_base = table.get((row["workload"], "exhaustive"), {}).get("best_of_k_raw", 0.0)
        row["normalized_over_rw"] = row["mean_best_raw"] / rw_base if rw_base > 0 else None
        row["vs_exhaustive"] = row["best_of_k_raw"] / ex_base if ex_base > 0 else None
    return list(table.values())


_TABLE_COLUMNS = (
    "workload",
    "algorithm",
    "runs",
    "mean_best_raw",
    "best_of_k_raw",
    "normalized_over_rw",
    "vs_exhaustive",
)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _render_text(rows: list[dict]) -> str:
    cells = [[_cell(row[c]) for c in _TABLE_COLUMNS] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in cells)) if cells else len(header)
        for i, header in enumerate(_TABLE_COLUMNS)
    ]
    def fmt(line):
        return "  ".join(text.ljust(w) for text, w in zip(line, widths)).rstrip()
    return "\n".join([fmt(_TABLE_COLUMNS), *(fmt(line) for line in cells)])


def _render_table_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_TABLE_COLUMNS)
    for row in rows:
        writer.writerow(
            ["" if row[c] is None else row[c] for c in _TABLE_COLUMNS]
        )
    return buf.getvalue()


def _render_curves_csv(runs: Sequence[_RunDir]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["workload", "algorithm", "seed", "eval_index", "best_so_far_raw"])
    for run in runs:
        for seed_run in run.seeds:
            label = "" if seed_run.seed is None else seed_run.seed
            for index, best in enumerate(seed_run.curve):
                writer.writerow([run.workload, run.algorithm, label, index, best])
    return buf.getvalue()


def cmd_report(args: argparse.Namespace) -> int:
    runs = [_read_run(Path(d)) for d in args.run_dirs]
    rows = _comparison_table(runs)
    print(_render_text(rows))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table.csv").write_text(_render_table_csv(rows), encoding="utf-8")
        (out / "curves.csv").write_text(_render_curves_csv(runs), encoding="utf-8")
        print(f"wrote {out / 'table.csv'} and {out / 'curves.csv'}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "search":
            return cmd_search(args)
        return cmd_report(args)
    except (CliError, ConfigError, NoValidConfiguration, ValueError, OSError) as exc:
        print(f"shardsearch: error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
