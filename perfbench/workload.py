"""One benchmark workload, run in a process of its own.

``run`` times seeded searches made through the ``shardsearch`` command-line
entry point, each into a fresh run directory, then reads the directories back
with ``shardsearch report`` and checks every output. With ``--trace 1`` it
first times one untraced pass over the workload's seeds, then the same pass
with every layer traced, and reports per-layer figures. The last line of
standard output is one JSON object for ``run.py``.

``setup`` is the set-up probe: a fresh interpreter that imports the package,
loads the workload's config and builds an environment, then says ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from shardsearch import baselines, cli, env, policy, ppo, simulator
from shardsearch.config import load_config, resolve_config_path
from shardsearch.simulator import SimRequest, simulate
from shardsearch.strategy import (
    Strategy,
    canonical_fused_ops,
    decode_strategy,
    megatron_fine_dims,
)

import checks
import tracing


@dataclass(frozen=True)
class Workload:
    """One searcher on one packaged config, over a fixed panel of seeds.

    The seeds are fixed so that plan quality at the fixed budget is an exact
    figure, the same on every run and every machine; ``--seed`` only rotates
    the order in which each pass over the panel runs.
    """

    config: str
    algo: str
    budget: int
    seeds: tuple[int, ...]
    oracle: bool = False


WORKLOADS = {
    # The learner-bound loop and the paper's PPO-versus-Megatron comparison.
    # Four seeds at 1000 evals take about 23 s.
    "ppo-1p2t": Workload("moe_1p2t_h100", "ppo", 1000, (0, 1, 2, 3)),
    # No learner: simulator, env and log sink. 32 seeds at 4000 evals take
    # about 5 s, so a run repeats the panel several times.
    "sa-1p2t": Workload("moe_1p2t_h100", "sa", 4000, tuple(range(32))),
    # Per-call learner overhead at width 64, checked against the oracle.
    "ppo-tiny": Workload("tiny", "ppo", 1000, tuple(range(8)), oracle=True),
}

REASONS = tuple(reason.value for reason in simulator.InvalidReason)


def _reason_of(result) -> str:
    return result.invalid_reason.value


def _chunk_exit(outcome) -> str:
    return outcome.exit.value


# (owner, attribute, span name, outcome tag). Functions are patched where
# their callers look them up, which is the importing module's namespace.
TRACE_TARGETS = (
    (cli, "cmd_search", "cli.search", None),
    (cli, "load_config", "config.load", None),
    (cli, "simulated_annealing", "baselines.annealing", None),
    (cli, "run_search", "ppo.search", None),
    (env.SearchEnv, "step", "env.step", None),
    (env, "decode_strategy", "strategy.decode", None),
    (env, "simulate", "simulator.simulate", _reason_of),
    (simulator, "plan_layer", "layout.plan_layer", None),
    (simulator, "memory_per_device", "simulator.memory", None),
    (baselines, "uniform_vector", "baselines.propose", None),
    (baselines, "mutate_vector", "baselines.propose", None),
    (ppo, "run_chunk", "ppo.chunk", _chunk_exit),
    (ppo, "collect", "ppo.collect", None),
    (ppo, "ppo_update", "ppo.update", None),
    (ppo, "loss_and_grads", "ppo.loss_and_grads", None),
    (ppo.Adam, "apply", "ppo.adam", None),
    (ppo, "build_observation", "policy.build_observation", None),
    (policy.PolicyNetwork, "__init__", "policy.init", None),
    # forward() delegates to forward_cached(), so this covers both.
    (policy.PolicyNetwork, "forward_cached", "policy.forward", None),
    (policy.PolicyNetwork, "sample", "policy.sample", None),
    (policy.PolicyNetwork, "backward", "policy.backward", None),
)

# Span name -> (metric name, unit) of per-call times.
PER_CALL = {
    "config.load": ("config.load_ms", "ms"),
    "strategy.decode": ("strategy.decode_us", "us"),
    "layout.plan_layer": ("layout.plan_layer_us", "us"),
    "simulator.simulate": ("simulator.simulate_us", "us"),
    **{
        f"simulator.simulate.{reason}": (f"simulator.simulate_us.{reason}", "us")
        for reason in REASONS
    },
    "simulator.memory": ("simulator.memory_us", "us"),
    "env.step": ("env.step_us", "us"),
    "policy.forward": ("policy.forward_us", "us"),
    "policy.sample": ("policy.sample_us", "us"),
    "policy.backward": ("policy.backward_us", "us"),
    "policy.build_observation": ("policy.build_observation_us", "us"),
    "policy.init": ("policy.init_us", "us"),
    "ppo.loss_and_grads": ("ppo.loss_and_grads_us", "us"),
    "ppo.adam": ("ppo.adam_us", "us"),
    "ppo.update": ("ppo.update_us", "us"),
    "ppo.collect": ("ppo.collect_us", "us"),
    "baselines.propose": ("baselines.propose_us", "us"),
}
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

LAYERS = (
    "config", "strategy", "layout", "simulator", "env",
    "policy", "ppo", "baselines", "cli", "bench",
)


@dataclass
class Op:
    """One seeded search: where it wrote, how long it took, how it failed."""

    seed: int
    run_dir: Path
    seconds: float = 0.0
    error: str | None = None


def sim_outcome(cfg, strategy: Strategy) -> dict:
    """The benchmark's own simulation of one strategy, as a flat dict."""
    result = simulate(
        SimRequest(
            model=cfg.model,
            hw=cfg.hardware,
            strategy=strategy,
            context_len=cfg.simulation.context_len,
            slo_tpot=cfg.simulation.slo_tpot,
        )
    )
    return {
        "valid": result.valid,
        "reason": result.invalid_reason.value,
        "throughput": result.throughput,
        "tpot_s": result.tpot_s,
        "memory_bytes": result.memory_bytes,
        "compute_s": result.breakdown.compute_s,
        "comm_s": result.breakdown.comm_s,
        "pipeline_s": result.breakdown.pipeline_s,
        "world_size": strategy.world_size,
        "pp": strategy.pp,
        "batch": strategy.batch,
    }


def megatron_walk(cfg) -> float:
    """Best valid throughput over the coarse grid under Megatron axes."""
    space = cfg.space
    ops = canonical_fused_ops(cfg.model)
    axes = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
    dims = tuple(axes[name] for name in space.op_names)
    best = 0.0
    for tp, ep, pp, batch in itertools.product(
        space.tp_domain, space.ep_domain, space.pp_domain, space.batch_domain
    ):
        out = sim_outcome(cfg, Strategy(tp, ep, pp, batch, space.op_names, dims, space.pinned))
        if out["valid"]:
            best = max(best, out["throughput"])
    return best


def enumerate_oracle(cfg) -> tuple[float, int]:
    """Best valid throughput over every point of the space, and the count."""
    best = 0.0
    points = 0
    for vector in itertools.product(*(range(k) for k in cfg.space.head_sizes)):
        out = sim_outcome(cfg, decode_strategy(vector, cfg.space))
        points += 1
        if out["valid"]:
            best = max(best, out["throughput"])
    return best, points


def cli_call(argv: list[str]) -> None:
    """Run the command-line entry point in-process, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"shardsearch {argv[0]} exited {code}")


def run_pass(
    spec: Workload,
    work: Path,
    label: str,
    order: tuple[int, ...],
    tracer: tracing.Tracer | None = None,
) -> list[Op]:
    """One search per seed of ``order``, each into a fresh run directory."""
    ops: list[Op] = []
    for seed in order:
        op = Op(seed=seed, run_dir=work / f"{label}-seed{seed}")
        argv = [
            "search", "--config", spec.config, "--algo", spec.algo,
            "--budget", str(spec.budget), "--seeds", "1", "--seed0", str(seed),
            "--out", str(op.run_dir),
        ]
        t0 = time.perf_counter()
        try:
            with contextlib.nullcontext() if tracer is None else tracer.span("bench.search"):
                cli_call(argv)
        except Exception:  # a failed search is counted, and the run goes on
            op.error = traceback.format_exc(limit=3)
        op.seconds = time.perf_counter() - t0
        ops.append(op)
    return ops


class LogChecker:
    """Checks every search's outputs; keeps each panel seed's best.

    The first search of a seed is checked record by record against the
    benchmark's own re-simulation; a repeat of that seed must write the
    same log byte for byte, so it has the same length and maximum.
    """

    def __init__(self, spec: Workload, cfg) -> None:
        self.spec = spec
        self.cfg = cfg
        self.limits = checks.Limits(
            slo_tpot=cfg.simulation.slo_tpot,
            hbm_capacity=cfg.hardware.hbm_capacity,
            device_budget=cfg.hardware.device_budget,
        )
        self.first_logs: dict[int, bytes] = {}
        self.bests: dict[int, float] = {}
        self._outcomes: dict[tuple[int, ...], dict] = {}

    def check(self, op: Op) -> None:
        """Marks ``op`` failed if its outputs break a check."""
        if op.error is not None:
            return
        try:
            self._check(op)
        except (checks.CheckFailed, OSError, ValueError, LookupError, TypeError):
            op.error = traceback.format_exc(limit=3)

    def _check(self, op: Op) -> None:
        data = (op.run_dir / f"seed_{op.seed}" / "evals.ndjson").read_bytes()
        summary = json.loads((op.run_dir / "summary.json").read_text(encoding="utf-8"))
        claimed = summary["per_seed"][0]["best_raw"]
        if op.seed in self.first_logs:
            checks.check_repeat(self.first_logs[op.seed], data)
            checks.check_seed_best(claimed, self.bests[op.seed])
            return
        records = [json.loads(line) for line in data.splitlines() if line.strip()]
        checks.check_log_length(records, self.spec.budget)
        best = checks.best_of_log(records)
        checks.check_seed_best(claimed, best)
        for rec in records:
            key = tuple(rec["vector"])
            out = self._outcomes.get(key)
            if out is None:
                out = self._outcomes[key] = sim_outcome(
                    self.cfg, decode_strategy(key, self.cfg.space)
                )
            checks.check_replay(rec, out)
            if rec["valid"]:
                checks.check_valid_outcome(rec, out, self.limits)
        self.first_logs[op.seed] = data
        self.bests[op.seed] = best


def report_mean(work: Path, ops: list[Op]) -> float:
    """``shardsearch report`` over the given run directories: its mean best."""
    out = work / "report"
    cli_call(["report", *(str(op.run_dir) for op in ops), "--out", str(out)])
    with open(out / "table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    shutil.rmtree(out)
    if len(rows) != 1:
        raise checks.CheckFailed(f"report gave {len(rows)} rows for one workload")
    return float(rows[0]["mean_best_raw"])


def evals_per_s(ops: list[Op], budget: int) -> float:
    """Median over completed searches of evaluations per host second."""
    return statistics.median(budget / op.seconds for op in ops if op.error is None)


def layer_figures(tracer: tracing.Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer figures, each with its unit, from the traced searches."""
    self_times = tracer.self_times()
    roots = tracer.roots()
    durations: dict[str, list[float]] = defaultdict(list)
    step_self: list[float] = []
    layer_self: dict[str, float] = defaultdict(float)
    for idx in range(len(tracer)):
        if tracer.name_of(roots[idx]) != "bench.search":
            continue
        name = tracer.name_of(idx)
        dur = tracer.end[idx] - tracer.start[idx]
        durations[name].append(dur)
        layer_self[name.split(".")[0]] += self_times[idx]
        if name.startswith("simulator.simulate."):
            durations["simulator.simulate"].append(dur)
        elif name == "env.step":
            step_self.append(self_times[idx])
    search_s = sum(durations["bench.search"])

    figures: dict[str, tuple[float | None, str]] = {}

    def add_per_call(metric: str, samples: list[float], unit: str) -> None:
        stats = tracing.summarize(samples)
        scale = TIME_SCALE[unit]
        for key, suffix in (("median", ""), ("tail", ".tail")):
            value = stats[key]
            figures[metric + suffix] = (None if value is None else value * scale, unit)
        figures[f"{metric}.tail_pct"] = (stats["tail_pct"], "%")
        figures[f"{metric}.n"] = (stats["n"], "count")

    for span, (metric, unit) in PER_CALL.items():
        add_per_call(metric, durations.get(span, []), unit)
    add_per_call("env.step_self_us", step_self, "us")

    count = {name: len(samples) for name, samples in durations.items()}
    for reason in REASONS:
        figures[f"simulator.outcome.{reason}"] = (count.get(f"simulator.simulate.{reason}", 0), "count")
    figures["simulator.valid_ratio"] = (
        count.get("simulator.simulate.none", 0) / count["simulator.simulate"], "ratio"
    )
    figures["layout.plan_layer_calls"] = (count.get("layout.plan_layer", 0), "count")
    figures["ppo.updates"] = (count.get("ppo.update", 0), "count")
    figures["ppo.restarts"] = (
        count.get("ppo.chunk.exhausted", 0) + count.get("ppo.chunk.early_exit", 0), "count"
    )
    figures["ppo.early_exits"] = (count.get("ppo.chunk.early_exit", 0), "count")
    figures["ppo.learner_share"] = (sum(durations.get("ppo.update", [])) / search_s, "ratio")
    for layer in LAYERS:
        figures[f"self_share.{layer}"] = (layer_self.get(layer, 0.0) / search_s, "ratio")
    return figures


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS") or key.endswith("_MAXIMUM_THREADS")
        },
        "platform": platform.platform(),
    }


def cmd_run(args: argparse.Namespace) -> dict:
    spec = WORKLOADS[args.workload]
    cfg = load_config(resolve_config_path(spec.config))
    rot = args.seed % len(spec.seeds)
    order = spec.seeds[rot:] + spec.seeds[:rot]
    work = Path(args.out) / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(work, args, spec, cfg, order)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work: Path, args, spec: Workload, cfg, order: tuple[int, ...]) -> dict:
    result: dict = {"workload": args.workload, "seed": args.seed, "order": list(order)}
    problems: list[str] = []
    check_s: dict[str, float] = defaultdict(float)

    def run_check(label: str, check) -> None:
        t0 = time.perf_counter()
        try:
            check()
        except (checks.CheckFailed, OSError, ValueError, LookupError, RuntimeError) as exc:
            problems.append(f"{label}: {exc}")
        check_s[label] += time.perf_counter() - t0

    t0 = time.perf_counter()
    cli_call(["search", "--config", spec.config, "--algo", "exhaustive",
              "--out", str(work / "megatron")])
    sweep_s = time.perf_counter() - t0
    mega = json.loads((work / "megatron" / "summary.json").read_text(encoding="utf-8"))
    mega_best = mega["best_of_k_raw"]
    checker = LogChecker(spec, cfg)
    firsts: list[Op] = []

    def finish(ops: list[Op]) -> None:
        # Run directories are checked and deleted within seconds of being
        # written: files deleted before writeback cost the disk nothing.
        for op in ops:
            run_check("searches", lambda: checker.check(op))
        if not firsts:
            firsts.extend(op for op in ops if op.error is None)
            if not firsts:
                raise RuntimeError(f"no search of the first pass passed; first failure:\n{ops[0].error}")
            run_check("report", lambda: checks.check_report_mean(
                report_mean(work, firsts), [checker.bests[op.seed] for op in firsts]))
        for op in ops:
            shutil.rmtree(op.run_dir, ignore_errors=True)

    shutil.rmtree(work / "megatron")
    run_check("megatron", lambda: checks.check_megatron(mega_best, megatron_walk(cfg)))
    tracer = None
    if args.trace:
        # The same pass untraced and then traced: their speeds give the
        # tracing overhead on identical work.
        timed = run_pass(spec, work, "ref", order)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finish(timed)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, TRACE_TARGETS):
            traced = run_pass(spec, work, "op", order, tracer)
        finish(traced)
        ops = timed + traced
    else:
        # Whole passes keep the share of failed searches the same in every
        # run. Another pass starts only if one of the mean length so far
        # still fits in --seconds of search time.
        timed = []
        while not timed or (
            sum(op.seconds for op in timed) * (len(timed) + len(order)) / len(timed)
            <= args.seconds
        ):
            ops_of_pass = run_pass(spec, work, f"pass{len(timed) // len(order)}", order)
            if not timed:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            finish(ops_of_pass)
            timed += ops_of_pass
        ops = timed

    panel_bests = [checker.bests[op.seed] for op in firsts]
    best_raw = statistics.fmean(panel_bests)
    if spec.oracle:
        oracle, points = enumerate_oracle(cfg)
        result["oracle"] = {"best": oracle, "points": points, "vs_megatron": oracle / mega_best}
        run_check("oracle", lambda: checks.check_oracle(panel_bests, oracle))

    result["end_to_end"] = {
        "evals_per_s": (evals_per_s(timed, spec.budget), "evals/s"),
        "best_raw": (best_raw, "tokens/s/chip"),
        "vs_megatron": (best_raw / mega_best, "x"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if tracer is not None:
        figures = layer_figures(tracer)
        figures["baselines.megatron_sweep_s"] = (sweep_s, "s")
        figures["cli.report_s"] = (check_s["report"], "s")
        traced_eps = evals_per_s(traced, spec.budget)
        figures["trace.evals_per_s"] = (traced_eps, "evals/s")
        figures["trace.overhead"] = (result["end_to_end"]["evals_per_s"][0] / traced_eps - 1.0, "ratio")
        result["per_layer"] = figures
        result["spans"] = len(tracer)
        tracer.save(Path(args.out) / f"{args.workload}-trace.npz")
    failures = [op.error for op in ops if op.error is not None]
    result.update(
        correct=not problems,
        problems=problems + failures[:3],
        attempted=len(ops),
        failed=len(failures),
        searches=[[op.seed, op.seconds] for op in timed],
        sweep_s=sweep_s,
        check_s=check_s,
        megatron_best=mega_best,
        panel_bests={op.seed: checker.bests[op.seed] for op in firsts},
        machine=machine_facts(),
    )
    return result


def cmd_setup(args: argparse.Namespace) -> None:
    cfg = load_config(resolve_config_path(WORKLOADS[args.workload].config))
    env.SearchEnv(
        cfg.model,
        cfg.hardware,
        cfg.space,
        context_len=cfg.simulation.context_len,
        budget=cfg.ppo.budget,
        reward=cfg.reward,
        slo_tpot=cfg.simulation.slo_tpot,
    ).close()
    print("ready", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--out", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if args.command == "setup":
        cmd_setup(args)
    else:
        print(json.dumps(cmd_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
