"""Search benchmark for shardsearch: host speed and plan quality.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ppo-1p2t --seed 1 --seconds 30 --trace 0

Workloads (see workload.py and README.md): ``ppo-1p2t``, ``sa-1p2t`` and
``ppo-tiny``. The package is imported from ``src/`` of the checkout, with no
install step. Each workload runs in a child process with BLAS pinned to one
thread; set-up time is the median of several fresh interpreters that each
load the config and build an environment.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics. The last line
of standard output is the result as one JSON object; the lines before it
list every figure by name and unit. A fuller record, with the machine facts
and the thread settings, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_SCRIPT = BENCH_DIR / "workload.py"
OUT_DIR = BENCH_DIR / "out"

# Seeded logs are identical at one and at two BLAS threads, and the policy's
# matrices are too small to gain from more, so one thread keeps runs steady.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30
WORKLOAD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def setup_seconds(workload: str, env: dict[str, str]) -> list[float]:
    """Wall time of fresh interpreters from start to a built environment."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKLOAD_SCRIPT), "setup", "--workload", workload],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def run_workload(args: argparse.Namespace, env: dict[str, str]) -> dict:
    argv = [
        sys.executable, str(WORKLOAD_SCRIPT), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(OUT_DIR),
    ]
    try:
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, env=env, text=True, timeout=WORKLOAD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload ran over {WORKLOAD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def select(declared: list[dict], figures: dict) -> dict:
    """The declared metrics, each measured and in its declared unit."""
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value, measured_unit = figures.get(name, (None, unit))
        if value is None:
            raise BenchError(f"no value measured for metric {name}")
        if measured_unit != unit:
            raise BenchError(f"{name} is measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "shardsearch" / "__init__.py").is_file():
            raise BenchError(f"no shardsearch sources under {root / 'src'}")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        OUT_DIR.mkdir(exist_ok=True)
        env = child_env(root)
        setup = setup_seconds(args.workload, env)
        child = run_workload(args, env)
        if args.trace:
            figures = child["per_layer"]
            metrics = select(spec["per_layer"], figures)
        else:
            figures = dict(child["end_to_end"], setup_s=(statistics.median(setup), "s"))
            metrics = select(spec["end_to_end"], figures)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = dict(child, setup_s_samples=setup, blas_threads=BLAS_THREADS, result=result)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in child["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(figures.items()):
        print(f"{name:48s} {value} {unit}")
    print(f"record: {out_file}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
