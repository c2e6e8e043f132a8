"""The benchmark's trace targets and run-file readers work on the package.

``perfbench/workload.py`` wraps each ``(owner, attr)`` of ``TRACE_TARGETS``
under ``--trace 1``, and reads every run directory a search writes; a renamed
function, a target its callers stopped calling through the patched namespace,
or a changed run file would otherwise surface only there.
"""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

from shardsearch.config import load_config, packaged_config_path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer figures that the benchmark's run adds beside ``layer_figures``.
RUN_FIGURES = {"baselines.megatron_sweep_s", "cli.report_s", "trace.evals_per_s", "trace.overhead"}


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workload imports its siblings
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH_DIR / "workload.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(workload):
    assert workload.TRACE_TARGETS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in workload.TRACE_TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"trace targets that no longer exist: {missing}"


def traced_pass(workload, algo, work):
    """The tracer of one traced 200-eval ``tiny`` pass of ``algo``."""
    spec = workload.Workload("tiny", algo, 200, (0,))
    tracer = workload.tracing.Tracer()
    with workload.tracing.patched(tracer, workload.TRACE_TARGETS):
        ops = workload.run_pass(spec, work, "op", spec.seeds, tracer)
    assert [op.error for op in ops] == [None]
    return tracer


@pytest.mark.parametrize("algo", ["ppo", "sa", "rw"])
def test_a_traced_pass_gives_every_declared_layer_figure(workload, algo, tmp_path):
    # The benchmark refuses a traced run in which a declared figure reads None.
    figures = workload.layer_figures(traced_pass(workload, algo, tmp_path))
    missing = [
        metric["name"]
        for metric in DECLARED["per_layer"]
        if metric["name"] not in RUN_FIGURES and figures.get(metric["name"], (None,))[0] is None
    ]
    assert not missing, f"{algo}: declared figures that read None: {missing}"


def test_a_traced_ppo_pass_records_every_learner_target(workload, tmp_path):
    # Declared or not: a figure of a target that records no span is empty.
    tracer = traced_pass(workload, "ppo", tmp_path)
    # An outcome tag extends a span's name: ``ppo.chunk.early_exit``.
    recorded = {".".join(tracer.name_of(idx).split(".")[:2]) for idx in range(len(tracer))}
    learner = {name for _, _, name, _ in workload.TRACE_TARGETS if name.startswith(("ppo.", "policy."))}
    assert not learner - recorded, f"targets a ppo pass never called: {sorted(learner - recorded)}"


def test_benchmark_checks_pass_on_the_run_files(workload, tmp_path):
    cfg = load_config(packaged_config_path("tiny"))
    spec = workload.Workload("tiny", "rw", 50, (0, 1))
    ops = workload.run_pass(spec, tmp_path, "pass0", spec.seeds)
    checker = workload.LogChecker(spec, cfg)
    for op in ops:
        checker.check(op)
        assert op.error is None, op.error
    bests = [checker.bests[op.seed] for op in ops]
    assert workload.report_mean(tmp_path, ops) == statistics.fmean(bests)

    sweep = tmp_path / "megatron"
    workload.cli_call(["search", "--config", "tiny", "--algo", "exhaustive", "--out", str(sweep)])
    summary = json.loads((sweep / "summary.json").read_text(encoding="utf-8"))
    workload.checks.check_megatron(summary["best_of_k_raw"], workload.megatron_walk(cfg))
