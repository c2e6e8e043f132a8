"""The benchmark's trace targets name callables that exist.

``perfbench/workload.py`` wraps each ``(owner, attr)`` of ``TRACE_TARGETS``
under ``--trace 1``; a renamed function would otherwise surface only there.
"""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workload imports its siblings
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH_DIR / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workload)  # its dataclasses look it up
    spec.loader.exec_module(workload)
    assert workload.TRACE_TARGETS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in workload.TRACE_TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"trace targets that no longer exist: {missing}"
