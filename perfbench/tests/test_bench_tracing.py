"""The benchmark's statistics helpers and span arithmetic."""

import math
from types import SimpleNamespace

import pytest

import tracing


@pytest.mark.parametrize(
    "n, pct",
    [
        (0, None),
        (39, None),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    assert tracing.tail_percentile(n) == pct
    if pct is not None:
        assert n - math.ceil(round(pct * 100) * n / 10000) >= 10


def test_summarize_gives_median_tail_and_count():
    stats = tracing.summarize([float(v) for v in range(100, 0, -1)])
    assert stats == {"n": 100, "median": 50.5, "tail_pct": 90.0, "tail": 90.0}


def test_summarize_under_forty_samples_has_no_tail():
    stats = tracing.summarize([3.0, 1.0, 2.0])
    assert stats == {"n": 3, "median": 2.0, "tail_pct": None, "tail": None}
    assert tracing.summarize([])["median"] is None


def _tracer_with(spans):
    """Tracer holding (name, start, end, parent) spans as given."""
    tracer = tracing.Tracer()
    for name, start, end, parent in spans:
        tracer.name_id.append(tracer._intern(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    return tracer


def test_self_time_subtracts_direct_children_only():
    tracer = _tracer_with(
        [
            ("search", 0.0, 10.0, -1),
            ("step", 1.0, 4.0, 0),
            ("simulate", 2.0, 3.0, 1),
            ("step", 5.0, 9.0, 0),
            ("search", 20.0, 21.0, -1),
        ]
    )
    assert tracer.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert tracer.roots() == [0, 0, 0, 0, 4]


def test_patched_functions_nest_tag_and_restore():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns = SimpleNamespace(inner=inner, outer=outer)
    tracer = tracing.Tracer()
    targets = [
        (ns, "outer", "layer.outer", None),
        (ns, "inner", "layer.inner", lambda result: "odd" if result % 2 else "even"),
    ]
    with tracing.patched(tracer, targets):
        assert ns.outer(2) == 6
    assert ns.inner is inner and ns.outer is outer
    assert [tracer.name_of(i) for i in range(len(tracer))] == ["layer.outer", "layer.inner.odd"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def test_a_span_closes_when_the_call_raises():
    def boom():
        raise KeyError("x")

    ns = SimpleNamespace(boom=boom)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, [(ns, "boom", "layer.boom", str)]):
        with pytest.raises(KeyError):
            ns.boom()
        with tracer.span("after"):
            pass
    assert tracer.name_of(0) == "layer.boom"
    assert tracer.end[0] >= tracer.start[0]
    assert tracer.parent[1] == -1


def test_a_traced_pass_counts_every_search(tmp_path):
    import workload

    spec = workload.Workload("tiny", "sa", 20, (0, 1))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, workload.TRACE_TARGETS):
        ops = workload.run_pass(spec, tmp_path, "t", spec.seeds, tracer)
    assert [op.error for op in ops] == [None, None]
    roots = [tracer.name_of(i) for i in range(len(tracer)) if tracer.parent[i] < 0]
    assert roots == ["bench.search", "bench.search"]
    figures = workload.layer_figures(tracer)
    assert figures["simulator.simulate_us.n"] == (40, "count")
    assert figures["baselines.propose_us.n"] == (40, "count")
