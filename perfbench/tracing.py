"""In-memory span tracing of shardsearch's public functions, from outside.

A traced run patches module attributes and class methods of the package so
that every call into a layer opens a span: a name, a start, an end and the
span that was open when it started. Spans live in flat arrays while the run
goes on and are written out once, when it ends. Nothing here is imported by
the package itself; an untraced run never touches this module's patches.

The statistics helpers follow one rule for per-call times: report the median,
plus the highest percentile that still has at least ten samples beyond it,
together with the sample count. Under forty samples there is no tail worth
the name and only the median is given.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10
MIN_SAMPLES_FOR_TAIL = 40


def _rank(pct: float, n: int) -> int:
    """Nearest rank ``ceil(pct/100 * n)``, in integers so 99.9% of 10000 is 9990."""
    return -(-round(pct * 100) * n // 10000)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``TAIL_LADDER`` with ten samples beyond it.

    The percentile is taken by nearest rank: the value at rank
    ``ceil(p/100 * n)`` of the sorted samples, so ``n - rank`` samples lie
    beyond it. None when ``n`` is below forty.
    """
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND_TAIL:
            return pct
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail percentile and value, and count of per-call samples."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "median": None, "tail_pct": None, "tail": None}
    ordered = sorted(samples)
    pct = tail_percentile(n)
    tail = None if pct is None else ordered[_rank(pct, n) - 1]
    return {"n": n, "median": statistics.median(ordered), "tail_pct": pct, "tail": tail}


class Tracer:
    """Flat, append-only span store with a stack of the spans now open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._open.append(idx)
        return idx

    def close(self, idx: int, rename: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()
        if rename is not None:
            self.name_id[idx] = self._intern(rename)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans took.

        Spans come from one thread, so children of a span never overlap one
        another and lie inside it; their durations simply add up.
        """
        inner = [0.0] * len(self)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                inner[par] += self.end[idx] - self.start[idx]
        return [self.end[i] - self.start[i] - inner[i] for i in range(len(self))]

    def roots(self) -> list[int]:
        """Index of the outermost span enclosing each span (itself if none)."""
        root = []
        for idx, par in enumerate(self.parent):
            root.append(idx if par < 0 else root[par])
        return root

    def save(self, path) -> None:
        """Write every span to one uncompressed numpy archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _traced(
    tracer: Tracer,
    fn: Callable,
    name: str,
    suffix: Callable[[object], str] | None,
) -> Callable:
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        rename = None
        try:
            result = fn(*args, **kwargs)
            if suffix is not None:
                rename = f"{name}.{suffix(result)}"
            return result
        finally:
            tracer.close(idx, rename)

    return wrapper


@contextmanager
def patched(
    tracer: Tracer,
    targets: Sequence[tuple[object, str, str, Callable[[object], str] | None]],
) -> Iterator[None]:
    """Replace ``owner.attr`` by a tracing wrapper for the duration.

    Each target is (owner, attribute, span name, suffix); ``suffix`` maps a
    call's result to a tag appended to the span name, so one function can
    be split by outcome.
    """
    saved = []
    try:
        for owner, attr, name, suffix in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, original, name, suffix))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
