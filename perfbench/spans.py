"""In-memory spans around the benchmark's calls into the qstitch layers.

A span is (name, start, end, parent, job): ``parent`` is the index of the
enclosing span or -1, ``job`` the id of the job the span belongs to. Each
job has one root span; a layer span's self time is its duration minus the
time its child spans cover. Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, job=None):
        return nullcontext()


class Tracer:
    """Tracing on: every ``call`` and ``span`` records one span."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][1:3] = t0, perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name, job=None):
        if job is not None:
            self._job = job
        idx = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = t0, perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job: span name -> summed self time over the job's spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, float]] = {}
        for i, (name, t0, t1, _, job) in enumerate(self.spans):
            per = out.setdefault(job, {})
            per[name] = per.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")


def median_per_job(per_job: list[dict[str, float]], key: str) -> float:
    """Median over the jobs that recorded ``key``; 0.0 when none did."""
    values = [d[key] for d in per_job if key in d]
    return statistics.median(values) if values else 0.0
