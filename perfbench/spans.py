"""In-memory span tracer that instruments photonflow from the outside.

Spans are recorded around calls into each module's public functions, at the
names the callers actually look up: the modules import names directly, so
``photonflow.pipeline.apply_dead_time`` and ``photonflow.cli.cross_correlate``
are patched, not ``photonflow.optics`` or ``photonflow.correlate``.  Random
draws are timed through a proxy around each generator that ``substream``
returns.  Nothing inside the package changes.

Engine blocks run on ``ThreadPoolExecutor`` workers, so spans and counters are
accumulated under a lock, and a block running on a worker thread adopts the
open ``pipeline.run`` span as the parent of the spans it opens.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

# Parent adopted by engine blocks on worker threads; its self time is pipeline.self_s.
RUN_SPAN = "pipeline.run"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Collects spans and exact counters; thread-safe."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: int | None = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        if name == RUN_SPAN:
            self._root = sid
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a traced call; ``counter(args, result)`` adds counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                counter(args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_substream(self, owner) -> None:
        """Trace ``owner.substream`` and hand out generators whose draws are timed."""
        original = owner.substream

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _TracedGenerator(self, self.call("core.substream", original, *args, **kwargs))

        setattr(owner, "substream", traced)

    def wrap_block(self, owner, attr: str) -> None:
        """Trace an engine block function without making it a span.

        Its busy time feeds ``pipeline.worker_utilization``; on a worker thread
        it adopts the open ``pipeline.run`` span, so its draws and kernels stay
        children of that span and routing/registration stays pipeline self time.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            adopted = not stack
            if adopted:
                stack.append(self._root)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.count("pipeline.worker_busy_s", time.perf_counter() - start)
                if adopted:
                    stack.pop()

        setattr(owner, attr, traced)

    def dump(self) -> dict:
        with self._lock:
            return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


class _TracedGenerator:
    """Proxy around a ``numpy.random.Generator``: each draw is a ``core.draw`` span."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, attr):
        method = getattr(self._generator, attr)
        if not callable(method):
            return method
        tracer = self._tracer

        def traced(*args, **kwargs):
            out = tracer.call("core.draw", method, *args, **kwargs)
            tracer.count("core.draws", int(np.size(out)))
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Instrument every photonflow layer the benchmark reports on."""
    from photonflow import cli, io, pipeline

    def pipeline_counts(args, result):
        tracer.count("pipeline.pulses", result.stats.pulses)
        tracer.count("pipeline.tags_out", sum(len(s) for s in result.streams))

    def dead_time_counts(args, result):
        tracer.count("optics.dead_time_tags_in", int(np.size(args[0])))
        tracer.count("optics.dead_time_tags_kept", int(result[0].size))

    def bytes_written(args, result):
        tracer.count("io.bytes_written", os.path.getsize(args[0]))

    tracer.wrap_substream(pipeline)
    for attr in ("run_direct", "run_hbt", "run_hom"):
        tracer.wrap(cli, attr, RUN_SPAN, pipeline_counts)
    for attr in ("_block_direct", "_block_hbt", "_block_hom"):
        tracer.wrap_block(pipeline, attr)
    tracer.wrap(pipeline, "sample_emission", "source.sample_emission",
                lambda args, result: tracer.count("source.rows", args[3].shape[0]))
    tracer.wrap(pipeline, "survival_probability", "conversion.survival_probability")
    tracer.wrap(pipeline, "apply_dead_time", "optics.apply_dead_time", dead_time_counts)
    tracer.wrap(pipeline, "sample_dark_counts", "optics.sample_dark_counts")
    tracer.wrap(cli, "fold_decay", "pipeline.fold_decay")
    tracer.wrap(cli, "cross_correlate", "correlate.cross_correlate",
                lambda args, result: tracer.count("correlate.pairs", result.total()))
    tracer.wrap(cli, "fit_lifetime", "analysis.fit_lifetime")
    tracer.wrap(cli, "lifetime_model_counts", "analysis.lifetime_model_counts")
    for attr in ("integrate_peaks", "estimate_g2", "estimate_visibility"):
        tracer.wrap(cli, attr, "analysis.estimate")
    tracer.wrap(cli, "expected_source_g2", "cli.expected_source_g2")
    for attr in ("write_tagstream", "write_histogram_csv", "write_report"):
        tracer.wrap(io, attr, "io.write", bytes_written)
    tracer.wrap(cli, "write_svg_plot", "svgplot.write_svg_plot")
    tracer.wrap(cli._Artifacts, "write_manifest", "cli.write_manifest")
    tracer.wrap(cli, "load_config", "config.load_config")


# ---------------------------------------------------------------------------
# analysis of recorded spans

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def busy_times(spans: list[dict]) -> dict[str, float]:
    """Span duration summed per name, over calls and threads."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def top_level_time(spans: list[dict]) -> float:
    """Summed duration of the spans with no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
