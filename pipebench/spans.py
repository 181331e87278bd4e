"""Span recording for traced runs, from outside the program.

Nothing in ``src/`` changes: :class:`Tracer` replaces the public entry
point of each layer with a wrapper that records a span (name, start,
end, parent span, request ID) and restores the originals on
:meth:`Tracer.uninstall`.  A replaced function is swapped in every
loaded ``repro`` module that holds it, so callers that imported it by
name are traced too.  Spans stay in memory and are written once, at
the end, as Chrome trace-event JSON that Perfetto opens offline.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

clock = time.perf_counter

#: (module, attribute, span name): the public entry point of each layer.
ENTRY_POINTS = (
    ("repro.isdl", "description_digest", "isdl.digest"),
    ("repro.analysis.runner", "run_batch", "analysis.run_batch"),
    ("repro.analysis.session", "AnalysisSession.finish", "analysis.match"),
    ("repro.analysis.runner", "BatchReport.to_json", "analysis.serialize"),
    ("repro.lint", "lint_binding", "lint.gate"),
    ("repro.analysis.verify", "verify_binding", "semantics.verify"),
    ("repro.semantics.compiler", "compile_description", "semantics.compile"),
    ("repro.semantics.vectorized", "compile_vectorized", "semantics.compile"),
    ("repro.provenance.store", "TraceStore.lookup_verdict", "provenance.lookup"),
    ("repro.provenance.store", "TraceStore.record_verdict", "provenance.write"),
    ("repro.codegen", "target_for", "codegen.target_for"),
    ("repro.codegen.emitter", "Target.compile", "codegen.compile"),
    ("repro.codegen.emitter", "Target.simulate", "machines.simulate"),
)

#: per analysis module: the script replay and the ISDL description builders.
MODULE_ENTRY_POINTS = (
    ("run", "transform.script"),
    ("OPERATOR", "isdl.build"),
    ("INSTRUCTION", "isdl.build"),
)

#: one recorded span: (id, parent id, name, start, end, request id, thread).
Span = Tuple[int, Optional[int], str, float, float, Optional[str], int]


class Recorder:
    """In-memory spans; a thread-local stack supplies parents and IDs."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None, parent: Optional[int] = None):
        stack = self._stack()
        if stack:
            top_id, top_rid = stack[-1]
            parent = top_id if parent is None else parent
            rid = top_rid if rid is None else rid
        span_id = next(self._ids)
        stack.append((span_id, rid))
        return span_id, parent, name, rid, clock()

    def end(self, token) -> None:
        span_id, parent, name, rid, start = token
        end = clock()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, rid, threading.get_ident()))

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, parent: Optional[int] = None):
        token = self.begin(name, rid, parent)
        try:
            yield token[0]
        finally:
            self.end(token)


def _wrap(recorder: Recorder, name: str, function):
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.end(token)

    return functools.update_wrapper(wrapper, function)


class Tracer:
    """Installs and removes the span wrappers around every entry point."""

    def __init__(self, recorder: Recorder, analyses: Sequence[str]) -> None:
        self.recorder = recorder
        self.analyses = tuple(analyses)
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        swaps: Dict[int, object] = {}
        for module_name, attribute, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = _wrap(self.recorder, span_name, original)
            if path:  # a method: patching the class reaches every caller
                self._patch(owner, leaf, wrapper)
            else:
                swaps[id(original)] = (original, wrapper)
        # Functions imported by name live on in their importers' globals:
        # swap every loaded reference.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    self._patch(module, attribute, swap[1])
        for name in self.analyses:
            module = importlib.import_module("repro.analyses." + name)
            for attribute, span_name in MODULE_ENTRY_POINTS:
                self._patch(
                    module, attribute, _wrap(self.recorder, span_name, getattr(module, attribute))
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# analysis of recorded spans


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may run on other threads or processes (a server handler
    under a client request), so their intervals are merged and clipped
    to the parent's before subtracting.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    result = {}
    for span_id, _parent, _name, start, end, _rid, _tid in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def self_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Span name -> total self time in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[2]] = totals.get(span[2], 0.0) + own[span[0]]
    return totals


def total_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Span name -> total duration in seconds (children included)."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[2]] = totals.get(span[2], 0.0) + span[4] - span[3]
    return totals


def write_chrome_trace(path, processes: Mapping[int, Sequence[Span]]) -> None:
    """Chrome trace-event JSON (``ph: X`` complete events), one pid per
    process; span id, parent and request ID ride in ``args``."""
    starts = [span[3] for spans in processes.values() for span in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, spans in processes.items():
        for span_id, parent, name, start, end, rid, tid in spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {"id": span_id, "parent": parent, "rid": rid},
                }
            )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


#: the program's ``repro_*`` counters that per-layer counts come from.
COUNTERS = (
    "repro_parse_cache_hits_total",
    "repro_parse_cache_misses_total",
    "repro_compile_cache_hits_total",
    "repro_compile_cache_misses_total",
    "repro_analysis_steps_total",
    "repro_verify_trials_total",
    "repro_vector_fallback_total",
    "repro_lint_cache_hits_total",
    "repro_lint_cache_misses_total",
    "repro_provenance_store_hits_total",
    "repro_provenance_store_misses_total",
    "repro_provenance_store_writes_total",
    "repro_service_rejected_total",
)


def counter_total(snapshot: Mapping[str, object], name: str, **labels: str) -> int:
    """Sum of a ``repro.metrics/1`` counter's samples matching ``labels``."""
    total = 0
    for sample in snapshot.get("counters", ()):
        if sample["name"] == name and all(
            sample.get("labels", {}).get(key) == value for key, value in labels.items()
        ):
            total += int(sample["value"])
    return total
