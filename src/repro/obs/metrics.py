"""Process-local metrics: counters, gauges, and duration histograms.

The paper measures EXTRA in *analysis effort* (Table 2's per-analysis
step counts); this reproduction additionally needs to see where wall
clock goes inside parse -> compile -> analyze -> verify and how well
the content-keyed caches work over time.  A :class:`MetricsRegistry`
holds that state for one process:

* **counters** — monotonically increasing event counts (cache hits,
  verification trials, provenance-store writes), optionally labelled;
* **gauges** — last-written values (the provenance hit rate of the
  most recent batch);
* **histograms** — monotonic-clock durations bucketed into the fixed
  boundaries of :data:`BUCKET_BOUNDS`, fed by the nestable
  :meth:`MetricsRegistry.span` context manager.

Every metric name must be declared in :data:`COUNTERS` /
:data:`GAUGES` / :data:`HISTOGRAMS` — an undeclared name is a
programming error, which keeps ``docs/observability.md`` honest (the
docs-sync tests iterate the declarations).

Snapshots are plain JSON-ready dicts with deterministically sorted
sample lists, so two registries that counted the same events produce
equal snapshots.  :func:`merge_snapshot` and :func:`diff_snapshots`
make per-shard accounting exact across the batch runner's process
pool: each worker records the delta its shard produced, and the parent
merges the deltas in deterministic job order.

Durations recorded here are observability data only: they never enter
provenance digests (the same rule ``repro.provenance`` applies to
trace timings).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Snapshot schema identifier.
METRICS_SCHEMA = "repro.metrics/1"

#: Default histogram bucket upper bounds (seconds, ``le`` semantics: a
#: value lands in the first bucket whose bound is >= the value).  One
#: implicit ``+Inf`` bucket follows the last bound.
BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Per-family bucket bounds for histograms that measure something other
#: than seconds.  Families not listed here use :data:`BUCKET_BOUNDS`.
#: Changing a family's bounds is a snapshot-schema change for that
#: family (merge checks bucket layout), so bounds are fixed per name.
HISTOGRAM_BOUNDS: Dict[str, Tuple[float, ...]] = {
    "repro_prove_term_nodes": (16, 64, 256, 1024, 4096, 16384, 65536),
    "repro_prove_unroll_iterations": (1, 2, 4, 8, 16, 32, 64, 128),
}


def bounds_for(name: str) -> Tuple[float, ...]:
    """The bucket upper bounds of one histogram family."""
    return HISTOGRAM_BOUNDS.get(name, BUCKET_BOUNDS)

#: Declared counter metrics: name -> help text.
COUNTERS: Dict[str, str] = {
    "repro_parse_cache_hits_total": (
        "Parse-cache lookups served from the content-keyed memo, "
        "by parser namespace."
    ),
    "repro_parse_cache_misses_total": (
        "Parse-cache lookups that ran the parser, by parser namespace."
    ),
    "repro_compile_cache_hits_total": (
        "Compile-cache lookups served from the content-keyed memo."
    ),
    "repro_compile_cache_misses_total": (
        "Compile-cache lookups that lowered a description."
    ),
    "repro_engine_runs_total": (
        "Description executions through an ExecutionEngine executor, "
        "by engine."
    ),
    "repro_engine_steps_total": (
        "ISDL statements executed across engine runs, by engine."
    ),
    "repro_engine_gate_checks_total": (
        "Differential-gate cross-check events; each compares one "
        "primary-engine trial against every reference engine."
    ),
    "repro_engine_batch_runs_total": (
        "Batch executions through an ExecutionEngine executor, by "
        "engine."
    ),
    "repro_engine_lanes_total": (
        "Lanes executed across engine batch runs, by engine."
    ),
    "repro_vector_fallback_total": (
        "Vectorized batch runs that escalated from the numpy backend "
        "to the exact pure-python fallback."
    ),
    "repro_verify_trials_total": (
        "Differential verification trials executed."
    ),
    "repro_verify_failures_total": (
        "Verification runs that found a disagreement."
    ),
    "repro_analysis_steps_total": (
        "Transformation steps across finished analysis sessions."
    ),
    "repro_batch_entries_total": (
        "Batch catalog entries processed, by status (ok, failed, cached)."
    ),
    "repro_provenance_store_hits_total": (
        "Provenance-store verdict lookups that found a valid artifact."
    ),
    "repro_provenance_store_misses_total": (
        "Provenance-store verdict lookups that found nothing usable."
    ),
    "repro_provenance_store_writes_total": (
        "Verdict artifacts recorded into the provenance store."
    ),
    "repro_prove_verdicts_total": (
        "Symbolic equivalence proof attempts, by verdict "
        "(proved, refuted, unknown)."
    ),
    "repro_lint_cache_hits_total": (
        "Binding lint/prove lookups served from the content-keyed "
        "cache, by kind."
    ),
    "repro_lint_cache_misses_total": (
        "Binding lint/prove lookups that ran the checker, by kind."
    ),
    "repro_pool_spawn_total": (
        "Persistent worker pools (re)spawned: a fresh set of worker "
        "processes came up because none existed, the previous pool was "
        "too small, or it was invalidated after a timeout or crash."
    ),
    "repro_pool_reuse_total": (
        "Pooled batch runs served by an already-running persistent "
        "worker pool (no process spin-up)."
    ),
    "repro_service_requests_total": (
        "HTTP requests completed by the analysis service, by endpoint "
        "and status code."
    ),
    "repro_service_rejected_total": (
        "HTTP requests rejected with 429 because the service's bounded "
        "request queue was full, by endpoint."
    ),
}

#: Declared gauge metrics: name -> help text.
GAUGES: Dict[str, str] = {
    "repro_provenance_hit_rate": (
        "Fraction of the most recent batch's entries served from the "
        "provenance store (0.0 when the store was cold or disabled)."
    ),
    "repro_lint_coverage_targets": (
        "Lintable targets per catalog machine or language module, by "
        "name and status; catalog-only stubs report 0 targets with "
        "status no-descriptions instead of being absent."
    ),
    "repro_machine_coverage": (
        "Per-machine spec coverage, by machine key and kind "
        "(instructions, modeled, reconstructed, simulated, fuzz_cases); "
        "generated from the machine specs, so the CI coverage gate "
        "catches a machine losing modeled instructions or fuzz cases."
    ),
}

#: Declared histogram metrics: name -> help text.
HISTOGRAMS: Dict[str, str] = {
    "repro_phase_seconds": (
        "Wall-clock duration of one instrumented phase (span), by phase."
    ),
    "repro_prove_term_nodes": (
        "Term nodes interned per symbolic proof attempt (both "
        "descriptions share one intern table)."
    ),
    "repro_prove_unroll_iterations": (
        "Concrete loop iterations executed per symbolic proof attempt "
        "across all bounded-unroll attempts."
    ),
    "repro_service_request_seconds": (
        "Wall-clock duration of one admitted service request from "
        "admission to response, by endpoint."
    ),
}

#: Span phase names used by the instrumented pipeline, in pipeline
#: order.  Purely documentary — spans accept any phase label — but the
#: docs-sync tests pin these into docs/observability.md.
SPAN_PHASES: Tuple[str, ...] = (
    "parse",
    "compile",
    "replay",
    "locate",
    "step",
    "match",
    "prove",
    "verify",
    "shard",
    "batch",
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    """Bucketed value accumulator with fixed per-family bounds."""

    __slots__ = ("bounds", "buckets", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = BUCKET_BOUNDS) -> None:
        self.bounds = bounds
        self.buckets: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # ``le`` semantics: a value equal to a bound belongs to that
        # bound's bucket; values above the last bound go to +Inf.
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class _Span:
    """One timed phase; observes its duration on exit.

    Spans nest naturally: each ``with registry.span(...)`` block is an
    independent observation, so an outer ``batch`` span includes the
    time of every inner ``verify`` span it contains.
    """

    __slots__ = ("_registry", "_phase", "_labels", "_started")

    def __init__(
        self, registry: "MetricsRegistry", phase: str, labels: Mapping[str, str]
    ) -> None:
        self._registry = registry
        self._phase = phase
        self._labels = labels
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(
            "repro_phase_seconds",
            time.monotonic() - self._started,
            phase=self._phase,
            **self._labels,
        )
        return False


#: Every live registry, so a forked child can replace their locks.
_LIVE_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _new_locks_after_fork() -> None:
    """Give every registry a fresh lock in a newly forked child.

    A pool worker forked while another parent thread was recording
    would otherwise inherit a lock held by a thread that does not exist
    in the child, and block forever on its first span.  Any update that
    thread left half-done is in the child's baseline too, so the deltas
    a worker reports (after minus before) are unaffected.
    """
    for registry in list(_LIVE_REGISTRIES):
        registry._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_locks_after_fork)


class MetricsRegistry:
    """All metric state for one process (or one collection window).

    Thread-safe: the batch runner's serial path and any in-process
    threading can share one registry.  Cross-process aggregation goes
    through :meth:`snapshot` + :func:`merge_snapshot` instead — worker
    deltas merge deterministically in the parent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        _LIVE_REGISTRIES.add(self)
        self._counters: Dict[str, Dict[_LabelKey, int]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, _Histogram]] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: int = 1, /, **labels: str) -> None:
        if name not in COUNTERS:
            raise ValueError("undeclared counter metric %r" % name)
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def gauge_set(self, name: str, value: float, /, **labels: str) -> None:
        if name not in GAUGES:
            raise ValueError("undeclared gauge metric %r" % name)
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, /, **labels: str) -> None:
        if name not in HISTOGRAMS:
            raise ValueError("undeclared histogram metric %r" % name)
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(bounds_for(name))
            histogram.observe(value)

    def span(self, phase: str, **labels: str) -> _Span:
        """A context manager timing one phase on the monotonic clock."""
        return _Span(self, phase, labels)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready, deterministically ordered copy of all state."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(key), "value": value}
                for name, series in self._counters.items()
                for key, value in series.items()
            ]
            gauges = [
                {"name": name, "labels": dict(key), "value": value}
                for name, series in self._gauges.items()
                for key, value in series.items()
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(key),
                    "buckets": list(histogram.buckets),
                    "sum": histogram.total,
                    "count": histogram.count,
                }
                for name, series in self._histograms.items()
                for key, histogram in series.items()
            ]
        order = lambda sample: (sample["name"], sorted(sample["labels"].items()))  # noqa: E731
        return {
            "schema": METRICS_SCHEMA,
            "counters": sorted(counters, key=order),
            "gauges": sorted(gauges, key=order),
            "histograms": sorted(histograms, key=order),
        }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry.

        Counters and histograms add; gauges overwrite (last write wins,
        so merge order — the batch runner uses deterministic job order
        — decides ties).
        """
        for sample in _samples(snapshot, "counters"):
            self.inc(
                sample["name"], int(sample["value"]), **sample.get("labels", {})
            )
        for sample in _samples(snapshot, "gauges"):
            self.gauge_set(
                sample["name"], float(sample["value"]), **sample.get("labels", {})
            )
        for sample in _samples(snapshot, "histograms"):
            name = sample["name"]
            if name not in HISTOGRAMS:
                raise ValueError("undeclared histogram metric %r" % name)
            key = _label_key(sample.get("labels", {}))
            with self._lock:
                series = self._histograms.setdefault(name, {})
                histogram = series.get(key)
                if histogram is None:
                    histogram = series[key] = _Histogram(bounds_for(name))
                incoming = list(sample["buckets"])
                if len(incoming) != len(histogram.buckets):
                    raise ValueError(
                        "histogram %r bucket layout mismatch" % name
                    )
                for index, bucket_count in enumerate(incoming):
                    histogram.buckets[index] += int(bucket_count)
                histogram.total += float(sample["sum"])
                histogram.count += int(sample["count"])


def _samples(
    snapshot: Mapping[str, object], section: str
) -> Iterable[Dict[str, object]]:
    payload = snapshot.get(section, ())
    if not isinstance(payload, (list, tuple)):
        return ()
    return [sample for sample in payload if isinstance(sample, dict)]


def empty_snapshot() -> Dict[str, object]:
    """The snapshot of a registry that recorded nothing."""
    return {
        "schema": METRICS_SCHEMA,
        "counters": [],
        "gauges": [],
        "histograms": [],
    }


def diff_snapshots(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, object]:
    """The work recorded between two snapshots of one registry.

    Counters and histogram buckets subtract (dropping all-zero
    series); gauges keep ``after``'s absolute values — a gauge is a
    statement about the present, not an accumulation.
    """

    def index(snapshot, section):
        return {
            (sample["name"], _label_key(sample.get("labels", {}))): sample
            for sample in _samples(snapshot, section)
        }

    counters = []
    before_counters = index(before, "counters")
    for (name, key), sample in sorted(index(after, "counters").items()):
        prior = before_counters.get((name, key))
        delta = int(sample["value"]) - (int(prior["value"]) if prior else 0)
        if delta:
            counters.append(
                {"name": name, "labels": dict(key), "value": delta}
            )
    histograms = []
    before_histograms = index(before, "histograms")
    for (name, key), sample in sorted(index(after, "histograms").items()):
        prior = before_histograms.get((name, key))
        prior_buckets = list(prior["buckets"]) if prior else [0] * len(sample["buckets"])
        buckets = [
            int(bucket_count) - int(prior_count)
            for bucket_count, prior_count in zip(sample["buckets"], prior_buckets)
        ]
        count = int(sample["count"]) - (int(prior["count"]) if prior else 0)
        if count:
            histograms.append(
                {
                    "name": name,
                    "labels": dict(key),
                    "buckets": buckets,
                    "sum": float(sample["sum"]) - (float(prior["sum"]) if prior else 0.0),
                    "count": count,
                }
            )
    gauges = [
        {
            "name": sample["name"],
            "labels": dict(sample.get("labels", {})),
            "value": sample["value"],
        }
        for sample in _samples(after, "gauges")
    ]
    order = lambda sample: (sample["name"], sorted(sample["labels"].items()))  # noqa: E731
    return {
        "schema": METRICS_SCHEMA,
        "counters": sorted(counters, key=order),
        "gauges": sorted(gauges, key=order),
        "histograms": sorted(histograms, key=order),
    }


def counter_value(
    snapshot: Mapping[str, object], name: str, /, **labels: str
) -> int:
    """Sum of a counter's samples matching ``labels`` (subset match)."""
    wanted = set(_label_key(labels))
    total = 0
    for sample in _samples(snapshot, "counters"):
        if sample["name"] != name:
            continue
        if wanted <= set(_label_key(sample.get("labels", {}))):
            total += int(sample["value"])
    return total


def gauge_value(
    snapshot: Mapping[str, object], name: str, /, **labels: str
) -> Optional[float]:
    """A gauge's value for exactly ``labels``, or None when unset."""
    wanted = _label_key(labels)
    for sample in _samples(snapshot, "gauges"):
        if sample["name"] == name and _label_key(sample.get("labels", {})) == wanted:
            return float(sample["value"])
    return None
