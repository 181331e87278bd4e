"""Unit tests for the metrics registry, snapshots, and exporters.

These pin the contracts the instrumented hot paths rely on:
histogram bucket edges use ``le`` (less-or-equal) semantics, snapshots
are deterministic and mergeable (the batch runner's per-shard
accounting depends on merge/diff being exact inverses), undeclared
metric names are programming errors, and the Prometheus exporter emits
every declared family even for an empty snapshot.
"""

import json
import multiprocessing
import os
import re
import sys
import threading
import warnings

import pytest

from repro import obs
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    COUNTERS,
    GAUGES,
    HISTOGRAMS,
    METRICS_SCHEMA,
    MetricsRegistry,
    counter_value,
    diff_snapshots,
    empty_snapshot,
    gauge_value,
)


def _histogram_sample(snapshot, **labels):
    for sample in snapshot["histograms"]:
        if sample["name"] == "repro_phase_seconds" and sample["labels"] == labels:
            return sample
    raise AssertionError(f"no repro_phase_seconds sample with labels {labels}")


class TestHistogramBucketEdges:
    def test_value_exactly_at_bound_lands_in_that_bucket(self):
        # ``le`` semantics: observing exactly BUCKET_BOUNDS[i] must land
        # in bucket i, not i+1.
        for index, bound in enumerate(BUCKET_BOUNDS):
            registry = MetricsRegistry()
            registry.observe("repro_phase_seconds", bound, phase="parse")
            sample = _histogram_sample(registry.snapshot(), phase="parse")
            assert sample["buckets"][index] == 1, f"bound {bound} -> bucket {index}"
            assert sum(sample["buckets"]) == 1

    def test_value_above_last_bound_goes_to_inf(self):
        registry = MetricsRegistry()
        registry.observe("repro_phase_seconds", BUCKET_BOUNDS[-1] + 1.0, phase="x")
        sample = _histogram_sample(registry.snapshot(), phase="x")
        assert sample["buckets"][-1] == 1
        assert len(sample["buckets"]) == len(BUCKET_BOUNDS) + 1

    def test_zero_lands_in_first_bucket(self):
        registry = MetricsRegistry()
        registry.observe("repro_phase_seconds", 0.0, phase="x")
        sample = _histogram_sample(registry.snapshot(), phase="x")
        assert sample["buckets"][0] == 1

    def test_value_just_above_bound_goes_to_next_bucket(self):
        registry = MetricsRegistry()
        registry.observe(
            "repro_phase_seconds", BUCKET_BOUNDS[0] * 1.000001, phase="x"
        )
        sample = _histogram_sample(registry.snapshot(), phase="x")
        assert sample["buckets"][0] == 0
        assert sample["buckets"][1] == 1

    def test_sum_and_count_accumulate(self):
        registry = MetricsRegistry()
        registry.observe("repro_phase_seconds", 0.25, phase="x")
        registry.observe("repro_phase_seconds", 0.75, phase="x")
        sample = _histogram_sample(registry.snapshot(), phase="x")
        assert sample["count"] == 2
        assert sample["sum"] == pytest.approx(1.0)


class TestUndeclaredNames:
    def test_undeclared_counter_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="undeclared counter"):
            registry.inc("repro_nonsense_total")

    def test_undeclared_gauge_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="undeclared gauge"):
            registry.gauge_set("repro_nonsense", 1.0)

    def test_undeclared_histogram_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="undeclared histogram"):
            registry.observe("repro_nonsense_seconds", 0.1)

    def test_declared_names_follow_prometheus_conventions(self):
        pattern = re.compile(r"^repro_[a-z0-9_]+$")
        for name in COUNTERS:
            assert pattern.match(name) and name.endswith("_total"), name
        for name in list(GAUGES) + list(HISTOGRAMS):
            assert pattern.match(name), name


class TestSnapshotDeterminism:
    def test_insertion_order_does_not_matter(self):
        first = MetricsRegistry()
        first.inc("repro_verify_trials_total", engine="interp")
        first.inc("repro_verify_trials_total", engine="compiled")
        first.inc("repro_compile_cache_hits_total", 3)
        second = MetricsRegistry()
        second.inc("repro_compile_cache_hits_total", 3)
        second.inc("repro_verify_trials_total", engine="compiled")
        second.inc("repro_verify_trials_total", engine="interp")
        assert first.snapshot() == second.snapshot()

    def test_snapshot_is_json_ready_and_schema_tagged(self):
        registry = MetricsRegistry()
        registry.inc("repro_batch_entries_total", status="ok")
        registry.gauge_set("repro_provenance_hit_rate", 0.5)
        registry.observe("repro_phase_seconds", 0.01, phase="batch")
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        assert json.loads(obs.export_json(snapshot)) == snapshot

    def test_export_json_is_canonical(self):
        registry = MetricsRegistry()
        registry.inc("repro_batch_entries_total", status="ok")
        text = obs.export_json(registry.snapshot())
        assert text == obs.export_json(registry.snapshot())
        assert ": " not in text  # compact separators


class TestMergeAndDiff:
    def _loaded(self):
        registry = MetricsRegistry()
        registry.inc("repro_verify_trials_total", 7, engine="compiled")
        registry.inc("repro_parse_cache_hits_total", 2, namespace="isdl")
        registry.gauge_set("repro_provenance_hit_rate", 0.25)
        registry.observe("repro_phase_seconds", 0.03, phase="verify")
        registry.observe("repro_phase_seconds", 4.0, phase="verify")
        return registry

    def test_merge_equals_direct_counting(self):
        parent = MetricsRegistry()
        parent.merge(self._loaded().snapshot())
        assert parent.snapshot() == self._loaded().snapshot()

    def test_merge_adds_counters_and_histograms(self):
        parent = self._loaded()
        parent.merge(self._loaded().snapshot())
        snapshot = parent.snapshot()
        assert counter_value(snapshot, "repro_verify_trials_total") == 14
        sample = _histogram_sample(snapshot, phase="verify")
        assert sample["count"] == 4
        # Gauges overwrite rather than add.
        assert gauge_value(snapshot, "repro_provenance_hit_rate") == 0.25

    def test_diff_recovers_the_delta(self):
        registry = self._loaded()
        before = registry.snapshot()
        registry.inc("repro_verify_trials_total", 5, engine="compiled")
        registry.observe("repro_phase_seconds", 0.03, phase="verify")
        delta = diff_snapshots(before, registry.snapshot())
        assert counter_value(delta, "repro_verify_trials_total") == 5
        sample = _histogram_sample(delta, phase="verify")
        assert sample["count"] == 1
        # Unchanged series are dropped from the delta entirely.
        assert counter_value(delta, "repro_parse_cache_hits_total") == 0
        assert not any(
            s["name"] == "repro_parse_cache_hits_total" for s in delta["counters"]
        )

    def test_diff_then_merge_round_trips(self):
        registry = self._loaded()
        before = registry.snapshot()
        registry.inc("repro_compile_cache_misses_total", 3)
        registry.observe("repro_phase_seconds", 0.2, phase="compile")
        delta = diff_snapshots(before, registry.snapshot())
        rebuilt = MetricsRegistry()
        rebuilt.merge(before)
        rebuilt.merge(delta)
        assert rebuilt.snapshot() == registry.snapshot()

    def test_diff_from_empty_snapshot(self):
        registry = self._loaded()
        delta = diff_snapshots(empty_snapshot(), registry.snapshot())
        assert delta == registry.snapshot()


class TestDisabledIsNoOp:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active() is None

    def test_helpers_do_nothing_when_disabled(self):
        obs.inc("repro_verify_trials_total")
        obs.gauge_set("repro_provenance_hit_rate", 1.0)
        obs.observe("repro_phase_seconds", 0.1, phase="x")
        assert obs.snapshot() == empty_snapshot()

    def test_span_is_shared_null_object_when_disabled(self):
        first = obs.span("parse")
        second = obs.span("verify", engine="interp")
        assert first is second
        with first:
            pass
        assert obs.snapshot() == empty_snapshot()

    def test_collecting_installs_and_restores(self):
        assert not obs.enabled()
        with obs.collecting() as registry:
            assert obs.enabled()
            assert obs.active() is registry
            obs.inc("repro_verify_trials_total", 3)
            assert counter_value(obs.snapshot(), "repro_verify_trials_total") == 3
        assert not obs.enabled()

    def test_collecting_nests_and_restores_outer(self):
        with obs.collecting() as outer:
            obs.inc("repro_verify_trials_total", 1)
            with obs.collecting() as inner:
                assert obs.active() is inner
                obs.inc("repro_verify_trials_total", 10)
            assert obs.active() is outer
            snapshot = obs.snapshot()
        assert counter_value(snapshot, "repro_verify_trials_total") == 1

    def test_span_records_duration_when_enabled(self):
        with obs.collecting() as registry:
            with obs.span("parse", namespace="isdl"):
                pass
            sample = _histogram_sample(
                registry.snapshot(), phase="parse", namespace="isdl"
            )
        assert sample["count"] == 1
        assert sample["sum"] >= 0.0


class TestCounterAndGaugeLookups:
    def test_counter_value_sums_subset_matches(self):
        registry = MetricsRegistry()
        registry.inc("repro_verify_trials_total", 3, engine="interp")
        registry.inc("repro_verify_trials_total", 4, engine="compiled")
        snapshot = registry.snapshot()
        assert counter_value(snapshot, "repro_verify_trials_total") == 7
        assert (
            counter_value(snapshot, "repro_verify_trials_total", engine="interp")
            == 3
        )

    def test_gauge_value_requires_exact_labels(self):
        registry = MetricsRegistry()
        registry.gauge_set("repro_provenance_hit_rate", 0.9)
        snapshot = registry.snapshot()
        assert gauge_value(snapshot, "repro_provenance_hit_rate") == 0.9
        assert gauge_value(snapshot, "repro_provenance_hit_rate", x="y") is None


_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? [0-9eE+.\-]+$"
)


class TestPrometheusExport:
    def test_empty_snapshot_still_covers_every_family(self):
        text = obs.export_prometheus(empty_snapshot())
        for name in list(COUNTERS) + list(GAUGES):
            assert f"# TYPE {name} " in text
            assert f"\n{name} 0\n" in ("\n" + text)
        for name in HISTOGRAMS:
            assert f"# TYPE {name} histogram" in text
            assert f'{name}_bucket{{le="+Inf"}} 0' in text
            assert f"{name}_count 0" in text

    def test_every_line_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.inc("repro_verify_trials_total", 3, engine="compiled")
        registry.gauge_set("repro_provenance_hit_rate", 0.5)
        registry.observe("repro_phase_seconds", 0.01, phase="verify")
        text = obs.export_prometheus(registry.snapshot())
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_LINE.match(line), f"invalid exposition line: {line!r}"

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("repro_phase_seconds", 0.0004, phase="x")  # bucket 0
        registry.observe("repro_phase_seconds", 0.002, phase="x")  # bucket 2
        registry.observe("repro_phase_seconds", 99.0, phase="x")  # +Inf
        text = obs.export_prometheus(registry.snapshot())
        assert 'repro_phase_seconds_bucket{phase="x",le="0.0005"} 1' in text
        assert 'repro_phase_seconds_bucket{phase="x",le="0.0025"} 2' in text
        assert 'repro_phase_seconds_bucket{phase="x",le="30"} 2' in text
        assert 'repro_phase_seconds_bucket{phase="x",le="+Inf"} 3' in text
        assert 'repro_phase_seconds_count{phase="x"} 3' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("repro_parse_cache_hits_total", namespace='we"ird\\ns')
        text = obs.export_prometheus(registry.snapshot())
        assert 'namespace="we\\"ird\\\\ns"' in text


def _record_in_child(registry):
    registry.inc("repro_verify_trials_total", 3)
    with registry.span("step", analysis="child", transform="t"):
        pass
    snapshot = registry.snapshot()
    sys.exit(0 if counter_value(snapshot, "repro_verify_trials_total") == 3 else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_registry_works_in_a_child_forked_while_another_thread_holds_it():
    """A worker forked by a threaded parent (the service's lazily
    spawned pool) must not inherit a registry lock it can never take."""
    registry = obs.MetricsRegistry()
    held, release = threading.Event(), threading.Event()

    def hold():
        with registry._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        with warnings.catch_warnings():
            # Python 3.12+ warns on any fork from a threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = multiprocessing.get_context("fork").Process(
                target=_record_in_child, args=(registry,)
            )
            child.start()
        child.join(timeout=10)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(timeout=10)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not hung, "child deadlocked on the inherited registry lock"
    assert child.exitcode == 0
