"""The replay memo: one replay per analysis per process.

A replay's output depends only on the script and its input
descriptions, both fixed for the life of a process, so the batch
runner keeps every replay for the process's lifetime.  These tests pin
what that may and may not change: later batches replay nothing and
report the same bytes, concurrent misses replay once, a failed replay
is retried, and a forked child never inherits a held memo lock.  The
service-level step count is pinned in tests/service/test_server.py.
"""

import dataclasses
import importlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import api
from repro.analysis import runner
from repro.analysis.runner import run_batch

NAME = "scasb_rigel"
SRC = Path(__file__).resolve().parents[2] / "src"


def _replay_spans(snapshot):
    """How many ``replay`` spans ``snapshot`` recorded for ``NAME``."""
    return sum(
        sample["count"]
        for sample in snapshot["histograms"]
        if sample["name"] == "repro_phase_seconds"
        and sample["labels"] == {"phase": "replay", "analysis": NAME}
    )


def _comparable(result):
    """A JobResult without the two fields that vary between runs."""
    return dataclasses.replace(result, duration=0.0, cache_misses=0)


def _counting_run(monkeypatch, fail_first=False, delay=0.0):
    """Wrap ``NAME``'s ``run``; returns the list of calls."""
    module = importlib.import_module(f"repro.analyses.{NAME}")
    original = module.run
    calls = []

    def run(*args, **kwargs):
        calls.append(threading.get_ident())
        if delay:
            time.sleep(delay)
        if fail_first and len(calls) == 1:
            raise RuntimeError("planted replay failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "run", run)
    return calls


class TestAcrossBatches:
    def test_second_batch_replays_nothing_and_reports_the_same(self):
        config = api.RunConfig(trials=12)
        first = api.batch([NAME], config, metrics=True)
        second = api.batch([NAME], config, metrics=True)
        assert _replay_spans(first.metrics) == 1
        assert _replay_spans(second.metrics) == 0
        assert first.ok
        assert [_comparable(r) for r in second.results] == [
            _comparable(r) for r in first.results
        ]

    @pytest.mark.parametrize("engine", ["interp", "default"])
    def test_memo_warm_json_equals_cold_and_a_fresh_process(self, engine):
        config = api.RunConfig(trials=12)
        argv = ["batch", "--json", "--no-cache", "--trials", "12"]
        if engine != "default":
            config = config.replace(engine=engine)
            argv += ["--engine", engine]
        runner._clear_replay_cache()
        cold = api.batch(None, config).to_json()
        warm = api.batch(None, config).to_json()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert warm == cold
        assert fresh == cold + "\n"
        assert '"failed": 0' in cold


class TestSingleFlight:
    def test_concurrent_misses_replay_once(self, monkeypatch):
        calls = _counting_run(monkeypatch, delay=0.05)
        threads = 8
        barrier = threading.Barrier(threads)
        reports = [None] * threads

        def worker(index):
            barrier.wait(10)
            reports[index] = run_batch(
                [NAME], api.RunConfig(trials=6, seed=100 + index)
            )

        pool = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert len(calls) == 1
        assert all(report is not None and report.ok for report in reports)

    def test_a_failed_replay_is_retried_by_the_next_batch(self, monkeypatch):
        calls = _counting_run(monkeypatch, fail_first=True)
        config = api.RunConfig(trials=6)
        failed = run_batch([NAME], config)
        assert not failed.ok
        assert "planted replay failure" in failed.results[0].error
        retried = run_batch([NAME], config)
        assert retried.ok
        assert len(calls) == 2
        run_batch([NAME], config)
        assert len(calls) == 2


def _replay_in_child():
    module, outcome = runner._replay(NAME)
    sys.exit(0 if outcome.succeeded else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_replay_works_in_a_child_forked_while_another_thread_holds_the_memo():
    """A pool worker forked while a service handler thread replays must
    not inherit a memo lock it can never take."""
    memo = runner._REPLAYS
    assert NAME not in memo._entries  # the child's replay is a miss
    held, release = threading.Event(), threading.Event()

    def hold():
        with memo._lock:
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
                target=_replay_in_child
            )
            child.start()
        child.join(timeout=20)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(timeout=10)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not hung, "child deadlocked on the inherited replay memo lock"
    assert child.exitcode == 0
