"""Content-keyed parse memoization (repro.isdl.cache)."""

import multiprocessing
import os
import sys
import threading
import warnings

import pytest

from repro.isdl import cache, parse_description, parse_expr, parse_stmts
from repro.isdl.parser import parse_description as raw_parse_description
from repro.semantics import compiler, vectorized

DESC = """
demo.instruction := begin
    ** OPERANDS **
        a<15:0>,
        b<15:0>
    ** STRING.PROCESS **
        demo.execute() := begin
            input (a, b);
            t <- a + b;
            output (t);
        end
end
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    cache.clear_caches()
    yield
    cache.clear_caches()


def test_identical_source_shares_one_ast():
    first = parse_description(DESC)
    second = parse_description(DESC)
    assert second is first  # memoized, not merely equal


def test_cached_result_matches_raw_parser():
    assert parse_description(DESC) == raw_parse_description(DESC)


def test_stats_track_hits_and_misses():
    parse_description(DESC)
    parse_description(DESC)
    parse_expr("a + 1")
    stats = cache.cache_stats()
    assert stats["description"]["misses"] == 1
    assert stats["description"]["hits"] == 1
    assert stats["expr"]["misses"] == 1


def test_namespaces_do_not_collide():
    # The same text through different entry points must not cross-hit.
    parse_stmts("t <- 1;")
    stats = cache.cache_stats()
    assert stats["stmts"]["misses"] == 1
    assert stats["expr"]["hits"] == 0


def test_clear_caches_resets():
    parse_description(DESC)
    cache.clear_caches()
    stats = cache.cache_stats()
    assert stats["description"] == {"entries": 0, "hits": 0, "misses": 0}


def test_parse_errors_are_not_cached():
    with pytest.raises(Exception):
        parse_expr("+ + +")
    with pytest.raises(Exception):
        parse_expr("+ + +")
    assert cache.cache_stats()["expr"]["hits"] == 0


#: (memo holding the lock, the call a forked child makes first).
FORKED_FIRST_CALLS = {
    "parse": (lambda: parse_description, lambda: parse_description(DESC)),
    "compile": (
        lambda: compiler._memo,
        lambda: compiler.compile_description(raw_parse_description(DESC)),
    ),
    "vectorized": (
        lambda: vectorized._vector_memo,
        lambda: vectorized.compile_vectorized(raw_parse_description(DESC)),
    ),
}


def _first_call_in_child(kind):
    FORKED_FIRST_CALLS[kind][1]()
    sys.exit(0)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
@pytest.mark.parametrize("kind", sorted(FORKED_FIRST_CALLS))
def test_memo_works_in_a_child_forked_while_another_thread_holds_it(kind):
    """A pool worker forked while a service handler thread parses or
    compiles must not inherit a memo lock it can never take."""
    memo = FORKED_FIRST_CALLS[kind][0]()
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
                target=_first_call_in_child, args=(kind,)
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
    assert not hung, "child deadlocked on the inherited %s lock" % kind
    assert child.exitcode == 0
