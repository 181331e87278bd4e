"""Content-keyed memoization for the ISDL parsers.

Every recorded analysis re-parses the same description texts and — far
more often — the same statement/expression *snippets* used to locate
transformation sites (``session.stmt("cx <- cx - 1;")`` and friends).
All AST nodes are frozen dataclasses, so identical sources can safely
share one parse result across sessions, processes need no invalidation,
and the batch runner's repeated replays stop paying the parser.

Keys are SHA-256 digests of the exact source text, one namespace per
parser entry point, so ``parse_expr("x")`` and ``parse_stmts("x")`` can
never collide.  Only *successful* parses are cached; errors propagate
uncached so diagnostics keep pointing at the offending source.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from .. import obs
from ..obs.metrics import fork_safe_lock


@dataclass
class CacheStats:
    """Hit/miss counters for one memoized parser."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class TextMemo:
    """A content-keyed memo table wrapping one text -> AST parser."""

    def __init__(self, namespace: str, parse: Callable[[str], Any]):
        self.namespace = namespace
        self._parse = parse
        self._entries: Dict[bytes, Any] = {}
        self._lock = fork_safe_lock(self)
        self.stats = CacheStats()

    @staticmethod
    def key_for(namespace: str, text: str) -> bytes:
        digest = hashlib.sha256()
        digest.update(namespace.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(text.encode("utf-8"))
        return digest.digest()

    def __call__(self, text: str) -> Any:
        key = self.key_for(self.namespace, text)
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self.stats.hits += 1
                obs.inc(
                    "repro_parse_cache_hits_total", namespace=self.namespace
                )
                return value
        obs.inc("repro_parse_cache_misses_total", namespace=self.namespace)
        with obs.span("parse", namespace=self.namespace):
            value = self._parse(text)
        with self._lock:
            self.stats.misses += 1
            self._entries.setdefault(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


def _install() -> Tuple[TextMemo, TextMemo, TextMemo]:
    from . import parser

    return (
        TextMemo("description", parser.parse_description),
        TextMemo("expr", parser.parse_expr),
        TextMemo("stmts", parser.parse_stmts),
    )


#: the module-wide memo tables; :mod:`repro.isdl` re-exports these
#: callables under the original parser names.
parse_description, parse_expr, parse_stmts = _install()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counts per parser namespace."""
    return {
        memo.namespace: {
            "hits": memo.stats.hits,
            "misses": memo.stats.misses,
            "entries": len(memo),
        }
        for memo in (parse_description, parse_expr, parse_stmts)
    }


def clear_caches() -> None:
    """Drop every memoized parse (used by tests and benchmarks)."""
    for memo in (parse_description, parse_expr, parse_stmts):
        memo.clear()
