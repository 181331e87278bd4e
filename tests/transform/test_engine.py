"""Session / engine tests: locating, logging, step counting."""

import collections
import dataclasses
import difflib
import itertools
from typing import get_args

import pytest

from repro import obs
from repro.analyses import REGISTRY, scasb_rigel
from repro.isdl import (
    ast,
    format_expr,
    format_stmts,
    parse_expr,
    parse_stmts,
    strip_comments,
)
from repro.isdl.visitor import FIELDS, is_node
from repro.transform import Session, TransformError

STMT_TYPES = get_args(ast.Stmt)
EXPR_TYPES = get_args(ast.Expr)


class TestLocators:
    def test_expr_skips_assignment_targets(self, search_desc):
        session = Session(search_desc)
        path = session.expr("zf")
        node = session.description
        from repro.isdl.visitor import node_at

        found = node_at(node, path)
        assert found == ast.Var("zf")
        # the first zf in walk order is the target of 'zf <- 0' — the
        # locator must have skipped it.
        assert path[-1] != ("target", None)

    def test_expr_occurrence(self, search_desc):
        session = Session(search_desc)
        first = session.expr("cx", occurrence=0)
        second = session.expr("cx", occurrence=1)
        assert first != second

    def test_expr_occurrence_out_of_range(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError):
            session.expr("cx", occurrence=99)

    def test_stmt_ignores_comments(self, search_desc):
        session = Session(search_desc)
        assert session.stmt("zf <- 0;")

    def test_stmt_no_match(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError):
            session.stmt("qq <- 1;")

    def test_decl_and_routine(self, search_desc):
        session = Session(search_desc)
        assert session.decl("al")
        assert session.routine_decl("fetch")
        with pytest.raises(TransformError):
            session.decl("fetch")  # routines are not register decls


class TestHistory:
    def test_steps_count_successes_only(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        with pytest.raises(TransformError):
            session.apply("fix_operand", operand="al", value=1)
        assert session.steps == 1

    def test_original_kept(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        assert session.original is search_desc
        assert session.description is not search_desc

    def test_log_mentions_transform_and_constraints(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        log = session.log()
        assert "fix_operand" in log
        assert "constraint" in log

    def test_augment_flag_propagates(self, search_desc):
        session = Session(search_desc)
        assert not session.augmented
        session.apply("allocate_temp", temp="t9")
        assert session.augmented
        record = session.history[-1]
        assert record.is_augment


class TestFailureDiagnostics:
    """No-match and bad-occurrence errors must carry enough context to
    debug a mistyped pattern without re-reading the description."""

    def test_stmt_no_match_quotes_pattern_and_nearest_miss(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.stmt("zf <- 1;")
        message = str(excinfo.value)
        assert "no node matches the pattern" in message
        assert "'zf <- 1;'" in message
        assert "nearest miss: 'zf <- 0;'" in message

    def test_expr_no_match_quotes_pattern_and_nearest_miss(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.expr("cl")
        message = str(excinfo.value)
        assert "no node matches the pattern 'cl'" in message
        assert "nearest miss:" in message

    def test_no_match_error_names_the_session(self, search_desc):
        session = Session(search_desc, label="scasb")
        with pytest.raises(TransformError, match="^scasb: "):
            session.stmt("qq <- 1;")

    def test_expr_occurrence_error_includes_pattern_and_counts(
        self, search_desc
    ):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.expr("al", occurrence=99)
        message = str(excinfo.value)
        assert "'al'" in message
        assert "occurrence 99 requested" in message
        assert "match(es)" in message

    def test_stmt_occurrence_error_includes_pattern_and_counts(
        self, search_desc
    ):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.stmt("zf <- 0;", occurrence=5)
        message = str(excinfo.value)
        assert "'zf <- 0;'" in message
        assert "only 1 match(es)" in message
        assert "occurrence 5 requested" in message


# ---------------------------------------------------------------------------
# The fast locate (strip the root once, walk the stripped tree) against
# the direct algorithm it replaced: walk the live tree and compare each
# comment-stripped subtree with the comment-stripped pattern.


def _reference_walk(node, path=()):
    """Preorder walk by reflection over every dataclass field."""
    yield path, node
    if not dataclasses.is_dataclass(node):
        return
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if is_node(value):
            yield from _reference_walk(value, path + ((field.name, None),))
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if is_node(item):
                    yield from _reference_walk(item, path + ((field.name, index),))


def _reference_matches(description, wanted, skip_targets):
    return [
        path
        for path, node in _reference_walk(description)
        if not (skip_targets and path and path[-1] == ("target", None))
        and strip_comments(node) == wanted
    ]


def _reference_no_match(label, description, wanted):
    if isinstance(wanted, STMT_TYPES):
        family = STMT_TYPES
    else:
        family = EXPR_TYPES
    wanted_text = Session._pattern_text(wanted)
    best, best_score = None, -1.0
    for _path, node in _reference_walk(description):
        if isinstance(node, family):
            text = Session._pattern_text(strip_comments(node))
            score = difflib.SequenceMatcher(None, wanted_text, text).ratio()
            if score > best_score:
                best, best_score = text, score
    message = f"{label}: no node matches the pattern {wanted_text!r}"
    if best is not None:
        message += f"; nearest miss: {best!r}"
    return message


def _reference_locate(label, description, kind, pattern, occurrence):
    """``(path, None)`` on success, ``(None, error text)`` on failure."""
    if kind == "expr":
        wanted = strip_comments(parse_expr(pattern))
    else:
        wanted = strip_comments(parse_stmts(pattern)[0])
    matches = _reference_matches(description, wanted, skip_targets=kind == "expr")
    if not matches:
        return None, _reference_no_match(label, description, wanted)
    if occurrence < len(matches):
        return matches[occurrence], None
    if kind == "expr":
        return None, (
            f"{label}: expression pattern {pattern!r} has "
            f"{len(matches)} match(es), occurrence {occurrence} requested"
        )
    return None, (
        f"{label}: pattern {Session._pattern_text(wanted)!r} has "
        f"only {len(matches)} match(es), occurrence {occurrence} requested"
    )


def _locate(label, description, kind, pattern, occurrence):
    session = Session(description, label=label)
    try:
        return getattr(session, kind)(pattern, occurrence), None
    except TransformError as error:
        return None, str(error)


def _with_comments(node, counter):
    """``node`` with a distinct comment on every commentable node."""
    names = FIELDS.get(type(node))
    if names is None:
        return node
    updates = {}
    for name in names:
        value = getattr(node, name)
        if name == "comment":
            updates[name] = f"injected {next(counter)}"
        elif is_node(value):
            updates[name] = _with_comments(value, counter)
        elif isinstance(value, tuple):
            updates[name] = tuple(_with_comments(item, counter) for item in value)
    return dataclasses.replace(node, **updates)


def _missing(node):
    """A variant of a pattern that matches nothing in any description."""
    if isinstance(node, ast.Var):
        return dataclasses.replace(node, name=node.name + "_missing")
    if isinstance(node, ast.Call):
        return ast.Call(node.name + "_missing", tuple(_missing(a) for a in node.args))
    if isinstance(node, ast.Const):
        return ast.Const(node.value + 100003)
    if isinstance(node, ast.Input):
        return ast.Input(tuple(name + "_missing" for name in node.names))
    updates = {}
    for name in FIELDS[type(node)]:
        value = getattr(node, name)
        if is_node(value):
            updates[name] = _missing(value)
        elif isinstance(value, tuple):
            updates[name] = tuple(_missing(item) if is_node(item) else item for item in value)
    return dataclasses.replace(node, **updates)


@pytest.fixture(scope="module")
def catalog_locates():
    """Every ``expr``/``stmt`` call the catalog scripts make, with the
    description and label it ran against."""
    calls = []
    originals = {kind: getattr(Session, kind) for kind in ("expr", "stmt")}

    def recording(kind):
        def locate(self, text, occurrence=0):
            calls.append((self.label, self.description, kind, text, occurrence))
            return originals[kind](self, text, occurrence)

        return locate

    try:
        for kind in originals:
            setattr(Session, kind, recording(kind))
        for spec in REGISTRY:
            spec.module.run(verify=False)
    finally:
        for kind, original in originals.items():
            setattr(Session, kind, original)
    return calls


class TestFastLocateMatchesReference:
    def test_catalog_makes_locate_calls(self, catalog_locates):
        kinds = {call[2] for call in catalog_locates}
        assert kinds == {"expr", "stmt"}
        assert len(catalog_locates) > 100

    def test_same_path_on_commented_descriptions(self, catalog_locates):
        counter = itertools.count()
        for label, description, kind, pattern, occurrence in catalog_locates:
            commented = _with_comments(description, counter)
            expected = _reference_locate(label, commented, kind, pattern, occurrence)
            assert expected[1] is None, expected
            assert _locate(label, commented, kind, pattern, occurrence) == expected
            assert _locate(label, description, kind, pattern, occurrence) == expected

    def test_same_errors_on_commented_descriptions(self, catalog_locates):
        counter = itertools.count()
        for label, description, kind, pattern, occurrence in catalog_locates:
            commented = _with_comments(description, counter)
            # too few matches: one past the last occurrence
            count = len(
                _reference_matches(
                    commented,
                    strip_comments(
                        parse_expr(pattern) if kind == "expr" else parse_stmts(pattern)[0]
                    ),
                    skip_targets=kind == "expr",
                )
            )
            expected = _reference_locate(label, commented, kind, pattern, count)
            assert expected[0] is None and "match(es)" in expected[1]
            assert _locate(label, commented, kind, pattern, count) == expected
            # no match at all, with the nearest-miss text
            if kind == "expr":
                missing = format_expr(_missing(parse_expr(pattern)))
            else:
                missing = format_stmts([_missing(parse_stmts(pattern)[0])])
            expected = _reference_locate(label, commented, kind, missing, 0)
            assert expected[0] is None and "nearest miss" in expected[1]
            assert _locate(label, commented, kind, missing, 0) == expected


# ---------------------------------------------------------------------------
# Replay is observable: every locate and every step is a span.


def _phase_samples(snapshot, phase):
    return [
        sample
        for sample in snapshot["histograms"]
        if sample["name"] == "repro_phase_seconds"
        and sample["labels"]["phase"] == phase
    ]


class TestReplaySpans:
    def test_steps_and_locates_are_spans(self, monkeypatch):
        locate_calls = []
        for kind in ("expr", "stmt"):
            original = getattr(Session, kind)

            def counting(self, *args, _original=original, **kwargs):
                locate_calls.append(self.label)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Session, kind, counting)
        with obs.collecting() as registry:
            outcome = scasb_rigel.run(verify=False)
        snapshot = registry.snapshot()
        steps = _phase_samples(snapshot, "step")
        recorded = collections.Counter(
            event.transform
            for trace in (outcome.trace.operator, outcome.trace.instruction_trace)
            for event in trace.events
        )
        assert {
            sample["labels"]["transform"]: sample["count"] for sample in steps
        } == dict(recorded)
        assert all(set(sample["labels"]) == {"phase", "transform"} for sample in steps)
        assert sum(recorded.values()) == outcome.steps
        locates = _phase_samples(snapshot, "locate")
        assert {
            sample["labels"]["analysis"]: sample["count"] for sample in locates
        } == dict(collections.Counter(locate_calls))

    def test_spans_leave_digests_unchanged(self):
        plain = scasb_rigel.run(verify=False)
        with obs.collecting():
            collected = scasb_rigel.run(verify=False)
        assert collected.trace.digest() == plain.trace.digest()
        assert collected.trace.to_dict()["digest"] == plain.trace.to_dict()["digest"]

    def test_no_spans_when_collection_is_off(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("span recorded with collection off")

        monkeypatch.setattr(obs.MetricsRegistry, "span", refuse)
        assert not obs.enabled()
        assert scasb_rigel.run(verify=False).succeeded
