"""Tests for the traversal / functional-update infrastructure."""

import dataclasses
import inspect

import pytest

from repro.isdl import (
    ast,
    find_all,
    insert_at,
    node_at,
    parse_expr,
    parse_stmts,
    remove_at,
    replace_at,
    strip_comments,
    structurally_equal,
    walk,
)
from repro.isdl.visitor import FIELDS, NODE_TYPES, splice_at


class TestWalk:
    def test_walk_yields_root_first(self, search_desc):
        nodes = list(walk(search_desc))
        assert nodes[0] == ((), search_desc)

    def test_walk_paths_resolve(self, search_desc):
        for path, node in walk(search_desc):
            assert node_at(search_desc, path) is node

    def test_find_all_vars(self, search_desc):
        uses = find_all(
            search_desc, lambda n: isinstance(n, ast.Var) and n.name == "cx"
        )
        assert len(uses) >= 3


class TestReplace:
    def test_replace_deep_node(self, search_desc):
        target = next(
            path
            for path, node in walk(search_desc)
            if node == ast.Const(0) and len(path) > 3
        )
        updated = replace_at(search_desc, target, ast.Const(99))
        assert node_at(updated, target) == ast.Const(99)
        # original untouched
        assert node_at(search_desc, target) == ast.Const(0)

    def test_replace_root(self, search_desc, copy_desc):
        assert replace_at(search_desc, (), copy_desc) is copy_desc

    def test_shares_untouched_subtrees(self, search_desc):
        path = (("sections", 0),)
        updated = replace_at(
            search_desc, path, search_desc.sections[0]
        )
        assert updated.sections[1] is search_desc.sections[1]


class TestListEdits:
    def setup_method(self):
        self.stmts = parse_stmts("a <- 1; b <- 2; c <- 3;")
        self.block = ast.Repeat(body=self.stmts)

    def test_remove_middle(self):
        updated = remove_at(self.block, (("body", 1),))
        assert [s.target.name for s in updated.body] == ["a", "c"]

    def test_remove_requires_tuple_field(self):
        with pytest.raises(ValueError):
            remove_at(ast.Assign(ast.Var("x"), ast.Const(1)), (("expr", None),))

    def test_remove_root_rejected(self):
        with pytest.raises(ValueError):
            remove_at(self.block, ())

    def test_insert_front(self):
        new = parse_stmts("z <- 0;")[0]
        updated = insert_at(self.block, (("body", 0),), new)
        assert updated.body[0] is new
        assert len(updated.body) == 4

    def test_insert_append(self):
        new = parse_stmts("z <- 0;")[0]
        updated = insert_at(self.block, (("body", 3),), new)
        assert updated.body[-1] is new

    def test_insert_out_of_range(self):
        new = parse_stmts("z <- 0;")[0]
        with pytest.raises(IndexError):
            insert_at(self.block, (("body", 9),), new)

    def test_splice_expands(self):
        replacement = parse_stmts("x <- 1; y <- 2;")
        updated = splice_at(self.block, (("body", 1),), replacement)
        assert [s.target.name for s in updated.body] == ["a", "x", "y", "c"]

    def test_splice_empty_removes(self):
        updated = splice_at(self.block, (("body", 1),), ())
        assert len(updated.body) == 2


class TestComments:
    def test_strip_comments(self):
        (stmt,) = parse_stmts("x <- 1; ! note")
        assert stmt.comment == "note"
        assert strip_comments(stmt).comment is None

    def test_structural_equality_ignores_comments(self):
        (a,) = parse_stmts("x <- 1; ! note")
        (b,) = parse_stmts("x <- 1;")
        assert a != b
        assert structurally_equal(a, b)

    def test_structural_inequality(self):
        assert not structurally_equal(parse_expr("a + b"), parse_expr("a - b"))


class TestFieldTable:
    def test_table_is_dataclass_fields_minus_location(self):
        assert set(FIELDS) == set(NODE_TYPES)
        for cls in NODE_TYPES:
            expected = tuple(
                field.name
                for field in dataclasses.fields(cls)
                if field.name != "location"
            )
            assert FIELDS[cls] == expected, cls.__name__

    def test_every_ast_dataclass_is_a_node_type(self):
        defined = [
            cls
            for _name, cls in inspect.getmembers(ast, inspect.isclass)
            if cls.__module__ == ast.__name__ and dataclasses.is_dataclass(cls)
        ]
        missing = [cls.__name__ for cls in defined if cls not in NODE_TYPES]
        assert missing == []
        assert len(defined) == len(NODE_TYPES)

    def test_no_ast_class_is_subclassed(self):
        # is_node and the field table look nodes up by exact type, so a
        # subclass of an AST class would silently be treated as a leaf.
        import repro.analyses  # noqa: F401  (load every module that builds trees)
        import repro.api  # noqa: F401

        subclassed = {
            cls.__name__: [sub.__qualname__ for sub in cls.__subclasses__()]
            for cls in NODE_TYPES
            if cls.__subclasses__()
        }
        assert subclassed == {}

    def test_strip_comments_shares_uncommented_subtrees(self):
        stmts = parse_stmts("if a = 1 then\n b <- 2;\n c <- 3; ! note\nend_if;")
        stripped = strip_comments(stmts[0])
        assert stripped is not stmts[0]
        assert stripped.cond is stmts[0].cond
        assert stripped.then[0] is stmts[0].then[0]
        assert stripped.then[1].comment is None
        assert strip_comments(stripped) is stripped
