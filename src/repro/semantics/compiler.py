"""One-pass ISDL -> Python compiler: the fast execution engine.

The big-step interpreter (:mod:`repro.semantics.interpreter`) pays
per-node ``isinstance`` dispatch on every statement of every trial.
Differential verification runs tens of thousands of trials per batch,
so that dispatch *is* the verification hot path.  This module removes
it: each description is lowered once to plain Python source, compiled
with :func:`compile`, and the resulting closure is executed directly —
the same amortize-one-compilation-over-many-executions move that makes
exhaustive search and rewrite-rule synthesis tractable in code
generation research.

Lowering rules (documented in ``docs/isdl.md``):

* registers become Python locals of the generated runner (``r_<name>``),
  shared between routines through closure cells (``nonlocal``);
* every store to a ``<hi:lo>`` register masks inline with the
  precomputed ``(1 << bits) - 1``; ``integer`` variables never mask;
* ``repeat``/``exit_when`` become ``while True``/``break`` (plus an
  ``except`` for the interpreter's cross-routine loop-exit signal);
* memory keeps :class:`~repro.semantics.state.Memory` semantics — the
  runner addresses a bare ``cells`` dict inline (sparse, zero-default,
  byte-masked stores, negative addresses raise);
* the step budget is a decrementing counter checked per statement, so
  :class:`StepLimitExceeded` fires after exactly the same number of
  steps as the interpreter's incrementing counter;
* ``assert`` lowers to an inline test raising :class:`AssertionFailed`
  with the interpreter's exact message.

Compiled code objects are cached content-keyed alongside the parse
memos (:mod:`repro.isdl.cache`): the key is the SHA-256 of the
pretty-printed description, so structurally identical descriptions —
however they were built — share one compilation.

Correctness is enforced structurally, not by hope: the
:class:`~repro.semantics.engine.ExecutionEngine` facade cross-checks
compiled runs against the interpreter (always in tests, sampled in
batch), and a hypothesis property in
``tests/semantics/test_engine_equivalence.py`` fuzzes the two engines
against each other on random programs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..isdl import ast
from ..isdl.cache import CacheStats, TextMemo
from ..isdl.errors import SemanticError
from ..isdl.printer import format_description
from ..obs.metrics import fork_safe_lock
from .interpreter import (
    AssertionFailed,
    ExecutionResult,
    StepLimitExceeded,
    _LoopExit,
)
from .values import BYTE_MASK, width_bits

#: Default statement budget, matching :class:`Interpreter`.
DEFAULT_MAX_STEPS = 200_000

#: Binary-operator lowering templates.  Comparisons and logical
#: operators yield 0/1 through conditional expressions; ``and``/``or``
#: use the bitwise ``&``/``|`` on 0/1 operands so that — exactly like
#: the interpreter — both sides are always evaluated (ISDL logical
#: operators never short-circuit).  Module-level and mutable on
#: purpose: the miscompile-detection tests monkeypatch an entry to
#: plant a wrong lowering and prove the differential gate catches it.
_BINOP_TEMPLATES: Dict[str, str] = {
    "+": "(({left}) + ({right}))",
    "-": "(({left}) - ({right}))",
    "*": "(({left}) * ({right}))",
    "=": "(1 if ({left}) == ({right}) else 0)",
    "<>": "(1 if ({left}) != ({right}) else 0)",
    "<": "(1 if ({left}) < ({right}) else 0)",
    "<=": "(1 if ({left}) <= ({right}) else 0)",
    ">": "(1 if ({left}) > ({right}) else 0)",
    ">=": "(1 if ({left}) >= ({right}) else 0)",
    "and": "(1 if (({left}) != 0) & (({right}) != 0) else 0)",
    "or": "(1 if (({left}) != 0) | (({right}) != 0) else 0)",
}

_UNOP_TEMPLATES: Dict[str, str] = {
    "not": "(1 if ({operand}) == 0 else 0)",
    "-": "(-({operand}))",
}


def _mangle(name: str) -> str:
    """A collision-free Python identifier fragment for an ISDL name.

    Dots (and any other non-alphanumeric character, including ``_``
    itself) escape to ``_XX`` hex, so ``a_b`` and ``a.b`` can never
    collide after mangling.
    """
    out = []
    for ch in name:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        else:
            out.append("_%02x" % ord(ch))
    return "".join(out)


@dataclass
class CompiledProgram:
    """One description's generated runner plus its source (for debugging)."""

    description_name: str
    source: str
    #: ``fn(inputs, cells, max_steps) -> (outputs, registers, budget)``
    fn: Callable[
        [Mapping[str, int], Dict[int, int], int],
        Tuple[List[int], Dict[str, int], int],
    ]


class _Writer:
    """Tiny indented-source emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _RoutineLowerer:
    """Lowers one routine body with static name resolution.

    Name resolution mirrors the interpreter's frame lookup exactly,
    including its one asymmetry: *stores* check the routine's own name
    (the return slot) before parameters, while *loads* check
    parameters first.
    """

    def __init__(
        self,
        writer: _Writer,
        routine: ast.RoutineDecl,
        routines: Mapping[str, ast.RoutineDecl],
        register_masks: Mapping[str, Optional[int]],
        description_name: str,
    ) -> None:
        self.w = writer
        self.routine = routine
        self.routines = routines
        self.register_masks = register_masks
        self.description_name = description_name
        self.params = set(routine.params)
        self._memtemp = 0
        self.assigned_registers: set = set()

    # -- shared fragments ------------------------------------------------

    def tick(self) -> None:
        self.w.emit("_budget -= 1")
        self.w.emit("if _budget < 0:")
        self.w.indent += 1
        self.w.emit("_steplimit(_max_steps)")
        self.w.indent -= 1

    def _sem(self, message: str) -> str:
        """An expression that raises ``SemanticError(message)``."""
        return "_sem(%r)" % (message,)

    # -- expressions -----------------------------------------------------

    def expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Const):
            return repr(int(expr.value))
        if isinstance(expr, ast.Var):
            return self.load(expr.name)
        if isinstance(expr, ast.MemRead):
            temp = "_m%d" % self._memtemp
            self._memtemp += 1
            addr = self.expr(expr.addr)
            return (
                "(_cells.get(%s, 0) if (%s := (%s)) >= 0 else _negread(%s))"
                % (temp, temp, addr, temp)
            )
        if isinstance(expr, ast.Call):
            return self.call(expr)
        if isinstance(expr, ast.BinOp):
            template = _BINOP_TEMPLATES.get(expr.op)
            if template is None:
                # The interpreter evaluates both operands, then raises
                # ValueError from apply_binop; _badop replicates that.
                return "_badop(%r, %s, %s)" % (
                    "unknown binary operator %r" % expr.op,
                    self.expr(expr.left),
                    self.expr(expr.right),
                )
            return template.format(
                left=self.expr(expr.left), right=self.expr(expr.right)
            )
        if isinstance(expr, ast.UnOp):
            template = _UNOP_TEMPLATES.get(expr.op)
            if template is None:
                return "_badop(%r, %s)" % (
                    "unknown unary operator %r" % expr.op,
                    self.expr(expr.operand),
                )
            return template.format(operand=self.expr(expr.operand))
        return self._sem("cannot evaluate %s" % type(expr).__name__)

    def call(self, expr: ast.Call) -> str:
        routine = self.routines.get(expr.name)
        if routine is None:
            # Undeclared routine: the interpreter raises *before*
            # evaluating the arguments, so neither do we.
            return self._sem("call to undeclared routine %r" % expr.name)
        args = ", ".join(self.expr(arg) for arg in expr.args)
        if len(expr.args) != len(routine.params):
            # Arity mismatch raises *after* argument evaluation.
            message = "routine %r expects %d arguments, got %d" % (
                routine.name,
                len(routine.params),
                len(expr.args),
            )
            tuple_src = "(%s%s)" % (args, "," if expr.args else "")
            return "_badargs(%r, %s)" % (message, tuple_src)
        return "f_%s(%s)" % (_mangle(expr.name), args)

    def load(self, name: str) -> str:
        if name in self.params:
            return "l_" + _mangle(name)
        if name == self.routine.name:
            return "_retval"
        if name in self.register_masks:
            return "r_" + _mangle(name)
        return self._sem("reference to undeclared register %r" % name)

    # -- statements ------------------------------------------------------

    def block(self, stmts: Sequence[ast.Stmt], in_repeat: bool) -> None:
        if not stmts:
            self.w.emit("pass")
            return
        for stmt in stmts:
            self.stmt(stmt, in_repeat)

    def stmt(self, stmt: ast.Stmt, in_repeat: bool) -> None:
        self.tick()
        if isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.If):
            self.w.emit("if (%s) != 0:" % self.expr(stmt.cond))
            self.w.indent += 1
            self.block(stmt.then, in_repeat)
            self.w.indent -= 1
            if stmt.els:
                self.w.emit("else:")
                self.w.indent += 1
                self.block(stmt.els, in_repeat)
                self.w.indent -= 1
        elif isinstance(stmt, ast.Repeat):
            # The try/except mirrors the interpreter's cross-routine
            # control flow: an exit_when outside any lexical repeat
            # raises _LoopExit, which must exit the innermost repeat of
            # the *calling* routine.
            self.w.emit("try:")
            self.w.indent += 1
            self.w.emit("while True:")
            self.w.indent += 1
            self.tick()  # the interpreter ticks once per iteration
            self.block(stmt.body, in_repeat=True)
            self.w.indent -= 2
            self.w.emit("except _LoopExit:")
            self.w.indent += 1
            self.w.emit("pass")
            self.w.indent -= 1
        elif isinstance(stmt, ast.ExitWhen):
            self.w.emit("if (%s) != 0:" % self.expr(stmt.cond))
            self.w.indent += 1
            if in_repeat:
                self.w.emit("break")
            else:
                self.w.emit("raise _LoopExit()")
            self.w.indent -= 1
        elif isinstance(stmt, ast.Input):
            for name in stmt.names:
                self.store(name, "_inputs.get(%r, 0)" % name)
        elif isinstance(stmt, ast.Output):
            for expr in stmt.exprs:
                self.w.emit("_outputs.append(%s)" % self.expr(expr))
        elif isinstance(stmt, ast.Assert):
            self.w.emit("if (%s) == 0:" % self.expr(stmt.cond))
            self.w.indent += 1
            self.w.emit("_assertfail()")
            self.w.indent -= 1
        else:
            self.w.emit(self._sem("cannot execute %s" % type(stmt).__name__))

    def assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.MemRead):
            # Interpreter order: value first, then address.
            self.w.emit("_v = %s" % self.expr(stmt.expr))
            self.w.emit("_a = %s" % self.expr(stmt.target.addr))
            self.w.emit("if _a < 0:")
            self.w.indent += 1
            self.w.emit("_negwrite(_a)")
            self.w.indent -= 1
            self.w.emit("_cells[_a] = _v & %d" % BYTE_MASK)
            return
        self.store(stmt.target.name, self.expr(stmt.expr))

    def store(self, name: str, value_src: str) -> None:
        # Store resolution order (interpreter's _store): return slot
        # first, then parameters, then registers.
        if name == self.routine.name:
            self.w.emit("_retval = %s" % value_src)
            return
        if name in self.params:
            self.w.emit("l_%s = %s" % (_mangle(name), value_src))
            return
        if name in self.register_masks:
            mask = self.register_masks[name]
            self.assigned_registers.add(name)
            if mask is None:
                self.w.emit("r_%s = %s" % (_mangle(name), value_src))
            else:
                self.w.emit("r_%s = (%s) & %d" % (_mangle(name), value_src, mask))
            return
        # The interpreter evaluates the value (including any routine
        # calls and their ticks) before _store notices the bad name.
        self.w.emit("_v = %s" % value_src)
        self.w.emit(self._sem("assignment to undeclared name %r" % name))


def _emit_routine(
    writer: _Writer,
    routine: ast.RoutineDecl,
    routines: Mapping[str, ast.RoutineDecl],
    register_masks: Mapping[str, Optional[int]],
    description_name: str,
) -> None:
    params = ", ".join("l_" + _mangle(p) for p in routine.params)
    writer.emit("def f_%s(%s):" % (_mangle(routine.name), params))
    writer.indent += 1
    # Lower the body into a scratch writer first so the nonlocal
    # declaration can name exactly the registers this routine assigns.
    body = _Writer()
    body.indent = writer.indent
    body_lowerer = _RoutineLowerer(
        body, routine, routines, register_masks, description_name
    )
    for stmt in routine.body:
        body_lowerer.stmt(stmt, in_repeat=False)
    names = ["_budget"] + sorted(
        "r_" + _mangle(name) for name in body_lowerer.assigned_registers
    )
    writer.emit("nonlocal %s" % ", ".join(names))
    writer.emit("_retval = 0")
    writer.lines.extend(body.lines)
    bits = width_bits(routine.width)
    if bits is None:
        writer.emit("return _retval")
    else:
        writer.emit("return _retval & %d" % ((1 << bits) - 1))
    writer.indent -= 1


def _lower(description: ast.Description) -> CompiledProgram:
    """Generate, compile, and instantiate the runner for a description."""
    routines: Dict[str, ast.RoutineDecl] = {}
    for routine in description.routines():
        if routine.name in routines:
            raise SemanticError("duplicate routine %r" % routine.name)
        routines[routine.name] = routine
    entry = description.entry_routine()

    register_masks: Dict[str, Optional[int]] = {}
    register_order: List[str] = []
    duplicate_register: Optional[str] = None
    for decl in description.registers():
        if decl.name in register_masks and duplicate_register is None:
            duplicate_register = decl.name
            continue
        bits = width_bits(decl.width)
        register_masks[decl.name] = None if bits is None else (1 << bits) - 1
        register_order.append(decl.name)

    w = _Writer()
    # Error helpers live at generated-module level: defined once per
    # *compilation*, not once per trial, so short descriptions do not
    # pay function-creation overhead on every run.
    w.emit("def _steplimit(_max_steps):")
    w.indent += 1
    w.emit(
        "raise StepLimitExceeded(%r %% (_max_steps,))"
        % (description.name + ": exceeded %d steps")
    )
    w.indent -= 1
    w.emit("def _assertfail():")
    w.indent += 1
    w.emit("raise AssertionFailed(%r)" % (description.name + ": assertion failed"))
    w.indent -= 1
    w.emit("def _negread(_addr):")
    w.indent += 1
    w.emit("raise SemanticError('memory read at negative address %d' % (_addr,))")
    w.indent -= 1
    w.emit("def _negwrite(_addr):")
    w.indent += 1
    w.emit("raise SemanticError('memory write at negative address %d' % (_addr,))")
    w.indent -= 1
    w.emit("def _sem(_message):")
    w.indent += 1
    w.emit("raise SemanticError(_message)")
    w.indent -= 1
    w.emit("def _badop(_message, *_args):")
    w.indent += 1
    w.emit("raise ValueError(_message)")
    w.indent -= 1
    w.emit("def _badargs(_message, _args):")
    w.indent += 1
    w.emit("raise SemanticError(_message)")
    w.indent -= 1
    # The runner takes the bare cells dict, not a Memory object: one
    # attribute hop and one wrapper allocation per trial add up on the
    # verification hot path.
    w.emit("def __run__(_inputs, _cells, _max_steps):")
    w.indent += 1
    if duplicate_register is not None:
        # The interpreter only notices a duplicate declaration when
        # run() builds the RegisterFile, so the compiled runner must
        # also fail at run time, not at compile time.
        w.emit(
            "raise SemanticError(%r)"
            % ("duplicate register declaration %r" % duplicate_register)
        )
        w.indent -= 1
    else:
        w.emit("_budget = _max_steps")
        w.emit("_outputs = []")
        for name in register_order:
            w.emit("r_%s = 0" % _mangle(name))
        for routine in routines.values():
            _emit_routine(w, routine, routines, register_masks, description.name)
        if entry.params:
            w.emit(
                "_sem(%r)"
                % (
                    "routine %r expects %d arguments, got 0"
                    % (entry.name, len(entry.params))
                )
            )
        w.emit("f_%s()" % _mangle(entry.name))
        registers_src = ", ".join(
            "%r: r_%s" % (name, _mangle(name)) for name in register_order
        )
        w.emit("return _outputs, {%s}, _budget" % registers_src)
        w.indent -= 1

    source = w.source()
    code = compile(source, "<isdl:%s>" % description.name, "exec")
    namespace = {
        "SemanticError": SemanticError,
        "StepLimitExceeded": StepLimitExceeded,
        "AssertionFailed": AssertionFailed,
        "_LoopExit": _LoopExit,
    }
    exec(code, namespace)  # noqa: S102 - our own generated source
    return CompiledProgram(
        description_name=description.name,
        source=source,
        fn=namespace["__run__"],
    )


# ---------------------------------------------------------------------------
# content-keyed compile cache


#: Identity layer over :func:`format_description` for cache keys:
#: ``id(description) -> (weakref, text)``.  Descriptions are frozen
#: dataclasses, so the pretty-printed text of one *object* never
#: changes; re-deriving it on every content-key lookup was the
#: dominant cost of a warm compile-cache hit.  The weak reference
#: guards against id reuse and evicts entries as ASTs are collected.
_TEXT_MEMO: Dict[int, Tuple["weakref.ref", str]] = {}


def description_text(description: ast.Description) -> str:
    """``format_description`` memoized per description object."""
    key = id(description)
    cached = _TEXT_MEMO.get(key)
    if cached is not None and cached[0]() is description:
        return cached[1]
    text = format_description(description)
    try:
        ref = weakref.ref(
            description, lambda _ref, _key=key: _TEXT_MEMO.pop(_key, None)
        )
    except TypeError:
        return text
    _TEXT_MEMO[key] = (ref, text)
    return text


class _CompileMemo:
    """Content-keyed memo from descriptions to compiled programs.

    Keys are SHA-256 digests of the pretty-printed description (the
    same scheme as the parse memos in :mod:`repro.isdl.cache`, under
    the ``compiled`` namespace), so structurally identical descriptions
    share one compilation across sessions, and forked batch workers
    inherit a warm cache from the parent process.
    """

    def __init__(self) -> None:
        self._entries: Dict[bytes, CompiledProgram] = {}
        self._lock = fork_safe_lock(self)
        self.stats = CacheStats()

    def get(self, description: ast.Description) -> CompiledProgram:
        key = TextMemo.key_for("compiled", description_text(description))
        with self._lock:
            try:
                program = self._entries[key]
            except KeyError:
                pass
            else:
                self.stats.hits += 1
                obs.inc("repro_compile_cache_hits_total")
                return program
        obs.inc("repro_compile_cache_misses_total")
        with obs.span("compile"):
            program = _lower(description)
        with self._lock:
            self.stats.misses += 1
            return self._entries.setdefault(key, program)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


_memo = _CompileMemo()


def compile_description(description: ast.Description) -> CompiledProgram:
    """The (cached) compiled program for ``description``."""
    return _memo.get(description)


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counts for the compile cache."""
    return {
        "hits": _memo.stats.hits,
        "misses": _memo.stats.misses,
        "entries": len(_memo),
    }


def clear_compile_cache() -> None:
    """Drop every cached compilation (used by tests and benchmarks)."""
    _memo.clear()


# ---------------------------------------------------------------------------
# execution wrapper


class CompiledDescription:
    """Executes one ISDL description through its generated Python code.

    Drop-in replacement for :class:`~repro.semantics.interpreter.Interpreter`:
    same constructor shape, same :meth:`run` contract, same exceptions,
    same :class:`ExecutionResult` — including the exact ``steps`` count.
    """

    def __init__(self, description: ast.Description, max_steps: int = DEFAULT_MAX_STEPS):
        self._description = description
        self._max_steps = max_steps
        self._program = compile_description(description)

    @property
    def description(self) -> ast.Description:
        return self._description

    @property
    def source(self) -> str:
        """The generated Python source (for debugging and tests)."""
        return self._program.source

    def run(
        self,
        inputs: Mapping[str, int],
        memory: Optional[Mapping[int, int]] = None,
    ) -> ExecutionResult:
        cells = dict(memory) if memory else {}
        outputs, registers, budget = self._program.fn(
            inputs, cells, self._max_steps
        )
        return ExecutionResult(
            outputs=tuple(outputs),
            # Same contract as Memory.snapshot(): nonzero cells only.
            memory={addr: value for addr, value in cells.items() if value},
            registers=registers,
            steps=self._max_steps - budget,
        )


def run_compiled(
    description: ast.Description,
    inputs: Mapping[str, int],
    memory: Optional[Mapping[int, int]] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`CompiledDescription`."""
    return CompiledDescription(description, max_steps=max_steps).run(inputs, memory)
