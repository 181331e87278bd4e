"""ISDL-to-Python compiler tests: parity, caching, and the gate.

The compiled engine is only trustworthy because (a) it reproduces the
interpreter's observable behaviour *exactly* — results, step counts,
and every error message — and (b) the differential gate catches it if
it ever stops doing so.  The planted-miscompile tests prove (b) is not
vacuous: they break the lowering on purpose and watch the gate fire.
"""

import pytest

from repro.isdl import parse_description
from repro.isdl.errors import SemanticError
from repro.semantics import (
    AssertionFailed,
    CompiledDescription,
    ExecutionEngine,
    Interpreter,
    StepLimitExceeded,
    clear_compile_cache,
    compile_cache_stats,
    compile_description,
)
from repro.semantics import compiler, derive_seed
from repro.semantics.engine import EngineMismatchError


def make(body, regs="x<7:0>, y<15:0>", sections=""):
    return parse_description(
        f"""
        t.op := begin
            ** S **
                {regs}
            {sections}
            ** P **
                t.execute() := begin
                    {body}
                end
        end
        """
    )


def both(description, inputs, memory=None, max_steps=200_000):
    """Run both engines, returning comparable observations."""

    def observe(executor):
        try:
            result = executor.run(inputs, dict(memory) if memory else None)
            return (
                "ok",
                result.outputs,
                result.memory,
                result.registers,
                result.steps,
            )
        except (StepLimitExceeded, AssertionFailed, SemanticError, ValueError) as e:
            return ("raise", type(e).__name__, str(e))

    return (
        observe(Interpreter(description, max_steps=max_steps)),
        observe(CompiledDescription(description, max_steps=max_steps)),
    )


def assert_parity(description, inputs, memory=None, max_steps=200_000):
    interp, compiled = both(description, inputs, memory, max_steps)
    assert compiled == interp


class TestParity:
    """Compiled results match the interpreter field for field."""

    def test_arithmetic_and_widths(self):
        desc = make("input (x, y); x <- x + 250; y <- y * 3; output (x, y);")
        assert_parity(desc, {"x": 200, "y": 40000})

    def test_integer_variables_never_truncate(self):
        desc = make("input (n); n <- n * n; output (n);", regs="n: integer")
        assert_parity(desc, {"n": 10**6})

    def test_memory_roundtrip_and_byte_masking(self):
        desc = make("input (y); Mb[ y ] <- 300; output (Mb[ y ]);")
        assert_parity(desc, {"y": 5}, {5: 9, 6: 200})

    def test_negative_memory_read_message(self):
        desc = make("input (n); output (Mb[ n - 5 ]);", regs="n: integer")
        assert_parity(desc, {"n": 1})

    def test_negative_memory_write_message(self):
        desc = make("input (n); Mb[ n - 5 ] <- 1;", regs="n: integer")
        assert_parity(desc, {"n": 1})

    def test_repeat_exit_when_and_steps(self):
        desc = make(
            "input (x); repeat exit_when (x = 0); x <- x - 1; end_repeat;"
            " output (x);"
        )
        assert_parity(desc, {"x": 9})

    def test_nested_repeats(self):
        desc = make(
            """
            input (x, y);
            repeat
                exit_when (x = 0);
                y <- x;
                repeat
                    exit_when (y = 0);
                    y <- y - 1;
                    Mb[ y ] <- x;
                end_repeat;
                x <- x - 1;
            end_repeat;
            output (x, y);
            """
        )
        assert_parity(desc, {"x": 5, "y": 0})

    def test_step_limit_message_and_threshold(self):
        looping = make("input (x); repeat x <- x + 1; end_repeat;")
        interp, compiled = both(looping, {"x": 0}, max_steps=50)
        assert compiled == interp
        assert compiled[0] == "raise"
        assert compiled[1] == "StepLimitExceeded"
        assert "exceeded 50 steps" in compiled[2]
        # One step under the budget still succeeds identically.
        bounded = make(
            "input (x); repeat exit_when (x = 3); x <- x + 1; end_repeat;"
            " output (x);"
        )
        assert_parity(bounded, {"x": 0}, max_steps=50)

    def test_assertion_message(self):
        desc = make("input (x); assert (x > 10); output (x);")
        interp, compiled = both(desc, {"x": 3})
        assert compiled == interp
        assert compiled[1] == "AssertionFailed"

    def test_and_or_do_not_short_circuit(self):
        # Both operands evaluate even when the left decides: the memory
        # read on the right must still be able to raise.
        desc = make(
            "input (n); output ((1 = 1) or (Mb[ n - 9 ] = 0));",
            regs="n: integer",
        )
        assert_parity(desc, {"n": 2})

    def test_undeclared_reference(self):
        desc = make("input (x); output (zz);")
        assert_parity(desc, {"x": 1})

    def test_undeclared_store_still_evaluates_value(self):
        # The interpreter evaluates the right-hand side (ticking the
        # step budget through the routine call) before the store
        # raises, so a compiled run must do the same.
        desc = make(
            "input (x); zz <- bump();",
            sections="""
            ** R **
                bump() := begin
                    x <- x + 1;
                    bump <- x;
                end
            """,
        )
        assert_parity(desc, {"x": 1})

    def test_call_by_value_and_return_width(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** R **
                    twice(k)<3:0> := begin
                        k <- k + k;
                        twice <- k;
                    end
                ** P **
                    t.execute() := begin
                        input (n);
                        output (twice(n), n);
                    end
            end
            """
        )
        assert_parity(desc, {"n": 9})

    def test_exit_when_propagates_across_call(self):
        # exit_when inside a called routine exits the caller's repeat —
        # the interpreter's cross-routine loop-exit signal.
        desc = make(
            """
            input (x);
            repeat
                x <- step();
            end_repeat;
            output (x);
            """,
            sections="""
            ** R **
                step() := begin
                    exit_when (x = 3);
                    x <- x + 1;
                    step <- x;
                end
            """,
        )
        assert_parity(desc, {"x": 0})

    def test_wrong_arity_after_argument_evaluation(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** R **
                    f(a): integer := begin f <- a; end
                ** P **
                    t.execute() := begin
                        input (n);
                        output (f());
                    end
            end
            """
        )
        assert_parity(desc, {"n": 1})

    def test_entry_with_params_rejected(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** P **
                    t.execute(k) := begin
                        input (n);
                        n <- k;
                    end
            end
            """
        )
        assert_parity(desc, {"n": 1})

    def test_duplicate_register_raises_at_run_time(self):
        desc = make("input (x); output (x);", regs="x<7:0>, x<7:0>")
        # Construction succeeds for both engines; only run() raises.
        compiled = CompiledDescription(desc)
        with pytest.raises(SemanticError, match="duplicate register"):
            compiled.run({"x": 1})
        assert_parity(desc, {"x": 1})

    def test_duplicate_routine_rejected(self):
        desc = make(
            "input (x); output (f());",
            sections="""
            ** R **
                f() := begin f <- 1; end
                f() := begin f <- 2; end
            """,
        )
        with pytest.raises(SemanticError, match="duplicate routine"):
            CompiledDescription(desc)


class TestGeneratedSource:
    def test_source_is_inspectable(self):
        desc = make("input (x); repeat exit_when (x = 0); x <- x - 1; end_repeat;")
        source = CompiledDescription(desc).source
        assert "def __run__" in source
        assert "while True:" in source
        assert "break" in source

    def test_register_stores_mask_inline(self):
        desc = make("input (x); x <- x + 1; output (x);")
        assert "& 255" in CompiledDescription(desc).source


class TestCompileCache:
    def test_structurally_identical_descriptions_share(self):
        clear_compile_cache()
        first = make("input (x); output (x);")
        second = make("input (x); output (x);")
        compile_description(first)
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        compile_description(second)
        stats = compile_cache_stats()
        assert stats == {"hits": 1, "misses": 1, "entries": 1}
        clear_compile_cache()
        assert compile_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


@pytest.fixture
def planted_miscompile(monkeypatch):
    """Lower ``-`` as ``+`` — a deliberate codegen bug.

    The compile cache is cleared on both sides of the plant so no
    correct program survives into the broken world and no broken
    program leaks out of it.
    """
    clear_compile_cache()
    monkeypatch.setitem(
        compiler._BINOP_TEMPLATES, "-", compiler._BINOP_TEMPLATES["+"]
    )
    yield
    clear_compile_cache()


class TestDifferentialGate:
    # Both tests pin the compiled engine: the plant breaks the compiled
    # lowering, which the vectorized default never runs ungated.
    def test_gate_fires_on_planted_miscompile(self, planted_miscompile):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine("compiled").executor(desc)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run({"x": 5})
        assert "t.op" in str(excinfo.value)

    def test_gate_off_lets_the_miscompile_through(self, planted_miscompile):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine("compiled", gate="off").executor(desc)
        assert executor.run({"x": 5}).outputs == (6,)

    def test_verify_binding_raises_before_any_verdict(self, planted_miscompile):
        # End to end: a verification run on a real analysis must refuse
        # to return a report when the engines disagree.
        from repro.analyses import scasb_rigel
        from repro.analysis import verify_binding

        outcome = scasb_rigel.run(verify=False)
        assert outcome.succeeded
        with pytest.raises(EngineMismatchError):
            verify_binding(
                outcome.binding,
                scasb_rigel.SCENARIO,
                trials=20,
                engine="compiled",
                gate="always",
            )

    def test_interp_engine_is_immune(self, planted_miscompile):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine(name="interp").executor(desc)
        assert executor.run({"x": 5}).outputs == (4,)


class TestSampledGate:
    """The sampled gate checks a fixed, seeded subset of trials."""

    def test_checked_trials_follow_derive_seed(self):
        # The executor hashes the ("gate", name) prefix once per
        # executor; the selection must still be derive_seed's, trial
        # for trial.
        engine = ExecutionEngine(gate="sampled", gate_seed=77, gate_period=16)
        executor = engine.executor(make("input (x); output (x);"))
        for index in range(20000):
            draw = derive_seed(77, "gate", "t.op", index)
            assert executor._gate_draws.at(index) == draw, index
            expected = index == 0 or draw % 16 == 0
            assert executor._checked(index) == expected, index

    def test_memoized_lanes_equal_the_per_trial_rule(self):
        # _checked stays the definition; the per-(base, n) memo used by
        # run_batch must select exactly the lanes it selects.
        import random

        rng = random.Random(1982)
        description = make("input (x); output (x);")
        for gate_seed, period in ((1982, 16), (77, 5), (3, 1)):
            executor = ExecutionEngine(
                "vectorized",
                gate="sampled",
                gate_seed=gate_seed,
                gate_period=period,
            ).executor(description)
            windows = [(0, 0), (0, 1), (0, 64), (0, 300)] + [
                (rng.randrange(0, 5000), rng.randrange(0, 200))
                for _ in range(40)
            ]
            for base, n in windows:
                want = [i for i in range(n) if executor._checked(base + i)]
                assert list(executor._checked_lanes(base, n)) == want
                # A second ask is served by the memo, unchanged.
                assert list(executor._checked_lanes(base, n)) == want

    def test_always_gate_checks_every_lane(self):
        executor = ExecutionEngine("vectorized", gate="always").executor(
            make("input (x); output (x);")
        )
        assert list(executor._checked_lanes(37, 10)) == list(range(10))

    @pytest.mark.parametrize(
        "engine", ["compiled", "vectorized", "interp", "default"]
    )
    def test_full_catalog_check_count_is_pinned(self, engine):
        # 297 checks at 120 trials, seed 1982: the count before the
        # per-executor seed stream existed.  Which trials are checked
        # is part of the contract; a cheaper draw or lane selection
        # must not move it.  The interpreter is the reference and runs
        # ungated.
        from repro import api, obs
        from repro.api import RunConfig

        config = RunConfig(trials=120, seed=1982)
        if engine != "default":
            config = config.replace(engine=engine)
        result = api.batch(None, config, metrics=True)
        assert result.ok
        checks = obs.counter_value(
            result.metrics, "repro_engine_gate_checks_total"
        )
        assert checks == (0 if engine == "interp" else 297)
