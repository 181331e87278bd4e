"""Lane semantics of the vectorized engine.

The batch kernel advances every lane through the same instruction
stream under a mask; these tests pin the mask behaviour down where it
is easiest to get wrong: one lane exiting while others keep running,
every lane running a different iteration count, the step budget
expiring in only *some* lanes, and the degenerate one-lane batch.
"""

import pytest

from repro.isdl import parse_description
from repro.semantics import (
    Interpreter,
    StepLimitExceeded,
    VectorizedDescription,
)

COUNTER = parse_description(
    """
    t.op := begin
        ** S **
            n<15:0>, acc<15:0>
        ** P **
            t.execute() := begin
                input (n, acc);
                repeat
                    exit_when (n = 0);
                    n <- n - 1;
                    acc <- acc + 3;
                end_repeat;
                output (acc);
            end
    end
    """
)

SCANNER = parse_description(
    """
    t.op := begin
        ** S **
            p<15:0>, c<7:0>, n<15:0>
        ** P **
            t.execute() := begin
                input (p, c, n);
                repeat
                    exit_when (n = 0);
                    exit_when (Mb[ p ] = c);
                    p <- p + 1;
                    n <- n - 1;
                end_repeat;
                output (p, n);
            end
    end
    """
)


def scalar_reference(description, lanes, memory=None, max_steps=200_000):
    """Per-lane outcomes via the scalar interpreter, batch-shaped."""
    interp = Interpreter(description, max_steps=max_steps)
    outcomes = []
    for inputs in lanes:
        try:
            result = interp.run(dict(inputs), dict(memory or {}))
            outcomes.append(
                ("result", result.outputs, result.memory, result.steps)
            )
        except StepLimitExceeded as e:
            outcomes.append(("raise", type(e).__name__, str(e)))
    return outcomes


def batch_outcomes(result):
    outcomes = []
    for lane in range(result.n):
        outcome = result.lane_outcome(lane)
        if outcome[0] == "result":
            r = outcome[1]
            outcomes.append(("result", r.outputs, r.memory, r.steps))
        else:
            outcomes.append(("raise", outcome[1], outcome[2]))
    return outcomes


class TestExitMasks:
    def test_exit_fires_in_lane_zero_only(self):
        """Lane 0 exits on entry; the other lanes must keep running."""
        engine = VectorizedDescription(SCANNER)
        memory = {30: 7}
        # Lane 0: n = 0 -> immediate counter exit.  Lanes 1-3 scan
        # toward the sentinel at address 30 from different distances.
        lanes = [
            {"p": 10, "c": 7, "n": 0},
            {"p": 28, "c": 7, "n": 9},
            {"p": 25, "c": 7, "n": 9},
            {"p": 10, "c": 7, "n": 3},
        ]
        result = engine.run_batch(
            {
                "p": [lane["p"] for lane in lanes],
                "c": [lane["c"] for lane in lanes],
                "n": [lane["n"] for lane in lanes],
            },
            memory,
            n=4,
        )
        got = batch_outcomes(result)
        assert got == scalar_reference(SCANNER, lanes, memory)
        # Lane 0 really did stop where it started.
        assert got[0][1] == (10, 0)
        # Lanes 1 and 2 found the sentinel at different offsets ...
        assert got[1][1] == (30, 7)
        assert got[2][1] == (30, 4)
        # ... and lane 3 ran out of budget before reaching it.
        assert got[3][1] == (13, 0)

    def test_every_lane_runs_a_different_iteration_count(self):
        engine = VectorizedDescription(COUNTER)
        counts = list(range(8))
        result = engine.run_batch(
            {"n": counts, "acc": [100] * len(counts)}, {}, n=len(counts)
        )
        got = batch_outcomes(result)
        lanes = [{"n": n, "acc": 100} for n in counts]
        assert got == scalar_reference(COUNTER, lanes)
        # Distinct loop trip counts produce distinct step counts.
        steps = [outcome[3] for outcome in got]
        assert len(set(steps)) == len(counts)
        assert [outcome[1] for outcome in got] == [
            (100 + 3 * n,) for n in counts
        ]


class TestStepLimit:
    def test_budget_expires_in_a_strict_subset_of_lanes(self):
        """Some lanes finish, some hit the limit — never all-or-nothing."""
        max_steps = 60
        engine = VectorizedDescription(COUNTER, max_steps=max_steps)
        counts = [0, 3, 200, 5, 400]
        lanes = [{"n": n, "acc": 0} for n in counts]
        result = engine.run_batch(
            {"n": counts, "acc": [0] * len(counts)}, {}, n=len(counts)
        )
        got = batch_outcomes(result)
        assert got == scalar_reference(
            COUNTER, lanes, max_steps=max_steps
        )
        kinds = [outcome[0] for outcome in got]
        assert kinds.count("raise") == 2
        assert kinds.count("result") == 3
        # The raising lanes carry the scalar engine's exact message.
        scalar = Interpreter(COUNTER, max_steps=max_steps)
        with pytest.raises(StepLimitExceeded) as excinfo:
            scalar.run({"n": 200, "acc": 0}, {})
        assert got[2] == ("raise", "StepLimitExceeded", str(excinfo.value))

    def test_raising_lane_does_not_poison_neighbours(self):
        """A lane that dies mid-loop leaves other lanes' state intact."""
        engine = VectorizedDescription(COUNTER, max_steps=40)
        result = engine.run_batch({"n": [1000, 2], "acc": [0, 50]}, {}, n=2)
        assert result.errors[0] is not None
        assert result.errors[1] is None
        assert result.lane_result(1).outputs == (56,)


class TestDegenerateBatch:
    def test_single_lane_batch_equals_scalar_run(self):
        engine = VectorizedDescription(SCANNER)
        memory = {12: 9, 14: 3}
        inputs = {"p": 10, "c": 3, "n": 8}
        result = engine.run_batch(
            {name: [value] for name, value in inputs.items()}, memory, n=1
        )
        assert result.n == 1
        scalar = Interpreter(SCANNER).run(dict(inputs), dict(memory))
        lane = result.lane_result(0)
        assert lane.outputs == scalar.outputs
        assert lane.memory == scalar.memory
        assert lane.registers == scalar.registers
        assert lane.steps == scalar.steps


# ---------------------------------------------------------------------------
# closed-form (fused) loops

#: Rigel ``index`` after ``absorb_index_into_base(var="Src.Index",
#: base="Src.Base")``: ``read()`` advances ``Src.Base`` inside the
#: condition of the exit that finds the character.
ABSORBED_INDEX = parse_description(
    """
    index.operation := begin
        ** SOURCE.ACCESS **
            Src.Base: integer,
            Src.Index: integer,
            Src.Length: integer,
            read(): integer := begin
                read <- Mb[ Src.Base ];
                Src.Index <- Src.Index + 1;
                Src.Base <- Src.Base + 1;
            end
        ** STATE **
            ch: character,
            zz_saved: integer
        ** STRING.PROCESS **
            index.execute() := begin
                input (Src.Base, Src.Length, ch);
                Src.Index <- 0;
                zz_saved <- Src.Base;
                repeat
                    exit_when (Src.Length = 0);
                    exit_when (ch = read());
                    Src.Length <- Src.Length - 1;
                end_repeat;
                if Src.Length = 0
                then
                    output (0);
                else
                    output (Src.Base - zz_saved);
                end_if;
            end
    end
    """
)

#: One scanning loop per exit shape: ``read()`` is the access routine
#: body, then the exits (and the flag assignment) of the loop.
_SCAN_LOOP = """
t.op := begin
    ** S **
        p<15:0>, c<7:0>, n<15:0>, f<7:0>,
        read(): integer := begin
            %s
        end
    ** P **
        t.execute() := begin
            input (p, c, n);
            repeat
                %s
                n <- n - 1;
            end_repeat;
            output (p, n);
        end
end
"""

_POST = "read <- Mb[ p ]; p <- p + 1;"
FUSED_SHAPES = {
    "counter-then-call": (_POST, "exit_when (n = 0); exit_when (c = read());"),
    "call-then-counter": (_POST, "exit_when (c = read()); exit_when (n = 0);"),
    "increment-before-load": (
        "p <- p + 1; read <- Mb[ p ];",
        "exit_when (n = 0); exit_when (c = read());",
    ),
    "decrement": (
        "read <- Mb[ p ]; p <- p - 1;",
        "exit_when (n = 0); exit_when (c = read());",
    ),
    "not-equal": (_POST, "exit_when (n = 0); exit_when (read() <> c);"),
    "flag": (_POST, "exit_when (n = 0); f <- (c = read()); exit_when (f);"),
}


@pytest.fixture
def fused_runs(monkeypatch):
    """Counts fused-plan runs that finished without bailing out."""
    pytest.importorskip("numpy")
    from repro.semantics import vectorized_fuse

    runs = []
    real = vectorized_fuse.FusedPlan.run

    def run(self, *args):
        real(self, *args)
        runs.append(self)

    monkeypatch.setattr(vectorized_fuse.FusedPlan, "run", run)
    return runs


class TestFusedLoops:
    def test_increment_in_the_firing_exit_condition_is_counted(
        self, fused_runs
    ):
        # The character sits at offset 3, so read() runs four times and
        # the fourth run, inside the exit that fires, advances the base.
        inputs = {"Src.Base": 16, "Src.Length": 5, "ch": 31}
        memory = {16: 186, 17: 118, 18: 51, 19: 31, 20: 60}
        got = VectorizedDescription(ABSORBED_INDEX).run(inputs, memory)
        assert fused_runs, "the loop must take the closed form"
        want = Interpreter(ABSORBED_INDEX).run(dict(inputs), dict(memory))
        assert want.outputs == (4,)
        assert got.outputs == want.outputs
        assert got.registers == want.registers
        assert got.steps == want.steps

    @pytest.mark.parametrize("shape", sorted(FUSED_SHAPES))
    def test_every_exit_shape_matches_the_interpreter(
        self, shape, fused_runs
    ):
        description = parse_description(_SCAN_LOOP % FUSED_SHAPES[shape])
        memory = {100 + i: (7 * i) % 11 for i in range(24)}
        lanes = [(100 + i % 5, i % 11, i % 13) for i in range(40)]
        result = VectorizedDescription(description).run_batch(
            {
                "p": [p for p, _, _ in lanes],
                "c": [c for _, c, _ in lanes],
                "n": [n for _, _, n in lanes],
            },
            memory,
        )
        assert fused_runs, "the loop must take the closed form"
        assert batch_outcomes(result) == scalar_reference(
            description,
            [{"p": p, "c": c, "n": n} for p, c, n in lanes],
            memory,
        )


# ---------------------------------------------------------------------------
# differential gate on a planted vector-lowering bug

SUB_ONE = parse_description(
    """
    t.op := begin
        ** S **
            x<7:0>
        ** P **
            t.execute() := begin
                input (x);
                x <- x - 1;
                output (x);
            end
    end
    """
)


@pytest.fixture
def planted_vector_bug(monkeypatch):
    """Lower vector ``-`` as ``+`` — a deliberate lowering bug.

    The vector code cache is cleared on both sides of the plant so no
    correct kernel survives into the broken world and no broken kernel
    leaks out of it.
    """
    from repro.semantics import vectorized
    from repro.semantics.vectorized import clear_vector_cache

    clear_vector_cache()
    monkeypatch.setitem(
        vectorized._VECTOR_BINOPS, "-", vectorized._VECTOR_BINOPS["+"]
    )
    yield
    clear_vector_cache()


class TestVectorizedGate:
    def test_gate_fires_on_scalar_run(self, planted_vector_bug):
        from repro.semantics.engine import (
            EngineMismatchError,
            ExecutionEngine,
        )

        executor = ExecutionEngine(name="vectorized").executor(SUB_ONE)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run({"x": 5})
        assert "vectorized engine disagrees with" in str(excinfo.value)
        assert "t.op" in str(excinfo.value)

    def test_gate_fires_on_batch_run(self, planted_vector_bug):
        from repro.semantics.engine import (
            EngineMismatchError,
            ExecutionEngine,
        )

        executor = ExecutionEngine(name="vectorized").executor(SUB_ONE)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run_batch({"x": [5, 9, 13]}, {}, n=3)
        assert "vectorized engine disagrees with" in str(excinfo.value)

    def test_gate_off_lets_the_bug_through(self, planted_vector_bug):
        from repro.semantics.engine import ExecutionEngine

        executor = ExecutionEngine(name="vectorized", gate="off").executor(
            SUB_ONE
        )
        assert executor.run({"x": 5}).outputs == (6,)

    def test_scalar_engines_are_immune(self, planted_vector_bug):
        from repro.semantics.engine import ExecutionEngine

        for name in ("interp", "compiled"):
            executor = ExecutionEngine(name=name).executor(SUB_ONE)
            assert executor.run({"x": 5}).outputs == (4,)
