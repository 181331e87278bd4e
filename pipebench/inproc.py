"""In-process workloads: catalog-cold, verify-deep and codegen-corpus.

Each drives the program only through its public entry points
(``repro.api.batch`` with a ``RunConfig``; ``repro.codegen.target_for``
with ``Target.compile``/``Target.simulate``) and checks every output
against :mod:`reference`.  No call pins an engine: every verdict runs on
what ``RunConfig()`` resolves to.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from plan import CATALOG
from reference import check_program, check_verdict
from spans import COUNTERS, clock, counter_total

#: trials of the untimed warm-up round, and its verification seed.
WARM_TRIALS = 120
WARM_SEED = 7

#: the exotic instructions of each machine (paper Table 2 and §6).
EXOTIC_MNEMONICS = {
    "i8086": {"rep_movsb", "repne_scasb", "repe_cmpsb", "rep_stosb"},
    "vax11": {"movc3", "movc5", "locc", "cmpc3"},
    "ibm370": {"mvc", "clc", "tr"},
    "b4800": {"srl"},
}


class VerdictWorkload:
    """One op: ``api.batch([name], RunConfig(trials=..., seed=s))``, no store."""

    def __init__(self, trials: int, table: Dict[str, dict]) -> None:
        self.trials = trials
        self.table = table
        self.counts: Dict[str, int] = {}
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(COUNTERS, 0)

    def setup(self) -> List[str]:
        """Import the API and run one untimed warm-up round."""
        from repro import api
        from repro.api import RunConfig

        self._api, self._config = api, RunConfig
        problems: List[str] = []
        for name in CATALOG:
            problems += self._check(name, WARM_TRIALS, self._run(name, WARM_TRIALS, WARM_SEED))
        return problems

    def _run(self, name: str, trials: int, seed: int, metrics: bool = False):
        return self._api.batch(
            [name], self._config(trials=trials, seed=seed), metrics=metrics
        )

    def _check(self, name: str, trials: int, result) -> List[str]:
        if len(result.results) != 1 or result.results[0].name != name:
            return ["%s: batch returned %r" % (name, [r.name for r in result.results])]
        entry = result.results[0]
        return check_verdict(
            self.table[name],
            trials,
            {
                "ok": entry.ok,
                "error": entry.error,
                "failure": entry.failure,
                "verified_trials": entry.verified_trials,
                "succeeded": entry.succeeded,
                "steps": entry.steps,
            },
        )

    def op(self, args, count: bool) -> Tuple[float, List[str]]:
        name, seed = args
        start = clock()
        result = self._run(name, self.trials, seed, metrics=count)
        latency = clock() - start
        if count and result.metrics is not None:
            for counter in COUNTERS:
                self.counts[counter] += counter_total(result.metrics, counter)
        return latency, self._check(name, self.trials, result)


class CodegenWorkload:
    """One op: ``Target.compile`` + ``Target.simulate`` + an output check."""

    def __init__(self, programs: List[dict]) -> None:
        self.specs = programs
        self.counts: Dict[str, int] = {}
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(
            ("asm_instructions", "instructions_executed", "sim_cycles",
             "exotic_asked", "exotic_emitted"),
            0,
        )

    def setup(self) -> List[str]:
        """Build the four back ends, lower the corpus, run one untimed pass."""
        from repro.codegen import ir, target_for

        targets = {
            machine: target_for(machine, with_extensions=(machine == "vax11"))
            for machine in EXOTIC_MNEMONICS
        }
        address = lambda name: ir.Param(name, 0, 0x7FFF)  # noqa: E731
        builders = {
            "string.move": lambda n: ir.StringMove(dst=address("d"), src=address("s"), length=n),
            "block.copy": lambda n: ir.BlockCopy(dst=address("d"), src=address("s"), length=n),
            "block.clear": lambda n: ir.BlockClear(dst=address("d"), length=n),
            "string.index": lambda n: ir.StringIndex(
                result="r", base=address("s"), length=n, char=ir.Param("c", 0, 255)
            ),
            "string.equal": lambda n: ir.StringEqual(
                result="r", a=address("a"), b=address("b"), length=n
            ),
            "string.translate": lambda n: ir.StringTranslate(
                base=address("s"), table=address("t"), length=n
            ),
            "list.search": lambda n: ir.ListSearch(
                result="r",
                head=ir.Param("h", 0, 254),
                key=ir.Param("k", 0, 255),
                key_offset=ir.Const(1),
                link_offset=ir.Const(0),
            ),
        }
        self.programs = [
            (
                targets[spec["machine"]],
                (builders[spec["op"]](ir.Const(spec["length"])),),
                dict(spec["memory"]),
                spec,
            )
            for spec in self.specs
        ]
        problems: List[str] = []
        for index in range(len(self.programs)):
            problems += self.op(index, False)[1]
        self.reset_counts()
        return problems

    def op(self, index: int, count: bool) -> Tuple[float, List[str]]:
        """Compile, simulate and check one program; its counts are
        outputs of the run, so they are kept whatever ``count`` says."""
        target, program, memory, spec = self.programs[index]
        start = clock()
        asm = target.compile(program, use_exotic=spec["exotic"])
        result = target.simulate(asm, spec["params"], memory)
        problems = check_program(spec, result.memory.read_bytes, result.results)
        latency = clock() - start
        counts = self.counts
        mnemonics = [instr.mnemonic for instr in asm.instructions()]
        counts["asm_instructions"] += len(mnemonics)
        counts["instructions_executed"] += result.instructions_executed
        counts["sim_cycles"] += result.cycles
        if spec["exotic"]:
            counts["exotic_asked"] += 1
            if EXOTIC_MNEMONICS[spec["machine"]].intersection(mnemonics):
                counts["exotic_emitted"] += 1
        return latency, problems
