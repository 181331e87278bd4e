"""Seeded plans: everything a run feeds the program, made from ``--seed``.

A plan is plain data (lists, ints, strings).  The same seed gives a
byte-identical plan, which :func:`digest` fingerprints; the program
under test only ever sees the inputs a plan lists.  Plans are sized for
the longest run the benchmark allows, and a run consumes a prefix.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

from reference import (
    load_table,
    ref_clear,
    ref_equal,
    ref_index,
    ref_list_search,
    ref_move,
    ref_translate,
)

#: catalog entry names, in table order.
CATALOG = tuple(load_table())

#: the seed the service fills its store with (its default plan seed);
#: miss seeds must differ from it.
FILL_SEED = 1982

#: string lengths of the codegen corpus.
LENGTHS = (1, 16, 64, 256, 1024)
#: list lengths for the B4800 search: srl's link field is one byte and
#: records take two bytes, so at most 127 records fit below address 256.
LIST_LENGTHS = (1, 16, 64, 127)

#: every (machine, IR operation) pair the code-generating targets accept.
PAIRS = (
    ("i8086", "string.move"),
    ("i8086", "string.index"),
    ("i8086", "string.equal"),
    ("i8086", "block.clear"),
    ("vax11", "block.copy"),
    ("vax11", "string.move"),
    ("vax11", "block.clear"),
    ("vax11", "string.index"),
    ("vax11", "string.equal"),
    ("ibm370", "string.move"),
    ("ibm370", "block.clear"),
    ("ibm370", "string.index"),
    ("ibm370", "string.equal"),
    ("ibm370", "string.translate"),
    ("b4800", "list.search"),
)

#: fixed data addresses: source/data, destination, translate table.
SRC, DST, TABLE = 0x0100, 0x2000, 0x6000


def digest(plan: object) -> str:
    """SHA-256 of the plan's canonical JSON."""
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh_seed(rng: random.Random, used: set) -> int:
    while True:
        seed = rng.randrange(1, 1 << 31)
        if seed != FILL_SEED and seed not in used:
            used.add(seed)
            return seed


def verdict_plan(seed: int, rounds: int) -> List[List[list]]:
    """Seeded-shuffled whole rounds of the catalog, each op with its own
    verification seed: ``[[name, verification_seed], ...]`` per round."""
    rng = random.Random("verdicts:%d" % seed)
    used: set = set()
    plan = []
    for _ in range(rounds):
        names = list(CATALOG)
        rng.shuffle(names)
        plan.append([[name, _fresh_seed(rng, used)] for name in names])
    return plan


def service_plan(seed: int, requests: int) -> List[list]:
    """``["batch"]`` (store hit) or ``["verify", name, seed]`` (miss).

    Every block of 20 requests holds exactly 3 misses at seeded
    positions, so the hit share is 85% in every whole block.  Miss names
    run through seeded-shuffled whole rounds of the catalog, and every
    miss seed is fresh.
    """
    rng = random.Random("service:%d" % seed)
    used: set = set()
    names: List[str] = []
    plan: List[list] = []
    while len(plan) < requests:
        misses = set(rng.sample(range(20), 3))
        for slot in range(20):
            if slot in misses:
                if not names:
                    names = list(CATALOG)
                    rng.shuffle(names)
                plan.append(["verify", names.pop(), _fresh_seed(rng, used)])
            else:
                plan.append(["batch"])
    return plan[:requests]


def _bytes(rng: random.Random, count: int, avoid: int = -1) -> List[int]:
    """``count`` seeded bytes in 1..255, none equal to ``avoid``."""
    out = []
    while len(out) < count:
        byte = rng.randrange(1, 256)
        if byte != avoid:
            out.append(byte)
    return out


def _program(rng: random.Random, machine: str, op: str, length: int) -> Dict[str, object]:
    """Inputs and reference outputs of one (machine, operation, length).

    Data values are seeded; positions that decide how long a loop runs
    (where the searched byte sits, where two strings differ, which list
    record matches) depend on the length only, so a corpus pass costs
    the same simulated cycles under every seed.
    """
    memory: Dict[int, int] = {}
    params: Dict[str, int] = {}
    regions: List[list] = []
    result = None
    if op in ("string.move", "block.copy"):
        dst = SRC + max(1, length // 2) if op == "block.copy" else DST
        memory.update(zip(range(SRC, SRC + length), _bytes(rng, length)))
        memory[dst + length] = _bytes(rng, 1)[0]  # guard byte past the end
        params = {"s": SRC, "d": dst}
        after = dict(memory)
        ref_move(after, dst, SRC, length)
        regions.append([dst, [after.get(dst + i, 0) for i in range(length + 1)]])
    elif op == "block.clear":
        memory.update(zip(range(SRC, SRC + length + 1), _bytes(rng, length + 1)))
        params = {"d": SRC}
        after = dict(memory)
        ref_clear(after, SRC, length)
        regions.append([SRC, [after[SRC + i] for i in range(length + 1)]])
    elif op == "string.index":
        char = rng.randrange(1, 256)
        data = _bytes(rng, length, avoid=char)
        data[length - length // 4 - 1] = char
        memory.update(zip(range(SRC, SRC + length), data))
        params = {"s": SRC, "c": char}
        result = ref_index(memory, SRC, length, char)
    elif op == "string.equal":
        data = _bytes(rng, length)
        other = list(data)
        if LENGTHS.index(length) % 2:
            other[-1] ^= 0x5A  # differ in the last byte: still a full scan
        memory.update(zip(range(SRC, SRC + length), data))
        memory.update(zip(range(DST, DST + length), other))
        params = {"a": SRC, "b": DST}
        result = ref_equal(memory, SRC, DST, length)
    elif op == "string.translate":
        memory.update(zip(range(SRC, SRC + length + 1), _bytes(rng, length + 1)))
        memory.update(zip(range(TABLE, TABLE + 256), _bytes(rng, 256)))
        params = {"s": SRC, "t": TABLE}
        after = dict(memory)
        ref_translate(after, SRC, TABLE, length)
        regions.append([SRC, [after[SRC + i] for i in range(length + 1)]])
    elif op == "list.search":
        nodes = rng.sample(range(2, 256, 2), length)  # records: [link, key]
        target = length - length // 4 - 1
        key = rng.randrange(1, 256)
        keys = _bytes(rng, length, avoid=key)
        keys[target] = key
        for index, node in enumerate(nodes):
            memory[node] = nodes[index + 1] if index + 1 < length else 0
            memory[node + 1] = keys[index]
        params = {"h": nodes[0], "k": key}
        result = ref_list_search(memory, nodes[0], key, 1, 0)
    else:
        raise ValueError("no reference for %s" % op)
    return {
        "machine": machine,
        "op": op,
        "length": length,
        "params": params,
        "memory": sorted(memory.items()),
        "expect": {"regions": regions, "result": result},
    }


def codegen_plan(seed: int, passes: int) -> Dict[str, object]:
    """The corpus (each program exotic and decomposed) and the seeded
    order of every pass over it."""
    data_rng = random.Random("codegen-data:%d" % seed)
    programs = []
    for machine, op in PAIRS:
        for length in LIST_LENGTHS if op == "list.search" else LENGTHS:
            inputs = _program(data_rng, machine, op, length)
            for exotic in (True, False):
                programs.append(dict(inputs, id=len(programs), exotic=exotic))
    order_rng = random.Random("codegen-order:%d" % seed)
    orders = []
    for _ in range(passes):
        order = list(range(len(programs)))
        order_rng.shuffle(order)
        orders.append(order)
    return {"programs": programs, "passes": orders}
