"""Independent references for every output the benchmark checks.

Two references live here, and neither imports ``repro``: a check must
not pass merely because it shares code with the program under test.

* the expected-verdict table (``expected_verdicts.json``): for every
  catalog entry, whether it succeeds, its step count, how many trials
  it verifies, and the failure class of the two documented failures;
* pure-Python semantics of every IR operation in the codegen corpus:
  memmove, clear, 1-based index, equality flag, translate through a
  table, and the linked-list search address.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, MutableMapping, Optional

TABLE_PATH = Path(__file__).with_name("expected_verdicts.json")


def load_table() -> Dict[str, dict]:
    """The expected-verdict table, keyed by catalog entry name."""
    payload = json.loads(TABLE_PATH.read_text())
    return {row["name"]: row for row in payload["entries"]}


def check_verdict(row: dict, trials: int, observed: Mapping[str, object]) -> List[str]:
    """Mismatches between one observed verdict and its table row.

    ``observed`` carries ``ok``, ``error``, ``failure`` and
    ``verified_trials``, plus ``succeeded`` and ``steps`` when the
    caller's response has them (``/verify`` responses do not).
    """
    verified = trials if row["verified"] == "trials" else row["verified"]
    expected: Dict[str, object] = {
        "ok": True,
        "error": None,
        "verified_trials": verified,
    }
    for key in ("succeeded", "steps"):
        if key in observed:
            expected[key] = row[key]
    problems = [
        "%s: %s=%r, expected %r" % (row["name"], key, observed.get(key), value)
        for key, value in expected.items()
        if observed.get(key) != value
    ]
    failure = observed.get("failure")
    failure_class = row["failure_class"]
    if failure_class is None:
        if failure is not None:
            problems.append("%s: unexpected failure %r" % (row["name"], failure))
    elif not (isinstance(failure, str) and failure.startswith(failure_class + ":")):
        problems.append(
            "%s: failure %r, expected class %s" % (row["name"], failure, failure_class)
        )
    return problems


# ---------------------------------------------------------------------------
# IR operation semantics over a sparse byte memory (address -> byte)


def ref_move(memory: MutableMapping[int, int], dst: int, src: int, length: int) -> None:
    """memmove: the source is read in full before anything is written."""
    data = [memory.get(src + i, 0) for i in range(length)]
    for i, byte in enumerate(data):
        memory[dst + i] = byte


def ref_clear(memory: MutableMapping[int, int], dst: int, length: int) -> None:
    for i in range(length):
        memory[dst + i] = 0


def ref_index(memory: Mapping[int, int], base: int, length: int, char: int) -> int:
    """1-based position of the first ``char``, or 0."""
    for i in range(length):
        if memory.get(base + i, 0) == char:
            return i + 1
    return 0


def ref_equal(memory: Mapping[int, int], a: int, b: int, length: int) -> int:
    same = all(memory.get(a + i, 0) == memory.get(b + i, 0) for i in range(length))
    return 1 if same else 0


def ref_translate(
    memory: MutableMapping[int, int], base: int, table: int, length: int
) -> None:
    for i in range(length):
        memory[base + i] = memory.get(table + memory.get(base + i, 0), 0)


def ref_list_search(
    memory: Mapping[int, int], head: int, key: int, key_offset: int, link_offset: int
) -> int:
    """Address of the first record whose key byte matches, or 0."""
    node = head
    while node != 0:
        if memory.get(node + key_offset, 0) == key:
            return node
        node = memory.get(node + link_offset, 0)
    return 0


def check_program(spec: dict, memory_bytes, results: Mapping[str, int]) -> List[str]:
    """Mismatches between one simulated program and its expected outputs.

    ``memory_bytes(addr, count)`` reads the simulated memory back;
    ``results`` holds the values the program stored with ``setres``.
    """
    problems = []
    for addr, want in spec["expect"]["regions"]:
        got = list(memory_bytes(addr, len(want)))
        if got != want:
            first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            problems.append(
                "program %d (%s %s len %d): byte %d at %#x is %d, expected %d"
                % (
                    spec["id"], spec["machine"], spec["op"], spec["length"],
                    first, addr + first, got[first], want[first],
                )
            )
    result: Optional[int] = spec["expect"]["result"]
    if result is not None and results.get("r") != result:
        problems.append(
            "program %d (%s %s len %d): result %r, expected %d"
            % (spec["id"], spec["machine"], spec["op"], spec["length"], results.get("r"), result)
        )
    return problems
