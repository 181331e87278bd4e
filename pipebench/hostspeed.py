"""Host-speed reference: a fixed pure-Python kernel timed beside the work.

Shared virtual machines change CPU speed by up to 2x over seconds to
minutes, which no amount of averaging inside one run removes.
Every run therefore times this kernel — benchmark code, independent of
the program — before, between and after its measured work, and scales
its reported times to a reference host on which one kernel run takes
:data:`KERNEL_REF_S`: a time measured while the kernel took ``k``
seconds is reported as ``time * KERNEL_REF_S / k``.  Raw, unscaled
figures are printed beside them.
"""

from __future__ import annotations

from spans import clock

#: the kernel's run time on the reference host, in seconds.
KERNEL_REF_S = 0.005
#: kernel runs per timing; the fastest counts.
KERNEL_REPEATS = 3


def kernel() -> int:
    """A fixed mix of the interpreter work the program does: calls,
    dict and list traffic, string conversion."""
    table: dict = {}
    items = list(range(64))
    total = 0
    for i in range(20000):
        key = i & 63
        table[key] = table.get(key, 0) + items[key]
        total += len(str(key))
    return total


def kernel_seconds() -> float:
    """The fastest of KERNEL_REPEATS timed kernel runs, which drops
    one-off interruptions."""
    timings = []
    for _ in range(KERNEL_REPEATS):
        start = clock()
        kernel()
        timings.append(clock() - start)
    return min(timings)


def scale(before: float, after: float) -> float:
    """Reference-host seconds per measured second, for work done between
    kernel timings ``before`` and ``after``."""
    return 2 * KERNEL_REF_S / (before + after)
