"""A fixed pure-Python kernel that measures how fast the host is right now.

The benchmark host shares its CPUs with other tenants.  Their load
comes in slow periods of several seconds to minutes, during which every
piece of interpreted code runs up to ~1.7x slower, uniformly.  A run
that falls in one would read as a regression of the program.

The kernel mixes what the workloads spend their time on — heap
operations, a list-indexed dynamic program, tuple-keyed dicts and float
arithmetic — and imports nothing from the program, so no change to the
program can move it.  A run times it between rounds and scales each
round by the mean of the kernel times just before and just after it,
to a host on which the kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import heapq
import json
import random
import subprocess
import sys
import time

#: Kernel time on the reference host: a 2-vCPU x86 VM at 2.1 GHz,
#: Python 3.11, outside slow periods.  Scaled figures read as if measured
#: on such a host.
REFERENCE_S = 0.040


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    rng = random.Random(7)
    started = time.perf_counter()
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    row = [0] * 400
    for item in range(60):
        weight, value = 3 + item % 17, item * 7 % 23
        for capacity in range(399, weight - 1, -1):
            candidate = row[capacity - weight] + value
            if candidate > row[capacity]:
                row[capacity] = candidate
    counts: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - started
    if total <= 0 or row[-1] <= 0 or len(counts) != 97 * 89:
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


def scale(kernel_s: float, exchange_s: float = 0.0) -> float:
    """Factor taking a rate measured at ``kernel_s`` to the reference host.

    With an :class:`Exchange` time as well (``service``, whose jobs are
    part computation and part round trips between processes), the
    geometric mean of both factors: on ten seeds during a change of the
    host's load, it spread 0.05-0.09 where either factor alone spread
    0.13-0.22.
    """
    factor = kernel_s / REFERENCE_S
    if exchange_s:
        factor = (factor * exchange_s / REFERENCE_EXCHANGE_S) ** 0.5
    return factor


#: Request/reply exchanges per :meth:`Exchange.time`.
EXCHANGES = 200
#: :meth:`Exchange.time` on the reference host.
REFERENCE_EXCHANGE_S = 0.010

_ECHO = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    sys.stdout.write(json.dumps(json.loads(line)) + '\\n')\n"
    "    sys.stdout.flush()\n"
)


class Exchange:
    """Request/reply exchanges with a child process over pipes.

    A service job's latency is mostly round trips and wake-ups between
    two processes, and other tenants' load slows those far more than it
    slows computation inside one process (up to ~2x against the
    kernel's ~1.25x).  This times that kind of work, with no program code.
    """

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, "-c", _ECHO],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self) -> float:
        """Run :data:`EXCHANGES` exchanges; returns their wall time in seconds."""
        started = time.perf_counter()
        for i in range(EXCHANGES):
            self.child.stdin.write(json.dumps({"id": i, "state": "running"}) + "\n")
            self.child.stdin.flush()
            if json.loads(self.child.stdout.readline())["id"] != i:
                raise RuntimeError("calibration exchange got a wrong reply")
        return time.perf_counter() - started

    def close(self) -> None:
        self.child.stdin.close()
        self.child.wait(timeout=10)
        self.child.stdout.close()
