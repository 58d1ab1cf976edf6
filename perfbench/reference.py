"""Fixed computations that measure how fast the host runs right now.

On a shared host the speed this benchmark gets drifts by up to 2x within
seconds, and by as much between runs.  The timed loop therefore runs a
reference between operations, for a share of each operation's time, and
divides every operation time by how slowly the reference ran next to it,
relative to the reference's nominal time.  A drift of the host moves both
alike and cancels; a change to coxforge moves only the operations.  No
reference runs coxforge code, so no change to coxforge can move one.

Two references, matched to what an operation spends its time on:

* `InProcess` runs `chunk()` in the workload process: small-integer
  loops, dict and list traffic, and multiplications of numbers of about a
  thousand bits, like the in-process workloads.
* `Spawned` starts a fresh interpreter that runs this file, i.e. a few
  chunks: process start, interpreter start-up and a little compute, like
  one CLI invocation.  It also paces set-up, which starts a process.

    python3 perfbench/reference.py N     # N chunks in a fresh interpreter
"""

from __future__ import annotations

import os
import subprocess
import sys
from math import gcd
from time import perf_counter

_A = 3 ** 700 + 12345
_B = 7 ** 500 + 999
_M = 2 ** 1500 - 1
_ROWS = [[(i * j + 3) % 11 - 5 for j in range(6)] for i in range(6)]


def chunk() -> int:
    acc = 0
    for _ in range(3):
        d: dict[int, int] = {}
        for i in range(1, 200):
            t = (i * 7919) % 1009
            d[t] = d.get(t, 0) + i
            acc += gcd(i, t + 3)
        for r in _ROWS:
            for c in zip(*_ROWS):
                acc += sum(x * y for x, y in zip(r, c))
        x = _A
        for _ in range(20):
            x = (x * _B) % _M
        acc += len(sorted(d.items())) + (x & 0xFFFF)
    return acc


EXPECTED = chunk()


class InProcess:
    """`chunk()` in this process."""

    # About one chunk's median time on the host the benchmark was tuned on
    # (a shared 2-core Intel Xeon, Python 3.11).  It only scales the
    # reported figures and is the same for every commit and every run.
    nominal_s = 1.0e-3

    def run(self, budget: float) -> tuple[float, int]:
        """Chunks until `budget` seconds have passed (one at least).

        Returns (seconds, chunks)."""
        chunks, start = 0, perf_counter()
        while True:
            if chunk() != EXPECTED:
                raise AssertionError("the reference chunk changed its result")
            chunks += 1
            elapsed = perf_counter() - start
            if elapsed >= budget:
                return elapsed, chunks


class Spawned:
    """A fresh interpreter running `SPAWN_CHUNKS` chunks, waited for.

    `env` fixes its bytecode-cache state, which sets most of its time, and
    `nominal_s` (as `InProcess.nominal_s`) is its time under that env: on
    the tuning host 0.1 s with a warm cache, 0.35 s with none.
    """

    SPAWN_CHUNKS = 10

    def __init__(self, env: dict, nominal_s: float) -> None:
        self.cmd = [sys.executable, os.path.abspath(__file__), str(self.SPAWN_CHUNKS)]
        self.env = env
        self.nominal_s = nominal_s

    def run(self, budget: float) -> tuple[float, int]:
        """Interpreters until `budget` seconds have passed (one at least).

        Returns (seconds, interpreters)."""
        spawns, start = 0, perf_counter()
        while True:
            subprocess.run(self.cmd, env=self.env, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            spawns += 1
            elapsed = perf_counter() - start
            if elapsed >= budget:
                return elapsed, spawns


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        if chunk() != EXPECTED:
            sys.exit("the reference chunk changed its result")
