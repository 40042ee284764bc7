"""Machine-speed reference for the benchmark's time metrics.

Other tenants of a shared host slow every process on it down for
stretches of tens of seconds, by 10-60%.  A run's median pass time then
moves with the host's load, not with the program.  The benchmark times a
fixed pure-Python kernel next to every pass (and in every set-up
process) and reports each time metric as it would read on a machine
where that kernel takes ``NOMINAL_S``:

    reported time = measured time * NOMINAL_S / kernel time

Sampled just before each pass (at most every 0.25 s), the kernel follows
the host's slowdowns.  On a 2-vCPU Xeon virtual machine, over 25-second
windows of one 250-second run of ``extract_translate`` passes, the
median throughput varied by 12% (coefficient of variation), scaled by
the run's median kernel time by 2.6%, and scaled pass by pass by the
kernel time just before it by 1.4%.  The kernel does the kind of work
the program does (building, hashing and comparing frozen dataclass
trees, dictionary look-ups, ``Fraction`` arithmetic) and shares no code
with it, so a change to the program moves the reported times in full.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

NOMINAL_S = 0.035


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    kids: tuple


def _kernel() -> int:
    memo: dict[_Node, int] = {}
    acc = Fraction(0)
    for i in range(1700):
        node = _Node("leaf", (i % 13,))
        for depth in range(6):
            node = _Node("add" if depth % 2 else "mul", (node, _Node("leaf", (depth,))))
        memo[node] = memo.get(node, 0) + 1
        acc += Fraction(i % 11, 7)
    return len(memo) + acc.numerator


def kernel_seconds(_: object = None) -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def serve() -> None:
    """Helper-process loop: one kernel time per line read from stdin."""
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)


_SERVE = "import sys; sys.path.insert(0, {here!r}); import calibrate; calibrate.serve()"


class Calibrator:
    """Samples the kernel between passes, at most every ``interval``
    seconds.  With ``workers=2`` the kernel runs in two helper processes
    at once and the slower one counts, for passes that keep both cores
    busy.  The helpers are plain child processes on pipes; ``close``
    ends them and waits for each, so none outlives the run."""

    def __init__(self, workers: int = 1, interval: float = 0.25) -> None:
        self._last = NOMINAL_S
        self._interval = interval
        self._due = 0.0
        self._helpers: list[subprocess.Popen] = []
        if workers > 1:
            code = _SERVE.format(here=str(Path(__file__).resolve().parent))
            try:
                for _ in range(workers):
                    self._helpers.append(subprocess.Popen(
                        [sys.executable, "-E", "-c", code], stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, text=True))
                self._sample()                                  # start-up
            except BaseException:
                self.close()
                raise

    def _sample(self) -> float:
        if not self._helpers:
            return kernel_seconds()
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = []
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("calibration helper process ended early")
            times.append(float(line))
        return max(times)

    def slowdown(self) -> float:
        """How much slower than the nominal machine this one runs now:
        the latest kernel time over ``NOMINAL_S``, sampled afresh when
        ``interval`` has passed since the last sample."""
        if time.perf_counter() >= self._due:
            self._last = self._sample()
            self._due = time.perf_counter() + self._interval
        return self._last / NOMINAL_S

    def close(self) -> None:
        helpers, self._helpers = self._helpers, []
        for helper in helpers:
            try:
                helper.stdin.close()
            except OSError:
                pass
        for helper in helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
