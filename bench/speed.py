"""Correction of timings for the machine's speed at the time they were taken.

On a shared machine the speed of one core swings by 1.5-2x in phases that
last from seconds to minutes, and a 40-second run can fall wholly in a fast
or a slow phase. So every timed operation is paired with runs of a fixed
reference kernel taken beside it, and a timing is reported as

    wall seconds * REFERENCE_S / mean reference-kernel seconds

that is, in seconds at the machine speed at which the kernel takes
``REFERENCE_S``. The kernel is pure standard-library Python that shares no
code with the program, so a change to the program moves the corrected time
exactly as it moves the wall time.

A short operation is paired with kernel runs right before and after it. A
long one is also sampled while it runs: ``Sampler`` runs the kernel from a
``SIGALRM`` handler every ``SAMPLE_INTERVAL_S``, in the operation's own
thread, and the time spent in the handler is taken out of the operation's.
"""

from __future__ import annotations

import signal
import statistics
import time

# Duration of the kernel in the fast phase of a 2-vCPU Xeon (Sapphire
# Rapids) VM under Python 3.11: a fixed scale, so corrected values read
# close to wall seconds there.
REFERENCE_S = 0.0026
SAMPLE_INTERVAL_S = 0.05


def _kernel() -> int:
    # Hashing and sorting over a table ...
    table = {}
    for i in range(4000):
        table[i * 7919 % 20011] = i
    odd = {key for key, _ in sorted(table.items()) if key & 1}
    # ... and adjacency lists, tuple keys and traversal over a small graph.
    reached = 0
    for _ in range(2):
        adj = [[] for _ in range(300)]
        pairs = {}
        for i in range(1500):
            u, v = (i * 31) % 300, (i * 17 + 5) % 300
            adj[u].append(v)
            pairs[(u, v)] = i
        seen = set()
        stack = [0]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
        reached += len(seen) + len(sorted(pairs))
    return len(odd) + reached


def reference_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def corrected(wall_s: float, reference: list[float]) -> float:
    return wall_s * REFERENCE_S / statistics.fmean(reference)


class Sampler:
    """Samples the kernel every ``SAMPLE_INTERVAL_S`` while the block runs.

    ``samples`` holds the kernel times; their sum is wall time the block
    spent in the handler rather than in its own work.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_s())
