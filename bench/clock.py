"""Wall time rescaled to a reference CPU speed.

The CPU speed of the reference machine drifts. A fixed pure-Python loop,
averaged over 5-second windows, took from 0.055 s to 0.085 s, and the slow
and fast states each lasted about a minute. So runs of the same work differed
by up to 30%, more than any bound a benchmark can set.

Every timed piece of work therefore starts with `RefClock.mark`. A mark runs
a fixed calibration kernel twice (pure-Python bitset arithmetic) and times
the second run: the first refills the caches the work evicted. The wall time
between two marks is multiplied by K_REF / (local kernel time), where the
local kernel time is the median over the neighbouring marks, so one
interrupted kernel run does not count. Kernel time is never counted as work.
Over repeated 5-second passes of identical work this cut the spread from
9-14% to 3-5% (coefficient of variation)."""

import statistics
import time

K_REF = 0.0005  # seconds per timed kernel run on the reference machine
WINDOW = 5  # marks on each side that give a segment its local kernel time


def kernel():
    # ints and one list only: allocating containers would start garbage
    # collections whose cost depends on the work's live objects
    adj = [0] * 64
    total = 0
    x = 12345
    for _ in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x & 63, (x >> 8) & 63
        adj[u] |= 1 << v
        common = adj[u] & adj[v]
        total += (common & -common).bit_length()
    return total


class RefClock:
    """Marks split time into segments; segment j lies between marks j and
    j + 1.  `mark` returns the index of the segment that starts there."""

    def __init__(self, on_kernel=None):
        self._marks = []  # (mark start, timed kernel start, mark end)
        self._on_kernel = on_kernel  # told (start, end) of every mark

    def mark(self):
        # the first run refills the caches the work just evicted, so the
        # timed second run measures the CPU, not the preceding work
        start = time.perf_counter()
        kernel()
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._marks.append((start, timed, end))
        if self._on_kernel is not None:
            self._on_kernel(start, end)
        return len(self._marks) - 1

    def _kernel_times(self):
        return [end - timed for _, timed, end in self._marks]

    def segments(self):
        """(wall seconds, reference seconds) of each segment."""
        marks, kernels = self._marks, self._kernel_times()
        out = []
        for j in range(len(marks) - 1):
            wall = marks[j + 1][0] - marks[j][2]
            local = statistics.median(kernels[max(0, j - WINDOW + 1): j + WINDOW + 1])
            out.append((wall, wall * K_REF / local))
        return out

    def speed(self):
        """Median kernel speed of the run, as a share of the reference speed."""
        return K_REF / statistics.median(self._kernel_times())
