"""Wall-clock timings rescaled to a reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes, in CPU time as much as in wall time. Two runs made
minutes apart then differ more than any change worth measuring. So a fixed
reference kernel runs at marks placed between the timed calls, and each
timed call is rescaled by REF_S over the median time of the kernel runs at
the two marks around it. A mark runs the kernel for about DUTY of the time
since the previous mark, so a long call is rescaled by many runs. The
kernel does not call the package under test: a change to the package moves
the rescaled times in full, while the host's drift moves the call and the
kernel alike and cancels.

The kernel mixes the package's two kinds of work: small numpy arrays in a
Python loop (the per-character model) and passes over a matrix larger than
a core's cache (the table-bound losses and ranking). REF_S is about the
kernel's time on a 2-vCPU Xeon VM, so rescaled times read close to its wall
times.
"""

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.007     # reference kernel time that rescaled seconds are quoted at
DUTY = 0.04       # share of the time between marks spent in the kernel
MIN_RUNS, MAX_RUNS = 3, 64  # kernel runs per mark
MIN_GAP_S = 0.5   # `maybe_mark` marks at most this often


class Reference:
    """The fixed kernel; `run` takes about REF_S on the reference host."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((24, 16))
        self.weight = rng.standard_normal((16, 16)) / 4
        self.big = rng.standard_normal((1024, 768))  # 6.3 MB, beyond a core's L2
        self.vec = rng.standard_normal(768)
        self.keys = rng.standard_normal(10000)

    def run(self):
        x = self.small
        for _ in range(100):
            y = x @ self.weight
            y = y - y.mean(axis=1, keepdims=True)
            x = np.tanh(y / np.sqrt((y * y).mean(axis=1, keepdims=True) + 1e-5))
        normed = self.big / np.linalg.norm(self.big, axis=1, keepdims=True)
        order = np.lexsort((np.arange(len(self.keys)), -self.keys))
        return float(x.sum() + (normed @ self.vec).sum() + order[0])


class RefClock:
    """Times calls between reference marks and rescales them afterwards.

    A span is (raw seconds, index of the mark before it). Call `mark` once
    more after the last timed call, then read spans with `seconds`.
    """

    def __init__(self, reference=None):
        self.reference = reference or Reference()
        self.refs = []        # [kernel seconds of each run] at each mark
        self.gaps = []        # [start, end] of the time between marks
        self.mark()

    def mark(self):
        t1 = perf_counter()
        n = MIN_RUNS
        if self.gaps:
            self.gaps[-1][1] = t1
            n = round(DUTY * (t1 - self.gaps[-1][0]) / REF_S)
        self.reference.run()  # untimed: the timed call evicted the kernel's data
        t1 = perf_counter()
        runs = []
        for _ in range(min(max(n, MIN_RUNS), MAX_RUNS)):
            t0 = t1
            self.reference.run()
            t1 = perf_counter()
            runs.append(t1 - t0)
        self.refs.append(runs)
        self.gaps.append([t1, t1])

    def maybe_mark(self):
        if perf_counter() - self.gaps[-1][0] >= MIN_GAP_S:
            self.mark()

    def timed(self, fn, *args, **kwargs):
        """(span, result) of one call, with a mark before and after it if
        MIN_GAP_S has passed since the last one."""
        self.maybe_mark()
        t0 = perf_counter()
        r = fn(*args, **kwargs)
        span = (perf_counter() - t0, len(self.refs) - 1)
        self.maybe_mark()
        return span, r

    def scale(self, i):
        """REF_S over the median kernel run at marks i and i + 1."""
        return REF_S / statistics.median(self.refs[i] + self.refs[i + 1])

    def seconds(self, span):
        raw, i = span
        return raw * self.scale(i)

    def elapsed(self):
        """Rescaled time between the first and the last mark, kernel excluded."""
        return sum((end - start) * self.scale(i)
                   for i, (start, end) in enumerate(self.gaps[:-1]))
