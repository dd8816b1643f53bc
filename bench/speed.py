"""Host-speed reference for normalising timings.

The shared hosts this benchmark runs on change speed by 20-80 % over
seconds to minutes, and `cpu_s` moves with `wall_s`, so the program is not
waiting: the whole machine runs slower.  No run length averages that away.
The benchmark therefore times a fixed piece of pure-Python work (which uses
nothing from `sizesem`) right before and right after every query, and
reports every end-to-end timing in *reference seconds*: the measured time
scaled by REF_S over the median reference sample around the query.  A program
change cannot move the reference, so its effect shows in full; a host
slowdown moves both and cancels.  The raw times are printed beside the
normalised ones and stored in .bench_out/.

How well it cancels was measured on a 2-core host over 360 s, with a
reference sample before each of 3 864 queries (repro fixtures and check
documents): the standard deviation of log latency between 20-s windows was
0.119 raw and 0.019 normalised.  Either half of `reference_work` alone left
0.024-0.027; smoothing the samples over neighbouring queries made it worse.
One sample varies by about 13 % from the next.  A long query (a search or
fixture of 0.3-2.5 s) averages such fast swings over its length, so its
factor must too: after a long query more samples are taken, and the window
of samples reaches twice the query's length to each side (`Speed.factor`).
On eight 6-pass `search` runs this gave spreads of 0.10 (wall), 0.05 (p50)
and 0.10 (tail), against 0.12-0.21 with half the length and 0.08-0.21 raw.
"""

from __future__ import annotations

import gc
import statistics
import time

# Duration of one reference sample at the reference speed: the typical
# value on a 2-core x86-64 host with CPython 3.11.  Normalised timings are
# seconds as that host runs the program at that speed.
REF_S = 0.0045


def reference_work() -> int:
    """Two fixed pieces of interpreter work, like those the checks are made
    of: a submask walk with int and dict traffic (tight, slows more than the
    program when the host does) and frozensets of int tuples built and
    hashed (allocation-heavy, slows about as much)."""
    acc, counts = 0, {}
    for x in range(1, 256):
        sub = x
        while True:
            key = (sub, x & ~sub)
            counts[key] = counts.get(key, 0) + 1
            acc += sub.bit_count()
            if sub == 0:
                break
            sub = (sub - 1) & x
    fams = [frozenset((x & m, m) for m in range(0, 64, 3)) for x in range(1, 512)]
    return acc + len(counts) + len(set(fams))


class Speed:
    """Reference samples with the time each was taken."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.durations: list[float] = []
        for _ in range(3):  # warm the reference code
            reference_work()

    def sample(self) -> float:
        """One timed reference run, with the collector off so that the
        program's heap does not leak into it."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        return t1 - t0

    def after(self, seconds: float) -> None:
        """Samples after something that took `seconds`: one per 0.1 s of it
        plus one, at most 12 (about 5 % of the time measured)."""
        for _ in range(min(12, 1 + int(seconds / 0.1))):
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median sample within twice the span's length (at
        least 10 ms) of the span [t0, t1]; the samples taken right before and
        right after it always qualify."""
        pad = max(2 * (t1 - t0), 0.01)
        near = [d for t, d in zip(self.times, self.durations) if t0 - pad <= t <= t1 + pad]
        return REF_S / statistics.median(near)
