"""Times in reference seconds, steady on a machine whose speed drifts.

On a shared host the same pure-Python work can take twice as long from one
five-second window to the next, so raw seconds swing more between runs than
any change worth measuring. ``SpeedClock`` samples the machine's speed while
the benchmark runs: a SIGALRM handler, which runs on the main thread between
bytecodes, times a fixed calibration kernel every ``INTERVAL`` seconds. A
stretch of time is then converted to reference seconds by weighting each
moment with REF_KERNEL_S / (duration of the kernel sampled nearest to that
moment); smoothing over neighbouring samples made the results less steady,
as the speed changes within a second. A sample more than ``OUTLIER`` times
slower or faster than the median of its four neighbours (a kernel the OS
preempted, say) takes that median instead, so that one sample cannot set
the weight of its whole interval. A reference second is a second on a
machine where the kernel takes REF_KERNEL_S. The kernels' own time, wall
and CPU, is excluded from every interval, raw and converted.

The kernel shares no code with the package, so no change to the package
can move the unit.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter, process_time

import numpy as np

INTERVAL = 0.1  # seconds between speed samples
ROUNDS = 40  # kernel loop count; REF_KERNEL_S is defined for this value
REF_KERNEL_S = 1e-3  # kernel duration that defines one reference second
REPEATS = 5  # kernel runs timed by kernel_seconds, which takes their median
OUTLIER = 2.0  # a sample this far from its neighbours' median is replaced

_GRID = np.linspace(0.0, 1.0, 2000)
_PROBE = np.array([0.3, 0.5, 0.77])


def kernel() -> float:
    """Fixed work: small-array NumPy calls driven from Python, the mix of
    interpreter and call overhead that most of the package's time is made of
    (a pure-float loop slows down roughly twice as much as that work when the
    host is busy, and so over-corrects)."""
    acc = 0.0
    for _ in range(ROUNDS):
        i = np.clip(np.searchsorted(_GRID, _PROBE) - 1, 0, len(_GRID) - 2)
        t = (_PROBE - _GRID[i]) / (_GRID[i + 1] - _GRID[i])
        acc += float(np.sum(t * t * (3.0 - 2.0 * t)))
    return acc


def kernel_seconds() -> float:
    """Median duration of the kernel run now, a few times in a row, after
    one untimed call that pays the first-call costs of a fresh process."""
    kernel()
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[REPEATS // 2]


class SpeedClock:
    """Samples the calibration kernel while started; converts intervals."""

    def __init__(self):
        # (start, end, CPU seconds) of each kernel run
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        t0, c0 = perf_counter(), process_time()
        kernel()
        self.samples.append((t0, perf_counter(), process_time() - c0))
        self._busy = False

    def start(self) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._previous = None
        self._sample(None, None)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    @staticmethod
    def _table(samples):
        """Segment edges and the speed factor of the sample nearest each."""
        starts, ends, _ = np.asarray(samples).T
        mids = 0.5 * (starts + ends)
        edges = np.concatenate(([-np.inf], 0.5 * (mids[1:] + mids[:-1]), [np.inf]))
        dur = ends - starts
        near = np.lib.stride_tricks.sliding_window_view(np.pad(dur, 2, mode="edge"), 5)
        typical = np.median(near[:, [0, 1, 3, 4]], axis=1)
        dur = np.where(np.abs(np.log(dur / typical)) > np.log(OUTLIER), typical, dur)
        return edges, REF_KERNEL_S / dur

    @staticmethod
    def _inside(samples, a, b):
        k = bisect_left(samples, (a,))
        return [(s, e, c) for s, e, c in samples[k:] if e <= b]

    def convert(self, a: float, b: float) -> tuple[float, float]:
        """(raw seconds, reference seconds) spent in [a, b] outside kernels."""
        samples = list(self.samples)  # one C-level copy: no handler runs mid-read
        edges, factor = self._table(samples)

        def ref(lo, hi):
            return float(np.sum(factor * (np.clip(edges[1:], lo, hi)
                                          - np.clip(edges[:-1], lo, hi))))

        inside = self._inside(samples, a, b)
        kernel_raw = sum(e - s for s, e, _ in inside)
        kernel_ref = sum(ref(s, e) for s, e, _ in inside)
        return (b - a) - kernel_raw, ref(a, b) - kernel_ref

    def kernel_cpu(self, a: float, b: float) -> float:
        """CPU seconds the kernels run within [a, b] took."""
        return sum(c for _, _, c in self._inside(list(self.samples), a, b))
