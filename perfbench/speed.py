"""Host-speed probe for timing on a shared machine.

On a small shared host the speed of one core drifts by a third over tens
of seconds as neighbours come and go, and runs shorter than that drift
read it as a change in the program.  :class:`SpeedProbe` samples the
current speed while rounds run: every ``INTERVAL_S`` a SIGALRM handler
times :func:`reference_work`, a fixed piece of the kind of work latmech
does (small numpy arrays, frozen dataclasses, dicts) that calls no
latmech code.  Scaling each stretch of a round by ``REFERENCE_S`` over
the probe's time at that moment gives the time the round would take on a
host running the probe at the reference speed.

Changing ``reference_work`` or the constants below changes the
benchmark: do it only in a change that re-measures the baseline.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# Close to the probe's median time on the 2-core host of the README figures.
REFERENCE_S = 5.0e-4
# Samples in the running median that smooths the probe's own jitter (about 0.2 s).
SMOOTHING = 9


@dataclass(frozen=True)
class _Item:
    index: float
    outer: np.ndarray


def reference_work() -> float:
    rows = []
    for k in range(40):
        v = np.array([k, k + 1.0, k + 2.0])
        item = _Item(float(k), np.einsum("i,j->ij", v, v))
        rows.append({"item": item, "norm": np.linalg.norm(item.outer)})
    return sum(row["norm"] for row in rows)


class SpeedProbe:
    """Context manager that samples :func:`reference_work` times on a timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.samples.append(end - start)
        self.stamps.append(end)

    def __enter__(self) -> "SpeedProbe":
        reference_work()  # first-call costs stay out of the samples
        self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float, since: int) -> float:
        """Length of ``[start, end]`` at the reference speed; samples from index
        ``since`` on fall inside it.

        The stretch up to each sample is scaled by ``REFERENCE_S`` over the
        running median of the probe times around that sample, and the tail
        after the last sample by the last median.  A round shorter than the
        interval has no sample of its own and uses the latest one.
        """
        times = self.samples[since:] or self.samples[-1:]
        half = SMOOTHING // 2
        medians = [statistics.median(times[max(0, k - half):k + half + 1])
                   for k in range(len(times))]
        edges = [start, *self.stamps[since:], end]
        medians.append(medians[-1])
        return sum((b - a) * REFERENCE_S / m for a, b, m in zip(edges, edges[1:], medians))
