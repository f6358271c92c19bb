"""Machine-speed sampling, so that times read steady on a noisy host.

The host this benchmark was built on switches between a fast and a
~1.65x slower state about once a second (other tenants' load on shared
cores), so a pass of fixed work takes anywhere from 1.0x to 1.4x its
fast-state time.  :class:`SpeedSampler` times a small fixed pure-Python
kernel every ``INTERVAL_S`` from an interval timer, and
:meth:`SpeedSampler.normalize` rescales a measured time to
speed-normalized seconds:

    normalized = measured x mean(REFERENCE_S / kernel time)

``REFERENCE_S`` is the kernel's time in the fast state, timed in-process
while the workloads run, so on a host that stays in its fast state a
normalized time equals the measured one.  In the slow state it reads
shorter than measured; ``run.py`` prints both.

The samples fall at equal wall-clock spacing, so their mean speed is
the time-average speed over the window.  The kernel runs with the
garbage collector off and touches only its own small working set, so
the measured program's heap does not change its time: in the fast
state it takes the same time in-process as in an idle process.  A
faster simulator therefore still shows as a shorter normalized time.
On the reference host, over 40 short dataplane-saturated passes,
normalizing cut the coefficient of variation of the pass time from 18%
to under 5%.  A kernel with a large, scattered working set tracked the
simulator worse (8%) than this small one.  On other hardware,
normalized times are in the reference host's fast-state seconds.
"""

from __future__ import annotations

import gc
import heapq
import json
import signal
import time
from typing import List, Optional

#: Seconds between samples.
INTERVAL_S = 0.05

#: Kernel time in the reference host's fast state, in seconds: the
#: median over workload passes of the 5th-percentile in-process sample
#: (2-core x86_64 container, Python 3.11).
REFERENCE_S = 0.00077

#: Loop iterations of one kernel run.
KERNEL_STEPS = 700


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 1023


_ITEMS = [_Item(i, 3 * i) for i in range(64)]
_RECORDS = [{"id": i, "name": f"n{i}", "v": [i, i * 2.5, str(i)]}
            for i in range(40)]


def kernel() -> int:
    """Fixed work: a bounded priority queue feeding a counter table
    (attribute, call, heap and dict traffic), then a JSON round trip,
    a keyed sort and string formatting (C-level library code)."""
    heap: list = []
    table: dict = {}
    for i in range(KERNEL_STEPS):
        item = _ITEMS[i & 63]
        heapq.heappush(heap, (item.step(i), i, item))
        if len(heap) > 128:
            t, _, top = heapq.heappop(heap)
            key = (t & 127, top.a)
            table[key] = table.get(key, 0) + 1
    records = json.loads(json.dumps(_RECORDS))
    records.sort(key=lambda r: (r["v"][1] % 7, r["name"]))
    return len(table) + sum(len(f"{r['id']}:{r['name']}") for r in records)


#: The sampler running in this process, if any.  There is one interval
#: timer per process, so this is process state; pool workers forked
#: from a sampling process restart it (see ``spans.FrameCounter``).
ACTIVE: Optional["SpeedSampler"] = None


class SpeedSampler:
    """Kernel timings taken every ``INTERVAL_S`` while started.

    Runs from a ``SIGALRM`` handler in the main thread, between
    bytecodes of whatever is running; the kernel touches only its own
    objects, so the measured program's results are unaffected.
    """

    def __init__(self) -> None:
        #: Kernel speed of each sample, ``REFERENCE_S / kernel time``.
        self.speeds: List[float] = []
        self._previous = None

    def start(self) -> None:
        global ACTIVE
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        ACTIVE = self

    def stop(self) -> None:
        global ACTIVE
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        ACTIVE = None

    def _sample(self, signum=None, frame=None) -> None:
        # The collector stays off while the kernel runs, so that a
        # collection of the measured program's heap is not timed as
        # machine speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.speeds.append(REFERENCE_S / elapsed)

    def mark(self) -> int:
        """A position in the sample sequence, for :meth:`speed`."""
        return len(self.speeds)

    def speed(self, since: int) -> float:
        """Mean sampled speed since the ``since`` mark.  A window too
        short to hold a sample takes one now."""
        window = self.speeds[since:]
        if not window:
            self._sample()
            window = self.speeds[-1:]
        return sum(window) / len(window)

    def normalize(self, seconds: float, since: int) -> float:
        return seconds * self.speed(since)
