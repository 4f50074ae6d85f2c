"""Host speed reference: a fixed pure-Python loop that never touches the program.

On a shared host the CPU speed drifts by 20 % and more within tens of
seconds, and the program's CPU-bound jobs drift with it.  While a run
measures, a thread of the benchmark process times this loop every
``PERIOD_S``, in thread CPU time, on the one CPU the jobs also run on.  The
run scales every time it reports by ``REF_S / median(loop times)``: the times
read as seconds on a host where the loop takes ``REF_S``.  The loop does dict
and tuple work like the program's sparse matrices, so both slow down
together; it takes about 2 % of the CPU from the jobs, the same on every
commit.
"""

from __future__ import annotations

import threading
import time

REF_S = 0.004
PERIOD_S = 0.25


def loop_seconds() -> float:
    start = time.thread_time()
    acc: dict = {}
    for i in range(10000):
        key = ((i * 7919) % 4099, i & 7)
        acc[key] = (acc.get(key, 0) + i) % 1000003
    return time.thread_time() - start


class SpeedSampler:
    """Samples ``loop_seconds`` on a background thread while in use."""

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.samples.append(loop_seconds())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
