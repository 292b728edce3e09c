"""The host's speed during a run, from a fixed probe on each CPU.

::

    python3 perfbench/hostspeed.py CPU

A probe process pinned to one CPU wakes every :data:`INTERVAL_S`,
runs :func:`work` (a fixed pure-Python loop) and records when it ran
and the thread CPU time it took, until its standard input closes; it
then prints the samples as one JSON list of ``[time, seconds]`` pairs,
``time`` on the ``time.perf_counter()`` clock, which Linux keeps
system-wide (``CLOCK_MONOTONIC``), so the samples line up with the
benchmark's own timestamps.  The host this benchmark was written on changes
speed under it: the same loop ran 30-45% faster for stretches of half
a second to several minutes, with no stolen time.  The probe runs
beside the served pass (about 2% of a CPU), so the mean of its samples
over a stretch of the run says how slow the CPU was during it, and
:func:`slowness` turns that into a factor against :data:`REFERENCE_S`.
The probe is the benchmark's own code, so no change to the repository
moves it.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

__all__ = ["REFERENCE_S", "SlownessTrack", "SpeedProbe", "slowness", "work"]

#: seconds between two probe samples
INTERVAL_S = 0.1
#: seconds a window is widened by on each side
PAD_S = 0.5
#: iterations of :func:`work`: about 2 ms on a 2-vCPU Xeon VM
LOOPS = 12_000
#: the CPU time of one :func:`work` on the reference host: a slowness
#: of 1.0 (the probe's typical time on the 2-vCPU Xeon VM above)
REFERENCE_S = 0.002


def work() -> int:
    """A fixed pure-Python loop of dict stores and lookups."""
    table: dict[int, int] = {}
    total = 0
    for i in range(LOOPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class SpeedProbe:
    """A probe process on ``cpu`` for the length of a ``with`` block;
    ``track`` then holds its samples."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        self.track = SlownessTrack([])

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        # started and warm, so its start-up overlaps nothing timed
        if self._proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise RuntimeError(f"the speed probe on CPU {self.cpu} "
                               f"did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            # closing its standard input stops the probe
            out, _ = proc.communicate(timeout=10.0)
            self.track = SlownessTrack(json.loads(out))
        except (subprocess.TimeoutExpired, ValueError):
            pass  # no samples: every window then raises
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class SlownessTrack:
    """One CPU's probe samples, by time."""

    def __init__(self, samples):
        samples = sorted((t, seconds) for t, seconds in samples)
        self._times = [t for t, _ in samples]
        self._seconds = [seconds for _, seconds in samples]

    def over(self, start: float, end: float) -> float:
        """:func:`slowness` of the samples taken from ``start`` to
        ``end`` (``time.perf_counter()``), the window widened by
        :data:`PAD_S` on each side so a short one holds samples."""
        lo = bisect.bisect_left(self._times, start - PAD_S)
        hi = bisect.bisect_right(self._times, end + PAD_S)
        return slowness(self._seconds[lo:hi])


def slowness(samples: list[float]) -> float:
    """Mean probe time over :data:`REFERENCE_S`: 1.3 means the CPU ran
    1.3 times slower than the reference host while the samples were
    taken.  The mean, not the median: the host switches between a
    fast and a slow speed, and the median would pick one of them."""
    if not samples:
        raise RuntimeError("the speed probe took no sample in the window")
    return statistics.fmean(samples) / REFERENCE_S


def _probe(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    work()  # warm the interpreter's caches
    print("ready", flush=True)
    samples = []
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], INTERVAL_S)[0]:
        now = time.perf_counter()
        t0 = time.thread_time()
        work()
        samples.append((now, time.thread_time() - t0))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(_probe(int(sys.argv[1])))
