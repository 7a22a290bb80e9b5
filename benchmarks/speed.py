"""The machine's current speed, from a fixed reference loop.

On a shared host the same work can take half again as long for tens of
seconds at a time, because other tenants contend for the cores. The
benchmark runs this loop right before and right after each CLI child and
each library pass, and scales the section's time by the loop's nominal time
over its median measured time: the result is the time the section would
take with the machine at its nominal speed. The loop is interpreter work
(dict updates), like most of qtoric's time, then a copy of a buffer larger
than the caches; it touches no file.
"""

import statistics
import time

ITERATIONS = 20_000
# Copied back and forth in each run: memory traffic, like the index gathers
# of the Segre certificate at m = 9, which slow down with the host's memory
# load rather than with its cores. 8 MiB in all, more than the caches.
_SOURCE = bytearray(b"\x01") * (4 << 20)
_TARGET = bytearray(len(_SOURCE))
# The loop's typical time, as the benchmark runs it, on the 2-core machine
# the bounds were set on; scaled times are close to that machine's times.
NOMINAL_S = 0.005
# Runs of the loop on each side of a section. One run varies by a fifth
# from the next; the median of sixteen varies by a few percent.
SAMPLES = 8


def reference_seconds() -> float:
    """Run the reference loop once and return how long it took."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(ITERATIONS):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    for _ in range(2):
        _TARGET[:] = _SOURCE
        _SOURCE[:] = _TARGET
    return time.perf_counter() - start


def _timed_runs() -> list[float]:
    # The first run after an idle spell is slow while the core wakes up and
    # its caches fill, so it is left out.
    reference_seconds()
    return [reference_seconds() for _ in range(SAMPLES)]


class Scaled:
    """Runs the reference loop before and after a section.

    ``factor`` multiplies a time measured in the section into one at
    nominal speed: the loop's nominal time over its median measured time.
    """

    def __enter__(self) -> "Scaled":
        self.samples = _timed_runs()
        return self

    def __exit__(self, *exc) -> None:
        self.samples += _timed_runs()
        self.factor = NOMINAL_S / statistics.median(self.samples)
