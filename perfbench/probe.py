"""Machine-speed probe that turns measured times into reference seconds.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU
x86-64 VM, one deterministic request took anywhere from 1.0 to 1.9 s
within two minutes, with no steal time reported, and whole 30 s runs
were up to 80% slower than others.  Neither the fastest repeat nor CPU
time hides that.  So while timed work runs, a fixed pure-Python kernel
(dict and list operations, as in funcgraphs itself) runs from a SIGALRM
handler every ``INTERVAL`` seconds, and once right before and after.
Its durations track how fast this process runs the interpreter at that
moment.  ``reference`` rescales a time to the machine speed at which
the kernel takes ``REF_S``: a program that does more work still takes
longer, but a host that slows down slows the kernel too.

Python runs signal handlers between bytecodes, so the kernel never
interrupts funcgraphs mid-operation; during a long C call (JSON parsing,
numpy) the tick waits until the call returns.  The kernel's own time is
left out of the measured time.
"""

from __future__ import annotations

import random
import signal
from statistics import harmonic_mean
from time import perf_counter

INTERVAL = 0.025
# Kernel duration that defines reference speed.  It took 0.45-0.95 ms
# on the VM above, 0.65 ms at the median.
REF_S = 0.0005

_N = 4096
_SUCC = [random.Random(0).randrange(_N) for _ in range(_N)]


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    start = perf_counter()
    succ, seen, x = _SUCC, {}, 0
    for i in range(3000):
        x = succ[x]
        if x in seen:
            x = (x + i) & (_N - 1)
        seen[x] = i
    return perf_counter() - start


def reference(seconds: float, samples: list[float]) -> float:
    """``seconds`` at reference speed, given kernel durations sampled
    evenly in time over the same interval."""
    return seconds * REF_S / harmonic_mean(samples)


class Probe:
    """Samples the kernel while its ``with`` block runs.

    ``seconds`` is the block's wall time less the kernel's time inside
    it; ``samples`` holds every kernel duration, ``busy`` the sum of
    those taken inside the block.
    """

    def __enter__(self) -> Probe:
        self.samples = [kernel()]
        self.busy = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.start = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        took = kernel()
        self.samples.append(took)
        self.busy += took

    def __exit__(self, *exc) -> None:
        # A tick still pending runs before ``end`` is read, so it stays
        # inside the block.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.end = perf_counter()
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(kernel())

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.busy

    def reference_s(self) -> float:
        return reference(self.seconds, self.samples)
