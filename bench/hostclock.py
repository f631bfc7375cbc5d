"""Host-speed-corrected time for the benchmark.

The benchmark runs on shared hosts whose speed changes under it: on the
2-core Xeon it was sized on, a fixed piece of Python flips between two
speeds 1.7 times apart, in phases from a tenth of a second to minutes, so
the same repetition took 1.0 to 1.8 times its fastest time and even the
gaps inside one repetition disagreed.  A clock that only looks at the wall
cannot tell a slower program from a slower host.

``HostClock`` samples the host's speed all through a repetition: a
``SIGALRM`` timer interrupts the program every ``PERIOD`` seconds and the
handler runs a short fixed kernel (set lookups, SHA-256, AES-GCM and dict
updates on data that stays in cache) twice and times the second run.
``HostClock.mapper`` then turns wall-clock stamps into reference seconds:
the wall time between two samples, less the time spent sampling, times
``REFERENCE_S`` over the local kernel time (a running median of ``WINDOW``
samples, so one interrupted sample does not count).  A reference second
is a second on a host where the kernel takes ``REFERENCE_S``, its typical
time on the sizing host.  The kernel calls no crawsim code, so a change to
crawsim moves reference times as it moves wall times.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
from bisect import bisect_right
from random import Random
from time import perf_counter
from typing import Callable

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

PERIOD = 0.005  # seconds between samples
WINDOW = 5  # samples in the running median of kernel times
REFERENCE_S = 130e-6  # the kernel's typical time on the sizing host


class HostClock:
    def __init__(self):
        rng = Random(0)
        pool = [rng.randbytes(16) for _ in range(64)]
        self._keys = set(pool)
        self._probes = [pool[rng.randrange(len(pool))] for _ in range(200)]
        self._seed = pool[0]
        self._aead = AESGCM(pool[1])
        self._table: dict[bytes, int] = {}
        self.starts: list[float] = []  # when each sample began
        self.ends: list[float] = []  # when it ended
        self.kernel: list[float] = []  # seconds of its timed kernel run
        self._previous = None

    def _kernel(self) -> int:
        keys, probes, aead, table = self._keys, self._probes, self._aead, self._table
        digest = self._seed
        found = 0
        for i in range(len(probes)):
            found += probes[i] in keys
            if i % 10 == 0:
                digest = hashlib.sha256(digest).digest()[:16]
                aead.decrypt(digest[:12], aead.encrypt(digest[:12], digest, None), None)
                table[digest] = i
        table.clear()
        return found

    def _sample(self, signum, frame) -> None:
        # the program has just filled the caches with its own code and data:
        # one untimed run brings the kernel's back, so the timed run measures
        # the host and not what the program was doing
        begun = perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # no collection of the program's objects inside a sample
        self._kernel()
        start = perf_counter()
        self._kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(begun)
        self.ends.append(perf_counter())
        self.kernel.append(end - start)

    def start(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self.kernel.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mapper(self) -> Callable[[float], float]:
        """Map a perf_counter stamp taken between start() and stop() to
        reference seconds since the first sample; only differences of the
        result mean anything."""
        starts, ends, kernel = self.starts, self.ends, self.kernel
        if not kernel:
            return lambda t: t
        half = WINDOW // 2
        local = [
            statistics.median(kernel[max(0, i - half): i + half + 1]) for i in range(len(kernel))
        ]
        # between samples i and i+1 the host runs at REFERENCE_S / kernel time
        slopes = [REFERENCE_S * 2 / (a + b) for a, b in zip(local, local[1:])]
        at = [0.0]  # reference seconds at each sample
        for i, slope in enumerate(slopes):
            at.append(at[-1] + (starts[i + 1] - ends[i]) * slope)
        first, last = REFERENCE_S / local[0], REFERENCE_S / local[-1]

        def reference(t: float) -> float:
            i = bisect_right(starts, t) - 1
            if i < 0:
                return (t - starts[0]) * first
            if t <= ends[i]:
                return at[i]
            if i == len(slopes):
                return at[i] + (t - ends[i]) * last
            return at[i] + (t - ends[i]) * slopes[i]

        return reference
