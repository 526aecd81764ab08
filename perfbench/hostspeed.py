"""A fixed reference computation, timed between passes to follow the host's speed.

On a shared host the same pass can take from 0.5 to 1.0 s within one
minute, because other tenants contend for the same cores, caches and
memory. The reference computation below is the benchmark's own code and
never changes with the program, so the time it takes measures only the
host. run.py scales each timed import, set-up and pass by REFERENCE_S over
the mean of the probes either side of it. That gives the time the program
would take on a host that runs the reference computation in REFERENCE_S.

A pass of a few seconds or less is bracketed by the probes before and
after it. A longer pass, such as a solve, is also probed from inside, at
most once per PROBE_INTERVAL_S, and the time those probes take is left
out of the pass.

The computation mixes what the workloads spend their time on: interpreted
Python and numpy calls on small arrays. Streaming through an 8 MiB array
was tried as a third part and left out: its time followed the passes far
less closely than the other two did.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time

import numpy as np

# about the median probe time on the 2-core host of README.md's *Steadiness*
REFERENCE_S = 0.01
PROBE_REPS = 3          # kernel runs per probe; the probe is their median
PROBE_INTERVAL_S = 1.0  # least time between two probes inside a pass


class HostSpeed:
    """Times the reference computation; holds its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.uniform(-1.0, 1.0, 2000)
        self.inside: list[float] = []   # probes taken inside the current pass
        self.inside_s = 0.0             # seconds those probes took
        self._due = math.inf

    def _kernel(self) -> float:
        total = 0.0
        for i in range(40000):
            total += (i * 7 % 13) * 0.5
        x = self.small
        for _ in range(100):
            x = np.sin(x) * 0.9 + np.exp(-x * x) * 0.1
        return total + float(x[0])

    def probe(self) -> float:
        """Median seconds of PROBE_REPS runs of the reference computation."""
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @contextlib.contextmanager
    def inside_calls(self, owner, name: str):
        """Probe from inside calls to owner.name, at most once per PROBE_INTERVAL_S.

        Clears ``inside`` and ``inside_s`` on entry; restores owner.name on exit.
        """
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if time.perf_counter() >= self._due:
                t0 = time.perf_counter()
                self.inside.append(self.probe())
                now = time.perf_counter()
                self.inside_s += now - t0
                self._due = now + PROBE_INTERVAL_S
            return original(*args, **kwargs)

        self.inside, self.inside_s = [], 0.0
        self._due = time.perf_counter() + PROBE_INTERVAL_S
        setattr(owner, name, wrapper)
        try:
            yield
        finally:
            setattr(owner, name, original)
            self._due = math.inf
