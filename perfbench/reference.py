"""Reference probe: how fast the shared machine runs, sampled during the calls.

Other tenants of the shared test machine slow it down by up to 2x, for
milliseconds, seconds or minutes at a time, and a slow spell can cover a
whole run.  So the run interleaves a short, fixed chunk of interpreter
work with the program's own work (see ``laps.py``) and times it.  The
chunk's time over its nominal time is the machine's slowdown at that
moment; averaged over a pass it is the slowdown the pass ran at.

Contention does not slow all code alike.  On the 2-vCPU test VM a slow
spell slowed the probe chunk about 1.6x, ``phase1_vgg16`` (small numpy
calls in Python loops) about 1.75x, ``phase2_toy`` about 1.4x and
``hd_rank_vgg16`` (large BLAS products) about 1.3x.  Each workload
therefore divides its times by ``slowdown ** sensitivity``, with its own
sensitivity, ln(own slowdown) / ln(probe slowdown).

The chunk depends on nothing in the program and touches a few hundred
bytes, so it neither reads the program's state nor evicts it.  It runs
twice per sample and only the second run is timed, so that what the
program left in the caches does not count either: a change to the program
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: The chunk's fastest time on a 2-vCPU Intel Xeon (2.1 GHz) VM.
NOMINAL_NS = 80_000
#: Contention slows the chunk 2x at most; a longer chunk was preempted, and
#: its time is capped so that one preemption does not outweigh a pass.
CAP = 3.0


def _chunk() -> None:
    acc, table = 0, {}
    for i in range(1000):
        acc += i * i
        table[i & 63] = acc


class ProbeSampler:
    """Runs and times the probe chunk; reports the slowdown per stretch."""

    def __init__(self) -> None:
        self.samples: list[int] = []

    def sample(self) -> None:
        _chunk()  # warms the caches the program's work may have evicted
        t0 = time.perf_counter_ns()
        _chunk()
        self.samples.append(time.perf_counter_ns() - t0)

    def take(self) -> float | None:
        """Mean slowdown over the samples since the last take, if any."""
        samples, self.samples = self.samples, []
        if not samples:
            return None
        return float(np.minimum(np.array(samples) / NOMINAL_NS, CAP).mean())
