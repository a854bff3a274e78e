"""Interleaves reference-probe chunks with a workload call.

The clock patches a few program functions (one phase-1 step, one im2col,
one ADC conversion and so on) so that, when one of them returns and at
least ``INTERVAL_NS`` have passed since the last probe chunk, the next
chunk of ``reference.ProbeSampler`` runs.  The probe thereby samples the
machine's speed all through the call, at the moments the program runs,
and the time spent in it is taken out of the call's time.

Like the tracer, the clock patches every module attribute bound to a
chosen function object while it is installed.  A boundary the program no
longer has is skipped; the probe then runs only between calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

from tracer import module_aliases

#: Time between probe chunks; a chunk takes about 0.1 ms.
INTERVAL_NS = 5_000_000


class LapClock:
    """Runs a probe chunk at boundary returns, at most every ``INTERVAL_NS``."""

    def __init__(self, boundaries: tuple[str, ...], sampler) -> None:
        self.sampler = sampler
        self.probe_ns = 0  # time spent in probe chunks since install
        self._due = 0
        self._patches: list[tuple[object, str, object]] = []
        self._targets = []
        for path in boundaries:
            mod_name, attr = path.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"imcsearch.{mod_name}"), attr, None)
            if inspect.isfunction(fn):
                self._targets.append((fn, self._wrap(fn)))
        self.boundaries = len(self._targets)

    def probe(self) -> None:
        """Run one probe chunk and count its time as excluded."""
        t0 = time.perf_counter_ns()
        self.sampler.sample()
        t1 = time.perf_counter_ns()
        self.probe_ns += t1 - t0
        self._due = t1 + INTERVAL_NS

    def _wrap(self, fn):
        perf = time.perf_counter_ns
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if perf() >= clock._due:
                clock.probe()
            return result

        return wrapper

    def install(self) -> None:
        self.probe_ns = 0
        self._due = time.perf_counter_ns() + INTERVAL_NS
        for original, wrapper in self._targets:
            for owner, attr in module_aliases(original):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
