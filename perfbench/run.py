"""Co-search benchmark: one workload per process, closed loop, one result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload phase1_vgg16 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it also runs a traced pass and
reports the per-layer metrics, plus the tracing overhead.  The last line
of standard output is the JSON result; the lines before it name every
metric with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform as _platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
#: BLAS threads.  Workloads are closed loops of one call at a time on a
#: shared 2-core machine, and one thread keeps their timings steady.
BLAS_THREADS = 1
MIN_PASSES = 2
#: The traced pass over the inputs runs twice so that counts can be compared.
TRACE_PASSES = 2


def _pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(pinned_threads: int) -> dict:
    import numpy as np

    cpu = _platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": pinned_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "git_commit": commit,
    }


def _code_hash() -> str:
    """Hash of the program and benchmark sources, to key stored digests."""
    import hashlib

    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.yaml")) \
        + sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Output digests per input, kept across runs of the same code and seed."""

    def __init__(self, key: str) -> None:
        self.path = RESULTS / "digests.json"
        self.key = key
        self.all = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.known: dict[str, str] = self.all.get(key, {})

    def check(self, index: int, digest: str) -> str | None:
        prev = self.known.setdefault(str(index), digest)
        if prev != digest:
            return (f"output digest of input {index} is {digest[:12]}, an earlier "
                    f"run of the same code and seed gave {prev[:12]}")
        return None

    def save(self) -> None:
        self.all[self.key] = self.known
        RESULTS.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Runner:
    """Runs the calls of one workload in a closed loop: checks, digests, timing."""

    def __init__(self, workload, fixture, digests: DigestStore, laps=None) -> None:
        self.wl, self.fx, self.digests = workload, fixture, digests
        self.tracer = None  # when set, wraps the call but not the checks
        self.laps = laps  # when set, interleaves reference-probe chunks
        self.attempted = 0
        self.failed = 0
        #: input index -> seconds of each successful call, probe time taken out
        self.times: dict[int, list[float]] = {i: [] for i in range(len(fixture.inputs))}
        #: (seconds, machine slowdown) of each pass in which every call succeeded
        self.passes: list[tuple[float, float | None]] = []

    def attempt(self, index: int) -> float | None:
        """Run, time and check one call; returns seconds, or None on failure."""
        wl, fx = self.wl, self.fx
        inp = fx.inputs[index]
        self.attempted += 1
        gc.collect()
        try:
            hook = self.tracer or self.laps
            if hook is not None:
                hook.install()
            try:
                t0 = time.perf_counter_ns()
                out = wl.call(fx, inp)
                t1 = time.perf_counter_ns()
            finally:
                if hook is not None:
                    hook.uninstall()
            elapsed = (t1 - t0 - (self.laps.probe_ns if self.laps else 0)) / 1e9
            issues = wl.check(fx, inp, out)
            mismatch = self.digests.check(index, wl.digest(out))
            if mismatch:
                issues.append(mismatch)
        except Exception as exc:  # any failing call counts, the loop goes on
            issues = [f"{type(exc).__name__}: {exc}"]
        if not issues:
            return elapsed
        self.fail(f"call {self.attempted} (input {index}): " + "; ".join(issues))
        return None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)

    def measure_pass(self) -> None:
        """Call every input once, in order, keeping the times of successes."""
        sampler = self.laps.sampler if self.laps else None
        if sampler is not None:
            sampler.take()  # drop samples from outside the pass
        secs, complete = 0.0, True
        for index, times in self.times.items():
            if sampler is not None:
                self.laps.probe()  # a pass is sampled even without boundaries
            elapsed = self.attempt(index)
            if elapsed is None:
                complete = False
            else:
                times.append(elapsed)
                secs += elapsed
        if complete:
            self.passes.append((secs, sampler.take() if sampler else None))

    def ops_per_pass(self) -> int:
        return sum(self.wl.ops(self.fx, inp) for inp in self.fx.inputs)


def _timed_setup(workload, seed: int, quick: bool, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        fixture = workload.setup(seed, quick)
        return fixture, time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool,
        pinned_threads: int) -> dict:
    from catalog import per_layer_values
    from laps import LapClock
    from reference import ProbeSampler
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[name]
    env = environment(pinned_threads)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if trace else None
    fixture, first_setup = _timed_setup(wl, seed, quick, tracer)
    setup_times = [first_setup]
    digests = DigestStore(f"{name}|seed={seed}|quick={int(quick)}|code={_code_hash()}")
    laps = None if trace else LapClock(wl.laps, ProbeSampler())
    runner = Runner(wl, fixture, digests, laps)

    runner.attempt(0)  # warm-up; its digest is the reference for input 0
    # Passes over every input until --seconds of calls have run; a pass that
    # would end more than half a pass late is not started.  Set-ups are
    # timed between passes, off the loop's clock, so that they sample the
    # machine over the whole run as the calls do.
    passes, paused, last_pass = 0, 0.0, 0.0
    t_start = time.perf_counter()
    while passes < MIN_PASSES or \
            time.perf_counter() - t_start - paused + last_pass / 2 < seconds:
        t_pass = time.perf_counter()
        runner.measure_pass()
        last_pass = time.perf_counter() - t_pass
        passes += 1
        if not trace:
            t_setups = time.perf_counter()
            setup_times += [_timed_setup(wl, seed, quick)[1]
                            for _ in range(min(wl.setup_reps,
                                               wl.max_setups - len(setup_times)))]
            paused += time.perf_counter() - t_setups

    if not trace:
        # Each pass's time is divided by the slowdown the reference probe saw
        # during it, to the workload's sensitivity; the median over the
        # passes is the cost of a pass at the nominal machine speed.
        slows = [slow for _, slow in runner.passes if slow]
        scaled = [secs / slow ** wl.sensitivity for secs, slow in runner.passes if slow]
        pass_s = statistics.median(scaled) if scaled else math.inf
        factor = statistics.median(slows) ** wl.sensitivity if slows else 1.0
        rate = runner.ops_per_pass() / pass_s
        raw_setup = statistics.median(setup_times)
        metrics = {
            "ops_per_s": rate,
            "setup_s": raw_setup / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw_pass = statistics.median(secs for secs, _ in runner.passes) \
            if runner.passes else math.inf
        print(f"{wl.metric} {rate} {wl.unit} (median over {len(scaled)} of {passes} "
              f"passes of {len(fixture.inputs)} inputs, scaled to nominal machine "
              f"speed; unscaled {runner.ops_per_pass() / raw_pass}; ops_per_s "
              f"counts one {wl.op} per op)")
        print(f"setup_s from {len(setup_times)} set-ups, unscaled {raw_setup} s")
        print(f"machine slowdown {statistics.median(slows) if slows else None} "
              f"(median over passes), sensitivity {wl.sensitivity}")
        print("passes [seconds, slowdown] " + json.dumps(runner.passes))
        print("calls " + json.dumps(runner.times))
    else:
        untraced = {i: statistics.median(t) for i, t in runner.times.items() if t}
        runner.tracer = tracer
        n_inputs = len(fixture.inputs)
        traced_passes = []
        for rep in range(TRACE_PASSES):
            secs = 0.0
            for i in range(n_inputs):
                tracer.run_id = 1 + rep * n_inputs + i
                secs += runner.attempt(i) or 0.0
            traced_passes.append(secs)
        for i in range(n_inputs):
            a = tracer.run_counts(1 + i)
            b = tracer.run_counts(1 + n_inputs + i)
            if a != b:
                diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                runner.fail(f"counts of input {i} differ between traced passes: "
                            f"{diff[:5]}")
        overhead = (statistics.median(traced_passes) / sum(untraced.values())
                    if len(untraced) == n_inputs else 0.0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        call_runs = list(range(1, 1 + TRACE_PASSES * n_inputs))
        metrics = per_layer_values(list(units), tracer, call_runs, 0, overhead)
        path = RESULTS / f"spans-{name}-seed{seed}.npz"
        tracer.write(path, {"env": env, "workload": name, "seed": seed,
                            "runs": "0 = set-up, 1.. = traced calls"})
        print(f"spans: {len(tracer.name)} written to {path.relative_to(ROOT)}")

    digests.save()
    for metric, value in metrics.items():
        print(f"{metric} {value} {units[metric]}")
    print(f"failed_ratio {runner.failed / max(runner.attempted, 1)} "
          f"({runner.failed} of {runner.attempted} calls)")
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "imcsearch" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'imcsearch'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()  # before numpy is imported
    sys.path[:0] = [str(SRC), str(BENCH)]
    import imcsearch

    if Path(imcsearch.__file__).resolve().parent != (SRC / "imcsearch").resolve():
        print(f"error: imcsearch imported from {imcsearch.__file__}, not the "
              "checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.quick, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
