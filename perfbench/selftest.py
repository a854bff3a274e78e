"""Reduced-size self-test of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It runs every workload at reduced size (``--quick``), traced and untraced,
and checks that the result line names every metric of ``BENCHMARK.json``
with its unit, that counts and output digests repeat across processes,
that each workload's output checks reject a tampered output, that the
reference probe finds its probe points and leaves the outputs unchanged,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for n in names + [m["name"] for m in metrics]:
        assert NAME.match(n), n
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    from catalog import MOVES

    assert set(MOVES) == {m["name"] for m in SPEC["per_layer"]}, \
        set(MOVES) ^ {m["name"] for m in SPEC["per_layer"]}


def check_runs() -> None:
    """Every metric with its unit, and exact counts across two processes."""
    from catalog import MOVES

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n, u in layer.items() if u in ("count", "GFLOP")
             or n.endswith("_ratio") and n != "trace_overhead_ratio"]
    for w in (w["name"] for w in SPEC["workloads"]):
        plain = _result(_run(w, 0))
        assert {k: v["unit"] for k, v in plain["metrics"].items()} == e2e, plain
        assert all(v["value"] > 0 for v in plain["metrics"].values()), plain
        first, second = (_result(_run(w, 1)) for _ in range(2))
        for res in (first, second):
            assert {k: v["unit"] for k, v in res["metrics"].items()} == layer
            assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
        for n in exact:
            assert first["metrics"][n]["value"] == second["metrics"][n]["value"], \
                (w, n, first["metrics"][n], second["metrics"][n])
        moved = [n for n, (wl, _) in MOVES.items()
                 if w in wl.split(",") and n in exact]
        assert any(first["metrics"][n]["value"] > 0 for n in moved), (w, moved)
        print(f"ok: {w} end-to-end and per-layer metrics, counts repeat")


def check_output_checks() -> None:
    """Each workload's checks run on real outputs and reject tampered ones."""
    import dataclasses

    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        fx = wl.setup(5, quick=True)
        inp = fx.inputs[0]
        out = wl.call(fx, inp)
        assert wl.check(fx, inp, out) == [], wl.name
        assert wl.digest(out) == wl.digest(wl.call(fx, inp)), wl.name
        bad = copy.deepcopy(out)
        if wl.name == "phase1_vgg16":
            bad.trace.pop()
            entry = bad.pool.entries[0]
            entry.report = dataclasses.replace(entry.report,
                                               area=entry.report.area * 1.5)
        elif wl.name == "hd_rank_vgg16":
            selected, scores = bad
            selected.admitted = False
            scores[0] = (scores[0][0], float("nan"))
        else:
            bad.assignment[0] = (9, 9)
            bad.trace[0]["mixture_ce"] = float("inf")
        problems = wl.check(fx, inp, bad)  # one per tampered field
        assert len(problems) == 2, (wl.name, problems)
        assert wl.digest(bad) != wl.digest(out), wl.name
        print(f"ok: {wl.name} output checks reject a tampered output")


def check_lap_clock() -> None:
    """Every probe point exists, the probe runs in a call, patches come off."""
    from laps import LapClock
    from reference import ProbeSampler
    from tracer import module_aliases
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        clock = LapClock(wl.laps, ProbeSampler())
        assert clock.boundaries == len(wl.laps), (wl.name, wl.laps)
        bound = {fn: module_aliases(fn) for fn, _ in clock._targets}
        fx = wl.setup(5, quick=True)
        reference = wl.digest(wl.call(fx, fx.inputs[0]))
        clock.install()
        try:
            out = wl.call(fx, fx.inputs[0])
        finally:
            clock.uninstall()
        assert wl.digest(out) == reference, wl.name
        slowdown = clock.sampler.take()
        assert clock.probe_ns > 0 and slowdown is not None and slowdown > 0, wl.name
        assert bound == {fn: module_aliases(fn) for fn in bound}, wl.name
        print(f"ok: {wl.name} probe points, slowdown {slowdown:.2f} in a call")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark exits non-zero, silently."""
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: a directory without the sources exits non-zero, no result")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    check_spec()
    check_bare_directory()
    check_output_checks()
    check_lap_clock()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
