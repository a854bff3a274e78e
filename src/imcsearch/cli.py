"""Command-line entry point.

Subcommands: ``eval`` (cost a fixed model), ``phase1`` / ``phase2`` (run
one search phase), ``sweep`` (repeat ``eval``, with ``--model``, or else
``phase1`` along an axis).  ``--seed`` is the config's ``search.seed``,
and a sweep point is the run its config file gives with the axis's key
(``_SWEEP_AXES``) set to the point's value; both go in as ``load_config``
overrides, so their refusals read like the file's.  Every run writes a
self-describing directory: a manifest, a verbatim config snapshot, traces
and result files.  A sweep puts each phase-1 point's directory at
``point_<value:g>`` under its own, with ``"sweep": {"axis", "value"}`` in
the point's manifest; ``--values`` whose directory names clash are refused.

A manifest's ``outputs`` lists, in write order, exactly the files its run
wrote, and a sweep's ``points`` its phase-1 points' directories.  A run
first deletes the files an earlier manifest in its directory lists, and
empties the point directories it names of what their manifests list, except
its own inputs.  ``phase2`` refuses a phase-1 directory whose manifest
records a failure, is unfinished or lacks ``selected_model.json``.

``_exit_code`` maps every failure to its exit code.  A run that fails
after its directory exists records the code and the message in its
manifest as ``"failure": {"code", "message"}``.  A sweep point's status
in ``sweep.csv`` names that code, and a sweep exits with its points'
largest code:

  code  status         failure
  0     ok             none
  2     config_error   bad input: a config, model or weights file, a flag,
                       a value off its axis
  3     empty_pool     phase 1 admitted no candidate
  4     numeric_error  a non-finite or overflowing number
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import struct
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import AppConfig, ConfigError, check_class_count, load_config
from .costmodel import CostReport, model_cost, psi_terms
from .designspace import CandidateModel, validate_candidate
from .io import load_model, model_to_dict, pool_to_dict, write_json, write_trace
from .nnsim import RefNet, TensorBatch
from .nnsim.data import make_blobs, make_patterns, split_batches
from .nnsim.network import load_net, refnet_layers
from .search import (
    ADMISSION_MARGIN,
    CandidatePool,
    EmptyPoolError,
    Phase2Data,
    PoolEntry,
    SearchConfig,
    apply_assignment,
    phase1_run,
    phase2_run,
    rank_candidates,
    relative_area_error,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_POOL = 3
EXIT_NUMERIC = 4


def _environment() -> dict:
    """What a run's floats depend on besides its inputs: the numpy version,
    its BLAS library, and the kernel ("core") OpenBLAS picked for this CPU,
    which sets the order of a product's sums (None where the library does
    not report it)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "openblas_core": _openblas_core()}


def _openblas_core() -> str | None:
    # numpy's bundled OpenBLAS is loaded with its extension module, whose
    # handle finds the library's symbols
    try:
        from numpy._core import _multiarray_umath
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _listed(directory: Path) -> tuple[list[Path], list[Path]]:
    """The bare-named outputs and point directories that the manifest in
    ``directory`` lists; an unreadable manifest raises a ConfigError."""
    manifest = directory / "manifest.json"
    if not manifest.exists():
        return [], []
    try:
        listed = json.loads(manifest.read_text())
        groups = listed["outputs"], listed.get("points", [])
        if not all(isinstance(names, list) for names in groups):
            raise TypeError(f"outputs or points is not a list: {groups!r}")
        return tuple([directory / n for n in names if Path(n).name == n != ".."]
                     for names in groups)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest}: unreadable manifest of an earlier "
                          f"run, so nothing was deleted: {exc}") from exc


class _RunDir:
    """Run-directory bookkeeping.  ``write`` is the one way a file gets in:
    it writes the file, then lists it in the manifest's ``outputs``, which
    so names, in write order, exactly the files on disk that this run wrote.

    A context manager: a mapped failure (``_exit_code``) raised inside the
    ``with`` block is recorded as the manifest's ``"failure": {"code",
    "message"}`` before it propagates.
    """

    def __init__(self, out_dir: Path, command: str, config_path: Path,
                 seed: int, inputs: tuple[Path | None, ...] = (), **manifest):
        # read before anything is deleted
        snapshot = Path(config_path).read_bytes()
        self.path = out_dir
        self.path.mkdir(parents=True, exist_ok=True)
        self._clear_earlier_outputs((config_path, *inputs))
        self.manifest = {
            "command": command,
            "config_hash": f"sha256:{hashlib.sha256(snapshot).hexdigest()}",
            "seed": seed,
            "tool_version": __version__,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "finished_at": None,
            "outputs": [],
            **manifest,
            "environment": _environment(),
        }
        self.write("config_snapshot.yaml", snapshot)

    def _clear_earlier_outputs(self, inputs: tuple[Path | None, ...]) -> None:
        """Delete the outputs an earlier run's manifest here lists, and in each
        point directory it lists, that point's outputs and manifest, then the
        directory if left empty.  Bare names only; never ``inputs``, the files
        this run reads.  An unreadable manifest raises, deleting nothing."""
        stale, points = _listed(self.path)
        for point in points:
            stale += [*_listed(point)[0], point / "manifest.json"]
        keep = {Path(p).resolve() for p in inputs if p is not None}
        for path in stale:
            if path.is_file() and path.resolve() not in keep:
                path.unlink()
        for point in points:
            if point.is_dir() and not any(point.iterdir()):
                point.rmdir()

    def write(self, name: str, payload: bytes | dict | list[dict]) -> None:
        """Write ``name`` (bytes verbatim, a dict as JSON, rows as CSV) and
        list it among the manifest's outputs."""
        path = self.path / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        elif isinstance(payload, dict):
            write_json(path, payload)
        else:
            write_trace(path, payload)
        self.manifest["outputs"].append(name)
        self.record()

    def record(self) -> None:
        write_json(self.path / "manifest.json", self.manifest)

    def finish(self) -> None:
        """Stamp the run finished."""
        self.manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                     time.gmtime())
        self.record()

    def __enter__(self) -> _RunDir:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        code = None if exc is None else _exit_code(exc)
        if code is not None:
            self.manifest["failure"] = {"code": code, "message": str(exc)}
            self.record()


def _fixture_batch(cfg: AppConfig, n: int, seed: int) -> TensorBatch:
    """``n`` fixture samples of the space's input (``FixtureConfig``)."""
    space, first = cfg.space, cfg.space.layer_shapes[0]
    if first.is_fc:
        return make_blobs(n, space.class_count, space.input_channels, seed=seed)
    return make_patterns(n, space.input_channels, *first.in_spatial,
                         n_classes=space.class_count, noise=cfg.fixture.noise,
                         seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(loader, path: Path):
    """``loader(path)``; a malformed file raises a ConfigError naming it."""
    try:
        return loader(path)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _eval(cfg: AppConfig, config_path: Path,
          model_path: Path) -> tuple[CandidateModel, CostReport]:
    """The model at ``model_path`` and its cost; a ConfigError names both
    files and lists every violation of the config's design space."""
    model = _load(load_model, model_path)
    violations = validate_candidate(model, cfg.space, cfg.platform)
    if violations:
        raise ConfigError(
            f"{model_path}: model does not fit the design space of "
            f"{config_path}: " + "; ".join(f"layer {v.layer} [{v.field}]: "
                                           f"{v.message}" for v in violations))
    return model, model_cost(model, cfg.platform)


def _check_weights(net: RefNet, weights_path: Path, model: CandidateModel,
                   model_path: Path, class_count: int) -> None:
    """``net`` must have the layers ``build_refnet`` makes of ``model``."""
    got = [layer.spec() for layer in net.layers]
    want = [layer.spec() for layer in refnet_layers(model, class_count)]
    if got == want:
        return
    if len(got) != len(want):
        detail = f"{len(got)} layers, expected {len(want)}"
    else:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        detail = f"layer {i} is {got[i]}, expected {want[i]}"
    raise ConfigError(f"{weights_path}: network is not the one build_refnet "
                      f"makes of {model_path}: {detail}")


def cmd_eval(config_path: Path, model_path: Path, out_dir: Path,
             overrides: tuple = ()) -> int:
    cfg = load_config(config_path, overrides)
    _, report = _eval(cfg, config_path, model_path)
    run = _RunDir(out_dir, "eval", config_path, cfg.search.seed, (model_path,))
    run.write("report.json", report.to_dict())
    run.write("report.csv", report.csv_rows())
    run.finish()
    print(f"eval: area {report.area:.4g} mm^2, delay {report.delay:.4g} ns, "
          f"energy {report.energy:.4g} pJ, EDAP {report.edap:.4g}, "
          f"psi {report.psi:.4g}")
    return EXIT_OK


def _empty_pool_message(pool: CandidatePool, search_cfg: SearchConfig) -> str:
    """Why a phase-1 pool admitted nothing, naming its nearest miss."""
    area_constraint = search_cfg.area_constraint
    miss = pool.nearest_miss(area_constraint)
    nearest = "" if miss is None else (
        f"; nearest miss: step {miss.step}, area {miss.report.area:.4g} mm^2, "
        f"{relative_area_error(miss.report.area, area_constraint):+.2%} "
        f"off the constraint")
    return (f"no candidate fell within the {100 * ADMISSION_MARGIN:.0f}% area "
            f"margin of {area_constraint} mm^2 after {search_cfg.n1_steps} "
            f"steps{nearest}")


def _phase1(cfg: AppConfig, config_path: Path, out_dir: Path, command: str,
            **manifest) -> PoolEntry:
    """Phase 1 and ranking into a new run directory, whose manifest gains
    the keys of ``manifest``; the selected entry.  An empty pool finishes
    the directory and raises an EmptyPoolError naming the nearest miss."""
    check_class_count(cfg.space)
    with _RunDir(out_dir, command, config_path, cfg.search.seed,
                 **manifest) as run:
        result = phase1_run(cfg.space, cfg.platform, cfg.search)
        run.write("phase1_trace.csv", result.trace)
        selected = None
        if result.pool.admitted():
            hd_batch = _fixture_batch(cfg, cfg.search.hd_batch_size,
                                      cfg.search.seed)
            selected = rank_candidates(result.pool, hd_batch, cfg.search.seed,
                                       cfg.space.class_count)
        run.write("pool.json", pool_to_dict(
            result.pool, cfg.search.area_constraint,
            selected_key=None if selected is None else selected.choice_key()))
        if selected is None:
            run.finish()
            raise EmptyPoolError(_empty_pool_message(result.pool, cfg.search))
        run.write("selected_model.json", model_to_dict(selected.model))
        run.write("selected_report.json", selected.report.to_dict())
        run.write("selected_report.csv", selected.report.csv_rows())
        run.finish()
    return selected


def cmd_phase1(config_path: Path, out_dir: Path, overrides: tuple = ()) -> int:
    cfg = load_config(config_path, overrides)
    selected = _phase1(cfg, config_path, out_dir, "phase1")
    print(f"phase1: admitted pool ranked; selected candidate area "
          f"{selected.report.area:.4g} mm^2, delay "
          f"{selected.report.delay:.4g} ns (step {selected.step})")
    return EXIT_OK


def _phase1_problem(manifest_path: Path) -> str | None:
    """Why the phase-1 run of ``manifest_path`` has no selected model of
    its own (it failed, did not finish or wrote none), or None."""
    manifest = json.loads(manifest_path.read_text())
    if "failure" in manifest:
        return f"failed with exit code {manifest['failure']['code']}"
    if manifest["finished_at"] is None:
        return "did not finish"
    if "selected_model.json" not in manifest["outputs"]:
        return "wrote no selected_model.json"
    return None


def cmd_phase2(config_path: Path, phase1_dir: Path, weights_path: Path,
               out_dir: Path, overrides: tuple = ()) -> int:
    cfg = load_config(config_path, overrides)
    # a directory without a manifest, made by hand, is taken as it is
    manifest = Path(phase1_dir) / "manifest.json"
    if manifest.is_file() and (problem := _load(_phase1_problem, manifest)):
        raise ConfigError(f"{manifest}: the phase1 run {problem}; any "
                          f"selected model in its directory is not its own")
    model_file = Path(phase1_dir) / "selected_model.json"
    if not model_file.is_file():
        raise ConfigError(f"phase1 run directory has no selected model: "
                          f"{model_file}")
    weights_path = Path(weights_path)
    if not weights_path.is_file():
        raise ConfigError(f"network weights file not found: {weights_path}")
    check_class_count(cfg.space)
    model, _ = _eval(cfg, config_path, model_file)
    net = _load(load_net, weights_path)
    _check_weights(net, weights_path, model, model_file, cfg.space.class_count)
    with _RunDir(out_dir, "phase2", config_path, cfg.search.seed, (model_file,)) as run:
        fixture = cfg.fixture
        train_batch = _fixture_batch(cfg, fixture.train_samples, cfg.search.seed)
        n_adapt = max(fixture.adapt_batch_size,
                      int(fixture.adapt_fraction * fixture.train_samples))
        # copies, so the run does not keep the rest of the draw alive
        adapt = TensorBatch(train_batch.data[:n_adapt].copy(),
                            train_batch.labels[:n_adapt].copy())
        del train_batch
        eval_batch = _fixture_batch(cfg, fixture.eval_samples, cfg.search.seed + 1)
        data = Phase2Data(adapt_batches=split_batches(adapt,
                                                      fixture.adapt_batch_size),
                          eval_batch=eval_batch)
        result = phase2_run(net, model, cfg.space, cfg.platform, cfg.search, data)
        run.write("phase2_trace.csv", result.trace)
        final_model = apply_assignment(model, result.assignment)
        run.write("final_model.json", model_to_dict(final_model))
        report = model_cost(final_model, cfg.platform)
        run.write("final_report.json", report.to_dict())
        run.write("final_report.csv", report.csv_rows())
        # a layer no step probed ends at its delay-only option, with no CE evidence
        probed = {row["layer"] for row in result.trace}
        run.write("assignment.json",
                  {"per_layer_ap_ip": [list(a) for a in result.assignment],
                   "delay_ref_ns": result.delay_ref,
                   "unprobed_layers": [layer for layer in range(len(result.assignment))
                                       if layer not in probed]})
        run.finish()
    print(f"phase2: assignment {result.assignment}; final delay "
          f"{report.delay:.4g} ns, EDAP {report.edap:.4g}")
    return EXIT_OK


def _exit_code(exc: BaseException) -> int | None:
    """The one map from a run's failures to exit codes; None for a failure
    it does not map, which propagates."""
    # before ValueError, which LinAlgError subclasses
    if isinstance(exc, (FloatingPointError, OverflowError,
                        np.linalg.LinAlgError)):
        return EXIT_NUMERIC
    if isinstance(exc, (ConfigError, ValueError, FileNotFoundError)):
        return EXIT_CONFIG
    if isinstance(exc, EmptyPoolError):
        return EXIT_EMPTY_POOL
    return None


def _outcome(fn, *args) -> tuple[int, str, object]:
    """``(exit code, message, result)`` of ``fn(*args)``; the result is None
    on a failure."""
    try:
        return EXIT_OK, "", fn(*args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return code, str(exc), None


#: The sweep status that names each exit code.
_SWEEP_STATUS = {EXIT_OK: "ok", EXIT_CONFIG: "config_error",
                 EXIT_EMPTY_POOL: "empty_pool", EXIT_NUMERIC: "numeric_error"}

#: Each sweep axis and the config key, (section, key), that it sets.
_SWEEP_AXES = {"area_constraint": ("search", "area_constraint_mm2"),
               "xbar_size": ("platform", "xbar_size")}
_SWEEP_COLUMNS = ("value", "status", "message", "area_mm2", "delay_ns",
                  "energy_pJ", "edap_mJ_ms_mm2", "psi", "mean_cs",
                  "sar_fraction", "total_tiles")


def _point_columns(config_path: Path, axis: str, value: float, point_dir: str,
                   model_path: Path | None, overrides: tuple) -> dict:
    """One sweep point's result columns, with ``axis``'s config key set to
    ``value``: the cost of the model at ``model_path``, or else of phase 1's
    selection, run into ``point_dir``."""
    cfg = load_config(config_path, (*overrides, (*_SWEEP_AXES[axis], value)))
    if model_path is not None:
        model, report = _eval(cfg, config_path, model_path)
    else:
        selected = _phase1(cfg, config_path, Path(point_dir), f"sweep:{axis}",
                           sweep={"axis": axis, "value": value})
        model, report = selected.model, selected.report
    mean_cs, sar_fraction = psi_terms(model)
    return {**report.totals(), "mean_cs": mean_cs, "sar_fraction": sar_fraction,
            "total_tiles": sum(lc.tiles for lc in report.per_layer)}


def _sweep_point(args: tuple) -> dict:
    """One sweep point's row and exit code; runs in a worker process."""
    code, message, columns = _outcome(_point_columns, *args)
    return {"value": args[2], "code": code, "status": _SWEEP_STATUS[code],
            "message": message, **(columns or {})}


def _sweep_values(text: str) -> list[float]:
    """The numbers of a comma-separated ``--values`` list."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc


def cmd_sweep(config_path: Path, axis: str, values: list[float], out_dir: Path,
              workers: int = 1, model_path: Path | None = None,
              overrides: tuple = ()) -> int:
    if not values:
        raise ConfigError("--values is empty")
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"--axis: unknown sweep axis {axis!r}")
    names = [f"point_{v:g}" for v in values]
    for i, name in enumerate(names):
        if (first := names.index(name)) < i:
            raise ConfigError(f"--values: {values[first]!r} and {values[i]!r} "
                              f"both name the point directory {name}")
    cfg = load_config(config_path, overrides)
    run = _RunDir(out_dir, f"sweep:{axis}", config_path, cfg.search.seed,
                  (model_path,), points=[] if model_path else names)
    tasks = [(config_path, axis, v, str(run.path / name), model_path, overrides)
             for v, name in zip(values, names)]
    # the executor starts every worker it may use, so use no more than points
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    run.write("sweep.csv", [{col: row.get(col, "") for col in _SWEEP_COLUMNS}
                            for row in rows])
    run.finish()
    ok = sum(r["code"] == EXIT_OK for r in rows)
    print(f"sweep: {ok}/{len(rows)} points ok; "
          f"results in {run.path / 'sweep.csv'}")
    return max(r["code"] for r in rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imcsearch",
        description="Co-search of layer widths and crossbar peripheral "
                    "circuits, with an analytical cost model.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, type=Path)
    common.add_argument("--out-dir", required=True, type=Path)
    common.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", parents=[common], help="cost a fixed model")
    p_eval.add_argument("--model", required=True, type=Path)

    sub.add_parser("phase1", parents=[common], help="run the width/CS/AT search")

    p2 = sub.add_parser("phase2", parents=[common], help="run the AP/IP search")
    p2.add_argument("--phase1-dir", required=True, type=Path)
    p2.add_argument("--weights", required=True, type=Path)

    ps = sub.add_parser("sweep", parents=[common],
                        help="repeat a search/eval along an axis")
    ps.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    ps.add_argument("--values", required=True,
                    help="comma-separated numbers along --axis, e.g. 20,30,40; "
                         "no two may share a point directory, point_<value:g>")
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--model", type=Path, default=None,
                    help="evaluate this fixed model per point instead of searching")
    return parser


_COMMANDS = {
    "eval": lambda a, o: cmd_eval(a.config, a.model, a.out_dir, o),
    "phase1": lambda a, o: cmd_phase1(a.config, a.out_dir, o),
    "phase2": lambda a, o: cmd_phase2(a.config, a.phase1_dir, a.weights,
                                      a.out_dir, o),
    "sweep": lambda a, o: cmd_sweep(a.config, a.axis, _sweep_values(a.values),
                                    a.out_dir, a.workers, a.model, o),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # --seed is the config's search.seed, read and checked as the file's is
    overrides = () if args.seed is None else (("search", "seed", args.seed),)
    code, message, result = _outcome(_COMMANDS[args.command], args, overrides)
    if code == EXIT_OK:
        return result
    numeric = "numeric failure: " if code == EXIT_NUMERIC else ""
    print(f"error: {numeric}{message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
