"""Command-line entry point.

Subcommands: ``eval`` (cost a fixed model), ``phase1`` / ``phase2`` (run
one search phase), ``sweep`` (repeat a search or evaluation along an
axis).  Every run writes a self-describing directory: a manifest, a
verbatim config snapshot, traces and result files.  Exit codes: 0 ok,
2 configuration error, 3 empty candidate pool, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import struct
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    AppConfig,
    ConfigError,
    FixtureConfig,
    check_class_count,
    check_cs_fits,
    load_config,
)
from .costmodel import model_cost
from .designspace import ADCType, CandidateModel, DesignSpace, validate_candidate
from .io import (
    load_model,
    model_to_dict,
    sha256_file,
    write_json,
    write_pool,
    write_report,
    write_trace,
)
from .nnsim import (
    RefNet,
    TensorBatch,
    build_refnet,
    load_net,
    make_blobs,
    make_patterns,
    split_batches,
)
from .search import (
    ADMISSION_MARGIN,
    CandidatePool,
    EmptyPoolError,
    Phase2Data,
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


class _RunDir:
    """Run-directory bookkeeping: snapshot first, manifest before results."""

    def __init__(self, out_dir: Path, command: str, config_path: Path,
                 seed: int):
        self.path = out_dir
        self.path.mkdir(parents=True, exist_ok=True)
        snapshot = self.path / "config_snapshot.yaml"
        snapshot.write_bytes(Path(config_path).read_bytes())
        self.manifest = {
            "command": command,
            "config_hash": f"sha256:{sha256_file(snapshot)}",
            "seed": seed,
            "tool_version": __version__,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "finished_at": None,
            "outputs": ["config_snapshot.yaml"],
        }
        self._write_manifest()

    def _write_manifest(self) -> None:
        write_json(self.path / "manifest.json", self.manifest)

    def record(self, *names: str) -> None:
        self.manifest["outputs"].extend(names)
        self._write_manifest()

    def finish(self) -> None:
        self.manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                     time.gmtime())
        self._write_manifest()


def _fixture_batch(fixture: FixtureConfig, space: DesignSpace, n: int,
                   seed: int) -> TensorBatch:
    if fixture.kind == "blobs":
        return make_blobs(n, n_classes=space.class_count,
                          n_features=space.input_channels, seed=seed)
    shape = space.layer_shapes[0]
    return make_patterns(n, channels=space.input_channels,
                         height=shape.in_spatial[0], width=shape.in_spatial[1],
                         n_classes=space.class_count, noise=fixture.noise,
                         seed=seed)


def _apply_seed(cfg: AppConfig, seed: int | None) -> AppConfig:
    if seed is None:
        return cfg
    return dataclasses.replace(
        cfg, search=dataclasses.replace(cfg.search, seed=seed))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(loader, path: Path):
    """``loader(path)``; a malformed file raises a ConfigError naming it."""
    try:
        return loader(path)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_valid_model(model_path: Path, cfg: AppConfig,
                      config_path: Path) -> CandidateModel:
    """The model at ``model_path``; a ConfigError names both files and lists
    every violation of the config's design space."""
    model = _load(load_model, model_path)
    violations = validate_candidate(model, cfg.space, cfg.platform)
    if violations:
        raise ConfigError(
            f"{model_path}: model does not fit the design space of "
            f"{config_path}: " + "; ".join(f"layer {v.layer} [{v.field}]: "
                                           f"{v.message}" for v in violations))
    return model


def _check_weights(net: RefNet, weights_path: Path, model: CandidateModel,
                   model_path: Path, class_count: int) -> None:
    """``net`` must have the layers ``build_refnet`` makes of ``model``."""
    got = [layer.spec() for layer in net.layers]
    want = [layer.spec() for layer in build_refnet(model, class_count).layers]
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
             seed: int | None = None) -> int:
    cfg = _apply_seed(load_config(config_path), seed)
    model = _load_valid_model(model_path, cfg, config_path)
    run = _RunDir(out_dir, "eval", config_path, cfg.search.seed)
    report = model_cost(model, cfg.platform)
    write_report(report, run.path / "report.json", run.path / "report.csv")
    run.record("report.json", "report.csv")
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


def _phase1_into(run: _RunDir, cfg: AppConfig):
    """Phase 1 and ranking into ``run``; the selected entry is None when the
    pool admitted nothing (the caller reports that)."""
    result = phase1_run(cfg.space, cfg.platform, cfg.search)
    write_trace(result.trace, run.path / "phase1_trace.csv")
    run.record("phase1_trace.csv")
    area_constraint = cfg.search.area_constraint
    if not result.pool.admitted():
        write_pool(result.pool, run.path / "pool.json", area_constraint)
        run.record("pool.json")
        run.finish()
        return result, None
    hd_batch = _fixture_batch(cfg.fixture, cfg.space, cfg.search.hd_batch_size,
                              cfg.search.seed)
    selected = rank_candidates(result.pool, hd_batch, cfg.search.seed,
                               cfg.space.class_count)
    write_pool(result.pool, run.path / "pool.json", area_constraint,
               selected_key=selected.choice_key())
    write_json(run.path / "selected_model.json", model_to_dict(selected.model))
    write_report(selected.report, run.path / "selected_report.json",
                 run.path / "selected_report.csv")
    run.record("pool.json", "selected_model.json", "selected_report.json",
               "selected_report.csv")
    return result, selected


def cmd_phase1(config_path: Path, out_dir: Path, seed: int | None = None) -> int:
    cfg = _apply_seed(load_config(config_path), seed)
    check_class_count(cfg.space)
    run = _RunDir(out_dir, "phase1", config_path, cfg.search.seed)
    result, selected = _phase1_into(run, cfg)
    if selected is None:
        print(f"error: {_empty_pool_message(result.pool, cfg.search)}",
              file=sys.stderr)
        return EXIT_EMPTY_POOL
    run.finish()
    print(f"phase1: admitted pool ranked; selected candidate area "
          f"{selected.report.area:.4g} mm^2, delay "
          f"{selected.report.delay:.4g} ns (step {selected.step})")
    return EXIT_OK


def cmd_phase2(config_path: Path, phase1_dir: Path, weights_path: Path,
               out_dir: Path, seed: int | None = None) -> int:
    cfg = _apply_seed(load_config(config_path), seed)
    model_file = Path(phase1_dir) / "selected_model.json"
    if not model_file.is_file():
        print(f"error: phase1 run directory has no selected model: "
              f"{model_file}", file=sys.stderr)
        return EXIT_CONFIG
    weights_path = Path(weights_path)
    if not weights_path.is_file():
        print(f"error: network weights file not found: {weights_path}",
              file=sys.stderr)
        return EXIT_CONFIG
    check_class_count(cfg.space)
    model = _load_valid_model(model_file, cfg, config_path)
    net = _load(load_net, weights_path)
    _check_weights(net, weights_path, model, model_file, cfg.space.class_count)
    run = _RunDir(out_dir, "phase2", config_path, cfg.search.seed)

    fixture = cfg.fixture
    train_batch = _fixture_batch(fixture, cfg.space, fixture.train_samples,
                                 cfg.search.seed)
    n_adapt = max(fixture.adapt_batch_size,
                  int(fixture.adapt_fraction * fixture.train_samples))
    adapt = TensorBatch(train_batch.data[:n_adapt], train_batch.labels[:n_adapt])
    eval_batch = _fixture_batch(fixture, cfg.space, fixture.eval_samples,
                                cfg.search.seed + 1)
    data = Phase2Data(adapt_batches=split_batches(adapt,
                                                  fixture.adapt_batch_size),
                      eval_batch=eval_batch)
    result = phase2_run(net, model, cfg.space, cfg.platform, cfg.search, data)
    write_trace(result.trace, run.path / "phase2_trace.csv")
    final_model = apply_assignment(model, result.assignment)
    write_json(run.path / "final_model.json", model_to_dict(final_model))
    report = model_cost(final_model, cfg.platform)
    write_report(report, run.path / "final_report.json",
                 run.path / "final_report.csv")
    # a layer no step probed ends at its delay-only option, with no CE evidence
    probed = {row["layer"] for row in result.trace}
    write_json(run.path / "assignment.json",
               {"per_layer_ap_ip": [list(a) for a in result.assignment],
                "delay_ref_ns": result.delay_ref,
                "unprobed_layers": [layer for layer in range(len(result.assignment))
                                    if layer not in probed]})
    run.record("phase2_trace.csv", "final_model.json", "final_report.json",
               "final_report.csv", "assignment.json")
    run.finish()
    print(f"phase2: assignment {result.assignment}; final delay "
          f"{report.delay:.4g} ns, EDAP {report.edap:.4g}")
    return EXIT_OK


def _sweep_point(args: tuple) -> dict:
    """One sweep point; runs in a worker process."""
    (config_path, axis, value, point_dir, model_path, seed) = args
    row: dict = {"value": value, "status": "ok", "message": ""}
    try:
        cfg = _apply_seed(load_config(config_path), seed)
        if axis == "area_constraint":
            cfg = dataclasses.replace(
                cfg, search=dataclasses.replace(cfg.search,
                                                area_constraint=float(value)))
        elif axis == "xbar_size":
            if value != int(value):
                raise ConfigError(f"xbar_size must be an integer, got {value:g}")
            platform = dataclasses.replace(cfg.platform, xbar_size=int(value))
            check_cs_fits(cfg.space, platform)
            cfg = dataclasses.replace(cfg, platform=platform)
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")

        if model_path is not None:
            model = _load_valid_model(model_path, cfg, config_path)
            report = model_cost(model, cfg.platform)
            selected_model = model
        else:
            check_class_count(cfg.space)
            run = _RunDir(Path(point_dir), f"sweep:{axis}", config_path,
                          cfg.search.seed)
            result, selected = _phase1_into(run, cfg)
            if selected is None:
                row["status"] = "empty_pool"
                row["message"] = _empty_pool_message(result.pool, cfg.search)
                return row
            run.finish()
            report = selected.report
            selected_model = selected.model
        n = len(selected_model.layers)
        row.update({
            "area_mm2": report.area,
            "delay_ns": report.delay,
            "energy_pJ": report.energy,
            "edap_mJ_ms_mm2": report.edap,
            "psi": report.psi,
            "mean_cs": sum(c.cs for _, c in selected_model.layers) / n,
            "sar_fraction": sum(1 for _, c in selected_model.layers
                                if c.at is ADCType.SAR) / n,
            "total_tiles": sum(lc.tiles for lc in report.per_layer),
        })
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        row["status"] = "config_error"
        row["message"] = str(exc)
    except FloatingPointError as exc:
        row["status"] = "numeric_error"
        row["message"] = str(exc)
    return row


#: A sweep exits with the largest code among its points.
_SWEEP_EXIT = {"ok": EXIT_OK, "config_error": EXIT_CONFIG,
               "empty_pool": EXIT_EMPTY_POOL, "numeric_error": EXIT_NUMERIC}

_SWEEP_COLUMNS = ("value", "status", "message", "area_mm2", "delay_ns",
                  "energy_pJ", "edap_mJ_ms_mm2", "psi", "mean_cs",
                  "sar_fraction", "total_tiles")


def cmd_sweep(config_path: Path, axis: str, values: list[float], out_dir: Path,
              workers: int = 1, model_path: Path | None = None,
              seed: int | None = None) -> int:
    cfg = _apply_seed(load_config(config_path), seed)
    run = _RunDir(out_dir, f"sweep:{axis}", config_path, cfg.search.seed)
    tasks = [(config_path, axis, v, str(run.path / f"point_{v:g}"), model_path,
              cfg.search.seed) for v in values]
    # the executor starts every worker it may use, so use no more than points
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    for row in rows:
        for col in _SWEEP_COLUMNS:
            row.setdefault(col, "")
    ordered = [{col: row[col] for col in _SWEEP_COLUMNS} for row in rows]
    write_trace(ordered, run.path / "sweep.csv")
    run.record("sweep.csv")
    run.finish()
    ok = sum(r["status"] == "ok" for r in rows)
    print(f"sweep: {ok}/{len(rows)} points ok; "
          f"results in {run.path / 'sweep.csv'}")
    return max(_SWEEP_EXIT[r["status"]] for r in rows)


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

    p_eval = sub.add_parser("eval", help="cost a fixed model")
    p_eval.add_argument("--config", required=True, type=Path)
    p_eval.add_argument("--model", required=True, type=Path)
    p_eval.add_argument("--out-dir", required=True, type=Path)
    p_eval.add_argument("--seed", type=int, default=None)

    p1 = sub.add_parser("phase1", help="run the width/CS/AT search")
    p1.add_argument("--config", required=True, type=Path)
    p1.add_argument("--out-dir", required=True, type=Path)
    p1.add_argument("--seed", type=int, default=None)

    p2 = sub.add_parser("phase2", help="run the AP/IP search")
    p2.add_argument("--config", required=True, type=Path)
    p2.add_argument("--phase1-dir", required=True, type=Path)
    p2.add_argument("--weights", required=True, type=Path)
    p2.add_argument("--out-dir", required=True, type=Path)
    p2.add_argument("--seed", type=int, default=None)

    ps = sub.add_parser("sweep", help="repeat a search/eval along an axis")
    ps.add_argument("--config", required=True, type=Path)
    ps.add_argument("--axis", required=True,
                    choices=("area_constraint", "xbar_size"))
    ps.add_argument("--values", required=True,
                    help="comma-separated axis values, e.g. 20,30,40")
    ps.add_argument("--out-dir", required=True, type=Path)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--model", type=Path, default=None,
                    help="evaluate this fixed model per point instead of searching")
    ps.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.config, args.model, args.out_dir, args.seed)
        if args.command == "phase1":
            return cmd_phase1(args.config, args.out_dir, args.seed)
        if args.command == "phase2":
            return cmd_phase2(args.config, args.phase1_dir, args.weights,
                              args.out_dir, args.seed)
        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            if not values:
                print("error: --values is empty", file=sys.stderr)
                return EXIT_CONFIG
            if args.workers < 1:
                print(f"error: --workers must be >= 1, got {args.workers}",
                      file=sys.stderr)
                return EXIT_CONFIG
            return cmd_sweep(args.config, args.axis, values, args.out_dir,
                             args.workers, args.model, args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyPoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_POOL
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
