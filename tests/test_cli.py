"""Command-line exit codes and messages on a small conv-conv-FC configuration."""

import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from imcsearch import cli, search
from imcsearch.config import MAX_BATCH_VALUES, MAX_EXTENT, MAX_WIDTH, load_config
from imcsearch.designspace import ADCType, homogeneous_model
from imcsearch.io import load_model, model_to_dict, write_json
from imcsearch.nnsim import RefNet, load_net
from imcsearch.nnsim.network import build_refnet, save_net

from conftest import one_float_per_array

#: Two toy conv layers and an FC classifier, a few phase-1 steps; the
#: constraint is filled in.
CONFIG = {
    "design_space": {
        "input_channels": 1,
        "class_count": 2,
        "cs_options": [4, 8],
        "layers": [
            {"in_h": 8, "kernel": 3, "cd_options": [8, 16]},
            {"in_h": 8, "kernel": 3, "cd_options": [2]},
            {"is_fc": True, "cd_options": [2]},  # class_count
        ],
    },
    "search": {"phase1_steps": 5, "seed": 0},
}


def write_config(tmp_path, search_section):
    raw = dict(CONFIG, search=search_section)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_phase1_empty_pool_exits_3_and_names_the_margin(tmp_path, capsys):
    # far above any area the toy space can reach, so nothing is admitted
    path = write_config(tmp_path, dict(CONFIG["search"],
                                       area_constraint_mm2=1e6))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path),
                     "--out-dir", str(out)]) == cli.EXIT_EMPTY_POOL
    pool = json.loads((out / "pool.json").read_text())
    assert pool["entries"] and pool["admitted_count"] == 0
    err = capsys.readouterr().err
    assert f"within the {100 * search.ADMISSION_MARGIN:.0f}% area margin" in err
    assert "2%" in err


def test_phase1_empty_pool_names_the_nearest_miss(tmp_path, capsys):
    # between the areas the toy search's argmax candidates reach
    constraint = 5.0
    path = write_config(tmp_path, dict(CONFIG["search"],
                                       area_constraint_mm2=constraint))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path),
                     "--out-dir", str(out)]) == cli.EXIT_EMPTY_POOL
    pool = json.loads((out / "pool.json").read_text())
    nearest = min(pool["entries"],
                  key=lambda e: abs(e["area_mm2"] - constraint))
    miss = pool["nearest_miss"]
    assert miss == {"step": nearest["step"], "area_mm2": nearest["area_mm2"],
                    "rel_area_error": (nearest["area_mm2"] - constraint)
                    / constraint}
    assert abs(miss["rel_area_error"]) > search.ADMISSION_MARGIN
    err = capsys.readouterr().err
    assert (f"nearest miss: step {miss['step']}, area "
            f"{miss['area_mm2']:.4g} mm^2, {miss['rel_area_error']:+.2%}") in err


def test_sweep_empty_pool_row_names_the_nearest_miss(tmp_path, capsys):
    # the phase1 message, nearest miss included, at the same constraint
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=5.0))
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")]) == cli.EXIT_EMPTY_POOL
    (line,) = capsys.readouterr().err.splitlines()
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "5", "--out-dir", str(out)]) == cli.EXIT_EMPTY_POOL
    (row,) = read_sweep(out)
    assert row["status"] == "empty_pool"
    assert "nearest miss: step " in row["message"]
    assert line == f"error: {row['message']}"


def test_sweep_prints_no_error_line_per_empty_point(tmp_path, capsys):
    # sweep.csv holds each point's message; phase1 alone prints its own
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=5.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "5,1e6", "--out-dir", str(out)]) == cli.EXIT_EMPTY_POOL
    rows = read_sweep(out)
    assert [row["status"] for row in rows] == ["empty_pool", "empty_pool"]
    assert all(row["message"] for row in rows)
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert "sweep: 0/2 points ok" in captured.out
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")]) == cli.EXIT_EMPTY_POOL
    assert capsys.readouterr().err == f"error: {rows[0]['message']}\n"


def test_phase1_pool_records_the_ranking_terms(phase2_inputs):
    pool = json.loads((phase2_inputs[1] / "pool.json").read_text())
    assert pool["admitted_count"] > 0 and pool["nearest_miss"] is None
    for entry in pool["entries"]:
        terms = [entry[k] for k in ("hd_norm", "delay_norm", "rank_score")]
        if not entry["admitted"]:
            assert terms == [None, None, None]
            continue
        hd_norm, delay_norm, rank_score = terms
        assert 0 <= hd_norm <= 1 and 0 <= delay_norm <= 1
        assert rank_score == hd_norm - delay_norm
    selected = next(e for e in pool["entries"] if [
        [c["choice"]["cd_out"], c["choice"]["cs"], c["choice"]["at"]]
        for c in e["model"]["layers"]] == pool["selected"])
    assert selected["rank_score"] == max(
        e["rank_score"] for e in pool["entries"] if e["admitted"])


def test_phase1_missing_area_constraint_exits_2_naming_the_field(tmp_path,
                                                                 capsys):
    path = write_config(tmp_path, CONFIG["search"])
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "search" in err and "area_constraint_mm2" in err


def read_sweep(out) -> list[dict]:
    with open(out / "sweep.csv", newline="") as f:
        return list(csv.DictReader(f))


def test_last_layer_wider_than_class_count_exits_2_naming_the_field(tmp_path,
                                                                   capsys):
    *first, last = CONFIG["design_space"]["layers"]
    raw = dict(CONFIG, design_space=dict(
        CONFIG["design_space"], layers=[*first, dict(last, cd_options=[2, 8])]),
               search=dict(CONFIG["search"], area_constraint_mm2=1.0))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    message = ("design_space.layers[2].cd_options: [2, 8] must be [2], "
               "the design_space.class_count")
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path),
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1", "--out-dir", str(out)]) == cli.EXIT_CONFIG
    (row,) = read_sweep(out)
    assert row["status"] == "config_error"
    assert message in row["message"]
    assert not (out / "point_1").exists()


def test_sweep_numeric_failure_exits_4_over_an_empty_pool(tmp_path,
                                                          monkeypatch):
    def diverge(*args):
        raise FloatingPointError("overflow in the HD score")

    monkeypatch.setattr(cli, "rank_candidates", diverge)
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1.18,1e6", "--out-dir", str(out)]) == cli.EXIT_NUMERIC
    numeric, empty = read_sweep(out)
    assert numeric["status"] == "numeric_error"
    assert "overflow in the HD score" in numeric["message"]
    assert empty["status"] == "empty_pool"


def test_phase1_numeric_failure_exits_4(tmp_path, capsys):
    # the squared relative area error overflows at so small a constraint
    path = write_config(tmp_path, dict(CONFIG["search"],
                                       area_constraint_mm2=1e-300))
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "not finite" in err


def test_sweep_phase1_numeric_failure_is_a_numeric_error_row(tmp_path):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1e-300,1.18", "--out-dir", str(out)]
                    ) == cli.EXIT_NUMERIC
    numeric, ok = read_sweep(out)
    assert numeric["status"] == "numeric_error"
    assert "not finite" in numeric["message"]
    assert ok["status"] == "ok"


def test_sweep_xbar_size_below_max_cs_exits_2_naming_the_field(tmp_path,
                                                               capsys):
    raw = dict(CONFIG, design_space=dict(CONFIG["design_space"],
                                         cs_options=[4, 32]),
               search=dict(CONFIG["search"], area_constraint_mm2=1.0))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "xbar_size",
                     "--values", "16,40.5", "--out-dir", str(out)]) == cli.EXIT_CONFIG
    small, fractional = read_sweep(out)
    assert small["status"] == fractional["status"] == "config_error"
    assert ("design_space.cs_options: max cs 32 exceeds platform.xbar_size 16"
            in small["message"])
    assert "xbar_size must be an integer, got 40.5" in fractional["message"]
    assert not (out / "point_16").exists()


def test_sweep_model_outside_the_space_exits_2_like_eval(tmp_path, capsys):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    space = load_config(path).space
    model_path = tmp_path / "model.json"
    write_json(model_path, model_to_dict(
        homogeneous_model(space, cs=32, at=ADCType.SAR, ap=6, ip=8)))
    assert cli.main(["eval", "--config", str(path), "--model", str(model_path),
                     "--out-dir", str(tmp_path / "eval")]) == cli.EXIT_CONFIG
    assert "layer 0 [cs]" in capsys.readouterr().err
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1", "--model", str(model_path),
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    (row,) = read_sweep(out)
    assert row["status"] == "config_error"
    assert "layer 0 [cs]: cs 32 not in (4, 8)" in row["message"]
    assert row["area_mm2"] == ""


def test_sweep_workers_below_one_exits_2_naming_the_flag(tmp_path, capsys):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1,2", "--workers", "0",
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    started = []

    class SerialExecutor:
        """Records the pool size and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialExecutor)
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    for values, want in (("1.18,8.07", [2]), ("1.18", [])):
        started.clear()
        cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                  "--values", values, "--workers", "64",
                  "--out-dir", str(tmp_path / values)])
        assert started == want


def test_sweep_rows_do_not_depend_on_the_worker_count(tmp_path):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    rows = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers_{workers}"
        cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                  "--values", "1.18,8.07", "--workers", workers,
                  "--out-dir", str(out)])
        rows.append(read_sweep(out))
    assert [r["status"] for r in rows[0]] == ["ok", "ok"]
    assert rows[0] == rows[1]


def _malformed_models(model: dict) -> dict:
    """Model documents broken one way each, by test id."""
    no_cd_out = json.loads(json.dumps(model))
    del no_cd_out["layers"][0]["choice"]["cd_out"]
    fractional = json.loads(json.dumps(model))
    fractional["layers"][0]["choice"]["cd_out"] = 8.9
    text_bool = json.loads(json.dumps(model))
    text_bool["layers"][0]["shape"]["is_fc"] = "false"
    text_int = json.loads(json.dumps(model))
    text_int["layers"][0]["choice"]["cd_out"] = "8"
    return {"missing_cd_out": json.dumps(no_cd_out),
            "fractional_cd_out": json.dumps(fractional),
            "is_fc_as_text": json.dumps(text_bool),
            "cd_out_as_text": json.dumps(text_int),
            "not_json": "layers: [conv]\n"}


@pytest.mark.parametrize("case", ["missing_cd_out", "fractional_cd_out",
                                  "is_fc_as_text", "cd_out_as_text", "not_json"])
def test_malformed_model_file_exits_2_naming_the_file(tmp_path, capsys, case):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    space = load_config(path).space
    model = model_to_dict(homogeneous_model(space, cs=8, at=ADCType.SAR,
                                            ap=6, ip=8))
    model_path = tmp_path / "model.json"
    model_path.write_text(_malformed_models(model)[case])
    out = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(path), "--model", str(model_path),
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {model_path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def phase2_inputs(tmp_path_factory):
    """A toy phase-1 run directory, the weights of its selected model and a
    phase-2 config with one step on a small fixture."""
    tmp_path = tmp_path_factory.mktemp("phase2")
    raw = dict(CONFIG, search=dict(CONFIG["search"], area_constraint_mm2=1.18,
                                   phase2_steps=1),
               fixture={"train_samples": 16, "eval_samples": 8,
                        "adapt_batch_size": 8})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    phase1_dir = tmp_path / "phase1"
    assert cli.main(["phase1", "--config", str(path),
                     "--out-dir", str(phase1_dir)]) == cli.EXIT_OK
    model = load_model(phase1_dir / "selected_model.json")
    weights = tmp_path / "net.bin"
    save_net(build_refnet(model, CONFIG["design_space"]["class_count"], seed=0),
             weights)
    return path, phase1_dir, weights


def run_phase2(phase2_inputs, weights, out) -> int:
    path, phase1_dir, _ = phase2_inputs
    return cli.main(["phase2", "--config", str(path), "--phase1-dir",
                     str(phase1_dir), "--weights", str(weights),
                     "--out-dir", str(out)])


def test_phase2_runs_on_saved_weights_of_a_phase1_model(phase2_inputs, tmp_path):
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, phase2_inputs[2], out) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["finished_at"] is not None
    assignment = json.loads((out / "assignment.json").read_text())
    assert len(assignment["per_layer_ap_ip"]) == len(CONFIG["design_space"]["layers"])
    with open(out / "phase2_trace.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 1


def test_phase2_assignment_lists_the_unprobed_layers(phase2_inputs, tmp_path):
    # one step probes one of the three layers
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, phase2_inputs[2], out) == cli.EXIT_OK
    with open(out / "phase2_trace.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    assignment = json.loads((out / "assignment.json").read_text())
    n_layers = len(CONFIG["design_space"]["layers"])
    assert assignment["unprobed_layers"] == [layer for layer in range(n_layers)
                                             if layer != int(row["layer"])]


@pytest.mark.parametrize("case", ["junk", "truncated_header",
                                  "truncated_arrays", "one_float_arrays"])
def test_malformed_weights_file_exits_2_naming_the_file(phase2_inputs, tmp_path,
                                                        capsys, case):
    blob = phase2_inputs[2].read_bytes()
    weights = tmp_path / "net.bin"
    weights.write_bytes({"junk": b"not a network", "truncated_header": blob[:10],
                         "truncated_arrays": blob[:-4],
                         "one_float_arrays": one_float_per_array(blob)}[case])
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, weights, out) == cli.EXIT_CONFIG
    assert f"error: {weights}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("running_var", -1.0),
                                         ("running_mean", float("nan")),
                                         ("gamma", float("inf"))])
def test_non_finite_weights_file_exits_2_naming_the_file_and_array(
        phase2_inputs, tmp_path, capsys, name, value):
    net = load_net(phase2_inputs[2])
    getattr(net.layers[1], name)[0] = value  # the first batchnorm
    weights = tmp_path / "net.bin"
    save_net(net, weights)
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, weights, out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {weights}: array layers.1.{name} " in err
    assert err.count(str(weights)) == 1
    assert not out.exists()


def test_phase2_walk_that_turns_non_finite_exits_4(phase2_inputs, tmp_path,
                                                   capsys, monkeypatch):
    # a NaN running mean that reached the walk: the next layer's eval
    # activation is NaN, and coding it would read code 0
    def nan_mean(path):
        net = load_net(path)
        net.layers[1].running_mean[0] = float("nan")
        return net

    monkeypatch.setattr(cli, "load_net", nan_mean)
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, phase2_inputs[2], out) == cli.EXIT_NUMERIC
    assert "error: numeric failure: quantizable layer 1: " in capsys.readouterr().err
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["code"] == cli.EXIT_NUMERIC


@pytest.mark.parametrize("momentum", [1.9, 5.0])
def test_phase2_adapt_momentum_above_one_exits_2_naming_the_field(
        phase2_inputs, tmp_path, capsys, momentum):
    # above 1 the blended running variance goes negative and batchnorm
    # makes NaNs; 1 itself is the batch statistics alone
    search.SearchConfig(area_constraint=1.0, adapt_momentum=1.0)
    path, phase1_dir, weights = phase2_inputs
    raw = yaml.safe_load(path.read_text())
    raw["search"]["adapt_momentum"] = momentum
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "phase2"
    assert cli.main(["phase2", "--config", str(config), "--phase1-dir",
                     str(phase1_dir), "--weights", str(weights),
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: search: adapt_momentum must lie in (0, 1], got {momentum}" in err
    assert not out.exists()


@pytest.mark.parametrize("space, fixture, named", [
    # one sample of 65536 channels at 1024 x 1024 is 2**36 values; 2**16
    # samples of 64 channels at 8 x 8 are 2**28
    ({"input_channels": 65536, "in_h": 1024}, {}, "search.hd_batch_size"),
    ({"input_channels": 64}, {"train_samples": 2 ** 16}, "fixture.train_samples"),
    ({"input_channels": 64}, {"eval_samples": 2 ** 16}, "fixture.eval_samples"),
])
def test_oversized_fixture_batch_exits_2_naming_the_field(tmp_path, capsys,
                                                          space, fixture, named):
    design = copy.deepcopy(CONFIG["design_space"])
    design["input_channels"] = space["input_channels"]
    for layer in design["layers"][:2]:
        layer["in_h"] = space.get("in_h", layer["in_h"])
    raw = dict(CONFIG, design_space=design, fixture=fixture,
               search=dict(CONFIG["search"], area_constraint_mm2=392.8))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {named}: a batch of " in err
    assert f"is past the bound of {MAX_BATCH_VALUES}" in err
    assert not out.exists()


def _selected_with(phase2_inputs, tmp_path, cd_out: int):
    """The phase-1 selected model document with its first layer's width set."""
    raw = json.loads((phase2_inputs[1] / "selected_model.json").read_text())
    raw["layers"][0]["choice"]["cd_out"] = cd_out
    model_path = tmp_path / "phase1" / "selected_model.json"
    model_path.parent.mkdir()
    write_json(model_path, raw)
    return model_path


def test_phase2_weights_of_another_model_exit_2_naming_both_files(
        phase2_inputs, tmp_path, capsys):
    selected = load_model(phase2_inputs[1] / "selected_model.json")
    width = selected.layers[0][1].cd_out
    other = _selected_with(phase2_inputs, tmp_path, 24 - width)  # 8 <-> 16
    weights = tmp_path / "net.bin"
    save_net(build_refnet(load_model(other), CONFIG["design_space"]["class_count"]),
             weights)
    out = tmp_path / "phase2"
    assert run_phase2(phase2_inputs, weights, out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {weights}: " in err
    assert str(phase2_inputs[1] / "selected_model.json") in err
    assert f"'c_out': {24 - width}" in err and f"'c_out': {width}" in err
    assert not out.exists()


def test_phase2_selected_model_outside_the_space_exits_2_naming_both_files(
        phase2_inputs, tmp_path, capsys):
    path, _, weights = phase2_inputs
    model_path = _selected_with(phase2_inputs, tmp_path, 12)
    out = tmp_path / "phase2"
    assert cli.main(["phase2", "--config", str(path), "--phase1-dir",
                     str(model_path.parent), "--weights", str(weights),
                     "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {model_path}: " in err and str(path) in err
    assert "layer 0 [cd_out]: cd_out 12 not in (8, 16)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["phase1", "phase2"])
def test_conv_final_design_space_exits_2_naming_the_field(phase2_inputs, tmp_path,
                                                          capsys, command):
    # without an FC last layer, build_refnet would give no classifier
    raw = dict(CONFIG, design_space=dict(
        CONFIG["design_space"], layers=CONFIG["design_space"]["layers"][:-1]),
               search=dict(CONFIG["search"], area_constraint_mm2=1.18))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    _, phase1_dir, weights = phase2_inputs
    inputs = {"phase1": [], "phase2": ["--phase1-dir", str(phase1_dir),
                                       "--weights", str(weights)]}[command]
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(path), "--out-dir", str(out),
                     *inputs]) == cli.EXIT_CONFIG
    assert "design_space.layers[1].is_fc" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, code, status", [
    ("area_constraint", "20,abc", cli.EXIT_CONFIG, None),
    ("area_constraint", "nan", cli.EXIT_CONFIG, "config_error"),
    ("area_constraint", "inf", cli.EXIT_CONFIG, "config_error"),
    ("xbar_size", "inf", cli.EXIT_CONFIG, "config_error"),
    ("xbar_size", "1e30", cli.EXIT_CONFIG, "config_error"),
], ids=["not_a_number", "nan_area", "inf_area", "inf_xbar", "huge_xbar"])
def test_bad_sweep_values_exit_with_their_code(tmp_path, capsys, axis, values,
                                               code, status):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", axis,
                     "--values", values, "--out-dir", str(out)]) == code
    if status is None:  # refused before any run directory exists
        assert "--values" in capsys.readouterr().err
        assert not out.exists()
        return
    (row,) = read_sweep(out)
    assert row["status"] == status and row["message"]


def test_sweep_of_an_unknown_axis_is_refused(tmp_path):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    with pytest.raises(cli.ConfigError, match="--axis: unknown sweep axis"):
        cli.cmd_sweep(path, "clock_period", [1.0], out)
    assert not out.exists()


def test_phase1_overflowing_xbar_size_exits_2_naming_the_field(tmp_path,
                                                               capsys):
    raw = dict(CONFIG, platform={"xbar_size": 1.0e30},
               search=dict(CONFIG["search"], area_constraint_mm2=1.0))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(out)]) == cli.EXIT_CONFIG
    assert "error: platform: xbar_size must be in [1, 65536]" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    # unbounded, each of the first three fails a different way: a
    # positions count past int64, ranking's HD batch of 2**40-pixel
    # images, and a silently wrapped energy product
    ("in_h", 2 ** 32),
    ("in_h", 2 ** 20),
    ("in_w", 2 ** 28),
    ("kernel", 2 ** 40),
    ("cd_options", 2 ** 40),
    ("input_channels", 2 ** 40),
])
def test_phase1_oversized_layer_field_exits_2_naming_it(tmp_path, capsys,
                                                        field, value):
    space = copy.deepcopy(CONFIG["design_space"])
    if field == "input_channels":
        space[field], named = value, "design_space.input_channels"
    else:
        space["layers"][0][field] = [8, value] if field == "cd_options" else value
        named = f"design_space.layers[0].{field}"
    raw = dict(CONFIG, design_space=space,
               search=dict(CONFIG["search"], area_constraint_mm2=1.0))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {named}: expected an integer at most" in err
    assert f"got {value}" in err
    assert not out.exists()


def test_phase1_layer_whose_cost_products_overflow_int64_exits_2(tmp_path,
                                                                 capsys):
    # every field within its own bound, but on the widest crossbars, with
    # one ADC per 65536 columns, the first layer's crossbar energy would
    # count 2**76 cell reads
    space = copy.deepcopy(CONFIG["design_space"])
    space["cs_options"] = [4, 2 ** 16]
    space["layers"][0].update(in_h=MAX_EXTENT, kernel=MAX_EXTENT,
                              cd_options=[8, MAX_WIDTH])
    raw = dict(CONFIG, design_space=space, platform={"xbar_size": 2 ** 16},
               search=dict(CONFIG["search"], area_constraint_mm2=1.0))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "run"
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(out)]) == cli.EXIT_CONFIG
    assert ("error: design_space.layers[0]: its cost tables' integer products "
            "reach 7.56e+22, past int64's") in capsys.readouterr().err
    assert not out.exists()


def test_overflow_still_exits_4():
    def overflow():
        raise OverflowError("int too large")

    assert cli._outcome(overflow) == (cli.EXIT_NUMERIC, "int too large", None)


def test_failed_run_directory_records_why(tmp_path, capsys):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=5.0))
    empty = tmp_path / "empty"
    assert cli.main(["phase1", "--config", str(path),
                     "--out-dir", str(empty)]) == cli.EXIT_EMPTY_POOL
    err = capsys.readouterr().err
    failure = json.loads((empty / "manifest.json").read_text())["failure"]
    assert failure["code"] == cli.EXIT_EMPTY_POOL
    assert f"error: {failure['message']}" in err
    assert "nearest miss" in failure["message"]

    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", "1e-300,1.18", "--out-dir", str(out)]
                    ) == cli.EXIT_NUMERIC
    numeric, ok = read_sweep(out)
    manifest = json.loads((out / "point_1e-300" / "manifest.json").read_text())
    assert manifest["failure"] == {"code": cli.EXIT_NUMERIC,
                                   "message": numeric["message"]}
    assert manifest["finished_at"] is None
    for run in (out, out / "point_1.18"):
        assert "failure" not in json.loads((run / "manifest.json").read_text())


def test_bad_sweep_values_exit_2_from_a_real_process(tmp_path):
    # cli.main raises on an unmapped error; only a process shows its exit code
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "imcsearch.cli", "sweep", "--config", str(path),
         "--axis", "area_constraint", "--values", "20,abc",
         "--out-dir", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "--values" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("values, first, second", [
    ("12.5000001,12.5000002", "12.5000001", "12.5000002"),
    ("20,20", "20.0", "20.0"),
])
def test_sweep_values_sharing_a_point_directory_exit_2(tmp_path, capsys,
                                                       values, first, second):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
                     "--values", values, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--values: {first} and {second} both name" in err
    assert not out.exists()


def test_sweep_point_manifest_names_its_axis_and_value(tmp_path):
    path = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=1.0))
    out = tmp_path / "sweep"
    cli.main(["sweep", "--config", str(path), "--axis", "area_constraint",
              "--values", "1.18,5", "--out-dir", str(out)])
    for name, value in (("point_1.18", 1.18), ("point_5", 5.0)):
        manifest = json.loads((out / name / "manifest.json").read_text())
        assert manifest["command"] == "sweep:area_constraint"
        assert manifest["sweep"] == {"axis": "area_constraint", "value": value}
    assert "sweep" not in json.loads((out / "manifest.json").read_text())


def test_every_run_directory_lists_its_files_and_finishes(phase2_inputs,
                                                          tmp_path):
    path, phase1_dir, weights = phase2_inputs
    space = load_config(path).space
    model_path = tmp_path / "model.json"
    write_json(model_path, model_to_dict(
        homogeneous_model(space, cs=8, at=ADCType.SAR, ap=6, ip=8)))
    empty = write_config(tmp_path, dict(CONFIG["search"], area_constraint_mm2=5.0))
    runs = {
        "eval": ["eval", "--config", str(path), "--model", str(model_path)],
        "phase1_empty": ["phase1", "--config", str(empty)],
        "phase2": ["phase2", "--config", str(path), "--phase1-dir",
                   str(phase1_dir), "--weights", str(weights)],
        "sweep": ["sweep", "--config", str(path), "--axis", "area_constraint",
                  "--values", "1.18,5"],
    }
    for name, argv in runs.items():
        cli.main([*argv, "--out-dir", str(tmp_path / name)])
    dirs = [phase1_dir, *(tmp_path / name for name in runs),
            *(tmp_path / "sweep").glob("point_*")]
    assert len(dirs) == 7
    for run in dirs:
        manifest = json.loads((run / "manifest.json").read_text())
        files = {p.name for p in run.iterdir() if p.is_file()}
        assert sorted(manifest["outputs"]) == sorted(files - {"manifest.json"})
        assert manifest["finished_at"] is not None


def test_weights_check_draws_no_network(phase2_inputs, monkeypatch):
    _, phase1_dir, weights = phase2_inputs
    model_file = phase1_dir / "selected_model.json"
    model = load_model(model_file)
    net = load_net(weights)

    def no_draw(*args):
        raise AssertionError("the weights check drew a network")

    monkeypatch.setattr(RefNet, "init_weights", no_draw)
    class_count = CONFIG["design_space"]["class_count"]
    cli._check_weights(net, weights, model, model_file, class_count)
    net.layers.pop()
    with pytest.raises(cli.ConfigError, match="layers, expected"):
        cli._check_weights(net, weights, model, model_file, class_count)
