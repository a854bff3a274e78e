"""Command-line exit codes and messages on a small phase-1 configuration."""

import json

import yaml

from imcsearch import cli, search

#: Two toy conv layers, a few phase-1 steps; the constraint is filled in.
CONFIG = {
    "design_space": {
        "input_channels": 1,
        "class_count": 2,
        "cs_options": [4, 8],
        "layers": [
            {"in_h": 8, "kernel": 3, "cd_options": [8, 16]},
            {"in_h": 8, "kernel": 3, "cd_options": [8, 16]},
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


def test_phase1_missing_area_constraint_exits_2_naming_the_field(tmp_path,
                                                                 capsys):
    path = write_config(tmp_path, CONFIG["search"])
    assert cli.main(["phase1", "--config", str(path), "--out-dir",
                     str(tmp_path / "run")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "search" in err and "area_constraint_mm2" in err
