"""Config loading: every key cast and checked through its section's table."""

import ast
import copy
import dataclasses
from pathlib import Path

import pytest
import yaml

from imcsearch import cli, config
from imcsearch.config import AppConfig, FixtureConfig, load_config, load_unit_costs
from imcsearch.designspace import (
    ADCType,
    DesignSpace,
    HierarchyParams,
    LayerShape,
    PlatformParams,
)
from imcsearch.search import SearchConfig

#: Sets every key of every section, each to a value other than its default.
FULL = {
    "platform": {
        "unit_costs_file": "costs.yaml",
        "xbar_size": 128,
        "xbars_per_tile": 32,
        "sigma_over_mu": 0.1,
        "weight_bits": 6,
        "weight_slice_bits": 2,
        "clock_period": 2.5,
        "hierarchy": {
            "xbars_per_pe": 4,
            "pe_buffer_bytes": 1024,
            "tile_buffer_bytes": 16384,
            "global_buffer_bytes": 65536,
            "htree_bus_bytes": 16,
            "htree_global_hops": 3,
        },
    },
    "design_space": {
        "input_channels": 2,
        "class_count": 3,
        "cs_options": [4, 8],
        "at_options": ["flash"],
        "ap_options": [4, 7],
        "ip_options": [2, 5],
        "layers": [
            {"in_h": 8, "in_w": 6, "kernel": 5, "stride": 2,
             "cd_options": [8, 16]},
            {"is_fc": True, "cd_options": [3]},
        ],
    },
    "search": {
        "area_constraint_mm2": 12.5,
        "phase1_steps": 7,
        "phase2_steps": 3,
        "lambda1": 0.5,
        "lambda2": 0.25,
        "lr_phase1": 2.0,
        "lr_phase2": 0.3,
        "seed": 11,
        "phase1_ap": 5,
        "phase1_ip": 4,
        "hd_batch_size": 16,
        "adapt_momentum": 0.2,
        "temperature": 1.5,
    },
    "fixture": {
        "train_samples": 64,
        "eval_samples": 32,
        "adapt_fraction": 0.5,
        "adapt_batch_size": 8,
        "noise": 0.3,
    },
}


def _costs_document() -> dict:
    table = load_unit_costs()
    return {"calibration_id": "test-costs",
            "components": {name: {"area": c.area, "energy": c.energy,
                                  "latency": c.latency}
                           for name, c in table.components.items()}}


def write_config(tmp_path, raw) -> str:
    (tmp_path / "costs.yaml").write_text(yaml.safe_dump(_costs_document()))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def with_value(path, value) -> dict:
    """A copy of ``FULL`` with the key or list entry at ``path`` set to ``value``."""
    raw = copy.deepcopy(FULL)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def run_phase1(tmp_path, raw, capsys) -> tuple[int, str]:
    code = cli.main(["phase1", "--config", write_config(tmp_path, raw),
                     "--out-dir", str(tmp_path / "run")])
    return code, capsys.readouterr().err


def _paths(node, path=()):
    """Every key of ``FULL``'s sections and every layer entry, as paths."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, dict) or key == "layers":
            yield from _paths(value, path + (key,))


def _dotted(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in path).lstrip(".")


def test_every_key_loads_into_its_field(tmp_path):
    cfg = load_config(write_config(tmp_path, FULL))
    assert cfg.platform.unit_costs.calibration_id == "test-costs"
    assert cfg == AppConfig(
        platform=PlatformParams(
            unit_costs=cfg.platform.unit_costs, xbar_size=128,
            xbars_per_tile=32, sigma_over_mu=0.1, weight_bits=6,
            weight_slice_bits=2, clock_period=2.5,
            hierarchy=HierarchyParams(
                xbars_per_pe=4, pe_buffer_bytes=1024, tile_buffer_bytes=16384,
                global_buffer_bytes=65536, htree_bus_bytes=16,
                htree_global_hops=3)),
        space=DesignSpace(
            layer_shapes=(LayerShape(kernel=5, in_spatial=(8, 6), stride=2),
                          LayerShape.fc()),
            cd_options_per_layer=((8, 16), (3,)), cs_options=(4, 8),
            at_options=(ADCType.FLASH,), ap_options=(4, 7), ip_options=(2, 5),
            input_channels=2, class_count=3),
        search=SearchConfig(
            area_constraint=12.5, n1_steps=7, n2_steps=3, lambda1=0.5,
            lambda2=0.25, lr1=2.0, lr2=0.3, seed=11, phase1_ap=5, phase1_ip=4,
            hd_batch_size=16, adapt_momentum=0.2, temperature=1.5),
        fixture=FixtureConfig(
            train_samples=64, eval_samples=32, adapt_fraction=0.5,
            adapt_batch_size=8, noise=0.3))


@pytest.mark.parametrize("path", list(_paths(FULL)), ids=_dotted)
def test_malformed_value_anywhere_exits_2_naming_it(tmp_path, capsys, path):
    code, err = run_phase1(tmp_path, with_value(path, "abc"), capsys)
    assert code == cli.EXIT_CONFIG
    assert f"{_dotted(path)}:" in err


@pytest.mark.parametrize("path, value", [
    (("platform", "xbar_size"), [64]),
    (("platform", "xbar_size"), None),
    (("platform", "hierarchy", "xbars_per_pe"), 2.5e400),
    (("design_space", "cs_options"), ["a"]),
    (("design_space", "cs_options"), 4),
    (("design_space", "at_options"), ["sar", "pipelined"]),
    (("design_space", "layers", 0, "cd_options"), [8, "x"]),
    (("design_space", "layers", 1, "is_fc"), "false"),
    (("search", "phase1_steps"), float("inf")),
    (("search", "phase1_steps"), 7.5),
    (("search", "seed"), {"value": 1}),
    (("search", "seed"), True),
    (("search", "area_constraint_mm2"), float("nan")),
    (("search", "lr_phase1"), float("nan")),
    (("platform", "sigma_over_mu"), float("inf")),
], ids=lambda v: _dotted(v) if isinstance(v, tuple) else repr(v))
def test_malformed_value_kinds_exit_2_naming_the_key(tmp_path, capsys, path,
                                                      value):
    code, err = run_phase1(tmp_path, with_value(path, value), capsys)
    assert code == cli.EXIT_CONFIG
    assert f"{_dotted(path)}:" in err


@pytest.mark.parametrize("path, value, message", [
    # each refusal names the one field it refuses
    (("search", "phase1_ap"), 9, "search: phase1_ap must lie in [1, 8], got 9"),
    (("search", "phase1_ip"), 0, "search: phase1_ip must lie in [1, 8], got 0"),
    (("search", "phase1_steps"), -1, "search: n1_steps must be >= 0, got -1"),
    (("search", "phase2_steps"), -1, "search: n2_steps must be >= 0, got -1"),
    (("search", "seed"), -1, "search: seed must be >= 0, got -1"),
    (("design_space", "ap_options"), [5, 9],
     "design_space: ap_options must lie in [1, 8]"),
    (("design_space", "ip_options"), [3, 9],
     "design_space: ip_options must lie in [1, 8]"),
    (("design_space", "class_count"), 0,
     "design_space: class_count must be >= 1"),
    (("fixture", "noise"), -0.1, "fixture: noise must be >= 0, got -0.1"),
    (("platform", "weight_slice_bits"), 0, "platform: weight_bits (6)"),
    (("platform", "weight_bits"), 0, "platform: weight_bits (0)"),
    (("platform", "weight_bits"), 1, "platform: weight_bits (1)"),
    (("design_space", "input_channels"), 0,
     "design_space: input_channels must be >= 1"),
    (("design_space", "at_options"), ["sar", "sar"], "design_space: at_options"),
    (("search", "hd_batch_size"), 0, "search: hd_batch_size must be >= 1"),
    (("fixture", "train_samples"), 0, "fixture: train_samples must be >= 1"),
    (("fixture", "eval_samples"), 0, "fixture: eval_samples must be >= 1"),
    (("fixture", "adapt_batch_size"), 0,
     "fixture: adapt_batch_size must be >= 1"),
    # numbers written as text are refused, not parsed
    (("platform", "xbar_size"), "128",
     "platform.xbar_size: expected an integer, got '128'"),
    (("search", "lambda1"), "1e1",
     "search.lambda1: expected a finite number, got '1e1'"),
    # bounded so that the cost tables' integer products cannot overflow
    (("platform", "xbar_size"), 1.0e30,
     "platform: xbar_size must be in [1, 65536], got 10000000000000000198846"),
    (("platform", "xbar_size"), 2 ** 16 + 1,
     "platform: xbar_size must be in [1, 65536], got 65537"),
    (("platform", "xbars_per_tile"), 1.0e30,
     "platform: xbars_per_tile must be in [1, 65536]"),
], ids=lambda v: _dotted(v) if isinstance(v, tuple) else repr(v))
def test_out_of_range_value_exits_2_naming_the_section(tmp_path, capsys,
                                                       path, value, message):
    code, err = run_phase1(tmp_path, with_value(path, value), capsys)
    assert code == cli.EXIT_CONFIG
    assert message in err


@pytest.mark.parametrize("path", [
    ("platform", "xbar_sise"),
    # removed settings: nothing in the program read them
    ("platform", "device_bits"),
    ("platform", "r_on"),
    ("platform", "on_off_ratio"),
    ("platform", "input_slice_bits"),
    ("platform", "hierarchy", "xbars_per_tile"),
    ("design_space", "layers", 0, "padding"),
    ("search", "area_constraint"),
    ("fixture", "samples"),
    # the fixture's data follows the design space; nothing read the other two
    ("fixture", "kind"),
    ("fixture", "train_epochs"),
    ("fixture", "train_lr"),
    ("fixtures",),
], ids=_dotted)
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, path):
    code, err = run_phase1(tmp_path, with_value(path, 1), capsys)
    assert code == cli.EXIT_CONFIG
    assert f"{_dotted(path)}: unknown" in err


@pytest.mark.parametrize("kernel", [2, 4])
def test_even_kernel_exits_2_naming_the_layer(tmp_path, capsys, kernel):
    # the network would pad kernel // 2 a side and compute one more row and
    # column than the cost model counts
    raw = with_value(("design_space", "layers", 0, "kernel"), kernel)
    code, err = run_phase1(tmp_path, raw, capsys)
    assert code == cli.EXIT_CONFIG
    assert (f"design_space.layers[0]: kernel must be odd and >= 1, got {kernel}"
            in err)
    assert not (tmp_path / "run").exists()


def test_every_setting_is_read_outside_config():
    # a setting that only config.py reads is parsed, checked and ignored;
    # a read through ``self``, as in a dataclass checking its own fields,
    # does not count
    own = Path(config.__file__)
    read = {node.attr for path in own.parent.rglob("*.py") if path != own
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")}
    for cls in (SearchConfig, FixtureConfig):
        idle = [f.name for f in dataclasses.fields(cls) if f.name not in read]
        assert idle == [], f"{cls.__name__} fields nothing reads: {idle}"


def test_missing_required_key_is_named(tmp_path, capsys):
    raw = copy.deepcopy(FULL)
    del raw["design_space"]["layers"][0]["in_h"]
    code, err = run_phase1(tmp_path, raw, capsys)
    assert code == cli.EXIT_CONFIG
    assert "design_space.layers[0]: missing required key 'in_h'" in err


def test_preset_takes_the_other_design_space_keys(tmp_path, capsys):
    raw = {"design_space": {"preset": "vgg16_cifar", "cs_options": [2, 4],
                            "class_count": 5},
           "search": {"area_constraint_mm2": 20.0}}
    space = load_config(write_config(tmp_path, raw)).space
    assert space.num_layers == 14
    assert space.cs_options == (2, 4)
    assert space.cd_options_per_layer[-1] == (5,)
    raw["design_space"]["layers"] = FULL["design_space"]["layers"]
    code, err = run_phase1(tmp_path, raw, capsys)
    assert code == cli.EXIT_CONFIG
    assert "design_space.layers: the preset defines the layers" in err


#: The packaged unit-cost table's first entry.
XBAR_CELL = "xbar_cell:          {area: 2.0e-7, energy: 1.0e-4, latency: 2.0}"
CALIBRATION_ID = "calibration_id: desk32nm-v1"


def _packaged_costs_with(entry: str, old: str = XBAR_CELL) -> str:
    """The packaged unit-cost table with ``old``, by default its first
    entry, replaced by ``entry``."""
    text = (Path(config.__file__).parent / "data" / "default_unit_costs.yaml"
            ).read_text()
    assert old in text
    return text.replace(old, entry)


@pytest.mark.parametrize("text, named", [
    *(pytest.param(text, "", id=text)
      for text in ("components: [", "components: {}\n", "just text\n")),
    pytest.param("xbar_cell: {area: .nan, energy: 1.0e-4, latency: 2.0}",
                 "components.xbar_cell.area: expected a finite number, got nan",
                 id="nan_area"),
    pytest.param("xbar_cell: {area: 2.0e-7, energy: .inf, latency: 2.0}",
                 "components.xbar_cell.energy: expected a finite number, got inf",
                 id="inf_energy"),
    pytest.param("xbar_cell: {area: true, energy: 1.0e-4, latency: 2.0}",
                 "components.xbar_cell.area: expected a finite number, got True",
                 id="bool_area"),
    # YAML 1.1 reads an exponent without a point as text
    pytest.param("xbar_cell: {area: 2e-7, energy: 1.0e-4, latency: 2.0}",
                 "components.xbar_cell.area: expected a finite number, got '2e-7'",
                 id="text_area"),
    pytest.param("xbar_cell: {area: 2.0e-7, enrgy: 5, latency: 2.0}",
                 "components.xbar_cell.enrgy: unknown key", id="unknown_key"),
    pytest.param("xbar_cell: {area: 2.0e-7, latency: 2.0}",
                 "components.xbar_cell: missing required key 'energy'",
                 id="missing_key"),
    pytest.param(f"{XBAR_CELL}\n  htre: {{area: 5.0e-7, energy: 3.0e-2, "
                 f"latency: 0.5}}", "components.htre: unknown key",
                 id="unknown_component"),
    # the top level goes through its own key table
    pytest.param(_packaged_costs_with("calibration_id:", CALIBRATION_ID),
                 "calibration_id: expected non-empty text, got None",
                 id="empty_calibration_id"),
    pytest.param(_packaged_costs_with("calibration_id: 3.0", CALIBRATION_ID),
                 "calibration_id: expected non-empty text, got 3.0",
                 id="number_calibration_id"),
    pytest.param(_packaged_costs_with("", CALIBRATION_ID),
                 "top level: missing required key 'calibration_id'",
                 id="missing_calibration_id"),
    pytest.param(_packaged_costs_with("  area: um^2", "  area: mm^2"),
                 "units.area: expected 'mm^2', got 'um^2'",
                 id="foreign_unit"),
    pytest.param(_packaged_costs_with("component: {}\ncomponents:", "components:"),
                 "component: unknown key", id="unknown_top_level_key"),
])
def test_malformed_unit_cost_file_exits_2_naming_the_key(tmp_path, capsys,
                                                         text, named):
    if text.startswith("xbar_cell:"):
        text = _packaged_costs_with(text)
    (tmp_path / "bad_costs.yaml").write_text(text)
    raw = with_value(("platform", "unit_costs_file"), "bad_costs.yaml")
    code, err = run_phase1(tmp_path, raw, capsys)
    assert code == cli.EXIT_CONFIG
    assert f"platform.unit_costs_file: invalid unit-cost table " \
           f"({tmp_path / 'bad_costs.yaml'}): {named}" in err
    assert not (tmp_path / "run").exists()


def test_every_sweep_axis_sets_a_key_of_its_section():
    tables = {"search": config._SEARCH_KEYS, "platform": config._PLATFORM_KEYS}
    for axis, (section, key) in cli._SWEEP_AXES.items():
        assert key in tables[section], axis


def test_unit_costs_env_var_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("IMCSEARCH_UNIT_COSTS", str(tmp_path / "missing.yaml"))
    assert load_unit_costs().calibration_id == "desk32nm-v1"
    raw = copy.deepcopy(FULL)
    del raw["platform"]["unit_costs_file"]
    cfg = load_config(write_config(tmp_path, raw))
    assert cfg.platform.unit_costs.calibration_id == "desk32nm-v1"


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def yaml_loader(request, monkeypatch):
    """Parse every YAML document with this loader."""
    if request.param == "CSafeLoader" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    loader = getattr(yaml, request.param)
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    return loader


def test_config_parses_with_libyaml_whenever_pyyaml_has_it(tmp_path,
                                                           monkeypatch):
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config._YAML_LOADER is want
    path = write_config(tmp_path, FULL)
    parsed = []

    class Spy(want):
        def __init__(self, stream):
            parsed.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(config, "_YAML_LOADER", Spy)
    load_config(path)
    assert len(parsed) == 2  # the run config and its unit-cost file


def test_both_yaml_loaders_read_the_same_values(tmp_path, yaml_loader,
                                                monkeypatch):
    path = write_config(tmp_path, FULL)
    table, cfg = load_unit_costs(), load_config(path)
    monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
    assert table == load_unit_costs()
    assert cfg == load_config(path)


@pytest.mark.parametrize("name, text", [
    ("bad_costs.yaml", "components: ["),
    ("bad_costs.yaml", "components: {}\n"),
    ("bad_costs.yaml", "just text\n"),
    ("config.yaml", "search: [\n"),
])
def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys, yaml_loader,
                                                name, text):
    path = write_config(tmp_path, with_value(("platform", "unit_costs_file"),
                                             "bad_costs.yaml"))
    (tmp_path / name).write_text(text)
    code = cli.main(["phase1", "--config", path,
                     "--out-dir", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert str(tmp_path / name) in capsys.readouterr().err
