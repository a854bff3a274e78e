"""YAML configuration loading: platform, design_space, search and fixture sections.

Each section is read through one table of its keys (``_read``): a value
that does not cast, a key the table does not know and a missing required
key each raise a ``ConfigError`` that names the section and the key.  The
unit-cost table lives in its own data file, read the same way from its top
level down; its optional ``units`` header may name only the cost model's
units: area ``mm^2``, energy ``pJ``, latency ``ns``.  The packaged default
is used when the config names none.  The fixture section sets sizes and
noise only: what the data is follows the design space (``FixtureConfig``).

Both files are parsed by ``_YAML_LOADER``: libyaml's ``CSafeLoader`` when
PyYAML was built with libyaml (``yaml.__with_libyaml__``), else PyYAML's
pure-Python ``SafeLoader``.  The C loader replaces only the scanner and
parser, which are most of a run's set-up (the packaged calibration parses
about ten times faster); it keeps PyYAML's ``SafeConstructor`` and
``Resolver``, so every value reads the same either way, including YAML
1.1's reading of ``1e-3`` as text.  A parse error is a ``yaml.YAMLError``
under both and becomes a ``ConfigError``; only the error's wording differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import yaml

from .costmodel import INT64_MAX, int_product_bound
from .designspace import (
    UNIT_COST_COMPONENTS,
    ADCType,
    DesignSpace,
    HierarchyParams,
    LayerShape,
    PlatformParams,
    UnitCost,
    UnitCostTable,
    vgg16_space,
)
from .nnsim.network import layer_pools
from .search import SearchConfig


#: The platform decides; the values do not depend on it (module docstring).
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(ValueError):
    """Configuration file is missing, unparsable or inconsistent."""


@dataclass(frozen=True)
class FixtureConfig:
    """Synthetic-data settings for HD scoring and phase 2.  The data follows
    the design space: blobs of ``input_channels`` features for an FC first
    layer, else grating images at the first layer's ``in_h x in_w``;
    ``noise`` is the images' noise, which blobs ignore."""

    train_samples: int = 256
    eval_samples: int = 128
    adapt_fraction: float = 0.25
    adapt_batch_size: int = 32
    noise: float = 0.15

    def __post_init__(self) -> None:
        if not 0 < self.adapt_fraction <= 1:
            raise ValueError("adapt_fraction must be in (0, 1]")
        for name in ("train_samples", "eval_samples", "adapt_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a standard deviation; NaN fails the comparison too
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")


@dataclass
class AppConfig:
    platform: PlatformParams
    space: DesignSpace
    search: SearchConfig
    fixture: FixtureConfig = field(default_factory=FixtureConfig)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _read(section, keys: dict, name: str, required: tuple[str, ...] = ()) -> dict:
    """Cast one section's values through its key table.

    ``keys`` maps each YAML key to (field name, cast); the result maps
    field names to cast values.  A cast may itself read a nested section
    and raise a ``ConfigError`` that names it.  An empty ``name`` is the top level.
    """
    where, prefix = (name, f"{name}.") if name else ("top level", "")
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a mapping, got {section!r}")
    kwargs = {}
    for key, value in section.items():
        if key not in keys:
            raise ConfigError(f"{prefix}{key}: unknown key")
        field_name, cast = keys[key]
        try:
            kwargs[field_name] = cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{prefix}{key}: {exc}") from exc
    for key in required:
        _require(section, key, where)
    return kwargs


def _build(cls, name: str, **kwargs):
    """``cls(**kwargs)``, its validation errors reported against section ``name``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _int(value) -> int:
    # a string is refused, not parsed: "8" is text in YAML and JSON alike
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, str):
        # YAML 1.1 reads 1e-3 and 1.5e3 as text; 1.0e-3 and 1.5e+3 are floats
        raise ValueError(f"expected a finite number, got {value!r} (text; "
                         f"write an exponent as in 1.0e-3 or 1.5e+3)")
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _int_at_most(high: int):
    """An ``_int`` cast that refuses values above ``high``; the section's
    own validation checks the lower bound."""
    def cast(value) -> int:
        n = _int(value)
        if n > high:
            raise ValueError(f"expected an integer at most {high}, got {n}")
        return n
    return cast


#: Input extents and kernels: more than four times ImageNet's 224 pixels.
#: The bound keeps every factor the cost tables take from one layer's
#: geometry a plain int64 (in_h * in_w and kernel**2 at most 2**20), and
#: keeps ``in_h: 2**20`` from reaching ranking's HD batch, whose images
#: are in_h x in_w.  Whether a layer's products fit int64 depends on all
#: its fields and the platform together (``check_costs_fit``).  A stride
#: only divides the output extent, so it needs no bound.
MAX_EXTENT = 1 << 10
_EXTENT = _int_at_most(MAX_EXTENT)
#: Channel widths (``cd_options``, ``input_channels``): 128 times VGG16's
#: widest layer, so cd * kernel**2 <= 2**36.
MAX_WIDTH = 1 << 16
_WIDTH = _int_at_most(MAX_WIDTH)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _same(cast, *names: str) -> dict:
    """Key-table entries for YAML keys named like their fields."""
    return {name: (name, cast) for name in names}


def _fields_of(cls, cast, name: str, required: bool = False):
    """The cast of section ``name``, whose keys are ``cls``'s fields, each
    read by ``cast``; with ``required``, every key must be set."""
    keys = _same(cast, *(f.name for f in fields(cls)))
    return lambda section: _build(cls, name, **_read(
        section, keys, name, required=tuple(keys) if required else ()))


def _layers(entries) -> list[tuple[LayerShape, tuple[int, ...]]]:
    if not isinstance(entries, list):
        raise ConfigError(f"design_space.layers: must be a list, got {entries!r}")
    layers = []
    for i, entry in enumerate(entries):
        ctx = f"design_space.layers[{i}]"
        kw = _read(entry, _LAYER_KEYS, ctx, required=("cd_options",))
        if kw.get("is_fc", False):
            shape = LayerShape.fc()
        else:
            h = _require(kw, "in_h", ctx)
            shape = _build(LayerShape, ctx, kernel=kw.get("kernel", 3),
                           in_spatial=(h, kw.get("in_w", h)),
                           stride=kw.get("stride", 1))
        layers.append((shape, kw["cd_options"]))
    return layers


_PLATFORM_KEYS = {
    **_same(_int, "xbar_size", "xbars_per_tile", "weight_bits", "weight_slice_bits"),
    **_same(_float, "sigma_over_mu", "clock_period"),
    "unit_costs_file": ("unit_costs_file", Path),
    "hierarchy": ("hierarchy", _fields_of(HierarchyParams, _int,
                                          "platform.hierarchy")),
}
_SPACE_KEYS = {
    "input_channels": ("input_channels", _WIDTH),
    "class_count": ("class_count", _int),
    **_same(_ints, "cs_options", "ap_options", "ip_options"),
    "at_options": ("at_options", lambda v: tuple(ADCType(a) for a in v)),
    "preset": ("preset", str),
    "layers": ("layers", _layers),
}
_LAYER_KEYS = {
    **_same(_EXTENT, "in_h", "in_w", "kernel"),
    "stride": ("stride", _int),
    "is_fc": ("is_fc", _bool),
    "cd_options": ("cd_options", lambda values: tuple(map(_WIDTH, values))),
}
_SEARCH_KEYS = {
    **_same(_int, "seed", "phase1_ap", "phase1_ip", "hd_batch_size"),
    **_same(_float, "lambda1", "lambda2", "adapt_momentum", "temperature"),
    "area_constraint_mm2": ("area_constraint", _float),
    "phase1_steps": ("n1_steps", _int),
    "phase2_steps": ("n2_steps", _int),
    "lr_phase1": ("lr1", _float),
    "lr_phase2": ("lr2", _float),
}
_FIXTURE_KEYS = {
    **_same(_int, "train_samples", "eval_samples", "adapt_batch_size"),
    **_same(_float, "adapt_fraction", "noise"),
}
_SECTIONS = ("platform", "design_space", "search", "fixture")


_COMPONENT_KEYS = {name: (name, _fields_of(UnitCost, _float, f"components.{name}",
                                           required=True))
                   for name in UNIT_COST_COMPONENTS}


def _text(want: str | None = None):
    """A cast to non-empty text; with ``want``, to that text only."""
    def cast(value) -> str:
        if not (isinstance(value, str) and value) or want not in (None, value):
            raise ValueError(f"expected {repr(want) if want else 'non-empty text'}, "
                             f"got {value!r}")
        return value
    return cast


_UNITS_KEYS = {"area": ("area", _text("mm^2")), "energy": ("energy", _text("pJ")),
               "latency": ("latency", _text("ns"))}
_UNIT_COST_KEYS = {
    "calibration_id": ("calibration_id", _text()),
    "units": ("units", lambda units: _read(units, _UNITS_KEYS, "units")),
    "components": ("components", lambda c: _read(c, _COMPONENT_KEYS, "components")),
}


def load_unit_costs(path: str | Path | None = None) -> UnitCostTable:
    """Load a calibration table; without a path, the packaged default."""
    if path is None:
        ref = resources.files("imcsearch").joinpath("data/default_unit_costs.yaml")
        text, source = ref.read_text(), "packaged default"
    else:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"unit-cost file not found: {path}")
        text, source = path.read_text(), str(path)
    try:
        kw = _read(yaml.load(text, Loader=_YAML_LOADER), _UNIT_COST_KEYS, "",
                   required=("calibration_id", "components"))
        return UnitCostTable(kw["calibration_id"], kw["components"])
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"invalid unit-cost table ({source}): {exc}") from exc


def _parse_platform(section, base_dir: Path) -> PlatformParams:
    kw = _read(section, _PLATFORM_KEYS, "platform")
    path = kw.pop("unit_costs_file", None)
    try:
        unit_costs = load_unit_costs(None if path is None else base_dir / path)
    except ConfigError as exc:
        raise ConfigError(f"platform.unit_costs_file: {exc}") from exc
    return _build(PlatformParams, "platform", unit_costs=unit_costs, **kw)


def _parse_space(section) -> DesignSpace:
    kw = _read(section, _SPACE_KEYS, "design_space")
    preset, layers = kw.pop("preset", None), kw.pop("layers", None)
    if preset is not None:
        if preset != "vgg16_cifar":
            raise ConfigError(f"design_space.preset: unknown preset {preset!r}")
        if layers is not None:
            raise ConfigError("design_space.layers: the preset defines the layers")
        base = vgg16_space(class_count=kw.get("class_count", 10))
        layers = list(zip(base.layer_shapes, base.cd_options_per_layer))
    elif layers is None:
        raise ConfigError("design_space: missing required key 'layers'")
    return _build(DesignSpace, "design_space",
                  layer_shapes=tuple(shape for shape, _ in layers),
                  cd_options_per_layer=tuple(cds for _, cds in layers), **kw)


def check_cs_fits(space: DesignSpace, platform: PlatformParams) -> None:
    """Every column-sharing option must fit one crossbar's columns."""
    if max(space.cs_options) > platform.xbar_size:
        raise ConfigError(
            f"design_space.cs_options: max cs {max(space.cs_options)} exceeds "
            f"platform.xbar_size {platform.xbar_size}")


def check_layer_chain(space: DesignSpace) -> None:
    """Every layer takes an input ``refnet_layers`` builds (``layer_pools``)."""
    try:
        layer_pools(space.layer_shapes)
    except ValueError as exc:
        raise ConfigError(f"design_space.{exc}") from exc


def check_costs_fit(space: DesignSpace, platform: PlatformParams) -> None:
    """Every integer product of every layer's cost tables fits int64.

    ``layer_cost_arrays`` forms them in int64, which wraps silently; the
    bound (``costmodel.int_product_bound``) takes each layer's widest
    input depth and width and the widest column sharing.
    """
    cs = max(space.cs_options)
    for i, (shape, cds) in enumerate(zip(space.layer_shapes,
                                         space.cd_options_per_layer)):
        cd_in = max(space.cd_options_per_layer[i - 1]) if i else space.input_channels
        bound = int_product_bound(cd_in, shape, max(cds), cs, platform)
        if bound > INT64_MAX:
            raise ConfigError(
                f"design_space.layers[{i}]: its cost tables' integer products "
                f"reach {bound:.3g}, past int64's {INT64_MAX:.3g}: reduce its "
                f"in_h, in_w, kernel or cd_options, the input depth, "
                f"design_space.cs_options, platform.xbar_size or "
                f"platform.weight_bits")


def check_class_count(space: DesignSpace) -> None:
    """The last layer must be fully connected, and its only width ``class_count``.

    Ranking builds each admitted candidate's reference network, whose
    classifier is that last layer: one output per class.
    """
    last = space.num_layers - 1
    if not space.layer_shapes[last].is_fc:
        raise ConfigError(
            f"design_space.layers[{last}].is_fc: the last layer is the "
            f"classifier and must be fully connected (is_fc: true)")
    options = space.cd_options_per_layer[last]
    if tuple(options) != (space.class_count,):
        raise ConfigError(
            f"design_space.layers[{last}].cd_options: {list(options)} must be "
            f"[{space.class_count}], the design_space.class_count")


#: Values (samples x channels x height x width) in one fixture batch:
#: ranking's HD batch or phase 2's train or eval batch.  2**27 float64
#: values are 1 GiB, about 170 times the paper-scale train batch (256 x 3
#: x 32 x 32); past it a run would die on a MemoryError after its run
#: directory exists.
MAX_BATCH_VALUES = 1 << 27


def check_batches_fit(space: DesignSpace, search: SearchConfig,
                      fixture: FixtureConfig) -> None:
    """Every fixture batch a run draws holds at most ``MAX_BATCH_VALUES``;
    an FC layer's 1 x 1 extent makes a sample its ``input_channels`` blob
    features (``FixtureConfig``)."""
    per_sample = space.input_channels * math.prod(space.layer_shapes[0].in_spatial)
    for name, n in (("search.hd_batch_size", search.hd_batch_size),
                    ("fixture.train_samples", fixture.train_samples),
                    ("fixture.eval_samples", fixture.eval_samples)):
        if n * per_sample > MAX_BATCH_VALUES:
            raise ConfigError(
                f"{name}: a batch of {n} samples of {per_sample} values "
                f"(design_space.input_channels x in_h x in_w) is past the "
                f"bound of {MAX_BATCH_VALUES}")


def load_config(path: str | Path,
                overrides: tuple[tuple[str, str, object], ...] = ()) -> AppConfig:
    """Parse a run configuration file into validated parameter objects.

    An override ``(section, key, value)`` goes in after parsing, before any
    section is read, as if the file set ``section.key`` to ``value``: it
    gets that key's cast, bounds, cross-checks and messages.  A missing
    section is created; one that is not a mapping is left for ``_read``."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            raw = yaml.load(f, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    for section, key, value in overrides:
        if raw.get(section) is None:
            raw[section] = {}
        if isinstance(raw[section], dict):
            raw[section][key] = value
    for name in raw:
        if name not in _SECTIONS:
            raise ConfigError(f"{name}: unknown section")
    platform = _parse_platform(raw.get("platform"), path.parent)
    space = _parse_space(_require(raw, "design_space", str(path)))
    search = _build(SearchConfig, "search",
                    **_read(_require(raw, "search", str(path)), _SEARCH_KEYS,
                            "search", required=("area_constraint_mm2",)))
    fixture = _build(FixtureConfig, "fixture",
                     **_read(raw.get("fixture"), _FIXTURE_KEYS, "fixture"))
    check_layer_chain(space)
    check_cs_fits(space, platform)
    check_costs_fit(space, platform)
    check_batches_fit(space, search, fixture)
    return AppConfig(platform=platform, space=space, search=search,
                     fixture=fixture)
