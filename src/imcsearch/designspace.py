"""Searchable design space for crossbar-mapped networks.

A candidate network assigns every layer a channel depth (CD), a
columns-per-ADC sharing factor (CS), an ADC type (AT), an ADC precision
(AP) and an input precision (IP).  This module defines those value types,
the option grids they are drawn from, the hardware platform description,
and the validation rules that every downstream consumer relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ADCType(enum.Enum):
    SAR = "sar"
    FLASH = "flash"

    def __str__(self) -> str:
        return self.value


# Canonical axis order used by enumerate_options: SAR before Flash.
AT_ORDER = (ADCType.SAR, ADCType.FLASH)


@dataclass(frozen=True)
class LayerShape:
    """Fixed (non-searched) geometry of one layer.

    Fully-connected layers are mapped as 1x1 convolutions over a 1x1
    spatial extent, so the same tile arithmetic applies everywhere.

    Kernels are odd.  The reference network pads ``kernel // 2`` on each
    side, which keeps an odd kernel's output at ``out_spatial``'s
    ``ceil(in / stride)``; an even kernel would give one more row and
    column than the cost model counts.
    """

    kernel: int = 3
    in_spatial: tuple[int, int] = (32, 32)
    stride: int = 1
    is_fc: bool = False

    def __post_init__(self) -> None:
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        h, w = self.in_spatial
        if h < 1 or w < 1:
            raise ValueError(f"in_spatial must be positive, got {self.in_spatial}")
        if self.is_fc and (self.kernel != 1 or self.in_spatial != (1, 1)):
            raise ValueError("fc layers use kernel=1 over a 1x1 spatial extent")

    def out_spatial(self) -> tuple[int, int]:
        if self.is_fc:
            return (1, 1)
        h, w = self.in_spatial
        return ((h - 1) // self.stride + 1, (w - 1) // self.stride + 1)

    @staticmethod
    def fc() -> "LayerShape":
        return LayerShape(kernel=1, in_spatial=(1, 1), stride=1, is_fc=True)


@dataclass(frozen=True)
class LayerChoice:
    """One layer's searched assignment: (CD, CS, AT, AP, IP)."""

    cd_out: int
    cs: int
    at: ADCType
    ap: int
    ip: int

    def __post_init__(self) -> None:
        if self.cd_out < 1:
            raise ValueError(f"cd_out must be >= 1, got {self.cd_out}")
        if self.cs < 1:
            raise ValueError(f"cs must be >= 1, got {self.cs}")
        if not 1 <= self.ap <= 8:
            raise ValueError(f"ap must be in [1, 8], got {self.ap}")
        if not 1 <= self.ip <= 8:
            raise ValueError(f"ip must be in [1, 8], got {self.ip}")


@dataclass(frozen=True)
class CandidateModel:
    """A network with per-layer shape and hardware assignment.

    The input channel count of layer l is the cd_out of layer l-1; the
    first layer reads ``input_channels``.
    """

    layers: tuple[tuple[LayerShape, LayerChoice], ...]
    input_channels: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model must have at least one layer")
        if self.input_channels < 1:
            raise ValueError(f"input_channels must be >= 1, got {self.input_channels}")

    def cd_in(self, layer: int) -> int:
        if layer == 0:
            return self.input_channels
        return self.layers[layer - 1][1].cd_out


@dataclass(frozen=True)
class HierarchyParams:
    """Tile-internal organization constants (buffer sizes, H-tree shape).

    These stand in for simulator-internal topology constants and are
    documented assumptions, not measured values.
    """

    xbars_per_pe: int = 8
    pe_buffer_bytes: int = 2048
    tile_buffer_bytes: int = 32768
    global_buffer_bytes: int = 131072
    htree_bus_bytes: int = 32
    htree_global_hops: int = 2

    def __post_init__(self) -> None:
        for name in ("xbars_per_pe", "pe_buffer_bytes", "tile_buffer_bytes",
                     "global_buffer_bytes", "htree_bus_bytes", "htree_global_hops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


#: Component names recognised in a unit-cost table.  Buffer entries are
#: per byte, the H-tree entry is per hop per byte, shift_add entries are
#: per bit of ADC code width; everything else is per unit / per use.
UNIT_COST_COMPONENTS = (
    "xbar_cell",
    "comparator",
    "sar_logic",
    "flash_encoder",
    "mux",
    "switch_matrix",
    "shift_add",
    "accumulator_pe",
    "accumulator_tile",
    "accumulator_global",
    "buffer_pe",
    "buffer_tile",
    "buffer_global",
    "htree",
)


@dataclass(frozen=True)
class UnitCost:
    area: float  # mm^2
    energy: float  # pJ per use
    latency: float  # ns per use

    def __post_init__(self) -> None:
        if self.area < 0 or self.energy < 0 or self.latency < 0:
            raise ValueError("unit costs must be >= 0")


@dataclass(frozen=True)
class UnitCostTable:
    """Per-component {area, energy, latency} calibration table."""

    calibration_id: str
    components: dict[str, UnitCost]

    def __post_init__(self) -> None:
        missing = [c for c in UNIT_COST_COMPONENTS if c not in self.components]
        if missing:
            raise ValueError(f"unit-cost table missing components: {missing}")

    def __getitem__(self, name: str) -> UnitCost:
        return self.components[name]


@dataclass(frozen=True)
class PlatformParams:
    """Hardware implementation parameters of the tiled crossbar platform."""

    unit_costs: UnitCostTable
    xbar_size: int = 64
    xbars_per_tile: int = 64
    sigma_over_mu: float = 0.20
    weight_bits: int = 8
    weight_slice_bits: int = 4
    clock_period: float = 1.0  # ns
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)

    def __post_init__(self) -> None:
        # the paper's arrays have 64-256 rows; the bound keeps the cost
        # tables' int64 products, tiles * xbars_per_tile * xbar_size**2,
        # from overflowing
        for name in ("xbar_size", "xbars_per_tile"):
            if not 1 <= getattr(self, name) <= 2 ** 16:
                raise ValueError(f"{name} must be in [1, 65536], got "
                                 f"{getattr(self, name)}")
        # signed weights need a sign and at least one magnitude bit
        if self.weight_slice_bits < 1 or self.weight_bits < 2 \
                or self.weight_bits % self.weight_slice_bits != 0:
            raise ValueError(
                f"weight_bits ({self.weight_bits}) must be at least 2 and a "
                f"multiple of weight_slice_bits ({self.weight_slice_bits})")
        if self.clock_period <= 0:
            raise ValueError("clock_period must be positive")
        if self.sigma_over_mu < 0:
            raise ValueError("sigma_over_mu must be >= 0")

    @property
    def weight_slices(self) -> int:
        return self.weight_bits // self.weight_slice_bits


@dataclass(frozen=True)
class DesignSpace:
    """Option grids for every searched parameter.

    ``cd_options_per_layer`` and ``layer_shapes`` are aligned; layer
    shapes are fixed data and are not searched.  Phase 1 searches
    (CD, CS, AT) and phase 2 searches (AP, IP).
    """

    layer_shapes: tuple[LayerShape, ...]
    cd_options_per_layer: tuple[tuple[int, ...], ...]
    cs_options: tuple[int, ...] = (2, 4, 8, 16, 32)
    at_options: tuple[ADCType, ...] = AT_ORDER
    ap_options: tuple[int, ...] = (5, 6)
    ip_options: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    input_channels: int = 3
    class_count: int = 10

    def __post_init__(self) -> None:
        if len(self.layer_shapes) != len(self.cd_options_per_layer):
            raise ValueError("layer_shapes and cd_options_per_layer must align")
        if not self.layer_shapes:
            raise ValueError("design space needs at least one layer")
        for opts in self.cd_options_per_layer:
            if not opts or any(c < 1 for c in opts):
                raise ValueError("cd options must be non-empty positive sets")
            if list(opts) != sorted(set(opts)):
                raise ValueError("cd options must be strictly ascending")
        for name, opts in (("cs_options", self.cs_options),
                           ("ap_options", self.ap_options),
                           ("ip_options", self.ip_options)):
            if not opts or any(v < 1 for v in opts):
                raise ValueError(f"{name} must be non-empty positive")
            if list(opts) != sorted(set(opts)):
                raise ValueError(f"{name} must be strictly ascending")
        for name, opts in (("ap_options", self.ap_options),
                           ("ip_options", self.ip_options)):
            if any(not 1 <= b <= 8 for b in opts):
                raise ValueError(f"{name} must lie in [1, 8]")
        if not self.at_options:
            raise ValueError("at_options must be non-empty")
        # a repeated type would split its softmax mass over equal options
        if len(set(self.at_options)) != len(self.at_options):
            raise ValueError("at_options must not repeat a converter type")
        for name in ("input_channels", "class_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def num_layers(self) -> int:
        return len(self.layer_shapes)

    def phase2_option_count(self) -> int:
        return len(self.ap_options) * len(self.ip_options)


def enumerate_options(space: DesignSpace, layer: int, phase: int):
    """Ordered option tuples for one layer.

    Phase 1 yields (cd, cs, at) in CD-major order (then CS, then AT with
    SAR before Flash); phase 2 yields (ap, ip) in AP-major order.  The
    ordering is total and stable: index i always maps to the same tuple.
    """
    if not 0 <= layer < space.num_layers:
        raise IndexError(f"layer {layer} out of range [0, {space.num_layers})")
    if phase == 1:
        return [
            (cd, cs, at)
            for cd in space.cd_options_per_layer[layer]
            for cs in space.cs_options
            for at in space.at_options
        ]
    if phase == 2:
        return [(ap, ip) for ap in space.ap_options for ip in space.ip_options]
    raise ValueError(f"phase must be 1 or 2, got {phase}")


@dataclass(frozen=True)
class Violation:
    layer: int
    field: str
    message: str


def validate_candidate(model: CandidateModel, space: DesignSpace,
                       platform: PlatformParams) -> list[Violation]:
    """Check a candidate against the space; returns every violation found.

    An empty list means the candidate is valid and every downstream cost
    and search operation accepts it.  Violations are data, not faults.
    """
    violations: list[Violation] = []
    if len(model.layers) != space.num_layers:
        violations.append(Violation(
            0, "layers",
            f"model has {len(model.layers)} layers, space defines {space.num_layers}"))
        return violations
    if model.input_channels != space.input_channels:
        violations.append(Violation(
            0, "input_channels",
            f"input_channels {model.input_channels} != space {space.input_channels}"))
    for idx, (shape, choice) in enumerate(model.layers):
        if shape != space.layer_shapes[idx]:
            violations.append(Violation(idx, "shape", "layer shape differs from space"))
        if choice.cd_out not in space.cd_options_per_layer[idx]:
            violations.append(Violation(
                idx, "cd_out", f"cd_out {choice.cd_out} not in "
                f"{space.cd_options_per_layer[idx]}"))
        if choice.cs not in space.cs_options:
            violations.append(Violation(
                idx, "cs", f"cs {choice.cs} not in {space.cs_options}"))
        if choice.at not in space.at_options:
            violations.append(Violation(
                idx, "at", f"at {choice.at} not in {space.at_options}"))
        if choice.ap not in space.ap_options:
            violations.append(Violation(
                idx, "ap", f"ap {choice.ap} not in {space.ap_options}"))
        if choice.ip not in space.ip_options:
            violations.append(Violation(
                idx, "ip", f"ip {choice.ip} not in {space.ip_options}"))
        if choice.cs > platform.xbar_size:
            violations.append(Violation(
                idx, "cs", f"cs {choice.cs} exceeds crossbar size "
                f"{platform.xbar_size}"))
    return violations


# VGG16 conv widths for 32x32 inputs; pooling after layers 2, 4, 7, 10, 13.
_VGG16_WIDTHS = (64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512)
_VGG16_SPATIALS = (32, 32, 16, 16, 8, 8, 8, 4, 4, 4, 2, 2, 2)


def _round8(x: float) -> int:
    return max(8, int(round(x / 8.0)) * 8)


def vgg16_space(input_channels: int = 3, class_count: int = 10) -> DesignSpace:
    """Default 14-layer backbone space: 13 convs plus one classifier layer.

    CD options bracket each backbone width at {0.25, 0.5, 0.75, 1.0}x,
    rounded to a multiple of 8.  The classifier layer's output width is
    pinned to the class count, so only its CS/AT/AP/IP are searched.
    """
    shapes = [LayerShape(kernel=3, in_spatial=(s, s), stride=1)
              for s in _VGG16_SPATIALS]
    shapes.append(LayerShape.fc())
    cd_opts = [tuple(_round8(f * w) for f in (0.25, 0.5, 0.75, 1.0))
               for w in _VGG16_WIDTHS]
    cd_opts.append((class_count,))
    return DesignSpace(
        layer_shapes=tuple(shapes),
        cd_options_per_layer=tuple(cd_opts),
        input_channels=input_channels,
        class_count=class_count,
    )


def homogeneous_model(space: DesignSpace, cs: int, at: ADCType, ap: int,
                      ip: int, cd_index: int = -1) -> CandidateModel:
    """Build a candidate using one (CS, AT, AP, IP) setting for all layers.

    ``cd_index`` selects the channel-depth option per layer (-1 = widest),
    which yields the standard full-width backbone.  It is clamped to each
    layer's own options, so a layer with one option (the VGG16 preset's
    classifier) always takes its only width.
    """
    layers = []
    for shape, options in zip(space.layer_shapes, space.cd_options_per_layer):
        cd = options[max(-len(options), min(cd_index, len(options) - 1))]
        layers.append((shape, LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)))
    return CandidateModel(layers=tuple(layers), input_channels=space.input_channels)
