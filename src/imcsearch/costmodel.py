"""Analytical cost model for candidate networks on the tiled crossbar platform.

Maps every layer onto crossbars, PEs and tiles, then accumulates area,
delay and energy per hardware component.  All functions are pure and
deterministic; the only inputs are the candidate assignment, the layer
geometry and the platform's unit-cost calibration table.

The cost formula is written once (``_layer_terms``) and evaluates on
Python numbers or on broadcast numpy arrays.  ``layer_cost`` is its
scalar view, with a per-component breakdown; ``layer_cost_arrays`` costs
many choices of one layer at once, bit-identical to ``layer_cost``, and
fills the phase-1 cost tables and the phase-2 delay vectors.

Conventions:
  * area in mm^2, delay in ns, energy in pJ
  * one ADC serves xbar_size/cs columns; conversions within a round run
    in parallel across ADCs and serially across the cs mux positions
  * an 8-bit weight on 4-bit devices occupies weight_bits/slice_bits
    physical columns, folded into the column term of the tile count
  * layer delays add up (no inter-layer pipelining)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .designspace import (
    ADCType,
    CandidateModel,
    LayerChoice,
    LayerShape,
    PlatformParams,
)

#: Breakdown keys, in reporting order.
COMPONENTS = ("XbarArray", "ADC", "Mux", "SwitchMatrix", "Accumulators",
              "Buffers", "HTree")


@dataclass(frozen=True)
class ADCProfile:
    """Behavioral cost of one analog-to-digital converter instance."""

    area: float  # mm^2
    energy_per_conversion: float  # pJ
    latency_per_conversion: float  # ns


def adc_profile(at: ADCType, ap: int, platform: PlatformParams) -> ADCProfile:
    """Area/energy/latency of a single ADC of type ``at`` at ``ap`` bits.

    Flash: 2^ap - 1 cascaded comparators plus a thermometer encoder;
    converts in one comparator settle.  SAR: one comparator with a
    binary-weighted cap-DAC (2^ap units); resolves one bit per clock.
    """
    if not 1 <= ap <= 8:
        raise ValueError(f"ap must be in [1, 8], got {ap}")
    uc = platform.unit_costs
    cmp_ = uc["comparator"]
    if at is ADCType.FLASH:
        n_cmp = 2 ** ap - 1
        return ADCProfile(
            area=n_cmp * cmp_.area + n_cmp * uc["flash_encoder"].area,
            energy_per_conversion=n_cmp * cmp_.energy,
            latency_per_conversion=cmp_.latency,
        )
    sar = uc["sar_logic"]
    return ADCProfile(
        area=cmp_.area + (2 ** ap) * sar.area,
        energy_per_conversion=ap * (cmp_.energy + sar.energy),
        latency_per_conversion=ap * platform.clock_period,
    )


def _ceil_div(a, b):
    """ceil(a / b) for a >= 0 and b > 0, on Python numbers or numpy arrays.

    Ints stay ints and Python floats stay Python floats.  For the integer
    counts and eighth-byte data volumes costed here it equals
    ``math.ceil(a / b)``.
    """
    return -(-a // b)


def active_xbars(cd_in: int, shape: LayerShape, choice: LayerChoice,
                 platform: PlatformParams) -> int:
    """Number of crossbars a layer's weights fill.

    Row chunks hold cd_in * k^2 inputs in groups of xbar_size; column
    chunks hold cd_out * weight_slices outputs in groups of xbar_size.
    """
    x = platform.xbar_size
    return (_ceil_div(cd_in * shape.kernel ** 2, x)
            * _ceil_div(choice.cd_out * platform.weight_slices, x))


def read_cycles(choice: LayerChoice) -> int:
    """ADC-conversion rounds per crossbar activation.

    Inputs are processed bit-serially (ip cycles) and each ADC is
    time-multiplexed over cs columns.
    """
    return choice.ip * choice.cs


@dataclass(frozen=True)
class LayerCost:
    tiles: int
    read_cycles_per_activation: int
    area: float  # mm^2
    delay: float  # ns
    energy: float  # pJ
    breakdown: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "tiles": self.tiles,
            "read_cycles_per_activation": self.read_cycles_per_activation,
            "area_mm2": self.area,
            "delay_ns": self.delay,
            "energy_pJ": self.energy,
            "breakdown": self.breakdown,
        }


def _layer_terms(cd_in, shape: LayerShape, choice, adc: ADCProfile,
                 platform: PlatformParams):
    """The cost formula: per-component area, delay and energy of one layer.

    Area counts whole tiles (a tile's crossbars, converters, buffers and
    trees exist whether or not the layer fills them); energy counts only
    the active crossbars.

    Takes a ``LayerChoice`` with its ``adc_profile``, or a
    ``_ChoiceColumns`` with the profiles gathered per choice; ``cd_in``
    is an int or an integer array that broadcasts against the columns.
    Only +, *, / and floor division appear, each in one fixed order, so an
    array entry equals the scalar evaluation of its choice bit for bit.
    Returns (tiles, read cycles, area, delay, energy), the last three as
    {component: value}.
    """
    uc = platform.unit_costs.components
    hier = platform.hierarchy
    x = platform.xbar_size

    n_active = active_xbars(cd_in, shape, choice, platform)
    # tiles are physical: whole tiles, and at least one per layer
    tiles = _ceil_div(n_active, platform.xbars_per_tile)
    adcs_per_xbar = _ceil_div(x, choice.cs)
    rounds = read_cycles(choice)
    out_h, out_w = shape.out_spatial()
    positions = out_h * out_w
    pes_per_tile = math.ceil(platform.xbars_per_tile / hier.xbars_per_pe)
    hops_tile = math.ceil(math.log2(pes_per_tile)) + 1 if pes_per_tile > 1 else 1
    hops = hops_tile + hier.htree_global_hops

    # Data volumes, in bytes: inputs stream at ip bits per activation,
    # outputs at one byte per activation.
    in_h, in_w = shape.in_spatial
    in_bytes = cd_in * in_h * in_w * choice.ip / 8.0
    out_bytes = choice.cd_out * positions * 1.0
    xfer_bytes = in_bytes + out_bytes

    # --- area (per tile, times tiles) ---
    acc_area_tile = (
        pes_per_tile * uc["accumulator_pe"].area
        + uc["accumulator_tile"].area
        + uc["accumulator_global"].area
    )
    buf_area_tile = (
        pes_per_tile * hier.pe_buffer_bytes * uc["buffer_pe"].area
        + hier.tile_buffer_bytes * uc["buffer_tile"].area
        + hier.global_buffer_bytes * uc["buffer_global"].area
    )
    htree_area_tile = hops * hier.htree_bus_bytes * uc["htree"].area

    area = {
        "XbarArray": tiles * platform.xbars_per_tile * x * x * uc["xbar_cell"].area,
        "ADC": tiles * platform.xbars_per_tile * adcs_per_xbar * adc.area,
        "Mux": tiles * platform.xbars_per_tile * x * uc["mux"].area,
        "SwitchMatrix": tiles * platform.xbars_per_tile * x * uc["switch_matrix"].area,
        "Accumulators": tiles * (platform.xbars_per_tile * adcs_per_xbar
                                 * choice.ap * uc["shift_add"].area + acc_area_tile),
        "Buffers": tiles * buf_area_tile,
        "HTree": tiles * htree_area_tile,
    }

    # --- delay ---
    # Each activation position takes `rounds` conversion rounds; one round
    # drives the rows, settles the array, switches the mux, converts and
    # shift-adds.  The accumulation chain and data transfers pipeline per
    # position / per byte respectively.
    acc_chain = (uc["accumulator_pe"].latency + uc["accumulator_tile"].latency
                 + uc["accumulator_global"].latency)
    buffer_lat_per_byte = (uc["buffer_pe"].latency + uc["buffer_tile"].latency
                           + uc["buffer_global"].latency)
    delay = {
        "XbarArray": positions * rounds * uc["xbar_cell"].latency,
        "SwitchMatrix": positions * rounds * uc["switch_matrix"].latency,
        "Mux": positions * rounds * uc["mux"].latency,
        "ADC": positions * rounds * adc.latency_per_conversion,
        "Accumulators": positions * (rounds * choice.ap * uc["shift_add"].latency
                                     + acc_chain),
        "Buffers": xfer_bytes * buffer_lat_per_byte,
        "HTree": _ceil_div(xfer_bytes, hier.htree_bus_bytes) * hops
                 * uc["htree"].latency,
    }

    # --- energy ---
    conversions = positions * rounds * n_active * adcs_per_xbar
    energy = {
        "XbarArray": positions * rounds * n_active * x * x * uc["xbar_cell"].energy,
        "SwitchMatrix": positions * rounds * n_active * x
                        * uc["switch_matrix"].energy,
        "Mux": conversions * uc["mux"].energy,
        "ADC": conversions * adc.energy_per_conversion,
        "Accumulators": (conversions * choice.ap * uc["shift_add"].energy
                         + positions * (n_active * uc["accumulator_pe"].energy
                                        + tiles * uc["accumulator_tile"].energy
                                        + uc["accumulator_global"].energy)),
        "Buffers": xfer_bytes * (uc["buffer_pe"].energy + uc["buffer_tile"].energy
                                 + uc["buffer_global"].energy),
        "HTree": xfer_bytes * hops * uc["htree"].energy,
    }
    return tiles, rounds, area, delay, energy


def _total(parts: dict):
    """Sum of a component map, in ``COMPONENTS`` order from 0."""
    return sum(parts[comp] for comp in COMPONENTS)


def layer_cost(cd_in: int, shape: LayerShape, choice: LayerChoice,
               platform: PlatformParams) -> LayerCost:
    """Full area/delay/energy of one layer, with a per-component breakdown."""
    tiles, rounds, area, delay, energy = _layer_terms(
        cd_in, shape, choice, adc_profile(choice.at, choice.ap, platform),
        platform)
    breakdown = {
        comp: {"area": area[comp], "delay": delay[comp], "energy": energy[comp]}
        for comp in COMPONENTS
    }
    return LayerCost(
        tiles=tiles,
        read_cycles_per_activation=rounds,
        area=_total(area),
        delay=_total(delay),
        energy=_total(energy),
        breakdown=breakdown,
    )


class _ChoiceColumns(NamedTuple):
    """The integer fields of a sequence of layer choices, as arrays."""

    cd_out: np.ndarray
    cs: np.ndarray
    ap: np.ndarray
    ip: np.ndarray


def layer_cost_arrays(cd_in, shape: LayerShape, choices: Sequence[LayerChoice],
                      platform: PlatformParams
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Area, delay and energy of one layer for every choice, as float64 arrays.

    The broadcast view of ``layer_cost``: ``cd_in`` is an int or an
    integer array broadcasting against the choice axis, so a column of P
    input depths gives (P, len(choices)) arrays.  Each entry equals the
    matching ``layer_cost`` field bit for bit.
    """
    columns = _ChoiceColumns(*(np.array([getattr(c, name) for c in choices])
                               for name in _ChoiceColumns._fields))
    profiles = {key: astuple(adc_profile(*key, platform))
                for key in {(c.at, c.ap) for c in choices}}
    adc = ADCProfile(*np.array([profiles[c.at, c.ap] for c in choices]).T)
    _, _, area, delay, energy = _layer_terms(cd_in, shape, columns, adc, platform)
    return _total(area), _total(delay), _total(energy)


#: The largest integer ``layer_cost_arrays`` computes exactly: its int64
#: products wrap silently past it, where ``layer_cost``'s Python ints do not.
INT64_MAX = int(np.iinfo(np.int64).max)


def int_product_bound(cd_in: int, shape: LayerShape, cd_out: int, cs: int,
                      platform: PlatformParams) -> int:
    """An upper bound on every integer product ``_layer_terms`` forms for
    one layer, over every choice of width up to ``cd_out``, column sharing
    up to ``cs`` and any AP and IP (at most 8 bits), at input depths up to
    ``cd_in``.

    ``layer_cost_arrays`` forms these products in int64, so it equals
    ``layer_cost`` bit for bit while the bound is at most ``INT64_MAX``.
    The worst case is the crossbar energy's positions * rounds * n_active
    * x * x, or the accumulators' conversions * ap = positions * rounds *
    n_active * adcs_per_xbar * ap, with rounds = ip * cs <= 8 * cs and
    adcs_per_xbar <= x: together positions * 8 * cs * n_active * x *
    max(x, 8).  The others are the tile cells, tiles * xbars_per_tile *
    x * x, and the input bytes' cd_in * in_h * in_w * ip.  Every other
    product is at most one of these three, or at most xbars_per_tile * x
    * 8 < 2**36.
    """
    x = platform.xbar_size
    n_active = (_ceil_div(cd_in * shape.kernel ** 2, x)
                * _ceil_div(cd_out * platform.weight_slices, x))
    tiles = _ceil_div(n_active, platform.xbars_per_tile)
    positions = math.prod(shape.out_spatial())
    return max(positions * 8 * cs * n_active * x * max(x, 8),
               tiles * platform.xbars_per_tile * x * x,
               cd_in * math.prod(shape.in_spatial) * 8)


def layer_macs(cd_in: int, shape: LayerShape, choice: LayerChoice) -> int:
    out_h, out_w = shape.out_spatial()
    return cd_in * shape.kernel ** 2 * choice.cd_out * out_h * out_w


def psi_terms(model: CandidateModel) -> tuple[float, float]:
    """``(mean_cs, sar_fraction)``: the mean column sharing and the fraction
    of SAR-converter layers, the two factors of ``psi``."""
    n = len(model.layers)
    mean_cs = sum(choice.cs for _, choice in model.layers) / n
    sar_fraction = sum(1 for _, choice in model.layers
                       if choice.at is ADCType.SAR) / n
    return mean_cs, sar_fraction


def psi(model: CandidateModel) -> float:
    """Mean column sharing times the fraction of SAR-converter layers.

    An empirical proxy for crossbar read delay: both factors raise the
    number of serial clock cycles a crossbar read takes.
    """
    mean_cs, sar_fraction = psi_terms(model)
    return mean_cs * sar_fraction


def edap_from_totals(energy_pj: float, delay_ns: float, area_mm2: float) -> float:
    """Energy-delay-area product in mJ * ms * mm^2."""
    return (energy_pj / 1e9) * (delay_ns / 1e6) * area_mm2


@dataclass(frozen=True)
class CostReport:
    area: float  # mm^2
    delay: float  # ns
    energy: float  # pJ
    edap: float  # mJ * ms * mm^2
    tops_per_watt: float
    tops_per_mm2: float
    psi: float
    op_count: int
    per_layer: tuple[LayerCost, ...]

    def totals(self) -> dict[str, float]:
        """The five headline figures, keyed as every run file names them."""
        return {"area_mm2": self.area, "delay_ns": self.delay,
                "energy_pJ": self.energy, "edap_mJ_ms_mm2": self.edap,
                "psi": self.psi}

    def to_dict(self) -> dict:
        return {
            **self.totals(),
            "tops_per_watt": self.tops_per_watt,
            "tops_per_mm2": self.tops_per_mm2,
            "op_count": self.op_count,
            "per_layer": [lc.to_dict() for lc in self.per_layer],
        }

    def csv_rows(self) -> list[dict[str, object]]:
        """Flat per-layer rows plus a totals row; units in the column names.
        The totals row leaves blank the columns that have no total."""
        rows = [
            {"layer": idx, **{key: value for key, value in lc.to_dict().items()
                              if key != "breakdown"}}
            for idx, lc in enumerate(self.per_layer)]
        total = {"layer": "total", **self.totals(),
                 "tiles": sum(lc.tiles for lc in self.per_layer)}
        rows.append({key: total.get(key, "") for key in rows[0]})
        return rows


def model_cost(model: CandidateModel, platform: PlatformParams) -> CostReport:
    """Whole-network cost report: per-layer sums plus derived metrics."""
    per_layer = []
    op_count = 0
    for idx, (shape, choice) in enumerate(model.layers):
        cd_in = model.cd_in(idx)
        per_layer.append(layer_cost(cd_in, shape, choice, platform))
        op_count += 2 * layer_macs(cd_in, shape, choice)
    area = sum(lc.area for lc in per_layer)
    delay = sum(lc.delay for lc in per_layer)
    energy = sum(lc.energy for lc in per_layer)
    return CostReport(
        area=area,
        delay=delay,
        energy=energy,
        edap=edap_from_totals(energy, delay, area),
        tops_per_watt=op_count / energy,
        tops_per_mm2=op_count / (delay * 1e3 * area),
        psi=psi(model),
        op_count=op_count,
        per_layer=tuple(per_layer),
    )
