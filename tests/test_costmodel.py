import math

import numpy as np
import pytest

from imcsearch.config import (
    MAX_EXTENT,
    MAX_WIDTH,
    ConfigError,
    check_costs_fit,
    load_unit_costs,
)
from imcsearch.costmodel import (
    INT64_MAX,
    adc_profile,
    edap_from_totals,
    int_product_bound,
    layer_cost,
    layer_cost_arrays,
    model_cost,
    psi,
    read_cycles,
)
from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    HierarchyParams,
    LayerChoice,
    LayerShape,
    PlatformParams,
    UnitCost,
    UnitCostTable,
    enumerate_options,
    vgg16_space,
)

from conftest import make_platform, zero_cost_table


def brute_force_tiles(cd_in, k, cd_out, x, xbars_per_tile, slices):
    """Pack rows/columns crossbar by crossbar, then fill tiles."""
    rows = cd_in * k * k
    row_chunks = 0
    while rows > 0:
        rows -= x
        row_chunks += 1
    cols = cd_out * slices
    col_chunks = 0
    while cols > 0:
        cols -= x
        col_chunks += 1
    xbars = row_chunks * col_chunks
    tiles = 0
    while xbars > 0:
        xbars -= xbars_per_tile
        tiles += 1
    return max(1, tiles)


def choice(cd_out=8, cs=4, at=ADCType.SAR, ap=6, ip=8):
    return LayerChoice(cd_out=cd_out, cs=cs, at=at, ap=ap, ip=ip)


def conv_shape(k=3, spatial=8, stride=1):
    return LayerShape(kernel=k, in_spatial=(spatial, spatial), stride=stride)


# ---------------------------------------------------------------------------
# tile mapping
# ---------------------------------------------------------------------------

def test_tiles_first_conv_layer():
    # 27 rows -> 1 chunk; 64*2 sliced columns -> 2 chunks; 2 xbars -> 1 tile
    platform = make_platform()
    assert layer_cost(3, conv_shape(), choice(cd_out=64), platform).tiles == 1


def test_tiles_wide_mid_layer():
    # 512*9/64 = 72 row chunks x 512*2/64 = 16 col chunks = 1152 xbars -> 18
    platform = make_platform()
    assert layer_cost(512, conv_shape(), choice(cd_out=512), platform).tiles == 18


def test_tiles_minimal_layer_is_one():
    platform = make_platform(weight_bits=4, weight_slice_bits=4)
    shape = LayerShape(kernel=1, in_spatial=(1, 1))
    assert layer_cost(1, shape, choice(cd_out=1), platform).tiles == 1


def test_tiles_match_brute_force_enumerator():
    rng = np.random.default_rng(42)
    for _ in range(300):
        cd_in = int(rng.integers(1, 600))
        cd_out = int(rng.integers(1, 600))
        k = int(rng.choice([1, 3, 5]))
        x = int(rng.choice([16, 32, 64, 128]))
        per_tile = int(rng.choice([4, 16, 64]))
        slice_bits = int(rng.choice([2, 4, 8]))
        platform = make_platform(xbar_size=x, xbars_per_tile=per_tile,
                                 weight_bits=8, weight_slice_bits=slice_bits)
        shape = LayerShape(kernel=k, in_spatial=(4, 4))
        got = layer_cost(cd_in, shape, choice(cd_out=cd_out, cs=4), platform).tiles
        want = brute_force_tiles(cd_in, k, cd_out, x, per_tile,
                                 8 // slice_bits)
        assert got == want


def test_doubling_cd_out_doubles_column_term():
    from imcsearch.costmodel import active_xbars

    platform = make_platform()
    shape = conv_shape()
    # cd_in*k^2 <= X and cd_out*slices divisible by X: the column chunk
    # count doubles exactly, and nothing shrinks
    base = layer_cost(4, shape, choice(cd_out=64, at=ADCType.FLASH), platform)
    double = layer_cost(4, shape, choice(cd_out=128, at=ADCType.FLASH), platform)
    assert active_xbars(4, shape, choice(cd_out=128), platform) \
        == 2 * active_xbars(4, shape, choice(cd_out=64), platform)
    assert double.area >= base.area
    assert double.delay >= base.delay
    assert double.energy >= base.energy


# ---------------------------------------------------------------------------
# read cycles and ADC profiles
# ---------------------------------------------------------------------------

def test_read_cycles():
    assert read_cycles(choice(ip=8, cs=8)) == 64
    assert read_cycles(choice(ip=1, cs=1)) == 1
    assert read_cycles(choice(ip=4, cs=16)) == 64


def test_adc_profile_flash_comparator_count():
    # with only the comparator costing area, an ADC's area counts its
    # comparators: 2**ap - 1 for flash, one for SAR
    table = zero_cost_table(comparator=(1.0, 0.0, 0.0))
    platform = PlatformParams(unit_costs=table)
    assert adc_profile(ADCType.FLASH, 6, platform).area == 63
    assert adc_profile(ADCType.FLASH, 1, platform).area == 1
    assert adc_profile(ADCType.SAR, 6, platform).area == 1


def test_adc_profile_sar_latency_is_one_clock_per_bit():
    platform = make_platform(clock_period=1.0)
    assert adc_profile(ADCType.SAR, 6, platform).latency_per_conversion \
        == pytest.approx(6.0)
    platform2 = make_platform(clock_period=2.5)
    assert adc_profile(ADCType.SAR, 4, platform2).latency_per_conversion \
        == pytest.approx(10.0)


def test_adc_profile_rejects_bad_precision():
    platform = make_platform()
    with pytest.raises(ValueError):
        adc_profile(ADCType.FLASH, 0, platform)
    with pytest.raises(ValueError):
        adc_profile(ADCType.SAR, 9, platform)


def test_sar_vs_flash_tradeoffs():
    platform = make_platform()
    shape = conv_shape()
    for ap in range(3, 9):
        sar = layer_cost(16, shape, choice(cd_out=16, at=ADCType.SAR, ap=ap),
                         platform)
        flash = layer_cost(16, shape, choice(cd_out=16, at=ADCType.FLASH, ap=ap),
                           platform)
        assert sar.delay >= flash.delay
        assert sar.area <= flash.area


# ---------------------------------------------------------------------------
# layer cost structure
# ---------------------------------------------------------------------------

def test_energy_linearity_in_adc_energy():
    # all unit costs zero except a 1-comparator flash ADC at energy e:
    # energy = positions * read_cycles * active_xbars * adcs_per_xbar * e
    e = 0.37
    table = zero_cost_table(comparator=(0.0, e, 0.0))
    platform = PlatformParams(unit_costs=table, xbar_size=16, xbars_per_tile=4)
    shape = conv_shape(spatial=5)
    c = choice(cd_out=24, cs=4, at=ADCType.FLASH, ap=1, ip=6)
    lc = layer_cost(9, shape, c, platform)
    positions = 25
    rounds = 6 * 4
    active = math.ceil(9 * 9 / 16) * math.ceil(24 * 2 / 16)
    adcs = 16 // 4
    assert lc.energy == pytest.approx(positions * rounds * active * adcs * e)
    assert lc.breakdown["ADC"]["energy"] == pytest.approx(lc.energy)


def test_breakdown_closure():
    platform = make_platform()
    lc = layer_cost(32, conv_shape(), choice(cd_out=48, at=ADCType.FLASH),
                    platform)
    for metric in ("area", "delay", "energy"):
        total = getattr(lc, metric)
        parts = sum(v[metric] for v in lc.breakdown.values())
        assert total == pytest.approx(parts, rel=1e-12)


def test_unit_cost_scaling_is_linear():
    platform = make_platform()
    table = platform.unit_costs
    tripled = UnitCostTable(f"{table.calibration_id}*3", {
        name: UnitCost(c.area * 3.0, c.energy * 3.0, c.latency * 3.0)
        for name, c in table.components.items()})
    scaled = PlatformParams(unit_costs=tripled,
                            clock_period=platform.clock_period * 3.0)
    shape = conv_shape()
    c = choice(cd_out=32, at=ADCType.SAR)
    base = layer_cost(16, shape, c, platform)
    big = layer_cost(16, shape, c, scaled)
    assert big.area == pytest.approx(3.0 * base.area, rel=1e-12)
    assert big.energy == pytest.approx(3.0 * base.energy, rel=1e-12)
    assert big.delay == pytest.approx(3.0 * base.delay, rel=1e-12)


@pytest.mark.parametrize("platform", [
    make_platform(),
    PlatformParams(unit_costs=UnitCostTable("desk32nm-v1*1.7", {
        name: UnitCost(c.area * 1.7, c.energy * 1.7, c.latency * 1.7)
        for name, c in load_unit_costs().components.items()}), xbar_size=128,
                   xbars_per_tile=16, clock_period=1.3,
                   hierarchy=HierarchyParams(xbars_per_pe=3, htree_bus_bytes=24)),
], ids=["default", "scaled-128"])
def test_broadcast_formula_matches_layer_cost_bit_for_bit(platform):
    space = vgg16_space()
    grid = enumerate_options(space, 0, phase=2)
    prev_cds = [space.input_channels]
    for layer, shape in enumerate(space.layer_shapes):
        choices = [LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)
                   for cd, cs, at in enumerate_options(space, layer, phase=1)
                   for ap, ip in grid]
        assert {c.at for c in choices} == {ADCType.SAR, ADCType.FLASH}
        arrays = layer_cost_arrays(np.array(prev_cds)[:, None], shape, choices,
                                   platform)
        for a in arrays:
            assert a.shape == (len(prev_cds), len(choices))
            assert a.dtype == np.float64
        for i, cd_in in enumerate(prev_cds):
            for j, c in enumerate(choices):
                lc = layer_cost(cd_in, shape, c, platform)
                assert (arrays[0][i, j], arrays[1][i, j], arrays[2][i, j]) \
                    == (lc.area, lc.delay, lc.energy)
        prev_cds = list(space.cd_options_per_layer[layer])
    assert type(lc.tiles) is int
    assert all(type(v) is float for v in (lc.area, lc.delay, lc.energy))


def test_layer_cost_arrays_equal_layer_cost_at_the_largest_accepted_layer():
    # the largest extents and kernel a config accepts, at the widest input
    # depth and width whose cost tables still pass check_costs_fit on the
    # default platform with one ADC per crossbar: its products come
    # within a factor of two of int64's limit, and the int64 array view
    # still equals the Python-int scalar view bit for bit
    platform = make_platform()
    shape = LayerShape(kernel=MAX_EXTENT - 1, in_spatial=(MAX_EXTENT, MAX_EXTENT))
    cs_options = tuple(2 ** i for i in range(7))  # 1 ... xbar_size
    assert cs_options[-1] == platform.xbar_size

    def accepted(width: int) -> bool:
        space = DesignSpace(layer_shapes=(shape,), cd_options_per_layer=((width,),),
                            input_channels=width, class_count=width,
                            cs_options=cs_options)
        try:
            check_costs_fit(space, platform)
        except ConfigError:
            return False
        return True

    lo, hi = 1, MAX_WIDTH  # accepted(lo), and the widest accepted is <= hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid - 1)
    width = lo
    assert 1 < width < MAX_WIDTH and not accepted(width + 1)
    bound = int_product_bound(width, shape, width, cs_options[-1], platform)
    assert INT64_MAX // 2 < bound <= INT64_MAX
    choices = [LayerChoice(cd_out=width, cs=cs, at=at, ap=ap, ip=ip)
               for cs in cs_options for at in ADCType for ap in range(1, 9)
               for ip in (1, 8)]
    cd_ins = [1, width]
    arrays = layer_cost_arrays(np.array(cd_ins)[:, None], shape, choices,
                               platform)
    for i, cd_in in enumerate(cd_ins):
        for j, c in enumerate(choices):
            lc = layer_cost(cd_in, shape, c, platform)
            assert (arrays[0][i, j], arrays[1][i, j], arrays[2][i, j]) \
                == (lc.area, lc.delay, lc.energy)


def test_determinism_bit_identical():
    platform = make_platform()
    a = layer_cost(32, conv_shape(), choice(cd_out=48), platform)
    b = layer_cost(32, conv_shape(), choice(cd_out=48), platform)
    assert a == b


# ---------------------------------------------------------------------------
# directional trends (small sample here; the acceptance suite runs 500)
# ---------------------------------------------------------------------------

def _sweep_metric(platform, shape, cd_in, base, param, values):
    out = []
    for v in values:
        kwargs = dict(cd_out=base.cd_out, cs=base.cs, at=base.at,
                      ap=base.ap, ip=base.ip)
        kwargs[param] = v
        out.append(layer_cost(cd_in, shape, LayerChoice(**kwargs), platform))
    return out


def test_trend_directions_spot_check():
    platform = make_platform()
    shape = conv_shape(spatial=6)
    base = choice(cd_out=32, cs=8, at=ADCType.SAR, ap=5, ip=6)

    by_cd = _sweep_metric(platform, shape, 24, base, "cd_out", [16, 32, 64, 128])
    assert all(b.energy > a.energy for a, b in zip(by_cd, by_cd[1:]))
    assert all(b.delay > a.delay for a, b in zip(by_cd, by_cd[1:]))
    assert all(b.area >= a.area for a, b in zip(by_cd, by_cd[1:]))

    by_ap = _sweep_metric(platform, shape, 24, base, "ap", [3, 4, 5, 6, 7, 8])
    for a, b in zip(by_ap, by_ap[1:]):
        assert b.energy > a.energy and b.delay > a.delay and b.area > a.area

    by_ip = _sweep_metric(platform, shape, 24, base, "ip", [3, 4, 6, 8])
    for a, b in zip(by_ip, by_ip[1:]):
        assert b.energy > a.energy and b.delay > a.delay
        assert b.area == a.area  # IP never touches silicon

    by_cs = _sweep_metric(platform, shape, 24, base, "cs", [2, 4, 8, 16, 32])
    for a, b in zip(by_cs, by_cs[1:]):
        assert b.energy > a.energy and b.delay > a.delay and b.area < a.area


# ---------------------------------------------------------------------------
# whole-model report
# ---------------------------------------------------------------------------

def _model(layers, input_channels=3):
    return CandidateModel(layers=tuple(layers), input_channels=input_channels)


def test_edap_units():
    assert edap_from_totals(8.02e7, 3.75e6, 99.0) == pytest.approx(29.77425)
    assert edap_from_totals(2.69e7, 2.16e6, 50.2) == pytest.approx(2.916821, rel=1e-6)


def test_model_cost_single_layer_equals_layer_cost():
    platform = make_platform()
    shape = conv_shape()
    c = choice(cd_out=16)
    report = model_cost(_model([(shape, c)], input_channels=4), platform)
    lc = layer_cost(4, shape, c, platform)
    assert report.area == pytest.approx(lc.area)
    assert report.delay == pytest.approx(lc.delay)
    assert report.energy == pytest.approx(lc.energy)
    assert report.edap == pytest.approx(
        edap_from_totals(lc.energy, lc.delay, lc.area))


def test_model_cost_edap_identity():
    platform = make_platform()
    shape = conv_shape()
    layers = [(shape, choice(cd_out=16)), (shape, choice(cd_out=32))]
    report = model_cost(_model(layers), platform)
    assert report.edap == pytest.approx(
        (report.energy / 1e9) * (report.delay / 1e6) * report.area, rel=1e-9)


def test_op_count_is_twice_macs():
    platform = make_platform()
    shape = conv_shape(spatial=4)
    c = choice(cd_out=8)
    report = model_cost(_model([(shape, c)], input_channels=2), platform)
    assert report.op_count == 2 * (2 * 9 * 8 * 16)


def test_psi_examples():
    shape = conv_shape()
    all_flash = _model([(shape, choice(cd_out=8, at=ADCType.FLASH)),
                        (shape, choice(cd_out=8, at=ADCType.FLASH))])
    assert psi(all_flash) == 0.0

    all_sar = _model([(shape, choice(cd_out=8, cs=8, at=ADCType.SAR)),
                      (shape, choice(cd_out=8, cs=8, at=ADCType.SAR))])
    assert psi(all_sar) == pytest.approx(8.0)

    mixed = _model([(shape, choice(cd_out=8, cs=4, at=ADCType.SAR)),
                    (shape, choice(cd_out=8, cs=8, at=ADCType.FLASH))])
    assert psi(mixed) == pytest.approx(6.0 * 0.5)
