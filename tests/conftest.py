"""Shared fixtures and oracles: platforms, toy spaces, trained desk-scale
nets and a per-slice reference of the crossbar kernel."""

import json
import struct

import numpy as np
import pytest

from imcsearch.config import load_unit_costs
from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
    PlatformParams,
    UnitCost,
    UnitCostTable,
)
from imcsearch.nnsim import NoiseSpec
from imcsearch.nnsim.crossbar import chunk_rows
from imcsearch.nnsim.data import make_blobs, make_patterns
from imcsearch.nnsim.network import ReLU, accuracy, build_refnet, train_tiny
from imcsearch.nnsim.quantize import adc_quantize
from imcsearch.nnsim.score import LAMBDA_RATIO, hamming_kernel
from imcsearch.search import Phase2Data


def make_platform(**overrides) -> PlatformParams:
    return PlatformParams(unit_costs=load_unit_costs(), **overrides)


#: Cells exact: no device variation.
NO_VARIATION = NoiseSpec(sigma_over_mu=0.0, rng_seed=0)


def split_cells(cells):
    """Per-slice (positive, negative) cell matrices, least significant first."""
    split = cells.columns.reshape(-1, cells.n_slices, 2, cells.n_cols)
    return [(split[:, s, 0], split[:, s, 1]) for s in range(cells.n_slices)]


def loop_matmul(cells, ap, ip, in_codes, xbar_size, full_range):
    """Reference kernel: one float32 matmul per plane, slice, sign and chunk.

    Every sum converts alone, the codes add up in int64 with their plane,
    slice and sign weights, and the total scales by the ADC step once.
    """
    acc = np.zeros((in_codes.shape[0], cells.n_cols), dtype=np.int64)
    for b in range(ip):
        plane = ((in_codes >> b) & 1).astype(np.float32)
        for s, polarities in enumerate(split_cells(cells)):
            for sign, part in zip((1, -1), polarities):
                for sl in chunk_rows(in_codes.shape[1], xbar_size):
                    sums = plane[:, sl] @ part[sl]
                    codes = adc_quantize(sums, ap, full_range).astype(np.int64)
                    acc += sign * 2 ** (cells.slice_bits * s + b) * codes
    return acc * (full_range / 2 ** ap)


def zero_cost_table(**nonzero) -> UnitCostTable:
    """All-zero unit costs except the named component fields.

    ``nonzero`` maps component names to (area, energy, latency) tuples.
    """
    components = {}
    from imcsearch.designspace import UNIT_COST_COMPONENTS

    for name in UNIT_COST_COMPONENTS:
        if name in nonzero:
            a, e, l = nonzero[name]
            components[name] = UnitCost(a, e, l)
        else:
            components[name] = UnitCost(0.0, 0.0, 0.0)
    return UnitCostTable("zeros-test", components)


def candidate_net(shapes: list[LayerShape], widths: list[int],
                  input_channels: int, seed: int, dtype=float):
    """``build_refnet`` of a candidate with one layer per (shape, width);
    the last width is the class count."""
    layers = tuple((shape, LayerChoice(cd_out=w, cs=4, at=ADCType.SAR, ap=6, ip=8))
                   for shape, w in zip(shapes, widths))
    model = CandidateModel(layers=layers, input_channels=input_channels)
    return build_refnet(model, class_count=widths[-1], seed=seed, dtype=dtype)


def fc_net(widths: list[int], seed: int, dtype=float):
    """``build_refnet`` of an all-FC candidate: input ``widths[0]``, then
    Dense-BN-ReLU blocks of ``widths[1:-1]`` and a linear classifier."""
    return candidate_net([LayerShape.fc()] * (len(widths) - 1), widths[1:],
                         widths[0], seed, dtype)


def whole_matrix_score(net, x) -> float:
    """The HD score of ``net``'s own weights from one plain forward of the
    whole batch and one kernel over every ReLU's codes."""
    codes = []
    for layer in net.layers:
        if isinstance(layer, ReLU):
            codes.append((x > 0).reshape(len(x), -1))
        x = layer.forward(x)
    codes = np.concatenate(codes, axis=1)
    k = hamming_kernel(codes)
    reg = k + LAMBDA_RATIO * codes.shape[1] * np.eye(len(k))
    return np.linalg.slogdet(reg)[1]


def one_float_per_array(blob: bytes) -> bytes:
    """A saved network container rewritten so that its header gives every
    array the shape [1] and one float follows per array."""
    version, hlen = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12:12 + hlen])
    for spec in header["arrays"]:
        spec["shape"] = [1]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return (blob[:4] + struct.pack("<II", version, len(head)) + head
            + np.ones(len(header["arrays"]), dtype="<f4").tobytes())


def toy_space(num_layers: int = 2, spatial: int = 8) -> DesignSpace:
    """Small conv space for search tests: 2 CD x 2 CS x 2 AT per layer."""
    shapes = tuple(LayerShape(kernel=3, in_spatial=(spatial, spatial))
                   for _ in range(num_layers))
    cd_opts = tuple((8, 16) for _ in range(num_layers))
    return DesignSpace(
        layer_shapes=shapes,
        cd_options_per_layer=cd_opts,
        cs_options=(4, 8),
        at_options=(ADCType.SAR, ADCType.FLASH),
        ap_options=(5, 6),
        ip_options=(3, 4, 5, 6, 7, 8),
        input_channels=1,
        class_count=2,
    )


@pytest.fixture(scope="session")
def blob_data():
    return make_blobs(240, n_classes=2, n_features=2, seed=7)


@pytest.fixture(scope="session")
def trained_mlp(blob_data):
    """2 quantizable layers, >=95% train accuracy on separable blobs."""
    net = fc_net([2, 16, 2], seed=3)
    net = train_tiny(net, blob_data, epochs=40, lr=0.05, batch_size=32, seed=3)
    assert accuracy(net.forward(blob_data.data), blob_data.labels) >= 0.95
    return net


def _patterns(n, seed):
    return make_patterns(n, channels=1, height=4, width=4, n_classes=2,
                         seed=seed)


@pytest.fixture(scope="session")
def toy():
    """Phase-2 toy: three 3x3 convs at 4x4 of width 4, then fc, so 4
    quantizable layers, trained, with two adaptation batches of 8 samples
    and 16 evaluation samples.

    16-row crossbars split each 36-row conv into three row chunks.
    """
    conv = LayerShape(kernel=3, in_spatial=(4, 4))
    shapes = (conv, conv, conv, LayerShape.fc())
    space = DesignSpace(layer_shapes=shapes,
                        cd_options_per_layer=((4,), (4,), (4,), (2,)),
                        input_channels=1, class_count=2)
    model = CandidateModel(
        layers=tuple((s, LayerChoice(cd_out=cds[0], cs=8, at=ADCType.SAR,
                                     ap=6, ip=8))
                     for s, cds in zip(shapes, space.cd_options_per_layer)),
        input_channels=1)
    net = train_tiny(build_refnet(model, 2, seed=1), _patterns(32, 2),
                     epochs=3, lr=0.05, batch_size=16, seed=3)
    data = Phase2Data(adapt_batches=[_patterns(8, 4), _patterns(8, 5)],
                      eval_batch=_patterns(16, 6))
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    return space, model, net, data, platform
