import pytest

from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
    enumerate_options,
    homogeneous_model,
    validate_candidate,
    vgg16_space,
)

from conftest import make_platform, toy_space


def test_vgg16_space_option_counts():
    space = vgg16_space()
    assert space.num_layers == 14
    for layer in range(13):
        assert len(enumerate_options(space, layer, phase=1)) == 40
    # classifier layer: width pinned to the class count, CS/AT still searched
    assert len(enumerate_options(space, 13, phase=1)) == 10
    assert len(enumerate_options(space, 0, phase=2)) == 12


@pytest.mark.parametrize("cd_index", range(-4, 4))
def test_homogeneous_model_takes_the_ith_width_of_every_layer(cd_index):
    space = vgg16_space()
    model = homogeneous_model(space, cs=16, at=ADCType.SAR, ap=6, ip=8,
                              cd_index=cd_index)
    widths = [choice.cd_out for _, choice in model.layers]
    # the classifier has one option, the class count
    assert widths[-1] == space.class_count
    assert widths[:-1] == [options[cd_index]
                           for options in space.cd_options_per_layer[:-1]]


def test_enumerate_options_order_is_cd_major():
    space = toy_space()
    opts = enumerate_options(space, 0, phase=1)
    cds = space.cd_options_per_layer[0]
    expected = [(cd, cs, at) for cd in cds for cs in space.cs_options
                for at in space.at_options]
    assert opts == expected
    # stable across calls
    assert enumerate_options(space, 0, phase=1) == opts


def test_enumerate_options_phase2_ap_major():
    space = toy_space()
    opts = enumerate_options(space, 0, phase=2)
    assert opts == [(ap, ip) for ap in space.ap_options for ip in space.ip_options]


def test_enumerate_options_degenerate_space():
    space = DesignSpace(
        layer_shapes=(LayerShape(kernel=3, in_spatial=(4, 4)),),
        cd_options_per_layer=((8,),),
        cs_options=(4,),
        at_options=(ADCType.SAR,),
        ap_options=(6,),
        ip_options=(8,),
        input_channels=1,
        class_count=2,
    )
    assert len(enumerate_options(space, 0, phase=1)) == 1
    assert len(enumerate_options(space, 0, phase=2)) == 1


def test_enumerate_options_layer_out_of_range():
    space = toy_space()
    with pytest.raises(IndexError):
        enumerate_options(space, space.num_layers, phase=1)


def test_validate_candidate_ok():
    space = vgg16_space()
    platform = make_platform()
    model = homogeneous_model(space, cs=16, at=ADCType.FLASH, ap=6, ip=8)
    assert validate_candidate(model, space, platform) == []


def test_validate_candidate_flags_bad_fields():
    space = toy_space()
    platform = make_platform()
    good = homogeneous_model(space, cs=space.cs_options[0],
                             at=ADCType.SAR, ap=6, ip=8)
    layers = list(good.layers)
    shape, choice = layers[1]
    layers[1] = (shape, LayerChoice(cd_out=choice.cd_out, cs=choice.cs,
                                    at=choice.at, ap=7, ip=choice.ip))
    bad = CandidateModel(layers=tuple(layers), input_channels=good.input_channels)
    violations = validate_candidate(bad, space, platform)
    assert [(v.layer, v.field) for v in violations] == [(1, "ap")]


def test_validate_candidate_flags_chaining():
    space = toy_space()
    platform = make_platform()
    cds = space.cd_options_per_layer
    layers = []
    for idx, shape in enumerate(space.layer_shapes):
        layers.append((shape, LayerChoice(cd_out=cds[idx][0], cs=4,
                                          at=ADCType.SAR, ap=6, ip=8)))
    # a candidate derives each layer's cd_in from the previous layer's
    # cd_out, so its chain cannot break; check the layer-count path instead
    short = CandidateModel(layers=tuple(layers[:-1]),
                           input_channels=space.input_channels)
    violations = validate_candidate(short, space, platform)
    assert violations and violations[0].field == "layers"


def test_ap_bounds_enforced_at_construction():
    with pytest.raises(ValueError):
        LayerChoice(cd_out=8, cs=4, at=ADCType.SAR, ap=9, ip=8)
    with pytest.raises(ValueError):
        LayerChoice(cd_out=8, cs=4, at=ADCType.SAR, ap=6, ip=0)


def test_layer_shape_out_spatial():
    assert LayerShape(kernel=3, in_spatial=(32, 32), stride=1).out_spatial() \
        == (32, 32)
    assert LayerShape(kernel=3, in_spatial=(32, 32), stride=2).out_spatial() \
        == (16, 16)
    assert LayerShape.fc().out_spatial() == (1, 1)


def test_cd_defaults_are_multiples_of_8():
    space = vgg16_space()
    for opts in space.cd_options_per_layer[:-1]:
        assert len(opts) == 4
        assert all(c % 8 == 0 for c in opts)


def test_validated_model_accepted_downstream():
    # ok from validate_candidate implies the cost path accepts the model
    from imcsearch.costmodel import model_cost

    space = toy_space()
    platform = make_platform()
    model = homogeneous_model(space, cs=4, at=ADCType.FLASH, ap=6, ip=8)
    assert validate_candidate(model, space, platform) == []
    report = model_cost(model, platform)
    assert report.area > 0 and report.delay > 0 and report.energy > 0
