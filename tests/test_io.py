"""Model documents round-trip; report files are pinned byte for byte."""

import hashlib
import json

from imcsearch.costmodel import model_cost
from imcsearch.designspace import ADCType, LayerChoice, LayerShape, homogeneous_model
from imcsearch.io import (
    load_model,
    model_from_dict,
    model_to_dict,
    write_json,
    write_trace,
)

from conftest import make_platform, toy_space

#: The report files the CLI writes for the model below (``report.json`` and
#: ``report.csv``), captured before the report CSV went through
#: ``write_trace``.
REPORT_JSON_SHA256 = "60f81b4f2b2699256cf54a182ae4f47ec34260407c19f9552e9f7bc804d8c217"
REPORT_CSV = (
    b"layer,tiles,read_cycles_per_activation,area_mm2,delay_ns,energy_pJ\r\n"
    b"0,1,12,0.36448079999999994,6583.136,2866.8448\r\n"
    b"1,1,12,0.36448079999999994,6618.656,7960.934399999999\r\n"
    b"total,2,,0.7289615999999999,13201.792000000001,10827.779199999999\r\n"
)


def report_model():
    return homogeneous_model(toy_space(), cs=4, at=ADCType.SAR, ap=5, ip=3)


def test_model_dict_round_trip(tmp_path):
    model = report_model()
    fc = (LayerShape.fc(), LayerChoice(cd_out=2, cs=8, at=ADCType.FLASH, ap=6,
                                       ip=7))
    model = type(model)(layers=model.layers + (fc,),
                        input_channels=model.input_channels)
    assert model_from_dict(model_to_dict(model)) == model
    path = tmp_path / "model.json"
    write_json(path, model_to_dict(model))
    assert load_model(path) == model
    assert json.loads(path.read_text()) == model_to_dict(model)


def test_write_report_bytes_are_pinned(tmp_path):
    report = model_cost(report_model(), make_platform())
    write_json(tmp_path / "report.json", report.to_dict())
    write_trace(tmp_path / "report.csv", report.csv_rows())
    json_bytes = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(json_bytes).hexdigest() == REPORT_JSON_SHA256
    assert json.loads(json_bytes) == report.to_dict()
    assert (tmp_path / "report.csv").read_bytes() == REPORT_CSV
