"""Serialization of models, reports, pools and traces.

All writers are deterministic: keys are sorted, floats use repr
round-tripping, and CSV field orders are fixed, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .config import _bool, _int
from .designspace import ADCType, CandidateModel, LayerChoice, LayerShape
from .search import CandidatePool, PoolEntry, relative_area_error


def model_to_dict(model: CandidateModel) -> dict:
    return {
        "input_channels": model.input_channels,
        "layers": [
            {
                "shape": {
                    "kernel": shape.kernel,
                    "in_h": shape.in_spatial[0],
                    "in_w": shape.in_spatial[1],
                    "stride": shape.stride,
                    "is_fc": shape.is_fc,
                },
                "choice": {
                    "cd_out": choice.cd_out,
                    "cs": choice.cs,
                    "at": choice.at.value,
                    "ap": choice.ap,
                    "ip": choice.ip,
                },
            }
            for shape, choice in model.layers
        ],
    }


def model_from_dict(raw: dict) -> CandidateModel:
    try:
        layers = []
        for entry in raw["layers"]:
            s = entry["shape"]
            c = entry["choice"]
            shape = LayerShape(kernel=_int(s["kernel"]),
                               in_spatial=(_int(s["in_h"]), _int(s["in_w"])),
                               stride=_int(s["stride"]),
                               is_fc=_bool(s.get("is_fc", False)))
            choice = LayerChoice(cd_out=_int(c["cd_out"]), cs=_int(c["cs"]),
                                 at=ADCType(c["at"]), ap=_int(c["ap"]),
                                 ip=_int(c["ip"]))
            layers.append((shape, choice))
        return CandidateModel(layers=tuple(layers),
                              input_channels=_int(raw["input_channels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid model document: {exc}") from exc


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_model(path: str | Path) -> CandidateModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path) as f:
        return model_from_dict(json.load(f))


def pool_entry_to_dict(entry: PoolEntry) -> dict:
    return {
        "model": model_to_dict(entry.model),
        "step": entry.step,
        "admitted": entry.admitted,
        "hd_score": entry.hd_score,
        "hd_norm": entry.hd_norm,
        "delay_norm": entry.delay_norm,
        "rank_score": entry.rank_score,
        **entry.report.totals(),
    }


def pool_to_dict(pool: CandidatePool, area_constraint: float,
                 selected_key: tuple | None = None) -> dict:
    """The pool's entries, the selected entry's choices and, when nothing
    was admitted, the nearest miss: its step, area and relative area error."""
    miss = pool.nearest_miss(area_constraint)
    return {
        "entries": [pool_entry_to_dict(e) for e in pool.entries],
        "admitted_count": len(pool.admitted()),
        "selected": list(map(list, selected_key)) if selected_key else None,
        "nearest_miss": None if miss is None else {
            "step": miss.step,
            "area_mm2": miss.report.area,
            "rel_area_error": relative_area_error(miss.report.area,
                                                  area_constraint),
        },
    }


def write_trace(path: Path, rows: list[dict]) -> None:
    """CSV with the first row's keys as header; an empty file for no rows."""
    with open(path, "w", newline="") as f:
        if not rows:
            return
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})
