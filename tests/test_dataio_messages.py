"""Error-message parity for record checks, entry by entry.

One bad entry is put at lane 0, 10 or 19 of a 20-lane scene or detection
record, or at traffic element 0, 10 or the last of its 17, which is then
checked two ways: in memory with
``validate_scene`` / ``validate_detection`` (control_points=4), and
through a JSONL file with ``load_scenes`` / ``load_detections``. The full
text of each error, or null where the record is accepted, is compared
with ``dataio_messages.json``; the file's path reads ``<path>`` there.

Re-record (only when a change of messages is intended and explained):
``PYTHONPATH=src python tests/test_dataio_messages.py --record``.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lanetopo import dataio
from lanetopo.dataio import DetectionRecord, GtLane, PredLane, SceneRecord, TrafficElement
from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene

RECORDED = Path(__file__).with_name("dataio_messages.json")
LANES = 20
POSITIONS = (0, 10, 19)
CONTROL_POINTS = 4


def _objs():
    cfg = GeneratorConfig(lanes_per_scene=(LANES, LANES), seed=17)
    scene = generate_scene(cfg, 0)
    det = corrupt_scene(scene, NoiseModel(ctrl_sigma=0.2, conf_noise=0.5), seed=3)
    return dataio.scene_to_obj(scene), dataio.detection_to_obj(det)


def _set(key, value):
    def mutate(obj, idx):
        obj["lanes"][idx][key] = value

    return mutate


def _ctrl(edit):
    def mutate(obj, idx):
        edit(obj["lanes"][idx]["ctrl"])

    return mutate


def _ragged(ctrl):
    ctrl[1] = ctrl[1][:2]


def _nan(ctrl):
    ctrl[1][2] = math.nan


def _three_points(ctrl):
    del ctrl[2]


def _bool_coordinate(ctrl):
    ctrl[2][0] = True


def _null_coordinate(ctrl):
    ctrl[0][1] = None


def _flat(ctrl):
    ctrl[:] = [v for point in ctrl for v in point]


def _element(obj, idx) -> int:
    """The traffic position for lane position ``idx``: the last for 19."""
    return min(idx, len(obj["traffic"]) - 1)


def _set_traffic(key, value):
    def mutate(obj, idx):
        obj["traffic"][_element(obj, idx)][key] = value

    return mutate


def _box(edit):
    def mutate(obj, idx):
        edit(obj["traffic"][_element(obj, idx)]["box"])

    return mutate


def _short_box(box):
    del box[3]


def _inverted_box(box):
    box[0], box[2] = box[2], box[0]


def _nan_box(box):
    box[1] = math.nan


def _string_box(box):
    box[2] = "x"


def _duplicate_traffic_id(obj, idx):
    traffic, k = obj["traffic"], _element(obj, idx)
    traffic[k]["id"] = traffic[(k + 1) % len(traffic)]["id"]


def _duplicate_id(obj, idx):
    obj["lanes"][idx]["id"] = obj["lanes"][(idx + 1) % LANES]["id"]


def _unknown_ll(obj, idx):
    obj["topo_ll"].append([obj["lanes"][idx]["id"], 999])


def _unknown_lt(obj, idx):
    obj["topo_lt"].append([obj["lanes"][idx]["id"], 999])


def _later_nan(obj, idx):
    """A second fault: a NaN point five lanes on, so the first one must be named."""
    _nan(obj["lanes"][(idx + 5) % LANES]["ctrl"])


def _every_lane(edit):
    """``edit`` on every lane's ctrl: the lanes still stack, so only the
    batch check itself can find the fault."""

    def mutate(obj, idx):
        for lane in obj["lanes"]:
            edit(lane["ctrl"])

    return mutate


def _two(*mutations):
    def mutate(obj, idx):
        for mutation in mutations:
            mutation(obj, idx)

    return mutate


def _features(edit):
    """A width-3 feature on every lane, then ``edit`` of lane ``idx``'s entry."""

    def mutate(obj, idx):
        for lane in obj["lanes"]:
            lane["feature"] = [0.5, 1.0, 1.5]
        edit(obj["lanes"][idx])

    return mutate


def _not_object(obj, idx):
    obj["lanes"][idx] = 5


def _no_ctrl(obj, idx):
    del obj["lanes"][idx]["ctrl"]


COMMON = {
    "ragged_ctrl": _ctrl(_ragged),
    "nan_point": _ctrl(_nan),
    "wrong_m": _ctrl(_three_points),
    "bool_coordinate": _ctrl(_bool_coordinate),
    "null_coordinate": _ctrl(_null_coordinate),
    "flat_ctrl": _ctrl(_flat),
    "string_ctrl": _set("ctrl", "x"),
    "not_object": _not_object,
    "no_ctrl": _no_ctrl,
    "wrong_m_everywhere": _every_lane(_three_points),
    "nan_everywhere": _every_lane(_nan),
}
TRAFFIC = {
    "box_short": _box(_short_box),
    "box_inverted": _box(_inverted_box),
    "box_nan": _box(_nan_box),
    "box_string": _box(_string_box),
    "traffic_id_duplicate": _duplicate_traffic_id,
    "traffic_id_fraction": _set_traffic("id", 2.5),
    "traffic_id_true": _set_traffic("id", True),
    "category_above": _set_traffic("category", 13),
    "category_negative": _set_traffic("category", -1),
    "category_fraction": _set_traffic("category", 2.5),
    "category_true": _set_traffic("category", True),
    "category_string": _set_traffic("category", "2"),
    "confidence_nan": _set_traffic("confidence", math.nan),
    "confidence_negative": _set_traffic("confidence", -0.1),
    "confidence_above": _set_traffic("confidence", 1.5),
    "confidence_true": _set_traffic("confidence", True),
    "confidence_string": _set_traffic("confidence", "0.5"),
    "confidence_null": _set_traffic("confidence", None),
    "confidence_list": _set_traffic("confidence", [0.5]),
}
CASES = {
    "scene": {
        **COMMON,
        **TRAFFIC,
        "duplicate_id": _duplicate_id,
        "duplicate_id_then_nan": _two(_duplicate_id, _later_nan),
        "lane_id_fraction": _set("id", 2.5),
        "lane_id_true": _set("id", True),
        "unknown_ll": _unknown_ll,
        "unknown_lt": _unknown_lt,
    },
    "detection": {
        **COMMON,
        "score_nan": _set("class_score", math.nan),
        "score_negative": _set("class_score", -0.1),
        "score_above": _set("class_score", 1.5),
        "score_true": _set("class_score", True),
        "score_string": _set("class_score", "0.5"),
        "score_then_nan": _two(_set("class_score", -0.1), _later_nan),
        "wrong_m_then_nan": _two(_ctrl(_three_points), _later_nan),
        "feature_one_lane": _set("feature", [0.5, 1.0, 1.5]),
        "feature_missing": _features(lambda lane: lane.pop("feature")),
        "feature_short": _features(lambda lane: lane.update(feature=[0.5, 1.0])),
        "feature_true": _features(lambda lane: lane.update(feature=[0.5, True, 1.5])),
        "feature_ragged": _features(lambda lane: lane.update(feature=[[0.5, 1.0], [1.5]])),
        **TRAFFIC,
    },
}


def _traffic(obj) -> list[TrafficElement]:
    return [TrafficElement(te["id"], np.array(te["box"]), te["category"], te["confidence"]) for te in obj["traffic"]]


def _in_memory(kind: str, obj):
    """The record as an in-memory object with each lane's entries as given,
    unparsed; None when a lane is no object or lacks a field."""
    try:
        if kind == "scene":
            lanes = [GtLane(l["id"], l["ctrl"]) for l in obj["lanes"]]
            return SceneRecord(obj["scene_id"], lanes, _traffic(obj), set(map(tuple, obj["topo_ll"])), set(map(tuple, obj["topo_lt"])))
        lanes = [PredLane(l["ctrl"], l["class_score"], l.get("feature")) for l in obj["lanes"]]
        return DetectionRecord(obj["scene_id"], lanes, _traffic(obj))
    except (KeyError, TypeError):
        return None


def messages(kind: str, case: str, idx: int, tmp: Path) -> dict:
    scene_obj, det_obj = _objs()
    obj = scene_obj if kind == "scene" else det_obj
    CASES[kind][case](obj, idx)
    out = {}
    record = _in_memory(kind, obj)
    if record is not None:
        validate = dataio.validate_scene if kind == "scene" else dataio.validate_detection
        try:
            validate(record, CONTROL_POINTS)
            out["validate"] = None
        except (ValueError, TypeError) as exc:
            out["validate"] = f"{type(exc).__name__}: {exc}"
    path = tmp / f"{kind}.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    load = dataio.load_scenes if kind == "scene" else dataio.load_detections
    try:
        load(path)
        out["load"] = None
    except (ValueError, TypeError) as exc:
        out["load"] = f"{type(exc).__name__}: {exc}".replace(str(path), "<path>")
    return out


def _key(kind, case, idx) -> str:
    return f"{kind}/{case}/{idx}"


PARAMS = [(kind, case, idx) for kind, cases in CASES.items() for case in cases for idx in POSITIONS]


@pytest.mark.parametrize("kind,case,idx", PARAMS, ids=[_key(*p) for p in PARAMS])
def test_error_message_matches_recorded(kind, case, idx, tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert messages(kind, case, idx, tmp_path) == recorded[_key(kind, case, idx)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_dataio_messages.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = {_key(*p): messages(*p, Path(tmp)) for p in PARAMS}
    old = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    for key in sorted(table.keys() | old.keys()):
        for entry in ("validate", "load"):
            if old.get(key, {}).get(entry, "<absent>") != table.get(key, {}).get(entry, "<absent>"):
                print(f"changed: {key} {entry}")
    RECORDED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
