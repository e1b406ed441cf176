"""Record-to-dict builders that ``lanetopo.dataio``'s writer replaced, kept
as test oracles.

Each builds the JSON object of one record from its fields, and the writer
used to emit ``json.dumps`` of it. The writer now formats each record
straight from its values, and must write the same bytes:
``json.dumps(reference obj)`` for scene and detection lines (a
prediction's base64 texts included), and ``json.dumps`` of the list of
:func:`traffic_to_obj` for a ``tta-merge`` output.
"""

from __future__ import annotations

import base64

import numpy as np

from lanetopo.dataio import PredictionRecord, _prob_matrices


def traffic_to_obj(te) -> dict:
    return {
        "id": int(te.id),
        "box": np.asarray(te.box, dtype=float).tolist(),
        "category": int(te.category),
        "confidence": float(te.confidence),
    }


def scene_to_obj(scene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "lanes": [
            {"id": int(l.id), "ctrl": np.asarray(l.ctrl, dtype=float).tolist()} for l in scene.lanes
        ],
        "traffic": [traffic_to_obj(te) for te in scene.traffic],
        "topo_ll": [[int(i), int(j)] for i, j in sorted(scene.topo_ll)],
        "topo_lt": [[int(i), int(k)] for i, k in sorted(scene.topo_lt)],
    }


def detection_to_obj(record) -> dict:
    lanes = []
    for lane in record.lanes:
        entry = {
            "ctrl": np.asarray(lane.ctrl, dtype=float).tolist(),
            "class_score": float(lane.class_score),
        }
        if lane.feature is not None:
            entry["feature"] = np.asarray(lane.feature, dtype=float).tolist()
        lanes.append(entry)
    obj = {
        "scene_id": record.scene_id,
        "lanes": lanes,
        "traffic": [traffic_to_obj(te) for te in record.traffic],
    }
    if isinstance(record, PredictionRecord):
        for name, mat in _prob_matrices(record):
            obj[name] = base64.b64encode(np.asarray(mat, dtype="<f8").tobytes()).decode("ascii")
    return obj
