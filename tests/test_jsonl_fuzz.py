"""Property test: a mutated scene, detection or prediction line either fails
to load with a FormatError / ValidationError that starts with ``path:line``
and names a field, or loads a record that saves and reloads equal."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lanetopo import dataio, synthgen  # noqa: E402
from lanetopo.dataio import FormatError, PredictionRecord, ValidationError  # noqa: E402

FIELDS = {
    "scene_id", "lanes", "lanes.id", "lanes.ctrl", "lanes.class_score", "lanes.feature",
    "traffic", "traffic.id", "traffic.box", "traffic.category", "traffic.confidence",
    "topo_ll", "topo_lt", "topo_ll_prob", "topo_lt_prob",
}
SWAPS = [True, False, "x", "0.5", None, [], [1, "a"], {}, {"k": 1}]


def _valid_lines() -> dict:
    gen = synthgen.GeneratorConfig(scenes=1, seed=3, lanes_per_scene=(3, 3), traffic_per_scene=(2, 2))
    scene = synthgen.generate_scene(gen, 0)
    det = synthgen.corrupt_scene(scene, synthgen.NoiseModel(), 0)
    for k, lane in enumerate(det.lanes):  # every lane or none: one feature width per record
        lane.feature = np.array([0.25, -1.5, 3.0]) * (k + 1)
    n, t = len(det.lanes), len(det.traffic)
    rng = np.random.default_rng(0)
    pred = PredictionRecord(det.scene_id, det.lanes, det.traffic, rng.uniform(size=(n, n)), rng.uniform(size=(n, t)))
    return {
        "scene": dataio.scene_to_obj(scene),
        "detection": dataio.detection_to_obj(det),
        "prediction": dataio.detection_to_obj(pred),
    }


LINES = _valid_lines()


def _paths(value, prefix=()):
    """Every (path, value) below the record, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw):
    """A record kind and its mutated object."""
    kind = draw(st.sampled_from(sorted(LINES)))
    obj = json.loads(json.dumps(LINES[kind]))
    paths = list(_paths(obj))
    extra = {"scene": ["duplicate"], "prediction": ["base64"]}.get(kind, [])
    mutation = draw(st.sampled_from(["drop", "nonfinite", "swap", "ragged", *extra]))
    if mutation == "drop":
        path = draw(st.sampled_from([p for p, _ in paths if isinstance(p[-1], str)]))
        del _parent(obj, path)[path[-1]]
    elif mutation == "nonfinite":
        numbers = [p for p, v in paths if isinstance(v, (int, float)) and not isinstance(v, bool)]
        path = draw(st.sampled_from(numbers))
        _parent(obj, path)[path[-1]] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    elif mutation == "swap":
        path = draw(st.sampled_from([p for p, _ in paths]))
        _parent(obj, path)[path[-1]] = draw(st.sampled_from(SWAPS))
    elif mutation == "ragged":
        rows = [p for p, _ in paths if p[-1] == "box" or (len(p) == 4 and p[2] == "ctrl")]
        row = _parent(obj, draw(st.sampled_from(rows)) + (0,))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(1.0)
    elif mutation == "base64":
        name = draw(st.sampled_from(["topo_ll_prob", "topo_lt_prob"]))
        text = obj[name]
        at = draw(st.integers(0, len(text) - 1))
        how = draw(st.sampled_from(["bad-char", "truncate", "replace"]))
        if how == "bad-char":
            text = text[:at] + "*" + text[at:]
        elif how == "truncate":
            text = text[:at]
        else:  # still valid base64: new bytes, maybe NaN or out of range
            text = text[:at] + ("A" if text[at] != "A" else "/") + text[at + 1 :]
        obj[name] = text
    else:  # duplicate
        entries = obj[draw(st.sampled_from(["lanes", "traffic"]))]
        entries[1]["id"] = entries[0]["id"]
    return kind, obj


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated())
def test_mutated_line_is_rejected_naming_the_field_or_round_trips(tmp_path_factory, case):
    kind, obj = case
    path = tmp_path_factory.mktemp("fuzz") / "records.jsonl"
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    load, save = (
        (dataio.load_scenes, dataio.save_scenes) if kind == "scene" else (dataio.load_detections, dataio.save_detections)
    )
    try:
        records = load(path)
    except (FormatError, ValidationError) as exc:
        message = str(exc)
        assert message.startswith(f"{path}:1: "), message
        named = re.findall(r"field '([\w.]+)'", message)
        assert named and named[0] in FIELDS, message
        return
    again = path.with_name("again.jsonl")
    save(records, again)
    assert load(again) == records


def _load(kind):
    return dataio.load_scenes if kind == "scene" else dataio.load_detections


@pytest.mark.parametrize(
    "kind, path, value",
    [
        pytest.param("detection", ("traffic", 0, "confidence"), True, id="confidence-true"),
        pytest.param("scene", ("traffic", 1, "confidence"), "1.0", id="confidence-string"),
        pytest.param("prediction", ("traffic", 0, "confidence"), None, id="confidence-null"),
        pytest.param("detection", ("lanes", 0, "class_score"), "0.5", id="class_score-string"),
        pytest.param("prediction", ("lanes", 2, "class_score"), False, id="class_score-false"),
        pytest.param("detection", ("scene_id",), None, id="scene_id-null"),
        pytest.param("scene", ("scene_id",), 7, id="scene_id-number"),
        pytest.param("prediction", ("scene_id",), True, id="scene_id-true"),
    ],
)
def test_wrongly_typed_scalar_is_rejected_naming_the_field(tmp_path, kind, path, value):
    # these round-trip once coerced (true -> 1.0, "0.5" -> 0.5, null -> 'None'), so the fuzz above cannot see them
    obj = json.loads(json.dumps(LINES[kind]))
    _parent(obj, path)[path[-1]] = value
    file = tmp_path / "records.jsonl"
    file.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    field = ".".join(p for p in path if isinstance(p, str))
    with pytest.raises(FormatError) as info:
        _load(kind)(file)
    assert str(info.value).startswith(f"{file}:1: field {field!r}: expected a "), str(info.value)


@pytest.mark.parametrize(
    "kind, path, value",
    [
        pytest.param("detection", ("lanes", 0, "ctrl", 0, 1), True, id="ctrl-true"),
        pytest.param("scene", ("lanes", 1, "ctrl", 2, 0), "0.5", id="ctrl-string"),
        pytest.param("prediction", ("lanes", 2, "ctrl", 1, 2), None, id="ctrl-null"),
        pytest.param("detection", ("traffic", 0, "box", 0), "12", id="box-string"),
        pytest.param("scene", ("traffic", 1, "box", 3), False, id="box-false"),
        pytest.param("detection", ("lanes", 0, "feature", 1), True, id="feature-true"),
        pytest.param("prediction", ("lanes", 0, "feature", 2), "3.0", id="feature-string"),
    ],
)
def test_wrongly_typed_array_entry_is_rejected_naming_the_field(tmp_path, kind, path, value):
    # a coerced entry (true -> 1.0, "12" -> 12.0) round-trips, so the fuzz above cannot see it
    obj = json.loads(json.dumps(LINES[kind]))
    _parent(obj, path)[path[-1]] = value
    file = tmp_path / "records.jsonl"
    file.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    field = ".".join(p for p in path if isinstance(p, str))
    with pytest.raises(FormatError) as info:
        _load(kind)(file)
    assert str(info.value) == f"{file}:1: field {field!r}: expected numbers, got {value!r}"


@pytest.mark.parametrize("kind, path", [("scene", ("lanes", 0, "ctrl", 0, 0)), ("detection", ("traffic", 1, "box", 2))])
def test_integer_beyond_the_float_range_is_rejected_naming_the_field(tmp_path, kind, path):
    obj = json.loads(json.dumps(LINES[kind]))
    _parent(obj, path)[path[-1]] = 10**400  # a JSON integer literal; float() of it overflows
    file = tmp_path / "records.jsonl"
    file.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    field = ".".join(p for p in path if isinstance(p, str))
    with pytest.raises(FormatError) as info:
        _load(kind)(file)
    assert str(info.value) == f"{file}:1: field {field!r}: number outside the float range"
