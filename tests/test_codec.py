"""The JSONL codec against its oracles.

Writer: the bytes of every scene, detection and prediction line, and of a
``tta-merge`` output, equal ``json.dumps`` of the dict builders kept in
``reference_codec.py``. Loader: a record loads equal, with arrays of its
own, whether its fields convert as stacked arrays and pass the validators'
batch checks, or go entry by entry through both, and a mutated line gets
the same record or the same error either way.
"""

from __future__ import annotations

import contextlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import reference_codec
import test_jsonl_fuzz
from lanetopo import dataio, detstrat, geometry, synthgen
from lanetopo.cli import main
from lanetopo.dataio import DetectionRecord, GtLane, PredictionRecord, PredLane, SceneRecord, TrafficElement

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, -3.0, 1e16, 1e22, 1.5e-7, 0.1, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
reals = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, width=64))
ints = st.one_of(st.integers(-5, 20), st.integers(-(2**70), 2**70))
text = st.one_of(st.sampled_from(['s"1\\', "é☃", "tab\there", "%s %d %r", "\ud800", ""]), st.text(max_size=8))


@st.composite
def arrays(draw, shape):
    """Reals of every magnitude, some integer-valued, with the special
    values mixed in; drawn by numpy from a seed, as hypothesis is slow to
    draw thousands of floats one at a time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    values = np.where(rng.random(shape) < 0.2, np.round(values), values)
    return np.where(rng.random(shape) < 0.3, rng.choice(SPECIAL, size=shape), values)


@st.composite
def entities(draw, make):
    """A list of entities whose arrays share one shape (the batch case) or
    are ragged (one at a time)."""
    n = draw(st.integers(0, 6))
    ragged = draw(st.booleans())
    fixed = draw(st.integers(0, 4))
    return [make(draw, draw(st.integers(0, 4)) if ragged else fixed) for _ in range(n)]


def traffic_element(draw, width):
    box = draw(arrays((4,) if draw(st.booleans()) else (width,)))
    return TrafficElement(draw(ints), box, draw(st.integers(0, 12)), draw(reals))


def gt_lane(draw, points):
    return GtLane(draw(ints), draw(arrays((points, 3))))


def pred_lane(draw, points):
    feature = draw(st.one_of(st.none(), st.integers(0, 3).flatmap(lambda w: arrays((w,)))))
    return PredLane(draw(arrays((points, 3))), draw(reals), feature)


@st.composite
def scenes(draw):
    pairs = st.sets(st.tuples(ints, ints), max_size=4)
    return SceneRecord(draw(text), draw(entities(gt_lane)), draw(entities(traffic_element)), draw(pairs), draw(pairs))


@st.composite
def detections(draw):
    lanes, traffic = draw(entities(pred_lane)), draw(entities(traffic_element))
    if not draw(st.booleans()):
        return DetectionRecord(draw(text), lanes, traffic)
    n, t = len(lanes), len(traffic)
    return PredictionRecord(draw(text), lanes, traffic, draw(arrays((n, n))), draw(arrays((n, t))))


def lines(objs) -> bytes:
    return "".join(json.dumps(o) + "\n" for o in objs).encode("utf-8")


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(scenes(), max_size=3), st.lists(detections(), max_size=3))
def test_writer_bytes_equal_json_dumps_of_the_reference_objects(tmp_path_factory, scene_list, record_list):
    out = tmp_path_factory.mktemp("codec")
    dataio.save_scenes(scene_list, out / "s.jsonl")
    dataio.save_detections(record_list, out / "d.jsonl")
    assert (out / "s.jsonl").read_bytes() == lines(map(reference_codec.scene_to_obj, scene_list))
    assert (out / "d.jsonl").read_bytes() == lines(map(reference_codec.detection_to_obj, record_list))
    for te in (te for r in record_list for te in r.traffic):
        assert json.dumps(dataio.traffic_to_obj(te)) == json.dumps(reference_codec.traffic_to_obj(te))


def test_writer_bytes_of_each_special_shape_and_value(tmp_path):
    lanes = [PredLane(np.array([[-0.0, 5e-324, 1.0], [2.0, math.nan, -math.inf]]), 1.0, np.array([math.inf, 0.0]))]
    traffic = [TrafficElement(2**60 + 1, np.array([1.0, 2.0, 3.0, 1e300]), 12, -0.0)]
    records = [
        PredictionRecord('q "\\ é', lanes, [], np.full((1, 1), math.nan), np.zeros((1, 0))),
        PredictionRecord("empty", [], [], np.zeros((0, 0)), np.zeros((0, 0))),
        DetectionRecord("ragged", [*lanes, PredLane(np.ones((3, 3)), 0.5)], traffic),
    ]
    scene = SceneRecord("☃", [GtLane(np.int64(7), np.zeros((2, 3))), GtLane(8, np.ones((4, 3)))], traffic, {(7, 8)}, {(8, 2**60 + 1)})
    dataio.save_detections(records, tmp_path / "d.jsonl")
    dataio.save_scenes([scene, SceneRecord("none", [], [])], tmp_path / "s.jsonl")
    assert (tmp_path / "d.jsonl").read_bytes() == lines(map(reference_codec.detection_to_obj, records))
    assert (tmp_path / "s.jsonl").read_bytes() == lines(map(reference_codec.scene_to_obj, [scene, SceneRecord("none", [], [])]))


def test_tta_merge_output_is_the_json_dumps_of_the_reference_objects(tmp_path):
    payload = [
        {"scale": 1.0, "traffic": [{"id": 0, "box": [10.0, 10.0, 50.0, 50.0], "category": 2, "confidence": 0.9},
                                   {"id": 3, "box": [300.5, 7.25, 350.0, 90.0], "category": 11, "confidence": 0.125}]},
        {"scale": 2.0, "traffic": [{"id": 1, "box": [20.0, 20.0, 100.0, 100.0], "category": 2, "confidence": 0.7}]},
    ]
    (tmp_path / "tta.json").write_text(json.dumps(payload))
    assert main(["tta-merge", "--input", str(tmp_path / "tta.json"), "--out", str(tmp_path / "merged.json")]) == 0
    merged = detstrat.tta_merge([dataio.tta_entry_from_obj(entry) for entry in payload], detstrat.TtaConfig())
    assert len(merged) == 2
    want = json.dumps([reference_codec.traffic_to_obj(te) for te in merged]) + "\n"
    assert (tmp_path / "merged.json").read_text() == want
    assert dataio.traffic_json([]) == "[]"


def _unstacked(entries, key, ndim):
    raise ValueError("forced per-entry conversion")


def per_entry():
    """Every record is converted entry by entry: no field converts as one
    stacked array."""
    return mock.patch.object(dataio, "_column", _unstacked)


def query_budget_files(tmp_path):
    """Scene and prediction files of two ~290-lane query-budget scenes, one
    of them with detector features."""
    cfg = synthgen.GeneratorConfig(scenes=2, seed=5)
    noise = synthgen.NoiseModel(ctrl_sigma=0.25, drop_prob=0.1, spurious_rate=280.0)
    scenes = [synthgen.generate_scene(cfg, i) for i in range(2)]
    dets = [synthgen.corrupt_scene(s, noise, [5, i]) for i, s in enumerate(scenes)]
    rng = np.random.default_rng(5)
    for lane in dets[1].lanes:
        lane.feature = rng.normal(size=6)
    preds = [PredictionRecord(d.scene_id, d.lanes, d.traffic, rng.uniform(size=(len(d.lanes),) * 2), rng.uniform(size=(len(d.lanes), len(d.traffic)))) for d in dets]
    dataio.save_scenes(scenes, tmp_path / "s.jsonl")
    dataio.save_detections([*dets, *preds], tmp_path / "d.jsonl")
    assert min(len(d.lanes) for d in dets) > 250
    return tmp_path / "s.jsonl", tmp_path / "d.jsonl"


def arrays_of(records):
    for r in records:
        yield from (lane.ctrl for lane in r.lanes)
        yield from (lane.feature for lane in r.lanes if getattr(lane, "feature", None) is not None)
        yield from (te.box for te in r.traffic)


def test_per_entry_conversion_loads_the_stacked_records_each_with_arrays_of_its_own(tmp_path):
    scene_path, det_path = query_budget_files(tmp_path)
    stacked = dataio.load_scenes(scene_path), dataio.load_detections(det_path)
    with per_entry():
        one_at_a_time = dataio.load_scenes(scene_path), dataio.load_detections(det_path)
    assert one_at_a_time == stacked
    for scenes, dets in (stacked, one_at_a_time):
        for arr in arrays_of([*scenes, *dets]):
            assert arr.base is None and arr.dtype == np.float64 and arr.flags.c_contiguous
        for te in (te for r in [*scenes, *dets] for te in r.traffic):
            assert (type(te.id), type(te.category), type(te.confidence)) == (int, int, float)
        for lane in (lane for d in dets for lane in d.lanes):
            assert type(lane.class_score) is float
    # the stacked conversions and the batch checks were taken: no entry is
    # converted or checked on its own
    with contextlib.ExitStack() as stack:
        for name in ("_gt_lane", "_pred_lane", "traffic_from_obj"):
            stack.enter_context(mock.patch.object(dataio, name, side_effect=AssertionError))
        checks = [
            stack.enter_context(mock.patch.object(dataio, name, wraps=getattr(geometry, name)))
            for name in ("as_control_points", "as_box")
        ]
        assert (dataio.load_scenes(scene_path), dataio.load_detections(det_path)) == stacked
    for check in checks:
        assert check.call_args_list and all(call.kwargs == {"batch": True} for call in check.call_args_list)


@pytest.mark.parametrize("path", ["stacked", "per-entry"])
def test_loader_feature_width_is_checked_on_both_paths(tmp_path, path):
    _, det_path = query_budget_files(tmp_path)  # line 2 has features of width 6, line 1 none
    second = tmp_path / "second.jsonl"
    second.write_text("\n" + det_path.read_text().splitlines()[1] + "\n")
    with per_entry() if path == "per-entry" else contextlib.nullcontext():
        with pytest.raises(dataio.ValidationError, match=r"d\.jsonl:1: scene '\S+', field 'lanes.feature': lane 0 has no feature, expected width 6$"):
            dataio.load_detections(det_path, feature_width=6)
        with pytest.raises(dataio.ValidationError, match=r"second\.jsonl:2: scene '\S+', field 'lanes.feature': lane 0 has a feature of shape \(6,\), expected width 4$"):
            dataio.load_detections(second, feature_width=4)
        assert len(dataio.load_detections(second, feature_width=6)) == 1


def test_loading_a_query_budget_prediction_line_bounds_the_peak_memory(tmp_path):
    # with the line held while its record is built (enumerate's cached tuple
    # and a stripped copy of it), the load read 6.56 MiB
    rng = np.random.default_rng(3)
    n, t = dataio.DEFAULT_QUERY_BUDGET, 295
    lanes = [PredLane(rng.normal(size=(4, 3)), 0.5) for _ in range(n)]
    traffic = [TrafficElement(k, np.array([1.0, 1.0, 9.0, 9.0]) + rng.uniform(size=4), k % 13, float(rng.uniform())) for k in range(t)]
    pred = PredictionRecord("q", lanes, traffic, rng.uniform(size=(n, n)), rng.uniform(size=(n, t)))
    path = tmp_path / "pred.jsonl"
    dataio.save_detections([pred], path)
    tracemalloc.start()
    try:
        (loaded,) = dataio.load_detections(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == pred
    assert peak <= 4.5 * 2**20, f"load_detections traced peak {peak / 2**20:.2f} MiB"


def _outcome(load, path):
    try:
        return load(path)
    except (dataio.FormatError, dataio.ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _no_lane_with_a_feature(obj):
    obj = json.loads(json.dumps(obj))
    for lane in obj["lanes"]:
        del lane["feature"]
    return obj


# the fuzz's detection lines give every lane a feature; these give none
FEATURELESS_LINES = {kind: _no_lane_with_a_feature(test_jsonl_fuzz.LINES[kind]) for kind in ("detection", "prediction")}


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_mutated_line_loads_or_fails_the_same_on_both_paths(tmp_path_factory, data):
    with mock.patch.dict(test_jsonl_fuzz.LINES, FEATURELESS_LINES if data.draw(st.booleans()) else {}):
        kind, obj = data.draw(test_jsonl_fuzz.mutated())
    path = tmp_path_factory.mktemp("paths") / "records.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    load = dataio.load_scenes if kind == "scene" else dataio.load_detections
    stacked = _outcome(load, path)
    with per_entry():
        assert _outcome(load, path) == stacked


@pytest.mark.parametrize("path", ["stacked", "per-entry"])
def test_loader_enforces_the_query_budget_on_both_paths(tmp_path, path):
    lane = PredLane(np.zeros((4, 3)) + [0.0, 0.0, 1.0], 0.5)
    file = tmp_path / "d.jsonl"
    for n, error in ((dataio.DEFAULT_QUERY_BUDGET, None), (dataio.DEFAULT_QUERY_BUDGET + 1, "301 lanes exceed query budget 300")):
        dataio.save_detections([DetectionRecord("ok", [lane], []), DetectionRecord("s", [lane] * n, [])], file)
        with per_entry() if path == "per-entry" else contextlib.nullcontext():
            if error is None:
                assert len(dataio.load_detections(file)[1].lanes) == n
            else:
                with pytest.raises(dataio.ValidationError, match=f":2: scene 's', field 'lanes': {error}$"):
                    dataio.load_detections(file)
