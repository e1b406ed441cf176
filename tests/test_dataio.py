from __future__ import annotations

import base64
import json
import re

import numpy as np
import pytest

from lanetopo import dataio
from lanetopo.dataio import (
    DetectionRecord,
    FormatError,
    GtLane,
    MetricReport,
    PredictionRecord,
    PredLane,
    SceneRecord,
    TrafficElement,
    ValidationError,
)

import reference_codec


def make_scene(scene_id="s0", rng=None):
    rng = rng or np.random.default_rng(0)
    lanes = [GtLane(id=i, ctrl=rng.normal(scale=10.0, size=(4, 3))) for i in range(3)]
    traffic = [
        TrafficElement(id=k, box=np.array([10.0 * k, 5.0, 10.0 * k + 8.0, 20.0]), category=k % 13)
        for k in range(2)
    ]
    return SceneRecord(scene_id, lanes, traffic, topo_ll={(0, 1), (1, 2)}, topo_lt={(0, 0), (2, 1)})


def make_detection(scene_id="s0", rng=None, with_feature=False):
    rng = rng or np.random.default_rng(1)
    lanes = [
        PredLane(
            ctrl=rng.normal(scale=10.0, size=(4, 3)),
            class_score=float(rng.uniform()),
            feature=rng.normal(size=6) if with_feature else None,
        )
        for _ in range(3)
    ]
    traffic = [
        TrafficElement(id=k, box=np.array([5.0, 5.0, 30.0 + k, 40.0]), category=k % 13, confidence=0.5)
        for k in range(2)
    ]
    return DetectionRecord(scene_id, lanes, traffic)


def test_load_empty_file(tmp_path):
    p = tmp_path / "scenes.jsonl"
    p.write_text("")
    assert dataio.load_scenes(p) == []
    assert dataio.load_detections(p) == []


def test_scene_roundtrip(tmp_path):
    scene = make_scene()
    p = tmp_path / "scenes.jsonl"
    dataio.save_scenes([scene], p)
    loaded = dataio.load_scenes(p)
    assert loaded == [scene]


def test_scene_roundtrip_random_many(tmp_path):
    rng = np.random.default_rng(42)
    scenes = [make_scene(f"scene-{i}", rng) for i in range(10)]
    p = tmp_path / "scenes.jsonl"
    dataio.save_scenes(scenes, p)
    assert dataio.load_scenes(p) == scenes


def test_detection_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    records = [make_detection(f"s{i}", rng, with_feature=(i % 2 == 0)) for i in range(6)]
    p = tmp_path / "det.jsonl"
    dataio.save_detections(records, p)
    assert dataio.load_detections(p) == records


def make_prediction(scene_id="s0"):
    det = make_detection(scene_id)
    rng = np.random.default_rng(5)
    return PredictionRecord(
        det.scene_id, det.lanes, det.traffic, rng.uniform(size=(3, 3)), rng.uniform(size=(3, 2))
    )


def test_prediction_roundtrip(tmp_path):
    pred = make_prediction()
    p = tmp_path / "pred.jsonl"
    dataio.save_detections([pred], p)
    loaded = dataio.load_detections(p)
    assert loaded == [pred]
    assert isinstance(loaded[0], PredictionRecord)


def test_topo_reference_to_missing_lane(tmp_path):
    scene = make_scene()
    scene.topo_ll.add((0, 99))
    p = tmp_path / "scenes.jsonl"
    dataio.save_scenes([scene], p)
    with pytest.raises(ValidationError, match="99"):
        dataio.load_scenes(p)


def test_self_edge_rejected():
    scene = make_scene()
    scene.topo_ll.add((1, 1))
    with pytest.raises(ValidationError, match="self-edge"):
        dataio.validate_scene(scene)


def test_edge_positions_map_ids_to_list_positions():
    lanes = [GtLane(id=i, ctrl=np.zeros((4, 3))) for i in (7, 3, 5)]
    traffic = [TrafficElement(id=k, box=np.array([0.0, 0.0, 1.0, 1.0]), category=0) for k in (4, 9)]
    scene = SceneRecord("s", lanes, traffic, topo_ll={(7, 3), (3, 5)}, topo_lt={(5, 9), (7, 4)})
    ll, lt = dataio.edge_positions(scene)
    assert ll.dtype.kind == lt.dtype.kind == "i"
    assert sorted(map(tuple, ll.tolist())) == [(0, 1), (1, 2)]
    assert sorted(map(tuple, lt.tolist())) == [(0, 0), (2, 1)]
    empty = dataio.edge_positions(SceneRecord("s", lanes, traffic, set(), set()))
    assert [e.shape for e in empty] == [(0, 2), (0, 2)]
    for ll, lt, field, message in (
        ({(3, 3)}, set(), "topo_ll", "self-edge on lane 3"),
        ({(1, 1)}, set(), "topo_ll", "self-edge on lane 1"),  # before the unknown id
        ({(1, 3)}, set(), "topo_ll", "unknown lane id 1"),
        ({(3, 1)}, set(), "topo_ll", "unknown lane id 1"),
        (set(), {(1, 4)}, "topo_lt", "unknown lane id 1"),
        (set(), {(7, 7)}, "topo_lt", "unknown traffic id 7"),
    ):
        bad = SceneRecord("s", lanes, traffic, topo_ll=ll, topo_lt=lt)
        for check in (dataio.edge_positions, dataio.validate_scene):
            with pytest.raises(ValidationError) as info:
                check(bad)
            assert (info.value.field, info.value.message) == (field, message)


NOT_ARRAYS = [
    ({"lanes": {}, "traffic": {}}, "lanes", "dict"),
    ({"lanes": "ab", "traffic": []}, "lanes", "str"),
    ({"lanes": [], "traffic": {}}, "traffic", "dict"),
    ({"lanes": [], "traffic": "ab"}, "traffic", "str"),
]
GT_EDGES_NOT_ARRAYS = [
    ({"lanes": [], "traffic": [], "topo_ll": {}}, "topo_ll", "dict"),
    ({"lanes": [], "traffic": [], "topo_lt": "ab"}, "topo_lt", "str"),
]


@pytest.mark.parametrize(
    "kind,entries,field,got",
    [("scene", *case) for case in NOT_ARRAYS + GT_EDGES_NOT_ARRAYS] + [("detection", *case) for case in NOT_ARRAYS],
)
def test_lists_must_be_json_arrays(tmp_path, kind, entries, field, got):
    p = tmp_path / f"{kind}.jsonl"
    p.write_text(json.dumps({"scene_id": "s", **entries}) + "\n")
    load = dataio.load_scenes if kind == "scene" else dataio.load_detections
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}:1: field '{field}': expected an array, got {got}$"):
        load(p)
    if field == "traffic":
        with pytest.raises(ValueError, match=f"field 'traffic': expected an array, got {got}"):
            dataio.tta_entry_from_obj({"scale": 1.0, "traffic": entries["traffic"]})


@pytest.mark.parametrize("score", ["0.5", None, [0.5]])
def test_validate_detection_names_a_score_that_is_no_number(score):
    det = make_detection()
    det.lanes[1].class_score = score
    with pytest.raises(ValidationError, match=f"field 'lanes.class_score': expected a number, got {re.escape(repr(score))}"):
        dataio.validate_detection(det)


@pytest.mark.parametrize("score", [True, np.True_, False])
@pytest.mark.parametrize("lanes", ["one", "all"])
def test_validate_detection_rejects_a_bool_score_as_the_loader_does(score, lanes):
    det = make_detection()
    for lane in det.lanes[1:] if lanes == "all" else det.lanes[1:2]:
        lane.class_score = score
    with pytest.raises(ValidationError, match=f"field 'lanes.class_score': expected a number, got {re.escape(repr(score))}$"):
        dataio.validate_detection(det)


@pytest.mark.parametrize(
    "fieldname,value,expected",
    [("confidence", True, "a number"), ("confidence", np.False_, "a number"), ("category", True, "an integer")],
)
def test_validate_detection_rejects_bool_traffic_fields(fieldname, value, expected):
    det = make_detection()
    setattr(det.traffic[-1], fieldname, value)
    with pytest.raises(
        ValidationError, match=f"field 'traffic.{fieldname}': expected {expected}, got {re.escape(repr(value))}$"
    ):
        dataio.validate_detection(det)


@pytest.mark.parametrize("category", [2.7, -0.5, float("nan"), "2", np.float64(2.5)])
@pytest.mark.parametrize("kind", ["scene", "detection"])
def test_validate_rejects_a_category_that_is_no_integer(kind, category):
    # the loader's words for the same JSON value; an index cast would read 2.7 as 2
    record = make_scene() if kind == "scene" else make_detection()
    record.traffic[-1].category = category
    validate = dataio.validate_scene if kind == "scene" else dataio.validate_detection
    with pytest.raises(
        ValidationError, match=f"field 'traffic.category': expected an integer, got {re.escape(repr(category))}$"
    ):
        validate(record)


@pytest.mark.parametrize("category", [2.0, np.int64(2), np.uint8(2), np.float64(2.0)])
def test_validate_accepts_integral_categories_of_any_number_type(category):
    # as the loader reads a JSON 2.0 as category 2
    det = make_detection()
    det.traffic[-1].category = category
    dataio.validate_detection(det)
    assert dataio.category_indices(det.traffic).tolist() == [0, 2]


@pytest.mark.parametrize("first_id", [0, 7])
def test_a_control_point_count_error_names_where_the_count_came_from(tmp_path, first_id):
    # with GT ids 7, 8, 9 the bad lane is named by its id, the source by its place
    first, scene = make_scene("s1"), make_scene()
    for s in (first, scene):
        for lane in s.lanes:
            lane.id += first_id
        s.topo_ll = {(i + first_id, j + first_id) for i, j in s.topo_ll}
        s.topo_lt = {(i + first_id, k) for i, k in s.topo_lt}
    scene.lanes[1].ctrl = scene.lanes[1].ctrl[:3]
    p = tmp_path / "scenes.jsonl"
    dataio.save_scenes([first, scene], p)
    bad = f"lane {first_id + 1} has 3 control points, expected 4"
    with pytest.raises(ValidationError, match=f":2: .*{bad} as the first lane of line 1$"):
        dataio.load_scenes(p)
    # a count the caller gives has no source to name
    with pytest.raises(ValidationError, match=f"{bad}$"):
        dataio.load_scenes(p, control_points=4)


def test_duplicate_lane_id_rejected():
    scene = make_scene()
    scene.lanes[1].id = scene.lanes[0].id
    with pytest.raises(ValidationError, match="duplicate"):
        dataio.validate_scene(scene)


def test_confidence_out_of_range(tmp_path):
    det = make_detection()
    det.traffic[0].confidence = 1.2
    p = tmp_path / "det.jsonl"
    dataio.save_detections([det], p)
    with pytest.raises(ValidationError, match="confidence"):
        dataio.load_detections(p)


def test_class_score_out_of_range():
    det = make_detection()
    det.lanes[0].class_score = -0.1
    with pytest.raises(ValidationError, match="class_score"):
        dataio.validate_detection(det)


@pytest.mark.parametrize("value", ["0.5", None, [0.5], np.array([0.5]), True, np.True_])
def test_a_confidence_that_is_no_number_is_named_as_a_class_score_is(value):
    det = make_detection()
    det.lanes[1].class_score = value
    with pytest.raises(ValidationError) as score:
        dataio.validate_detection(det)
    det = make_detection()
    det.traffic[1].confidence = value
    with pytest.raises(ValidationError) as confidence:
        dataio.validate_detection(det)
    scene = SceneRecord("s0", [], det.traffic)
    with pytest.raises(ValidationError) as in_scene:
        dataio.validate_scene(scene)
    assert (score.value.field, confidence.value.field, in_scene.value.field) == ("lanes.class_score", "traffic.confidence", "traffic.confidence")
    assert score.value.message == confidence.value.message == in_scene.value.message == f"expected a number, got {value!r}"


@pytest.mark.parametrize("value", [0.5, np.float32(0.25), np.float64(1.0), 1, np.int64(0)])
def test_numpy_and_integer_confidences_are_numbers(value):
    det = make_detection()
    det.traffic[1].confidence = value
    dataio.validate_detection(det)


@pytest.mark.parametrize(
    "value, accepted",
    [(2.5, False), (True, False), (np.True_, False), ("2", False), (None, False), (3.0, True), (np.int64(3), True)],
    ids=repr,
)
@pytest.mark.parametrize("where", ["scene lanes", "scene traffic", "detection traffic"])
def test_an_in_memory_id_that_is_no_integer_is_rejected_and_an_accepted_one_loads_back_equal(tmp_path, where, value, accepted):
    # the writer formats ids with %d: a fraction accepted here would be saved as another id
    kind, entries = where.split()
    if kind == "scene":
        record, validate, save, load = make_scene(), dataio.validate_scene, dataio.save_scenes, dataio.load_scenes
        record.topo_ll, record.topo_lt = set(), set()
    else:
        record, validate, save, load = make_detection(), dataio.validate_detection, dataio.save_detections, dataio.load_detections
    getattr(record, entries)[1].id = value
    if not accepted:
        with pytest.raises(ValidationError) as info:
            validate(record)
        assert (info.value.field, info.value.message) == (f"{entries}.id", f"expected an integer, got {value!r}")
        return
    validate(record)
    save([record], tmp_path / "r.jsonl")
    assert load(tmp_path / "r.jsonl") == [record]


@pytest.mark.parametrize(
    "feature",
    [[[1.0, 2.0], [3.0]], [True, 0, 1], np.array([True, False, True]), ["1", "2", "3"], [1.0, None, 2.0]],
    ids=["ragged", "bools", "bool-array", "strings", "none-entry"],
)
@pytest.mark.parametrize("width", [3, None])
def test_an_in_memory_feature_that_is_no_vector_of_numbers_is_named(feature, width):
    det = make_detection()
    for lane in det.lanes:
        lane.feature = np.ones(3)
    det.lanes[1].feature = feature
    with pytest.raises(ValidationError) as info:
        dataio.validate_detection(det, 4, width)
    assert (info.value.field, info.value.message) == ("lanes.feature", "lane 1 has a feature that is not 3 finite numbers")


@pytest.mark.parametrize("feature", [[1, 2.0, np.float32(3.0)], np.arange(3), np.ones(3, dtype=np.float32), (0.5, 1, 2)])
def test_in_memory_features_of_ints_floats_and_numpy_numbers_pass(feature):
    det = make_detection()
    for lane in det.lanes:
        lane.feature = np.ones(3)
    det.lanes[1].feature = feature
    dataio.validate_detection(det, 4, 3)
    dataio.validate_detection(det, 4)
    assert dataio.lane_features(det, 3)[1].tolist() == [float(v) for v in feature]


def test_query_budget_enforced():
    det = make_detection()
    det.lanes = [det.lanes[0]] * dataio.DEFAULT_QUERY_BUDGET
    dataio.validate_detection(det)
    det.lanes.append(det.lanes[0])
    with pytest.raises(ValidationError, match=f"{dataio.DEFAULT_QUERY_BUDGET + 1} lanes exceed query budget"):
        dataio.validate_detection(det)


def test_parse_failure_names_line(tmp_path):
    p = tmp_path / "broken.jsonl"
    good = json.dumps(dataio.scene_to_obj(make_scene()))
    p.write_text(good + "\n{not json}\n")
    with pytest.raises(FormatError, match=":2:"):
        dataio.load_scenes(p)


def test_mixed_control_point_counts_rejected(tmp_path):
    rng = np.random.default_rng(2)
    scene = make_scene(rng=rng)
    scene.lanes[2] = GtLane(id=2, ctrl=rng.normal(size=(5, 3)))
    p = tmp_path / "scenes.jsonl"
    dataio.save_scenes([scene], p)
    with pytest.raises(ValidationError, match="control points"):
        dataio.load_scenes(p)


@pytest.mark.parametrize("kind", ["scene", "det"])
def test_loaders_infer_the_control_point_count_from_the_first_lane(tmp_path, kind):
    save, load, make, to_obj = {
        "scene": (dataio.save_scenes, dataio.load_scenes, make_scene, dataio.scene_to_obj),
        "det": (dataio.save_detections, dataio.load_detections, make_detection, dataio.detection_to_obj),
    }[kind]
    first, later = make("s-1"), make()
    first.lanes = []  # a record without lanes infers nothing
    if kind == "scene":
        first.topo_ll, first.topo_lt = set(), set()
    later.lanes[1].ctrl = np.zeros((5, 3))
    p = tmp_path / "records.jsonl"
    save([first, make("s-2"), later], p)
    with pytest.raises(ValidationError, match=":3: .*field 'lanes.ctrl'.* 5 control points, expected 4"):
        load(p)
    with pytest.raises(ValidationError, match=":2: .*4 control points, expected 5"):
        load(p, control_points=5)
    # a first lane without a point list is a field error, not a crash
    obj = to_obj(make())
    obj["lanes"][0]["ctrl"] = 5
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValidationError, match=":1: .*field 'lanes.ctrl'"):
        load(p)


def _set_scene(path, value):
    def mutate(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _set_feature(value):
    def mutate(obj):
        obj["lanes"][0]["feature"] = value

    return mutate


@pytest.mark.parametrize(
    "kind, mutate, fieldname",
    [
        pytest.param("det", _set_feature([0.5, float("nan"), 1.0]), "lanes.feature", id="feature-nan"),
        pytest.param("det", _set_feature([float("inf"), 0.0]), "lanes.feature", id="feature-inf"),
        pytest.param("det", _set_feature([[0.5, 1.0]]), "lanes.feature", id="feature-2d"),
        pytest.param("det", _set_scene(("traffic", 0, "category"), True), "traffic.category", id="det-category-true"),
        pytest.param("det", _set_scene(("traffic", 1, "category"), 1.5), "traffic.category", id="det-category-1.5"),
        pytest.param("scene", _set_scene(("traffic", 0, "category"), True), "traffic.category", id="category-true"),
        pytest.param("scene", _set_scene(("traffic", 1, "id"), True), "traffic.id", id="traffic-id-true"),
        pytest.param("scene", _set_scene(("lanes", 1, "id"), 1.7), "lanes.id", id="lane-id-1.7"),
        pytest.param("scene", _set_scene(("lanes", 1, "id"), True), "lanes.id", id="lane-id-true"),
        pytest.param("scene", _set_scene(("topo_ll", 0, 1), 1.7), "topo_ll", id="topo_ll-1.7"),
        pytest.param("scene", _set_scene(("topo_lt", 0, 0), False), "topo_lt", id="topo_lt-false"),
        pytest.param("scene", _set_scene(("topo_lt", 1, 1), "1"), "topo_lt", id="topo_lt-string"),
    ],
)
def test_loader_rejects_bools_fractions_and_nonfinite_features(tmp_path, kind, mutate, fieldname):
    if kind == "scene":
        to_obj, load = dataio.scene_to_obj, dataio.load_scenes
        records = [make_scene("s-1"), make_scene()]
    else:
        to_obj, load = dataio.detection_to_obj, dataio.load_detections
        records = [make_detection("s-1"), make_detection(with_feature=True)]
    objs = [to_obj(r) for r in records]
    mutate(objs[1])
    p = tmp_path / "records.jsonl"
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts
    p.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with pytest.raises(FormatError, match=f":2: field '{fieldname}'"):
        load(p)


def test_loader_accepts_integral_floats(tmp_path):
    obj = dataio.scene_to_obj(make_scene())
    obj["lanes"][1]["id"] = 1.0
    p = tmp_path / "scenes.jsonl"
    p.write_text(json.dumps(obj) + "\n")
    assert dataio.load_scenes(p) == [make_scene()]


def test_report_roundtrip(tmp_path):
    # fixture: final-leaderboard first row
    report = MetricReport(0.36, 0.80, 0.23, 0.33, 0.55,
                          lane_ap_by_threshold={1.0: 0.3, 2.0: 0.4, 3.0: 0.38},
                          traffic_ap_by_category={0: 0.9, 1: 0.7},
                          scene_count=5)
    p = tmp_path / "report.json"
    dataio.write_report(report, p)
    loaded = dataio.load_report(p)
    assert loaded == report
    table = (tmp_path / "report.json.txt").read_text()
    assert "DET_l" in table and "55.00" in table


def test_report_all_zero_valid(tmp_path):
    report = MetricReport(0.0, 0.0, 0.0, 0.0, 0.0)
    p = tmp_path / "zero.json"
    dataio.write_report(report, p)
    assert dataio.load_report(p).scores() == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert json.loads(p.read_text())["warnings"] == []


def test_report_inconsistent_ols_warns(tmp_path):
    report = MetricReport(0.36, 0.80, 0.23, 0.33, 0.99)
    p = tmp_path / "warn.json"
    dataio.write_report(report, p)
    warnings = json.loads(p.read_text())["warnings"]
    assert len(warnings) == 1 and "inconsistent" in warnings[0]


def test_report_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        dataio.write_report(MetricReport(1.5, 0, 0, 0, 0), tmp_path / "bad.json")


@pytest.mark.parametrize(
    "mutate, fieldname",
    [
        pytest.param(_set_scene(("lanes", 1, "ctrl", 2, 0), float("nan")), "lanes.ctrl", id="ctrl-nan"),
        pytest.param(_set_scene(("traffic", 0, "box"), [5.0, 5.0, 5.0, 9.0]), "traffic.box", id="box-degenerate"),
    ],
)
def test_loader_geometry_errors_name_path_line_and_field(tmp_path, capsys, mutate, fieldname):
    from lanetopo.cli import main

    objs = [dataio.scene_to_obj(make_scene("s-1")), dataio.scene_to_obj(make_scene())]
    mutate(objs[1])
    p = tmp_path / "scenes.jsonl"
    p.write_text("".join(json.dumps(o) + "\n" for o in objs))
    where = f"{p}:2: scene 's0', field '{fieldname}'"
    with pytest.raises(ValidationError) as info:
        dataio.load_scenes(p)
    assert str(info.value).startswith(where) and info.value.field == fieldname
    assert main(["corrupt", "--scenes-file", str(p), "--seed", "0", "--out", str(tmp_path / "d.jsonl")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize(
    "box, message",
    [
        pytest.param([5.0, 5.0, 9.0], "box must have 4 coordinates, got (3,)", id="wrong-shape"),
        pytest.param([5.0, float("inf"), 9.0, 9.0], "box coordinates must be finite", id="non-finite"),
        pytest.param([5.0, 5.0, 5.0, 9.0], "degenerate box [5.0, 5.0, 5.0, 9.0]: need x1 < x2", id="degenerate"),
    ],
)
def test_traffic_box_errors_name_the_field(box, message, count):
    # the bad box comes last, after count - 1 good ones
    good = [TrafficElement(id=k, box=np.array([1.0, 2.0, 3.0 + k, 4.0]), category=k) for k in range(count - 1)]
    bad = TrafficElement(id=count - 1, box=np.array(box), category=0)
    scene = SceneRecord("s0", [], [*good, bad], set(), set())
    det = DetectionRecord("s0", [], [*good, bad])
    for check, record in ((dataio.validate_scene, scene), (dataio.validate_detection, det)):
        with pytest.raises(ValidationError) as info:
            check(record)
        assert info.value.field == "traffic.box" and info.value.message.startswith(message)


@pytest.mark.parametrize(
    "fieldname, value, message",
    [
        pytest.param("topo_ll_prob", np.eye(3).tolist(), "re-run `lanetopo predict`", id="ll-list-form"),
        pytest.param("topo_ll_prob", [np.eye(3).ravel().tolist()], "re-run `lanetopo predict`", id="ll-1xn2-list"),
        pytest.param("topo_lt_prob", 0.5, "got float", id="lt-number"),
        pytest.param("topo_lt_prob", None, "got NoneType", id="lt-null"),
        pytest.param("topo_ll_prob", "AAAA*AAA", "invalid base64", id="ll-bad-alphabet"),
        pytest.param("topo_ll_prob", "AAAAAAAAAAA", "invalid base64", id="ll-bad-padding"),
        pytest.param("topo_ll_prob", "", "0 bytes, expected 8 * 3 * 3", id="ll-empty"),
        pytest.param("topo_lt_prob", base64.b64encode(bytes(8 * 5)).decode(), "40 bytes", id="lt-short"),
        pytest.param("topo_lt_prob", base64.b64encode(bytes(8 * 6 + 1)).decode(), "49 bytes", id="lt-odd"),
    ],
)
def test_loader_rejects_bad_probability_matrices(tmp_path, fieldname, value, message):
    objs = [dataio.detection_to_obj(make_prediction("s-1")), dataio.detection_to_obj(make_prediction())]
    objs[1][fieldname] = value
    p = tmp_path / "pred.jsonl"
    p.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}:2: field '{fieldname}': .*{re.escape(message)}"):
        dataio.load_detections(p)


@pytest.mark.parametrize(
    "fieldname, shape",
    [("topo_ll_prob", (1, 9)), ("topo_ll_prob", (3, 2)), ("topo_lt_prob", (2, 3)), ("topo_lt_prob", (6,))],
)
def test_save_rejects_misshapen_probability_matrices(tmp_path, fieldname, shape):
    pred = make_prediction()
    setattr(pred, fieldname, np.zeros(shape))
    p = tmp_path / "pred.jsonl"
    with pytest.raises(ValueError, match=f"field '{fieldname}': shape"):
        dataio.save_detections([make_prediction("s-1"), pred], p)
    assert dataio.load_detections(p) == [make_prediction("s-1")]


def test_save_detections_writes_the_json_dumps_bytes(tmp_path):
    # predictions skip the escaper for their base64 texts, and must still write
    # what json.dumps writes, detection-only records included
    empty = PredictionRecord('no lanes "q" \u00e9', [], [], np.zeros((0, 0)), np.zeros((0, 0)))
    no_traffic = make_prediction("s-\u2603")
    no_traffic.traffic, no_traffic.topo_lt_prob = [], np.zeros((3, 0))
    records = [make_prediction('s"1\\'), empty, no_traffic, make_detection("d"), make_detection("f", with_feature=True)]
    p = tmp_path / "pred.jsonl"
    dataio.save_detections(records, p)
    assert p.read_bytes() == "".join(json.dumps(reference_codec.detection_to_obj(r)) + "\n" for r in records).encode("utf-8")
    assert dataio.load_detections(p) == records


def test_prediction_roundtrip_is_bit_exact_at_query_budget(tmp_path):
    rng = np.random.default_rng(3)
    n, t = dataio.DEFAULT_QUERY_BUDGET, 295
    lanes = [PredLane(ctrl=rng.normal(size=(4, 3)), class_score=0.5) for _ in range(n)]
    traffic = [TrafficElement(id=k, box=np.array([1.0, 1.0, 9.0, 9.0]), category=0) for k in range(t)]
    special = [-0.0, 5e-324, 0.0, 1.0, np.nextafter(1.0, 0.0)]
    ll, lt = rng.uniform(size=(n, n)), rng.uniform(size=(n, t))
    ll.flat[: len(special)] = lt.flat[-len(special):] = special
    pred = PredictionRecord("q", lanes, traffic, topo_ll_prob=ll, topo_lt_prob=lt)
    p = tmp_path / "pred.jsonl"
    dataio.save_detections([pred], p)
    (loaded,) = dataio.load_detections(p)
    assert loaded == pred
    for got, want in ((loaded.topo_ll_prob, ll), (loaded.topo_lt_prob, lt)):
        assert got.tobytes() == want.tobytes()
        assert got.dtype == np.float64 and got.dtype.isnative and got.flags.writeable
    assert np.signbit(loaded.topo_ll_prob.flat[0]) and loaded.topo_lt_prob.flat[-4] == 5e-324


def test_records_compare_field_wise_by_type_and_stay_unhashable():
    det = make_detection(with_feature=True)
    pred = PredictionRecord(det.scene_id, det.lanes, det.traffic)
    assert det == DetectionRecord(det.scene_id, list(det.lanes), list(det.traffic))
    assert det != pred and pred != det
    assert pred == PredictionRecord(det.scene_id, det.lanes, det.traffic, np.zeros((0, 0)), np.zeros((0, 0)))
    assert pred != PredictionRecord(det.scene_id, det.lanes, det.traffic, np.zeros((3, 3)), np.zeros((3, 2)))
    lane = det.lanes[0]
    assert lane != PredLane(lane.ctrl, lane.class_score) and PredLane(lane.ctrl, lane.class_score) != lane
    for record in (det, pred, lane, det.traffic[0], make_scene(), make_scene().lanes[0]):
        with pytest.raises(TypeError):
            hash(record)
