from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lanetopo import dataio, detstrat, metrics, synthgen, topoheads
from lanetopo.cli import COMMANDS, main


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    code = run(
        [
            "generate",
            "--scenes", "10",
            "--seed", "7",
            "--lanes", "5,8",
            "--traffic", "4,6",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def small_train_args(data: Path, out: Path, extra=()):
    return [
        "train",
        "--train-scenes", str(data / "train_scenes.jsonl"),
        "--train-detections", str(data / "train_detections.jsonl"),
        "--seed", "3",
        "--epochs", "1",
        "--feature-dim", "8",
        "--mlp-hidden", "8",
        "--out", str(out),
        *extra,
    ]


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["generate", "--scenes", "6", "--seed", "11", "--out", None]
    for out in (a, b):
        argv[-1] = str(out)
        assert run(list(argv)) == 0
    for name in ("train", "val", "test"):
        for kind in ("scenes", "detections"):
            fa = (a / f"{name}_{kind}.jsonl").read_bytes()
            fb = (b / f"{name}_{kind}.jsonl").read_bytes()
            assert fa == fb


def test_generate_split_sizes(dataset):
    assert len(dataio.load_scenes(dataset / "train_scenes.jsonl")) == 8
    assert len(dataio.load_scenes(dataset / "val_scenes.jsonl")) == 1
    assert len(dataio.load_scenes(dataset / "test_scenes.jsonl")) == 1


def test_generate_bad_split_exits_2(tmp_path, capsys):
    code = run(["generate", "--scenes", "5", "--seed", "1", "--out", str(tmp_path / "x"), "--split", "0.5,0.6"])
    assert code == 2
    assert "sum to 1" in capsys.readouterr().err


def test_missing_seed_exits_2(tmp_path, capsys):
    code = run(["generate", "--scenes", "5", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path):
    code = run(["corrupt", "--scenes-file", str(tmp_path / "absent.jsonl"), "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1


def test_corrupt_zero_noise_identity(dataset, tmp_path):
    out = tmp_path / "det.jsonl"
    assert run(["corrupt", "--scenes-file", str(dataset / "test_scenes.jsonl"), "--seed", "5", "--out", str(out)]) == 0
    scenes = dataio.load_scenes(dataset / "test_scenes.jsonl")
    dets = dataio.load_detections(out)
    assert len(dets[0].lanes) == len(scenes[0].lanes)
    assert all(l.class_score == 1.0 for l in dets[0].lanes)


def test_train_lr_zero_writes_seeded_init(dataset, tmp_path):
    out = tmp_path / "run"
    assert run(small_train_args(dataset, out, ("--lr", "0"))) == 0
    params = topoheads.load_params(out / "params.json")
    init = topoheads.init_params(params.config)
    assert params.flat == pytest.approx(init.flat, abs=1e-15)


def test_train_same_seed_identical_param_files(dataset, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(small_train_args(dataset, out1)) == 0
    assert run(small_train_args(dataset, out2)) == 0
    assert (out1 / "params.json").read_bytes() == (out2 / "params.json").read_bytes()
    s1 = json.loads((out1 / "stats.json").read_text())
    s2 = json.loads((out2 / "stats.json").read_text())
    s1.pop("wall_clock_sec")  # the single non-deterministic field
    s2.pop("wall_clock_sec")
    assert s1 == s2


@pytest.fixture()
def trained(dataset, tmp_path):
    out = tmp_path / "run"
    assert run(small_train_args(dataset, out)) == 0
    return out


def test_predict_empty_detections(trained, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "pred.jsonl"
    assert run(["predict", "--params", str(trained / "params.json"), "--detections", str(empty), "--out", str(out)]) == 0
    assert dataio.load_detections(out) == []


def test_predict_matches_library_and_is_deterministic(dataset, trained, tmp_path):
    det_file = dataset / "test_detections.jsonl"
    out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    for out in (out1, out2):
        assert run(["predict", "--params", str(trained / "params.json"), "--detections", str(det_file), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    params = topoheads.load_params(trained / "params.json")
    records = dataio.load_detections(out1)
    dets = dataio.load_detections(det_file)
    ll, lt = topoheads.predict(dets[0], params)
    assert np.allclose(records[0].topo_ll_prob, ll)
    assert np.allclose(records[0].topo_lt_prob, lt)


def test_predict_dimension_mismatch_exits_2(trained, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    det = dataio.DetectionRecord(
        "s", [dataio.PredLane(ctrl=np.zeros((3, 3)), class_score=1.0)], []
    )
    dataio.save_detections([det], bad)
    code = run(["predict", "--params", str(trained / "params.json"), "--detections", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "control points" in capsys.readouterr().err


def test_predict_control_point_mismatch_names_the_file_line_and_field(trained, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    lanes = [dataio.PredLane(ctrl=np.zeros((4, 3)) + [k, 0.0, 0.0], class_score=1.0) for k in range(2)]
    dets = [dataio.DetectionRecord("a", lanes, []), dataio.DetectionRecord("b", [lanes[0], dataio.PredLane(np.zeros((3, 3)), 1.0)], [])]
    dataio.save_detections(dets, bad)
    code = run(["predict", "--params", str(trained / "params.json"), "--detections", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:2: scene 'b', field 'lanes.ctrl': lane 1 has 3 control points, expected 4\n"


@pytest.mark.parametrize(
    "feature, got",
    [(None, "no feature"), (np.ones(5), "a feature of shape (5,)")],
    ids=["missing", "wrong-width"],
)
def test_predict_feature_mismatch_names_the_file_line_and_field(tmp_path, capsys, feature, got):
    cfg = topoheads.HeadConfig(feature_dim=8, mlp_hidden=8, detector_feature_width=8)
    topoheads.save_params(topoheads.init_params(cfg), tmp_path / "params.json")
    lanes = [dataio.PredLane(np.zeros((4, 3)), 1.0, np.ones(8)), dataio.PredLane(np.ones((4, 3)), 1.0, feature)]
    bad = tmp_path / "bad.jsonl"
    dataio.save_detections([dataio.DetectionRecord("s", lanes, [])], bad)
    code = run(["predict", "--params", str(tmp_path / "params.json"), "--detections", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:1: scene 's', field 'lanes.feature': lane 1 has {got}, expected width 8\n"
    assert not (tmp_path / "o").exists()


def test_predict_rejects_features_on_some_lanes_only_naming_the_file_line_and_field(tmp_path, capsys):
    # params trained without detector features: the features would go unused
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=8, mlp_hidden=8)), tmp_path / "params.json")
    lanes = [dataio.PredLane(np.zeros((4, 3)) + k, 1.0) for k in range(4)]
    odd = [dataio.PredLane(lane.ctrl, 1.0, np.ones(3) if k % 2 else None) for k, lane in enumerate(lanes)]
    bad = tmp_path / "bad.jsonl"
    dataio.save_detections([dataio.DetectionRecord("a", lanes, []), dataio.DetectionRecord("b", odd, [])], bad)
    code = run(["predict", "--params", str(tmp_path / "params.json"), "--detections", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:2: scene 'b', field 'lanes.feature': lane 0 has no feature, expected width 3 as on lane 1\n"
    assert not (tmp_path / "o").exists()


def test_train_feature_width_names_the_detections_file(dataset, tmp_path, capsys):
    # the generated detections carry no features
    code = run(small_train_args(dataset, tmp_path / "run", ["--detector-feature-width", "8"]))
    assert code == 2
    err = capsys.readouterr().err
    path = dataset / "train_detections.jsonl"
    assert re.fullmatch(
        rf"error: {re.escape(str(path))}:1: scene 'scene-\d+', field 'lanes.feature': lane 0 has no feature, expected width 8\n", err
    ), err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"coord_scale": 0.0}, "coord_scale"),
        ({"mlp_hidden": 0}, "mlp_hidden"),
        ({"focal_alpha": 2.0}, "focal_alpha"),
        ({"adam_beta1": 1.0}, "adam_beta1"),
        ({"control_points": 1}, "control_points"),
        ({"lr": float("nan")}, "lr"),
        ({"seed": -1}, "seed"),
        ({"detector_feature_width": 0}, "detector_feature_width"),
        ({"epochs": "3"}, "epochs"),
        ({"lt_compose": "concat"}, "lt_compose"),
        ({"unknown_knob": 1}, "unknown_knob"),
        ({"query_budget": 300, "lt_compose": "sum"}, None),  # the echo of older parameter files
    ],
)
def test_head_config_validated_at_every_boundary(dataset, tmp_path, capsys, change, field):
    params = topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3, seed=1))
    if field in {f.name for f in dataclasses.fields(topoheads.HeadConfig)}:
        with pytest.raises(ValueError, match=field):
            topoheads.HeadConfig(**change)
    path = tmp_path / "params.json"
    topoheads.save_params(params, path)
    obj = json.loads(path.read_text())
    obj["config"].update(change)
    path.write_text(json.dumps(obj))
    commands = (
        ["predict", "--detections", str(dataset / "test_detections.jsonl"), "--out", str(tmp_path / "p.jsonl")],
        ["sweep", "--scenes-file", str(dataset / "test_scenes.jsonl"), "--seeds", "1", "--out", str(tmp_path / "sw")],
    )
    for argv in commands:
        code = run([*argv, "--params", str(path)])
        err = capsys.readouterr().err
        if field is None:
            assert code == 0, err
        else:
            assert code == 2 and field in err, err
    if field is None:
        assert np.array_equal(topoheads.load_params(path).flat, params.flat)


EMPTY = "<empty file>"


@pytest.mark.parametrize(
    "args, field",
    [
        pytest.param(["evaluate", "--lane-thresholds", "nan"], "lane_frechet_thresholds", id="thresholds-nan"),
        pytest.param(["evaluate", "--lane-thresholds", "1,2,inf"], "lane_frechet_thresholds", id="thresholds-inf"),
        pytest.param(["sweep", "--seeds", "0"], "seeds", id="seeds-0"),
        pytest.param(["sweep", "--seeds", "1", "--levels", '[{"box_sigma": Infinity}]'], "box_sigma", id="level-inf"),
        pytest.param(["corrupt", "--seed", "0", "--ctrl-sigma", "nan"], "ctrl_sigma", id="ctrl_sigma-nan"),
        pytest.param(["corrupt", "--seed", "0", "--spurious-rate", "inf"], "spurious_rate", id="spurious_rate-inf"),
        pytest.param({"sample_points": 2.5}, "sample_points", id="sample_points-2.5"),
        pytest.param({"sample_points": 11.0}, "sample_points", id="sample_points-float"),
        # integer options take ints and integral strings only, and an error names the option
        pytest.param(["evaluate", {"sample_points": 2.5}], "sample_points", id="config-sample_points-2.5"),
        pytest.param(["evaluate", "--sample-points", "2.5"], "sample-points", id="flag-sample-points-2.5"),
        pytest.param(["generate", {"scenes": 8.7, "seed": 0.9}], "scenes", id="config-scenes-8.7"),
        pytest.param(["generate", {"seed": 0.9}], "seed", id="config-seed-0.9"),
        pytest.param(["generate", "--seed", "0", "--lanes", "12.5,18"], "lanes", id="flag-lanes-12.5"),
        pytest.param(["train", {"epochs": 1.9}], "epochs", id="config-epochs-1.9"),
        pytest.param(["train", {"mlp_hidden": True}], "mlp_hidden", id="config-mlp_hidden-true"),
        pytest.param(["sweep", {"seeds": 1.5}], "seeds", id="config-seeds-1.5"),
        pytest.param(["sweep", "--seeds", "1.5"], "seeds", id="flag-seeds-1.5"),
        pytest.param(["corrupt", {"seed": 0.5}], "seed", id="config-corrupt-seed-0.5"),
        # a [lo, hi] list checks each entry; any other shape names both forms
        pytest.param(["generate", {"seed": 0, "lanes": [12.5, 18]}], "lanes", id="config-lanes-list-12.5"),
        pytest.param(["generate", {"seed": 0, "lanes": [12, 15, 18]}], "'lo,hi' or a list [lo, hi]", id="config-lanes-list-3"),
        pytest.param(["generate", {"seed": 0, "traffic": {"lo": 3}}], "'lo,hi' or a list [lo, hi]", id="config-traffic-dict"),
        # zero scenes would score a vacuous 100 on every metric
        pytest.param(["evaluate", "--predictions", EMPTY, "--scenes-file", EMPTY], "empty.jsonl", id="evaluate-zero-scenes"),
        pytest.param(["sweep", "--seeds", "1", "--scenes-file", EMPTY], "empty.jsonl", id="sweep-zero-scenes"),
    ],
)
def test_boundary_rejects_values_that_scored_silently(dataset, tmp_path, capsys, args, field):
    if isinstance(args, dict):
        with pytest.raises(ValueError, match=f"DetMatchConfig.{field}"):
            metrics.DetMatchConfig(**args)
        return
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = [str(empty) if a == EMPTY else a for a in args]
    scenes = dataset / "test_scenes.jsonl"
    preds, params = tmp_path / "perfect.jsonl", tmp_path / "params.json"
    perfect_predictions_file(scenes, preds)
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3)), params)
    files = {
        "evaluate": ["--predictions", str(preds), "--scenes-file", str(scenes)],
        "sweep": ["--params", str(params), "--out", str(tmp_path / "sw"), "--scenes-file", str(scenes)],
        "corrupt": ["--out", str(tmp_path / "det.jsonl"), "--scenes-file", str(scenes)],
        "generate": ["--scenes", "4", "--out", str(tmp_path / "gen")],
        "train": small_train_args(dataset, tmp_path / "run")[1:],
    }[args[0]]
    flags = {f: v for f, v in zip(files[::2], files[1::2]) if f not in args}
    if isinstance(args[1], dict):  # a --config entry; a flag for the same key would override it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args[1]))
        flags = {f: v for f, v in flags.items() if f[2:].replace("-", "_") not in args[1]}
        args = [args[0], "--config", str(config)]
    code = run([*args, *(x for item in flags.items() for x in item)])
    err = capsys.readouterr().err
    assert code == 2 and field in err, err


def test_pair_options_accept_a_json_list(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenes": 4, "seed": 2, "lanes": [5, 6], "traffic": [2, 3]}))
    assert run(["generate", "--config", str(config), "--out", str(tmp_path / "list")]) == 0
    flags = ["--scenes", "4", "--seed", "2", "--lanes", "5,6", "--traffic", "2,3"]
    assert run(["generate", *flags, "--out", str(tmp_path / "text")]) == 0
    for name in ("train_scenes.jsonl", "test_detections.jsonl"):
        assert (tmp_path / "list" / name).read_bytes() == (tmp_path / "text" / name).read_bytes()
    scenes = dataio.load_scenes(tmp_path / "list" / "train_scenes.jsonl")
    assert scenes and all(5 <= len(s.lanes) <= 6 and 2 <= len(s.traffic) <= 3 for s in scenes)


def perfect_predictions_file(scenes_path, out_path):
    scenes = dataio.load_scenes(scenes_path)
    records = []
    for s in scenes:
        lanes = [dataio.PredLane(ctrl=l.ctrl.copy(), class_score=1.0) for l in s.lanes]
        traffic = [
            dataio.TrafficElement(id=te.id, box=te.box.copy(), category=te.category, confidence=1.0)
            for te in s.traffic
        ]
        pos = {l.id: i for i, l in enumerate(s.lanes)}
        tpos = {te.id: k for k, te in enumerate(s.traffic)}
        ll = np.zeros((len(lanes), len(lanes)))
        for a, b in s.topo_ll:
            ll[pos[a], pos[b]] = 1.0
        lt = np.zeros((len(lanes), len(traffic)))
        for a, k in s.topo_lt:
            lt[pos[a], tpos[k]] = 1.0
        records.append(dataio.PredictionRecord(s.scene_id, lanes, traffic, topo_ll_prob=ll, topo_lt_prob=lt))
    dataio.save_detections(records, out_path)


def test_evaluate_perfect_prints_hundreds(dataset, tmp_path, capsys):
    preds = tmp_path / "perfect.jsonl"
    perfect_predictions_file(dataset / "test_scenes.jsonl", preds)
    report_path = tmp_path / "report.json"
    code = run(["evaluate", "--predictions", str(preds), "--scenes-file", str(dataset / "test_scenes.jsonl"), "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("100.00") == 5
    report = dataio.load_report(report_path)
    assert report.scores() == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_evaluate_empty_predictions_zero_row(dataset, tmp_path, capsys):
    scenes = dataio.load_scenes(dataset / "test_scenes.jsonl")
    empty = [
        dataio.PredictionRecord(s.scene_id, [], [], np.zeros((0, 0)), np.zeros((0, 0)))
        for s in scenes
    ]
    preds = tmp_path / "empty_preds.jsonl"
    dataio.save_detections(empty, preds)
    code = run(["evaluate", "--predictions", str(preds), "--scenes-file", str(dataset / "test_scenes.jsonl")])
    assert code == 0
    assert "0.00" in capsys.readouterr().out


def test_evaluate_matches_library(dataset, trained, tmp_path):
    det_file = dataset / "test_detections.jsonl"
    pred_file = tmp_path / "pred.jsonl"
    assert run(["predict", "--params", str(trained / "params.json"), "--detections", str(det_file), "--out", str(pred_file)]) == 0
    report_path = tmp_path / "report.json"
    assert run(["evaluate", "--predictions", str(pred_file), "--scenes-file", str(dataset / "test_scenes.jsonl"), "--out", str(report_path)]) == 0
    report = dataio.load_report(report_path)
    expected = metrics.evaluate_files(pred_file, dataset / "test_scenes.jsonl")
    assert report.scores() == pytest.approx(expected.scores())


def test_evaluate_scene_mismatch_exits_2(dataset, tmp_path, capsys):
    preds = tmp_path / "perfect.jsonl"
    perfect_predictions_file(dataset / "val_scenes.jsonl", preds)
    code = run(["evaluate", "--predictions", str(preds), "--scenes-file", str(dataset / "test_scenes.jsonl")])
    assert code == 2
    assert "scene" in capsys.readouterr().err


def test_sweep_single_zero_level_equals_evaluate(dataset, trained, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(
        [
            "sweep",
            "--params", str(trained / "params.json"),
            "--scenes-file", str(dataset / "test_scenes.jsonl"),
            "--out", str(out),
            "--seeds", "1",
            "--levels", json.dumps([{"ctrl_sigma": 0.0, "drop_prob": 0.0}]),
        ]
    )
    assert code == 0
    capsys.readouterr()
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["levels"]) == 1
    mean = sweep["levels"][0]["mean"]
    pred_file = tmp_path / "pred.jsonl"
    assert run(["predict", "--params", str(trained / "params.json"), "--detections", str(dataset / "test_detections.jsonl"), "--out", str(pred_file)]) == 0
    expected = metrics.evaluate_files(pred_file, dataset / "test_scenes.jsonl")
    assert (mean["det_l"], mean["det_t"], mean["top_ll"], mean["top_lt"], mean["ols"]) == pytest.approx(expected.scores())
    assert (out / "sweep.csv").exists()


@pytest.fixture()
def five_point_laneless(tmp_path):
    """A 5-point scenes file whose second scene has no lane, and params
    trained for 5 points."""
    data = tmp_path / "data5"
    assert run(["generate", "--scenes", "4", "--seed", "2", "--lanes", "3,4", "--traffic", "2,3", "--control-points", "5", "--out", str(data)]) == 0
    scenes = dataio.load_scenes(data / "train_scenes.jsonl")
    scenes[1] = dataio.SceneRecord(scenes[1].scene_id, [], scenes[1].traffic)
    path = tmp_path / "laneless.jsonl"
    dataio.save_scenes(scenes, path)
    out = tmp_path / "run5"
    assert run(small_train_args(data, out, ("--control-points", "5"))) == 0
    return path, out / "params.json"


def test_corrupt_gives_a_laneless_scene_the_files_control_point_count(five_point_laneless, tmp_path, capsys):
    scenes, params = five_point_laneless
    dets, preds = tmp_path / "det.jsonl", tmp_path / "pred.jsonl"
    assert run(["corrupt", "--scenes-file", str(scenes), "--seed", "1", "--spurious-rate", "3", "--out", str(dets)]) == 0
    laneless = dataio.load_detections(dets, 5)[1]
    assert laneless.lanes and all(lane.ctrl.shape == (5, 3) for lane in laneless.lanes)
    assert run(["predict", "--params", str(params), "--detections", str(dets), "--out", str(preds)]) == 0
    assert "error" not in capsys.readouterr().err


def test_sweep_gives_a_laneless_scene_the_params_control_point_count(five_point_laneless, tmp_path, capsys):
    scenes, params = five_point_laneless
    levels = json.dumps([{"spurious_rate": 3.0}])
    code = run(["sweep", "--params", str(params), "--scenes-file", str(scenes), "--out", str(tmp_path / "sweep"), "--seeds", "1", "--levels", levels])
    assert code == 0, capsys.readouterr().err
    assert len(json.loads((tmp_path / "sweep" / "sweep.json").read_text())["levels"]) == 1


def test_sweep_high_noise_degrades_detection(dataset, trained, tmp_path, capsys):
    out = tmp_path / "sweep2"
    code = run(
        [
            "sweep",
            "--params", str(trained / "params.json"),
            "--scenes-file", str(dataset / "test_scenes.jsonl"),
            "--out", str(out),
            "--seeds", "4",
            "--levels", json.dumps([
                {"ctrl_sigma": 0.0, "drop_prob": 0.0},
                {"ctrl_sigma": 1.5, "drop_prob": 0.4},
            ]),
        ]
    )
    assert code == 0
    capsys.readouterr()
    levels = json.loads((out / "sweep.json").read_text())["levels"]
    assert levels[0]["mean"]["det_l"] >= levels[1]["mean"]["det_l"]
    assert levels[0]["mean"]["det_t"] >= levels[1]["mean"]["det_t"]


@pytest.mark.parametrize(
    "levels, code, named",
    [
        pytest.param('[{"ctrl_sigma": 0.1}, {"bogus": 1}]', 2, ["level 1", "'bogus'"], id="unknown-key"),
        pytest.param('{"ctrl_sigma": 1}', 2, ["--levels", "non-empty list of objects"], id="object-not-list"),
        pytest.param('["x"]', 2, ["level 0", "'x'"], id="entry-not-object"),
        pytest.param("[]", 2, ["--levels", "non-empty list of objects"], id="empty-list"),
        pytest.param('[{"ctrl_sigma": 1', 2, ["--levels", "must be JSON"], id="not-json"),
        pytest.param('[{"ctrl_sigma": "0.5"}]', 0, [], id="numeric-string"),
    ],
)
def test_sweep_levels_go_through_the_noise_rules(dataset, tmp_path, capsys, levels, code, named):
    params = tmp_path / "params.json"
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3)), params)
    out = tmp_path / "sw"
    argv = ["sweep", "--params", str(params), "--scenes-file", str(dataset / "test_scenes.jsonl")]
    got = run([*argv, "--out", str(out), "--seeds", "1", "--levels", levels])
    err = capsys.readouterr().err
    assert got == code, err
    assert all(part in err for part in named), err
    if code:
        assert not out.exists()
    else:
        (level,) = json.loads((out / "sweep.json").read_text())["levels"]
        assert level["noise"]["ctrl_sigma"] == 0.5


def test_sweep_level_value_error_names_the_level_key_and_field(dataset, tmp_path, capsys):
    # a level's keys are no flags of sweep: the error names no --ctrl-sigma
    params = tmp_path / "params.json"
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3)), params)
    argv = ["sweep", "--params", str(params), "--scenes-file", str(dataset / "test_scenes.jsonl")]
    out = tmp_path / "sw"
    assert run([*argv, "--out", str(out), "--levels", '[{"drop_prob": 0}, {"ctrl_sigma": "abc"}]']) == 2
    err = capsys.readouterr().err
    assert "level 1: key 'ctrl_sigma' (NoiseModel.ctrl_sigma) must be a number, got 'abc'" in err, err
    assert "--ctrl-sigma" not in err and not out.exists()


def test_sweep_prints_each_level_as_it_finishes(dataset, trained, tmp_path, capsys, monkeypatch):
    # the output so far, taken at every evaluation: the header is out before
    # the first one, and a level's row before the next level's first one
    out = tmp_path / "sweep"
    levels = [{"ctrl_sigma": 0.0, "drop_prob": 0.0}, {"ctrl_sigma": 0.5, "drop_prob": 0.2}, {"ctrl_sigma": 1.0}]
    seeds = 2
    printed = []
    evaluate = metrics.evaluate

    def spying_evaluate(*args):
        printed.append(capsys.readouterr().out)
        return evaluate(*args)

    monkeypatch.setattr(metrics, "evaluate", spying_evaluate)
    argv = ["sweep", "--params", str(trained / "params.json"), "--scenes-file", str(dataset / "test_scenes.jsonl")]
    assert run([*argv, "--out", str(out), "--seeds", str(seeds), "--levels", json.dumps(levels)]) == 0
    printed.append(capsys.readouterr().out)
    lines = np.cumsum([text.count("\n") for text in printed])
    # the header, then one row per finished level; the last entry adds the final row and the path line
    assert lines.tolist() == [1 + call // seeds for call in range(len(levels) * seeds)] + [len(levels) + 2]
    sweep = json.loads((out / "sweep.json").read_text())
    rows = [
        f"{lv['level']:>5} {lv['noise']['ctrl_sigma']:>10.3f} {lv['noise']['drop_prob']:>9.3f} "
        + " ".join(f"{100 * v:8.2f}" for v in lv["mean"].values())
        for lv in sweep["levels"]
    ]
    header = f"{'level':>5} {'ctrl_sigma':>10} {'drop_prob':>9} {'DET_l':>8} {'DET_t':>8} {'TOP_ll':>8} {'TOP_lt':>8} {'OLS':>8}"
    assert "".join(printed) == "".join(line + "\n" for line in [header, *rows, f"sweep -> {out / 'sweep.csv'}"])


def test_train_prints_each_epoch_as_it_ends(dataset, tmp_path, capsys, monkeypatch):
    # the output so far, taken at every optimizer step: an epoch's line is
    # out before the next epoch's first step
    out = tmp_path / "run"
    val = ("--val-scenes", str(dataset / "val_scenes.jsonl"), "--val-detections", str(dataset / "val_detections.jsonl"))
    steps_per_epoch = len(dataio.load_scenes(dataset / "train_scenes.jsonl"))
    printed = []
    adamw_step = topoheads.adamw_step

    def spying_step(*args):
        printed.append(capsys.readouterr().out)
        return adamw_step(*args)

    monkeypatch.setattr(topoheads, "adamw_step", spying_step)
    assert run(small_train_args(dataset, out, ("--epochs", "3", *val))) == 0
    printed.append(capsys.readouterr().out)
    so_far = np.cumsum([text.count("epoch ") for text in printed])
    assert so_far.tolist() == [step // steps_per_epoch for step in range(3 * steps_per_epoch)] + [3]
    stats = json.loads((out / "stats.json").read_text())
    lines = [
        f"epoch {e + 1}/3 loss_ll={stats['epoch_loss_ll'][e]:.6f} loss_lt={stats['epoch_loss_lt'][e]:.6f} "
        f"total={stats['epoch_loss_total'][e]:.6f} val={stats['val_loss_total'][e]:.6f}"
        for e in range(3)
    ]
    assert "".join(printed) == "".join(line + "\n" for line in lines) + f"params -> {out / 'params.json'}\n"


def test_stats_and_resample_commands(dataset, tmp_path, capsys):
    hist_path = tmp_path / "hist.json"
    assert run(["stats", "--scenes-file", str(dataset / "train_scenes.jsonl"), "--out", str(hist_path)]) == 0
    hist = json.loads(hist_path.read_text())
    scenes = dataio.load_scenes(dataset / "train_scenes.jsonl")
    assert hist["total"] == sum(len(s.traffic) for s in scenes)
    assert sum(hist["counts"]) == hist["total"]

    # the frame-resampling plan fed no command: `resample` is no longer one
    with pytest.raises(SystemExit) as exc:
        run(["resample", "--scenes-file", str(dataset / "train_scenes.jsonl"), "--out", str(tmp_path / "plan.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'resample'" in capsys.readouterr().err


def test_readme_cli_section_names_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"lanetopo ([a-z-]+)", section)) | set(re.findall(r"`([a-z-]+)`", section))
    assert set(COMMANDS) <= named, sorted(set(COMMANDS) - named)
    other = re.search(r"Other commands:(.*?)\.\s", section, re.S).group(1)
    assert set(re.findall(r"`([a-z-]+)`", other)) <= set(COMMANDS)


def test_stats_empty_file(tmp_path, capsys):
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    assert run(["stats", "--scenes-file", str(empty)]) == 0
    assert "0.00%" in capsys.readouterr().out


def test_tta_merge_command(tmp_path):
    payload = [
        {"scale": 1.0, "traffic": [{"id": 0, "box": [10.0, 10.0, 50.0, 50.0], "category": 2, "confidence": 0.9}]},
        {"scale": 2.0, "traffic": [{"id": 1, "box": [20.0, 20.0, 100.0, 100.0], "category": 2, "confidence": 0.7}]},
    ]
    inp = tmp_path / "tta.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "merged.json"
    assert run(["tta-merge", "--input", str(inp), "--out", str(out)]) == 0
    merged = json.loads(out.read_text())
    assert len(merged) == 1
    assert merged[0]["confidence"] == 0.9


GOOD_BOX = {"id": 0, "box": [10.0, 10.0, 50.0, 50.0], "category": 2, "confidence": 0.9}


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param([5], "entry 0: expected an object with 'scale' and 'traffic', got 5", id="entry-not-object"),
        pytest.param([{"scale": 1.0, "traffic": []}, {"traffic": []}], "entry 1: field 'scale': missing", id="no-scale"),
        pytest.param([{"scale": 1.0}], "entry 0: field 'traffic': missing", id="no-traffic"),
        pytest.param([{"scale": True, "traffic": []}], "entry 0: field 'scale': expected a number", id="scale-true"),
        pytest.param(
            [{"scale": math.nan, "traffic": [GOOD_BOX]}],
            "entry 0: field 'scale': expected a finite positive number, got nan",
            id="scale-nan",
        ),
        pytest.param(
            [{"scale": 1.0, "traffic": []}, {"scale": math.inf, "traffic": [GOOD_BOX]}],
            "entry 1: field 'scale': expected a finite positive number, got inf",
            id="scale-infinity",
        ),
        pytest.param(
            [{"scale": 1e-320, "traffic": [GOOD_BOX]}],
            "entry 0: field 'scale': 1e-320 rescales a box out of the float range",
            id="scale-1e-320",
        ),
        pytest.param([{"scale": 1.0, "traffic": [5]}], "entry 0: field 'traffic.id'", id="element-not-object"),
        pytest.param(
            [{"scale": 1.0, "traffic": [{**GOOD_BOX, "box": [1.0, 2.0, 3.0]}]}],
            "entry 0: field 'traffic.box': box must have 4 coordinates",
            id="box-3-coordinates",
        ),
        pytest.param({"scale": 1.0, "traffic": []}, "expected a list of", id="payload-not-list"),
    ],
)
def test_tta_merge_rejects_bad_entries_naming_index_and_field(tmp_path, capsys, payload, message):
    inp = tmp_path / "tta.json"
    inp.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning is no message
        assert run(["tta-merge", "--input", str(inp), "--out", str(tmp_path / "merged.json")]) == 2
    err = capsys.readouterr().err
    assert f"{inp}: {message}" in err, err
    assert not (tmp_path / "merged.json").exists()


def test_config_file_provides_defaults_flags_override(tmp_path):
    cfg = {"scenes": 4, "seed": 9, "out": str(tmp_path / "from_config")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["generate", "--config", str(cfg_path)]) == 0
    assert len(dataio.load_scenes(tmp_path / "from_config" / "train_scenes.jsonl")) == 3

    override_out = tmp_path / "overridden"
    assert run(["generate", "--config", str(cfg_path), "--scenes", "6", "--out", str(override_out)]) == 0
    total = sum(
        len(dataio.load_scenes(override_out / f"{n}_scenes.jsonl")) for n in ("train", "val", "test")
    )
    assert total == 6


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert run(["generate", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "x")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, split, flags, field",
    [
        pytest.param({"map_extent": float("nan")}, None, ["--map-extent", "nan"], "map_extent", id="map_extent-nan"),
        pytest.param({"map_extent": float("inf")}, None, ["--map-extent", "inf"], "map_extent", id="map_extent-inf"),
        pytest.param({"scenes": True}, None, ["--scenes", "true"], "scenes", id="scenes-bool"),
        pytest.param({"lanes_per_scene": (2.5, 4)}, None, ["--lanes", "2.5,4"], "lanes", id="lanes-2.5"),
        pytest.param({"traffic_per_scene": (1, 2.5)}, None, ["--traffic", "1,2.5"], "traffic", id="traffic-2.5"),
        pytest.param({"control_points": 3.0}, None, ["--control-points", "3.0"], "control_points", id="control_points-float"),
        pytest.param({}, (float("nan"), 0.5, 0.5), ["--split", "nan,0.5,0.5"], "split fractions", id="split-nan"),
    ],
)
def test_generate_rejects_non_finite_and_non_integral_settings(tmp_path, capsys, config, split, flags, field):
    with pytest.raises(ValueError, match=field):
        cfg = synthgen.GeneratorConfig(**{"scenes": 4, **config})
        synthgen.generate_dataset(cfg, synthgen.NoiseModel(), split or (0.8, 0.1, 0.1), tmp_path / "lib")
    code = run(["generate", "--seed", "0", "--scenes", "4", "--out", str(tmp_path / "cli"), *flags])
    err = capsys.readouterr().err
    assert code == 2 and field in err, err


@pytest.mark.parametrize(
    "case, field",
    [
        # the CLI read a JSON true as 1.0
        pytest.param(["corrupt", {"ctrl_sigma": True, "drop_prob": True}], "NoiseModel.ctrl_sigma) must be a number", id="corrupt-bools"),
        pytest.param(["train", {"lr": True}], "HeadConfig.lr) must be a number", id="train-lr-true"),
        pytest.param(
            ["evaluate", {"iou_threshold": True, "lane_thresholds": [True, 2]}],
            "DetMatchConfig.traffic_iou_threshold) must be a number",
            id="evaluate-bools",
        ),
        pytest.param(
            ["evaluate", {"lane_thresholds": [True, 2]}],
            "DetMatchConfig.lane_frechet_thresholds) must be a number, got True",
            id="thresholds-bool",
        ),
        pytest.param(["tta-merge", {"merge_iou": True}], "TtaConfig.merge_iou) must be a number", id="tta-merge-true"),
        # numpy rejected a negative seed without naming it
        pytest.param(["generate", "--seed", "-1"], "GeneratorConfig.seed must be", id="generate-seed-neg"),
        pytest.param(["corrupt", "--seed", "-1"], "option 'seed' (--seed) must be >= 0", id="corrupt-seed-neg"),
        pytest.param(["sweep", "--seed", "-1"], "option 'seed' (--seed) must be >= 0", id="sweep-seed-neg"),
        # the library accepted these
        pytest.param((synthgen.GeneratorConfig, {"seed": 1.5}), "GeneratorConfig.seed", id="lib-seed-1.5"),
        pytest.param((synthgen.GeneratorConfig, {"branch_prob": True}), "GeneratorConfig.branch_prob", id="lib-branch_prob-true"),
        pytest.param((synthgen.GeneratorConfig, {"map_extent": True}), "GeneratorConfig.map_extent", id="lib-map_extent-true"),
        pytest.param((synthgen.NoiseModel, {"drop_prob": True}), "NoiseModel.drop_prob", id="lib-drop_prob-true"),
        pytest.param(
            (metrics.DetMatchConfig, {"traffic_iou_threshold": True}),
            "DetMatchConfig.traffic_iou_threshold",
            id="lib-iou-true",
        ),
        pytest.param(
            (metrics.DetMatchConfig, {"lane_frechet_thresholds": (True,)}),
            "DetMatchConfig.lane_frechet_thresholds",
            id="lib-thresholds-true",
        ),
        pytest.param((detstrat.TtaConfig, {"merge_iou": True}), "TtaConfig.merge_iou", id="lib-merge_iou-true"),
    ],
)
def test_every_config_rule_rejects_bools_and_wrong_kinds(dataset, tmp_path, capsys, case, field):
    if isinstance(case, tuple):
        cls, kwargs = case
        with pytest.raises(ValueError, match=re.escape(field)):
            cls(**kwargs)
        return
    scenes = dataset / "test_scenes.jsonl"
    preds, params, tta = tmp_path / "perfect.jsonl", tmp_path / "params.json", tmp_path / "tta.json"
    perfect_predictions_file(scenes, preds)
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3)), params)
    tta.write_text(json.dumps([{"scale": 1.0, "traffic": []}]))
    files = {
        "corrupt": ["--seed", "0", "--scenes-file", str(scenes), "--out", str(tmp_path / "det.jsonl")],
        "train": small_train_args(dataset, tmp_path / "run")[1:],
        "evaluate": ["--predictions", str(preds), "--scenes-file", str(scenes)],
        "tta-merge": ["--input", str(tta), "--out", str(tmp_path / "merged.json")],
        "generate": ["--scenes", "4", "--out", str(tmp_path / "gen")],
        "sweep": ["--seeds", "1", "--params", str(params), "--out", str(tmp_path / "sw"), "--scenes-file", str(scenes)],
    }[case[0]]
    flags = {f: v for f, v in zip(files[::2], files[1::2]) if f not in case}
    if isinstance(case[1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(case[1]))
        flags = {f: v for f, v in flags.items() if f[2:].replace("-", "_") not in case[1]}
        case = [case[0], "--config", str(config)]
    code = run([*case, *(x for item in flags.items() for x in item)])
    err = capsys.readouterr().err
    assert code == 2 and field in err, err


@pytest.mark.parametrize("split", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)], ids=["2-fractions", "4-fractions"])
def test_generate_takes_exactly_three_split_fractions(tmp_path, capsys, split):
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    with pytest.raises(ValueError, match=re.escape("split fractions (train, val, test)")):
        synthgen.generate_dataset(synthgen.GeneratorConfig(scenes=6), synthgen.NoiseModel(), split, lib)
    code = run(["generate", "--seed", "0", "--scenes", "6", "--split", ",".join(map(str, split)), "--out", str(cli)])
    assert code == 2 and "split fractions (train, val, test)" in capsys.readouterr().err
    for out in (lib, cli):
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "args, scored",
    [
        pytest.param(["evaluate", "--lane-thresholds", "1,2"], (1.0, 2.0), id="evaluate-flag"),
        pytest.param(["evaluate", {"lane_thresholds": [1, 2]}], (1.0, 2.0), id="evaluate-config-list"),
        pytest.param(["evaluate", {"lane_thresholds": "0.5"}], (0.5,), id="evaluate-config-text"),
        pytest.param(["sweep", "--lane-thresholds", "2"], (2.0,), id="sweep-flag"),
    ],
)
def test_lane_thresholds_option_sets_the_scored_thresholds(dataset, tmp_path, capsys, monkeypatch, args, scored):
    seen = []
    evaluate = metrics.evaluate
    monkeypatch.setattr(metrics, "evaluate", lambda *a: seen.append(a[2].lane_frechet_thresholds) or evaluate(*a))
    scenes = dataset / "test_scenes.jsonl"
    preds, params, report = tmp_path / "perfect.jsonl", tmp_path / "params.json", tmp_path / "report.json"
    perfect_predictions_file(scenes, preds)
    topoheads.save_params(topoheads.init_params(topoheads.HeadConfig(feature_dim=4, mlp_hidden=3)), params)
    files = {
        "evaluate": ["--predictions", str(preds), "--scenes-file", str(scenes), "--out", str(report)],
        "sweep": ["--seeds", "1", "--params", str(params), "--scenes-file", str(scenes), "--out", str(tmp_path / "sw")],
    }[args[0]]
    if isinstance(args[1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args[1]))
        args = [args[0], "--config", str(config)]
    code = run([*args, *files])
    assert code == 0, capsys.readouterr().err
    assert seen and all(t == scored for t in seen), seen
    if args[0] == "evaluate":
        assert tuple(dataio.load_report(report).lane_ap_by_threshold) == scored
