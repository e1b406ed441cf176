"""Tests of the scene generator and the detector-corruption channel.

The generator's and the dataset writer's outputs are pinned by sha256
digests. Re-record them (only when a change of generated data is intended
and explained): ``PYTHONPATH=src python tests/test_synthgen.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lanetopo import dataio, synthgen
from lanetopo.dataio import scene_to_obj, validate_scene
from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene


def test_single_lane_no_branching():
    cfg = GeneratorConfig(scenes=1, lanes_per_scene=(1, 1), branch_prob=0.0, seed=3)
    scene = generate_scene(cfg, 0)
    assert len(scene.lanes) == 1
    assert scene.topo_ll == set()


def test_generation_deterministic():
    cfg = GeneratorConfig(seed=11)
    a = generate_scene(cfg, 4)
    b = generate_scene(cfg, 4)
    assert a == b
    assert json.dumps(scene_to_obj(a)) == json.dumps(scene_to_obj(b))


def test_lane_count_within_requested_range():
    cfg = GeneratorConfig(lanes_per_scene=(5, 9), seed=2)
    for i in range(10):
        scene = generate_scene(cfg, i)
        assert 5 <= len(scene.lanes) <= 9


def test_full_branching_gives_two_successors():
    cfg = GeneratorConfig(lanes_per_scene=(31, 31), branch_prob=1.0, seed=7)
    scene = generate_scene(cfg, 0)
    out_degree = {l.id: 0 for l in scene.lanes}
    for i, _ in scene.topo_ll:
        out_degree[i] += 1
    for lane_id, deg in out_degree.items():
        assert deg in (0, 2), f"lane {lane_id} has {deg} successors under branch_prob=1"
    assert any(deg == 2 for deg in out_degree.values())


def test_topology_soundness_shared_endpoints():
    cfg = GeneratorConfig(seed=5, branch_prob=0.5)
    for i in range(5):
        scene = generate_scene(cfg, i)
        lanes = {l.id: l for l in scene.lanes}
        for a, b in scene.topo_ll:
            assert np.array_equal(lanes[a].ctrl[-1], lanes[b].ctrl[0])


def test_generated_scenes_validate():
    cfg = GeneratorConfig(seed=9)
    for i in range(5):
        validate_scene(generate_scene(cfg, i), control_points=cfg.control_points)


def test_every_traffic_element_has_an_edge():
    cfg = GeneratorConfig(seed=13, lt_assoc_prob=0.0)
    scene = generate_scene(cfg, 0)
    covered = {k for _, k in scene.topo_lt}
    assert covered == {te.id for te in scene.traffic}


def test_zero_noise_is_identity_channel():
    cfg = GeneratorConfig(seed=21)
    scene = generate_scene(cfg, 0)
    det = corrupt_scene(scene, NoiseModel(), seed=0)
    assert len(det.lanes) == len(scene.lanes)
    for pred, gt in zip(det.lanes, scene.lanes):
        assert np.array_equal(pred.ctrl, gt.ctrl)
        assert pred.class_score == 1.0
    assert len(det.traffic) == len(scene.traffic)
    for pred, gt in zip(det.traffic, scene.traffic):
        assert np.array_equal(pred.box, gt.box)
        assert pred.category == gt.category
        assert pred.confidence == 1.0


def test_full_drop_empties_detections():
    cfg = GeneratorConfig(seed=22)
    scene = generate_scene(cfg, 0)
    det = corrupt_scene(scene, NoiseModel(drop_prob=1.0), seed=0)
    assert det.lanes == [] and det.traffic == []


def test_corruption_deterministic():
    cfg = GeneratorConfig(seed=23)
    scene = generate_scene(cfg, 0)
    noise = NoiseModel(ctrl_sigma=0.3, box_sigma=5.0, drop_prob=0.2, spurious_rate=1.0, confusion_prob=0.1, conf_noise=0.2)
    a = corrupt_scene(scene, noise, seed=5)
    b = corrupt_scene(scene, noise, seed=5)
    assert a == b


def test_jitter_displacement_matches_half_normal_mean():
    # mean |N(0, sigma^2)| = sigma * sqrt(2 / pi)
    cfg = GeneratorConfig(seed=31, lanes_per_scene=(10, 10), traffic_per_scene=(0, 0))
    sigma = 0.5
    noise = NoiseModel(ctrl_sigma=sigma)
    displacements = []
    for i in range(100):  # 100 scenes x 10 lanes = 1000 lanes
        scene = generate_scene(cfg, i)
        det = corrupt_scene(scene, noise, seed=[77, i])
        for pred, gt in zip(det.lanes, scene.lanes):
            displacements.append(np.abs(pred.ctrl - gt.ctrl).mean())
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert np.mean(displacements) == pytest.approx(expected, rel=0.05)


def test_confused_categories_stay_in_taxonomy():
    cfg = GeneratorConfig(seed=41)
    scene = generate_scene(cfg, 0)
    det = corrupt_scene(scene, NoiseModel(confusion_prob=1.0), seed=1)
    for pred, gt in zip(det.traffic, scene.traffic):
        assert 0 <= pred.category < 13
        assert pred.category != gt.category


def test_corrupted_detections_validate():
    cfg = GeneratorConfig(seed=43)
    noise = NoiseModel(ctrl_sigma=1.0, box_sigma=30.0, drop_prob=0.3, spurious_rate=2.0, confusion_prob=0.3, conf_noise=0.5)
    for i in range(5):
        det = corrupt_scene(generate_scene(cfg, i), noise, seed=i)
        dataio.validate_detection(det)


# the README sweep levels, then one with every other channel on; conf_noise
# above 1 drives some confidences to the clip at 0
PINNED_LEVELS = (
    {"ctrl_sigma": 0.0, "drop_prob": 0.0},
    {"ctrl_sigma": 0.25, "drop_prob": 0.1},
    {"ctrl_sigma": 0.5, "drop_prob": 0.3},
    {"ctrl_sigma": 1.0, "drop_prob": 0.3},
    {"ctrl_sigma": 0.5, "box_sigma": 6.0, "drop_prob": 0.2, "spurious_rate": 4.0, "confusion_prob": 0.3, "conf_noise": 1.5},
)
CORRUPT_DIGEST = "99c04f9002df4295172423fbdc3916909be9a75bf825c781d8514c709d4501df"


def corrupt_digest() -> str:
    """sha256 of every corrupted record's bytes and reprs over the pinned
    levels: 6 generated scenes and one without lanes or traffic."""
    cfg = GeneratorConfig(seed=29)
    scenes = [generate_scene(cfg, i) for i in range(6)] + [dataio.SceneRecord("empty", [], [], set(), set())]
    h = hashlib.sha256()
    for level, noise in enumerate(PINNED_LEVELS):
        for i, scene in enumerate(scenes):
            det = corrupt_scene(scene, NoiseModel(**noise), [level, i])
            h.update(repr((det.scene_id, len(det.lanes), len(det.traffic))).encode())
            for lane in det.lanes:
                h.update(np.asarray(lane.ctrl, dtype="<f8").tobytes() + repr(lane.class_score).encode())
            for te in det.traffic:
                h.update(np.asarray(te.box, dtype="<f8").tobytes() + repr((te.id, te.category, te.confidence)).encode())
    return h.hexdigest()


def test_corrupt_scene_output_is_pinned():
    # the generator draws' order and the confidence clip: any change moves every generated file
    assert corrupt_digest() == CORRUPT_DIGEST


GENERATE_SEEDS = (0, 1, 2)
GENERATE_SCENES = 50
GENERATE_DIGEST = "98dc11076e1e02cb3d23b5d1fd1d4d497eaae06effa9cb2a9c5e5134d109c7c3"

# the benchmark's train_default set-up: 128 scenes under sweep level 1 with
# spurious entities, split 80 / 8 / 40
DATASET_CONFIG = GeneratorConfig(scenes=128, seed=0)
DATASET_NOISE = NoiseModel(ctrl_sigma=0.25, drop_prob=0.1, spurious_rate=1.5)
DATASET_FRACTIONS = (0.625, 0.0625, 0.3125)
DATASET_DIGEST = "a32cf55e41c73906df0144e276d2441047255ea3b38eeecb03dddd2ab48c8a6d"

# three scenes of the benchmark's query_budget set-up (~290 detected lanes
# and ~290 boxes per line), one per split
QUERY_DATASET_CONFIG = GeneratorConfig(scenes=3, seed=0)
QUERY_DATASET_NOISE = NoiseModel(ctrl_sigma=0.25, drop_prob=0.1, spurious_rate=280.0)
QUERY_DATASET_DIGEST = "454c1a692b0643d7c9772309c2ffd97f0290f28309b891064f3a788fa7c877e5"


def generate_digest() -> str:
    """sha256 of every generated scene's ids, lane bytes, boxes, categories
    and topology over the pinned seeds and scene indices."""
    h = hashlib.sha256()
    for seed in GENERATE_SEEDS:
        cfg = GeneratorConfig(seed=seed)
        for i in range(GENERATE_SCENES):
            scene = generate_scene(cfg, i)
            h.update(repr((scene.scene_id, len(scene.lanes), len(scene.traffic))).encode())
            for lane in scene.lanes:
                h.update(repr(lane.id).encode() + np.asarray(lane.ctrl, dtype="<f8").tobytes())
            for te in scene.traffic:
                h.update(np.asarray(te.box, dtype="<f8").tobytes() + repr((te.id, te.category, te.confidence)).encode())
            h.update(repr((sorted(scene.topo_ll), sorted(scene.topo_lt))).encode())
    return h.hexdigest()


def dataset_digest(out_dir, cfg=DATASET_CONFIG, noise=DATASET_NOISE, fractions=DATASET_FRACTIONS) -> str:
    """sha256 of the names and bytes of the six files ``generate_dataset``
    writes for the pinned configuration."""
    paths = synthgen.generate_dataset(cfg, noise, fractions, out_dir)
    h = hashlib.sha256()
    for split in ("train", "val", "test"):
        for kind in ("scenes", "detections"):
            path = Path(paths[split][kind])
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def test_generate_scene_output_is_pinned():
    # every draw of the generator, in order: any change moves every generated file
    assert generate_digest() == GENERATE_DIGEST


def test_generate_dataset_files_are_pinned(tmp_path):
    assert dataset_digest(tmp_path) == DATASET_DIGEST


def query_dataset_digest(out_dir) -> str:
    return dataset_digest(out_dir, QUERY_DATASET_CONFIG, QUERY_DATASET_NOISE, (1 / 3, 1 / 3, 1 / 3))


def test_query_budget_dataset_files_are_pinned(tmp_path):
    assert query_dataset_digest(tmp_path) == QUERY_DATASET_DIGEST


def test_split_counts_exact_and_validated():
    assert synthgen.split_counts(10, (0.8, 0.1, 0.1)) == [8, 1, 1]
    assert sum(synthgen.split_counts(7, (0.6, 0.2, 0.2))) == 7
    with pytest.raises(ValueError):
        synthgen.split_counts(10, (0.5, 0.6))
    with pytest.raises(ValueError):
        synthgen.split_counts(10, (0.5, 0.5, -0.0))


def test_generate_dataset_splits(tmp_path):
    cfg = GeneratorConfig(scenes=10, seed=3)
    paths = synthgen.generate_dataset(cfg, NoiseModel(), (0.8, 0.1, 0.1), tmp_path)
    assert [paths[k]["count"] for k in ("train", "val", "test")] == [8, 1, 1]
    all_ids = []
    for split in ("train", "val", "test"):
        scenes = dataio.load_scenes(paths[split]["scenes"])
        dets = dataio.load_detections(paths[split]["detections"])
        assert len(scenes) == len(dets) == paths[split]["count"]
        all_ids.extend(s.scene_id for s in scenes)
    assert len(all_ids) == len(set(all_ids)) == 10
    assert set(all_ids) == {f"scene-{i:05d}" for i in range(10)}


def test_generate_dataset_byte_identical_across_runs(tmp_path):
    cfg = GeneratorConfig(scenes=6, seed=4)
    noise = NoiseModel(ctrl_sigma=0.2, drop_prob=0.1)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    synthgen.generate_dataset(cfg, noise, (0.5, 0.25, 0.25), d1)
    synthgen.generate_dataset(cfg, noise, (0.5, 0.25, 0.25), d2)
    for name in ("train", "val", "test"):
        for kind in ("scenes", "detections"):
            assert (d1 / f"{name}_{kind}.jsonl").read_bytes() == (d2 / f"{name}_{kind}.jsonl").read_bytes()


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(drop_prob=1.5)
    with pytest.raises(ValueError):
        NoiseModel(ctrl_sigma=-1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(lanes_per_scene=(3, 2))
    with pytest.raises(ValueError):
        GeneratorConfig(map_extent=0.0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_synthgen.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        pins = {
            "GENERATE_DIGEST": generate_digest(),
            "DATASET_DIGEST": dataset_digest(tmp),
            "QUERY_DATASET_DIGEST": query_dataset_digest(Path(tmp) / "query"),
        }
    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    for name, value in pins.items():
        if value != globals()[name]:
            print(f"changed: {name}")
        text = re.sub(rf'^{name} = ".*"$', f'{name} = "{value}"', text, count=1, flags=re.M)
    path.write_text(text, encoding="utf-8")
