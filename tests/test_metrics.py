from __future__ import annotations

import itertools

import numpy as np
import pytest
import reference_metrics

from lanetopo import metrics
from lanetopo.dataio import (
    GtLane,
    PredictionRecord,
    PredLane,
    SceneRecord,
    TrafficElement,
    ValidationError,
)
from lanetopo.metrics import DetMatchConfig, average_precision, evaluate, ols
from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene


def ap_oracle(flags, num_gt):
    """Precision-sum oracle, written independently of the implementation."""
    if num_gt == 0:
        return 1.0 if len(flags) == 0 else 0.0
    total = 0.0
    for k in range(1, len(flags) + 1):
        if flags[k - 1]:
            total += sum(flags[:k]) / k
    return total / num_gt


def straight_lane(y, lane_id=0, length=10.0, m=4):
    xs = np.linspace(0.0, length, m)
    ctrl = np.stack([xs, np.full(m, float(y)), np.zeros(m)], axis=1)
    return GtLane(id=lane_id, ctrl=ctrl)


def perfect_prediction(scene: SceneRecord) -> PredictionRecord:
    """Exact copies with confidence 1 and probabilities 1 on GT edges."""
    lanes = [PredLane(ctrl=l.ctrl.copy(), class_score=1.0) for l in scene.lanes]
    traffic = [
        TrafficElement(id=te.id, box=te.box.copy(), category=te.category, confidence=1.0)
        for te in scene.traffic
    ]
    n, t = len(lanes), len(traffic)
    lane_pos = {l.id: i for i, l in enumerate(scene.lanes)}
    te_pos = {te.id: k for k, te in enumerate(scene.traffic)}
    ll = np.zeros((n, n))
    for a, b in scene.topo_ll:
        ll[lane_pos[a], lane_pos[b]] = 1.0
    lt = np.zeros((n, t))
    for a, k in scene.topo_lt:
        lt[lane_pos[a], te_pos[k]] = 1.0
    return PredictionRecord(scene.scene_id, lanes, traffic, topo_ll_prob=ll, topo_lt_prob=lt)


# ---------------------------------------------------------------------------
# average precision


def test_ap_trivial_cases():
    assert average_precision([True, True], 2) == pytest.approx(1.0)
    assert average_precision([False, False], 1) == 0.0
    assert average_precision([True, False, True], 2) == pytest.approx(5.0 / 6.0)
    assert average_precision([], 0) == 1.0
    assert average_precision([False], 0) == 0.0


def test_ap_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(0, 13))
        flags = list(rng.uniform(size=n) < 0.4)
        num_gt = int(rng.integers(0, 5))
        assert average_precision(flags, num_gt) == pytest.approx(ap_oracle(flags, num_gt))


def test_ap_exhaustive_short_sequences():
    for n in range(0, 7):
        for bits in itertools.product([False, True], repeat=n):
            for num_gt in range(1, 5):
                assert average_precision(list(bits), num_gt) == pytest.approx(
                    ap_oracle(list(bits), num_gt)
                )


# ---------------------------------------------------------------------------
# ols


def test_ols_reproduces_published_rows():
    golden = [
        ((0.36, 0.80, 0.23, 0.33), 0.55),
        ((0.42, 0.64, 0.07, 0.30), 0.47),
        ((0.22, 0.72, 0.13, 0.23), 0.45),
        ((0.2811, 0.6884, 0.1454, 0.1897), 0.4464),
        ((0.2811, 0.7989, 0.1454, 0.2165), 0.4816),
    ]
    for args, expected in golden:
        assert ols(*args) == pytest.approx(expected, abs=0.005)


def test_ols_simple_points():
    assert ols(1, 1, 1, 1) == 1.0
    assert ols(0, 0, 0, 0) == 0.0


def test_ols_monotone_and_topology_amplified():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(size=4)
        b = a.copy()
        i = int(rng.integers(4))
        b[i] = min(1.0, b[i] + rng.uniform(0, 1 - b[i] + 1e-12))
        assert ols(*b) >= ols(*a) - 1e-12
    x = 0.25
    assert ols(0, 0, x, x) > ols(x, x, 0, 0)


def test_ols_rejects_out_of_range():
    with pytest.raises(ValueError):
        ols(1.2, 0, 0, 0)


# ---------------------------------------------------------------------------
# det_l / det_t


def test_det_l_perfect_and_empty():
    scene = SceneRecord("s0", [straight_lane(0, 0), straight_lane(5, 1)], [], set(), set())
    pred = perfect_prediction(scene)
    score, breakdown, match = metrics.det_l([pred], [scene])
    assert score == 1.0
    assert set(breakdown) == {1.0, 2.0, 3.0}
    assert match["s0"].tolist() == [0, 1]

    empty = PredictionRecord("s0", [], [], np.zeros((0, 0)), np.zeros((0, 0)))
    score, _, _ = metrics.det_l([empty], [scene])
    assert score == 0.0


def test_det_l_threshold_staircase():
    # offset 1.5 m: misses tau=1, hits tau=2 and tau=3 -> mean 2/3
    scene = SceneRecord("s0", [straight_lane(0, 0), straight_lane(10, 1)], [], set(), set())
    lanes = [PredLane(ctrl=l.ctrl + np.array([0.0, 1.5, 0.0]), class_score=1.0) for l in scene.lanes]
    pred = PredictionRecord("s0", lanes, [], np.zeros((2, 2)), np.zeros((2, 0)))
    score, breakdown, _ = metrics.det_l([pred], [scene])
    assert breakdown[1.0] == 0.0
    assert breakdown[2.0] == 1.0
    assert breakdown[3.0] == 1.0
    assert score == pytest.approx(2.0 / 3.0)


def test_det_l_scene_mismatch_is_error():
    scene = SceneRecord("s0", [straight_lane(0, 0)], [], set(), set())
    pred = perfect_prediction(scene)
    pred.scene_id = "other"
    with pytest.raises(ValueError, match="s0"):
        metrics.det_l([pred], [scene])


def box_element(x, cat, conf=1.0, te_id=0):
    return TrafficElement(id=te_id, box=np.array([x, 10.0, x + 50.0, 60.0]), category=cat, confidence=conf)


def test_det_t_exact_predictions():
    scene = SceneRecord("s0", [], [box_element(0, 1, te_id=0), box_element(100, 2, te_id=1)], set(), set())
    pred = perfect_prediction(scene)
    score, breakdown, match = metrics.det_t([pred], [scene])
    assert score == 1.0
    assert breakdown == {1: 1.0, 2: 1.0}
    assert match["s0"].tolist() == [0, 1]


def test_det_t_wrong_categories_score_zero():
    scene = SceneRecord("s0", [], [box_element(0, 1)], set(), set())
    wrong = PredictionRecord(
        "s0", [], [box_element(0, 2)], np.zeros((0, 0)), np.zeros((0, 1))
    )
    score, breakdown, _ = metrics.det_t([wrong], [scene])
    assert score == 0.0
    assert breakdown == {1: 0.0, 2: 0.0}


def test_det_t_two_attribute_mean():
    scene = SceneRecord("s0", [], [box_element(0, 1, te_id=0), box_element(200, 2, te_id=1)], set(), set())
    preds = [
        box_element(0, 1, te_id=0),  # perfect for attribute 1
        box_element(500, 2, te_id=1),  # disjoint from attribute-2 GT
    ]
    pred = PredictionRecord("s0", [], preds, np.zeros((0, 0)), np.zeros((0, 2)))
    score, breakdown, _ = metrics.det_t([pred], [scene])
    assert breakdown == {1: 1.0, 2: 0.0}
    assert score == pytest.approx(0.5)


def test_det_t_absent_categories_excluded():
    scene = SceneRecord("s0", [], [box_element(0, 5)], set(), set())
    pred = perfect_prediction(scene)
    _, breakdown, _ = metrics.det_t([pred], [scene])
    assert set(breakdown) == {5}


# ---------------------------------------------------------------------------
# topology score


NO_TRAFFIC = np.array([], dtype=int)  # the match of a scene without traffic predictions


def scene_vertex_aps(pred, scene, lane_match, traffic_match):
    """The per-vertex (lane-lane, lane-traffic) APs of a one-scene batch, as lists."""
    matches = ({scene.scene_id: lane_match}, {scene.scene_id: traffic_match})
    (ll, _), (lt, _) = metrics.vertex_aps([pred], [scene], *matches)
    return ll.tolist(), lt.tolist()


def chain_scene(n=3):
    lanes = [straight_lane(6.0 * i, i) for i in range(n)]
    edges = {(i, i + 1) for i in range(n - 1)}
    return SceneRecord("s0", lanes, [], edges, set())


def test_top_perfect_probabilities():
    scene = chain_scene(3)
    pred = perfect_prediction(scene)
    ll, _ = scene_vertex_aps(pred, scene, np.arange(3), NO_TRAFFIC)
    assert np.mean(ll) == 1.0


def test_top_all_zero_probabilities_tie_order():
    # 2-lane chain, edge (0 -> 1): outgoing candidates rank before incoming
    # at equal probability, so vertex 0 scores 1 and vertex 1 scores 1/2.
    scene = chain_scene(2)
    pred = perfect_prediction(scene)
    pred.topo_ll_prob = np.zeros((2, 2))
    ll, _ = scene_vertex_aps(pred, scene, np.arange(2), NO_TRAFFIC)
    assert np.mean(ll) == pytest.approx(0.75)
    assert ll == [1.0, 0.5]  # the mean alone is the same with incoming first


def test_top_three_lane_chain_false_edge_below_true():
    scene = chain_scene(3)
    pred = perfect_prediction(scene)
    pred.topo_ll_prob = np.zeros((3, 3))
    pred.topo_ll_prob[0, 1] = 0.9
    pred.topo_ll_prob[1, 2] = 0.9
    pred.topo_ll_prob[0, 2] = 0.8  # false edge, still below the true ones
    ll, _ = scene_vertex_aps(pred, scene, np.arange(3), NO_TRAFFIC)
    assert np.mean(ll) == pytest.approx(1.0)


def test_top_three_lane_chain_false_edge_above_true():
    # per-vertex APs by hand: 0.5, 1.0, 0.5 -> mean 2/3
    scene = chain_scene(3)
    pred = perfect_prediction(scene)
    pred.topo_ll_prob = np.zeros((3, 3))
    pred.topo_ll_prob[0, 1] = 0.9
    pred.topo_ll_prob[1, 2] = 0.9
    pred.topo_ll_prob[0, 2] = 0.95
    ll, _ = scene_vertex_aps(pred, scene, np.arange(3), NO_TRAFFIC)
    assert np.mean(ll) == pytest.approx(2.0 / 3.0)


def test_top_undetected_vertex_scores_zero():
    scene = chain_scene(2)
    pred = perfect_prediction(scene)
    # lane 1 undetected: only lane 0 matched
    ll, _ = scene_vertex_aps(pred, scene, np.array([0, -1]), NO_TRAFFIC)
    # vertex 0 detected: its only candidate set has no matched endpoint -> AP 0;
    # vertex 1 undetected -> 0
    assert np.mean(ll) == 0.0


def test_top_lt_covers_both_sides():
    lane = straight_lane(0, 0)
    te = box_element(0, 1, te_id=0)
    scene = SceneRecord("s0", [lane], [te], set(), {(0, 0)})
    pred = perfect_prediction(scene)
    _, lt = scene_vertex_aps(pred, scene, np.array([0]), np.array([0]))
    assert np.mean(lt) == 1.0
    # drop the traffic match: lane vertex candidates all unmatched -> 0, traffic vertex undetected -> 0
    _, lt = scene_vertex_aps(pred, scene, np.array([0]), np.array([-1]))
    assert np.mean(lt) == 0.0


def test_top_vacuous_scene():
    scene = SceneRecord("s0", [straight_lane(0, 0)], [], set(), set())
    pred = perfect_prediction(scene)
    # no vertex has an edge: nothing to average, and the report scores it vacuously
    assert scene_vertex_aps(pred, scene, np.array([0]), NO_TRAFFIC) == ([], [])
    report = evaluate([pred], [scene])
    assert report.top_ll == report.top_lt == 1.0


def test_vertex_aps_rejects_a_match_outside_the_scene():
    scene = chain_scene(3)
    pred = perfect_prediction(scene)
    for lane_match in (np.array([0, 1, 3]), np.array([0, 1, -2]), np.array([0, 1])):
        with pytest.raises(IndexError, match="lane match"):
            scene_vertex_aps(pred, scene, lane_match, NO_TRAFFIC)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_generated_scenes():
    cfg = GeneratorConfig(scenes=3, seed=17)
    scenes = [generate_scene(cfg, i) for i in range(3)]
    preds = [perfect_prediction(s) for s in scenes]
    report = evaluate(preds, scenes)
    assert report.scores() == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert report.scene_count == 3


def test_evaluate_empty_predictions():
    cfg = GeneratorConfig(scenes=2, seed=19)
    scenes = [generate_scene(cfg, i) for i in range(2)]
    preds = [
        PredictionRecord(s.scene_id, [], [], np.zeros((0, 0)), np.zeros((0, 0)))
        for s in scenes
    ]
    report = evaluate(preds, scenes)
    assert report.scores() == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_evaluate_invariant_to_scene_and_prediction_order():
    cfg = GeneratorConfig(scenes=4, seed=23)
    scenes = [generate_scene(cfg, i) for i in range(4)]
    rng = np.random.default_rng(5)
    preds = []
    for s in scenes:
        p = perfect_prediction(s)
        # distinct confidences, mild jitter
        for i, lane in enumerate(p.lanes):
            lane.ctrl = lane.ctrl + rng.normal(scale=0.2, size=lane.ctrl.shape)
            lane.class_score = float(0.99 - 0.07 * i)
        preds.append(p)
    base = evaluate(preds, scenes)

    shuffled_scenes = [scenes[i] for i in (2, 0, 3, 1)]
    shuffled_preds = [preds[i] for i in (1, 3, 0, 2)]
    again = evaluate(shuffled_preds, shuffled_scenes)
    assert again.scores() == pytest.approx(base.scores())

    # permute predictions within one scene, matrices permuted consistently
    p0 = preds[0]
    perm = list(reversed(range(len(p0.lanes))))
    permuted = PredictionRecord(
        p0.scene_id,
        [p0.lanes[i] for i in perm],
        p0.traffic,
        topo_ll_prob=p0.topo_ll_prob[np.ix_(perm, perm)],
        topo_lt_prob=p0.topo_lt_prob[perm, :],
    )
    third = evaluate([permuted] + preds[1:], scenes)
    assert third.scores() == pytest.approx(base.scores())


def test_evaluate_missing_scene_listed():
    cfg = GeneratorConfig(scenes=2, seed=29)
    scenes = [generate_scene(cfg, i) for i in range(2)]
    preds = [perfect_prediction(scenes[0])]
    with pytest.raises(ValueError, match="scene-00001"):
        evaluate(preds, scenes)


def test_evaluate_rejects_duplicate_gt_scene_ids():
    scene = generate_scene(GeneratorConfig(scenes=1, seed=29), 0)
    with pytest.raises(ValueError, match=scene.scene_id):
        evaluate([perfect_prediction(scene)], [scene, scene])


def test_detection_channel_monotone_in_noise():
    # componentwise-ordered noise models: mean DET_l over seeds must not increase
    cfg = GeneratorConfig(scenes=3, seed=31, lanes_per_scene=(6, 9))
    scenes = [generate_scene(cfg, i) for i in range(3)]
    mild = NoiseModel(ctrl_sigma=0.2, drop_prob=0.05)
    harsh = NoiseModel(ctrl_sigma=1.0, drop_prob=0.3)

    def mean_det_l(noise):
        scores = []
        for seed in range(20):
            preds = [
                corrupt_scene(s, noise, seed=[seed, i]) for i, s in enumerate(scenes)
            ]
            score, _, _ = metrics.det_l(preds, scenes)
            scores.append(score)
        return float(np.mean(scores))

    assert mean_det_l(mild) >= mean_det_l(harsh)


# ---------------------------------------------------------------------------
# the batched DET_l / DET_t against the per-scene loop


def matched_items(match_by_scene):
    """{scene_id: (pred index, GT index) pairs} of per-scene match arrays,
    the form of the loop oracles' matched pairs."""
    return {sid: [(p, g) for p, g in enumerate(m.tolist()) if g >= 0] for sid, m in match_by_scene.items()}


def edge_case_inputs(thresholds):
    """Seeded multi-scene records plus hand-made scenes at the edges of the
    batch: empty sides, pairs exactly on every threshold (end points
    included) and confidences tied across scenes."""
    gen = GeneratorConfig(seed=23, lanes_per_scene=(2, 9), traffic_per_scene=(0, 7))
    noise = NoiseModel(ctrl_sigma=0.8, box_sigma=6.0, drop_prob=0.2, spurious_rate=2.0, confusion_prob=0.2)
    scenes = [generate_scene(gen, i) for i in range(9)]
    records = []
    for i, scene in enumerate(scenes):
        det = corrupt_scene(scene, noise, [23, i])
        rng = np.random.default_rng([23, i])
        for lane in det.lanes:  # coarse scores tie within and across scenes
            lane.class_score = float(rng.choice([0.25, 0.5, 0.5, 0.75]))
        for te in det.traffic:
            te.confidence = float(rng.choice([0.5, 0.5, 0.9]))
        records.append(PredictionRecord(det.scene_id, det.lanes, det.traffic))
    records[0] = PredictionRecord(records[0].scene_id, [], [])  # no predictions
    scenes[1] = SceneRecord(scenes[1].scene_id, [], [], set(), set())  # no GT
    records[2] = PredictionRecord(records[2].scene_id, records[2].lanes, [])
    scenes[3] = SceneRecord(scenes[3].scene_id, scenes[3].lanes, [], set(), set())

    # one lane per threshold whose end points sit exactly that far off and
    # whose interior is closer: its Frechet distance is the threshold itself
    xs = np.array([0.0, 10.0, 20.0, 30.0])
    gt_lanes, pred_lanes = [], []
    for k, tau in enumerate(thresholds):
        y0 = 100.0 * (k + 1)
        gt_lanes.append(GtLane(id=k, ctrl=np.stack([xs, np.full(4, y0), np.zeros(4)], axis=1)))
        ctrl = gt_lanes[-1].ctrl.copy()
        ctrl[[0, -1], 1] += tau
        pred_lanes.append(PredLane(ctrl=ctrl, class_score=0.5))
    # boxes with IoU exactly 0.5, 0.75 and 1.0 against the first GT box
    gt_box = TrafficElement(id=0, box=np.array([0.0, 0.0, 8.0, 8.0]), category=3)
    boxes = ([0.0, 0.0, 8.0, 4.0], [0.0, 0.0, 8.0, 6.0], [0.0, 0.0, 8.0, 8.0])
    pred_boxes = [TrafficElement(id=j, box=np.array(b), category=3, confidence=0.5) for j, b in enumerate(boxes)]
    scenes.append(SceneRecord("zz-exact", gt_lanes, [gt_box], set(), set()))
    records.append(PredictionRecord("zz-exact", pred_lanes, pred_boxes))
    return scenes, records


@pytest.mark.parametrize("thresholds", [(0.5,), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 10.0)])
@pytest.mark.parametrize("iou", [0.5, 0.75])
def test_batched_detection_equals_the_per_scene_loop(thresholds, iou):
    scenes, records = edge_case_inputs(thresholds)
    exact = scenes[-1], records[-1]
    polys = [metrics.sample_lane(np.stack([l.ctrl for l in r.lanes]), 11) for r in (exact[1], exact[0])]
    on_threshold = metrics.frechet_distance(*polys).diagonal()
    assert on_threshold.tolist() == list(thresholds)
    assert metrics.frechet_lower_bound(*polys).diagonal().tolist() == list(thresholds)

    cfg = DetMatchConfig(lane_frechet_thresholds=thresholds, traffic_iou_threshold=iou)
    for batched, loop in ((metrics.det_l, reference_metrics.det_l), (metrics.det_t, reference_metrics.det_t)):
        got, want = batched(records, scenes, cfg), loop(records, scenes, cfg)
        assert got[:2] == want[:2]
        assert matched_items(got[2]) == {sid: sorted(pairs) for sid, pairs in want[2].items()}
        # a different scene order gives the same scores and matches
        again = batched(records[::-1], scenes[::-1], cfg)
        assert again[:2] == want[:2] and matched_items(again[2]) == matched_items(got[2])
    # one entry per predicted lane, in input order
    _, _, lane_match = metrics.det_l(records, scenes, cfg)
    assert {sid: len(m) for sid, m in lane_match.items()} == {r.scene_id: len(r.lanes) for r in records}
    # at the loosest threshold every exact-threshold lane is a true positive
    assert lane_match["zz-exact"].tolist() == list(range(len(thresholds)))


def test_one_stacked_box_iou_call_per_det_t(monkeypatch):
    calls = []
    original = metrics.box_iou

    def counting(a, b):
        calls.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(metrics, "box_iou", counting)
    scenes, records = edge_case_inputs((1.0,))
    metrics.det_t(records, scenes)
    # one call on the (scene, attribute) group stack
    assert len(calls) == 1 and len(calls[0]) == 3


@pytest.mark.parametrize("field,kind", [("topo_ll", "lane"), ("topo_lt", "traffic")])
def test_evaluate_names_an_unknown_topology_id(field, kind):
    cfg = GeneratorConfig(scenes=2, seed=17)
    scenes = [generate_scene(cfg, i) for i in range(2)]
    preds = [perfect_prediction(s) for s in scenes]
    getattr(scenes[1], field).add((0, 999))
    with pytest.raises(ValidationError, match=f"scene 'scene-00001', field '{field}': unknown {kind} id 999"):
        evaluate(preds, scenes)


@pytest.mark.parametrize("field", ["topo_ll_prob", "topo_lt_prob"])
@pytest.mark.parametrize("value", [np.nan, 7.0, -0.5])
def test_evaluate_rejects_probabilities_outside_the_unit_interval(field, value):
    cfg = GeneratorConfig(scenes=2, seed=17)
    scenes = [generate_scene(cfg, i) for i in range(2)]
    preds = [perfect_prediction(s) for s in scenes]
    getattr(preds[1], field)[0, 1] = value
    with pytest.raises(ValidationError, match=f"^scene 'scene-00001', field '{field}': probabilities outside \\[0, 1\\]$"):
        evaluate(preds, scenes)


def test_evaluate_rejects_a_misshapen_probability_matrix():
    scene = generate_scene(GeneratorConfig(scenes=1, seed=17), 0)
    pred = perfect_prediction(scene)
    pred.topo_lt_prob = pred.topo_lt_prob[:, :-1]
    with pytest.raises(ValidationError, match="field 'topo_lt_prob': shape"):
        evaluate([pred], [scene])


def test_evaluate_rejects_zero_scenes():
    with pytest.raises(ValueError, match="no scenes"):
        evaluate([], [])


def topology_edge_case_inputs():
    """Seeded multi-scene predictions whose probabilities are rounded to one
    decimal (ties everywhere), with dropped lanes and traffic elements, a
    scene with no traffic, one with no topology edges, one at the query
    budget, one with no predicted lanes, one whose probabilities are all
    equal and one whose traffic elements attach to every lane of their chain
    (vertices with many hits, where the order of the precision sum shows)."""
    gen = GeneratorConfig(seed=41, lanes_per_scene=(3, 10), traffic_per_scene=(1, 8))
    dense = GeneratorConfig(seed=41, lanes_per_scene=(15, 18), traffic_per_scene=(20, 20), lt_assoc_prob=1.0)
    scenes = [generate_scene(gen, i) for i in range(10)] + [generate_scene(dense, 10)]
    scenes[1] = SceneRecord(scenes[1].scene_id, scenes[1].lanes, [], scenes[1].topo_ll, set())
    scenes[2] = SceneRecord(scenes[2].scene_id, scenes[2].lanes, scenes[2].traffic, set(), set())
    noise = NoiseModel(ctrl_sigma=0.6, box_sigma=4.0, drop_prob=0.25, spurious_rate=1.5, confusion_prob=0.1)
    records = []
    for i, scene in enumerate(scenes):
        det = corrupt_scene(scene, NoiseModel(spurious_rate=280.0) if i == 3 else noise, [41, i])
        lanes = [] if i == 4 else det.lanes
        rng = np.random.default_rng([41, i])
        n, t = len(lanes), len(det.traffic)
        ll, lt = np.round(rng.uniform(size=(n, n)), 1), np.round(rng.uniform(size=(n, t)), 1)
        np.fill_diagonal(ll, 0.0)
        if i == 5:
            ll, lt = np.full((n, n), 0.5), np.full((n, t), 0.5)
        records.append(PredictionRecord(det.scene_id, lanes, det.traffic, topo_ll_prob=ll, topo_lt_prob=lt))
    return scenes, records


def test_whole_matrix_top_equals_the_per_vertex_loop():
    scenes, records = topology_edge_case_inputs()
    assert len(records[3].lanes) > 250  # the query-budget scene
    assert not records[4].lanes and scenes[4].topo_lt and records[4].traffic
    _, _, lane_match = metrics.det_l(records, scenes)
    _, _, traffic_match = metrics.det_t(records, scenes)
    (ll, ll_detected), (lt, lt_detected) = metrics.vertex_aps(records, scenes, lane_match, traffic_match)
    lane_items, traffic_items = matched_items(lane_match), matched_items(traffic_match)
    want_ll, want_lt = [], []
    undetected_ll = undetected_lt = undetected_traffic = 0
    for gt, pred in metrics._align(records, scenes):
        lp, tp = dict(lane_items[gt.scene_id]), dict(traffic_items[gt.scene_id])
        want_ll += reference_metrics.vertex_aps_ll(pred, gt, lp.items())
        want_lt += reference_metrics.vertex_aps_lt(pred, gt, lp.items(), tp.items())
        ll_ends, lt_lanes = {v for edge in gt.topo_ll for v in edge}, {a for a, _ in gt.topo_lt}
        missed = [l.id for g, l in enumerate(gt.lanes) if g not in lp.values()]
        undetected_traffic += sum(te.id in {k for _, k in gt.topo_lt} for g, te in enumerate(gt.traffic) if g not in tp.values())
        undetected_ll += len(ll_ends.intersection(missed))
        undetected_lt += len(lt_lanes.intersection(missed))
    assert undetected_ll and undetected_lt and undetected_traffic
    # one batch, in the per-scene loop's vertex order, AP for AP
    assert ll.tolist() == want_ll and lt.tolist() == want_lt
    assert (~ll_detected).sum() == undetected_ll and (~lt_detected).sum() == undetected_lt + undetected_traffic
    assert not ll[~ll_detected].any() and not lt[~lt_detected].any()
    report = evaluate(records, scenes)
    assert (report.top_ll, report.top_lt) == (float(np.mean(want_ll)), float(np.mean(want_lt)))
    # the input order of the scenes changes nothing
    again = metrics.vertex_aps(records[::-1], scenes[::-1], lane_match, traffic_match)
    assert [a.tolist() for pair in again for a in pair] == [ll.tolist(), ll_detected.tolist(), lt.tolist(), lt_detected.tolist()]
