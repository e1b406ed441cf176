from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lanetopo import topoheads as th
from lanetopo import assoc
from lanetopo.dataio import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    NUM_CATEGORIES,
    DetectionRecord,
    GtLane,
    PredLane,
    SceneRecord,
    TrafficElement,
    ValidationError,
    load_detections,
    save_detections,
    validate_detection,
)
from lanetopo.assoc import project_edges

from gradcheck import full_gradient_check, random_scene_pair, small_config


# ---------------------------------------------------------------------------
# MLP primitive


def test_mlp_forward_zero_params():
    params = th.MlpParams([np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)])
    out, _ = th.mlp_forward(params, np.array([[1.0, -2.0]]))
    assert out.shape == (1, 1)
    assert out[0] == pytest.approx([0.0])


def test_mlp_forward_identity_single_layer():
    params = th.MlpParams([np.eye(4)], [np.zeros(4)])
    x = np.array([[0.5, -1.0, 2.0, 3.0]])
    out, _ = th.mlp_forward(params, x)
    assert out[0] == pytest.approx(x[0])


def test_mlp_forward_two_layer_oracle():
    w1 = np.array([[0.5, -1.0], [2.0, 0.25]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, -0.5]])
    b2 = np.array([0.3])
    params = th.MlpParams([w1, w2], [b1, b2])
    x = np.array([1.0, 2.0])
    hidden = np.maximum(w1 @ x + b1, 0.0)
    expected = w2 @ hidden + b2
    out, _ = th.mlp_forward(params, x[None, :])
    assert out[0] == pytest.approx(expected)


def test_mlp_forward_rejects_bad_width():
    params = th.MlpParams([np.zeros((2, 3))], [np.zeros(2)])
    with pytest.raises(ValueError):
        th.mlp_forward(params, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        th.mlp_forward(params, np.zeros(3))  # a vector is not a batch


def test_mlp_params_reject_broken_chain():
    with pytest.raises(ValueError):
        th.MlpParams([np.zeros((3, 2)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)])


def test_mlp_out_dim_tells_the_pair_heads_from_the_embedders():
    # lanebench's tracer files each mlp_backward span by its module's out_dim
    cfg = small_config()
    for name, mlp in th.init_params(cfg).modules().items():
        assert mlp.out_dim == th.module_dims(cfg)[name][-1]
        assert (mlp.out_dim == 1) == name.endswith("_head")


def test_mlp_backward_zero_output_grad():
    rng = np.random.default_rng(0)
    params = th.mlp_init([3, 4, 2], rng)
    out, cache = th.mlp_forward(params, rng.normal(size=(1, 3)))
    grads, gx = th.mlp_backward(params, cache, np.zeros_like(out))
    assert all(np.all(w == 0) for w in grads.weights)
    assert np.all(gx == 0)


def test_mlp_backward_linear_outer_product():
    rng = np.random.default_rng(1)
    params = th.MlpParams([rng.normal(size=(3, 4))], [rng.normal(size=3)])
    x = rng.normal(size=(1, 4))
    out, cache = th.mlp_forward(params, x)
    g = rng.normal(size=(1, 3))
    grads, _ = th.mlp_backward(params, cache, g)
    assert grads.weights[0] == pytest.approx(np.outer(g[0], x[0]))
    assert grads.biases[0] == pytest.approx(g[0])


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    params = th.mlp_init([4, 5, 3], rng)
    x = rng.normal(size=(1, 4))
    direction = rng.normal(size=(1, 3))

    def scalar_out(p):
        out, _ = th.mlp_forward(p, x)
        return float(np.sum(direction * out))

    _, cache = th.mlp_forward(params, x)
    grads, gx = th.mlp_backward(params, cache, direction)
    h = 1e-5
    for arrs, garrs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for p_arr, g_arr in zip(arrs, garrs):
            it = np.nditer(p_arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p_arr[idx]
                p_arr[idx] = old + h
                up = scalar_out(params)
                p_arr[idx] = old - h
                dn = scalar_out(params)
                p_arr[idx] = old
                fd = (up - dn) / (2 * h)
                assert g_arr[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
    # input gradient too
    for i in range(4):
        old = x[0, i]
        x[0, i] = old + h
        up = scalar_out(params)
        x[0, i] = old - h
        dn = scalar_out(params)
        x[0, i] = old
        assert gx[0, i] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# focal loss


def test_focal_reduces_to_cross_entropy():
    loss, _ = th.focal_loss(0.5, 1, alpha=1.0, gamma=0.0)
    assert loss == pytest.approx(math.log(2.0))


def test_focal_zero_at_confident_positive():
    loss, grad = th.focal_loss(1.0, 1)
    assert loss == 0.0
    assert grad == 0.0


def test_focal_hand_value_and_gradient():
    loss, grad = th.focal_loss(0.5, 1, alpha=0.25, gamma=2.0)
    assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), rel=1e-9)
    assert loss == pytest.approx(0.04332, abs=5e-6)
    # finite difference on the logit
    h = 1e-6
    z = 0.0  # sigmoid(0) = 0.5
    up, _ = th.focal_loss(1.0 / (1.0 + math.exp(-(z + h))), 1)
    dn, _ = th.focal_loss(1.0 / (1.0 + math.exp(-(z - h))), 1)
    assert grad == pytest.approx((up - dn) / (2 * h), rel=1e-5)


def test_focal_gradient_matches_fd_across_logits_and_targets():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(100):
        z = float(rng.uniform(-6, 6))
        target = int(rng.integers(0, 2))
        p = 1.0 / (1.0 + math.exp(-z))
        _, grad = th.focal_loss(p, target)
        up, _ = th.focal_loss(1.0 / (1.0 + math.exp(-(z + h))), target)
        dn, _ = th.focal_loss(1.0 / (1.0 + math.exp(-(z - h))), target)
        assert grad == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-9)


def test_focal_stable_at_extreme_logits():
    for z in (-80.0, 80.0):
        p = th.stable_sigmoid(np.array([z]))[0]
        for target in (0, 1):
            loss, grad = th.focal_loss(p, target)
            assert np.isfinite(loss) and np.isfinite(grad)
    assert th.focal_loss(1.0, 1)[0] == 0.0


def test_focal_positive_and_zero_iff_pt_one():
    rng = np.random.default_rng(5)
    probs = rng.uniform(1e-6, 1 - 1e-6, size=200)
    targets = rng.integers(0, 2, size=200)
    losses, _ = th.focal_loss(probs, targets)
    assert np.all(losses > 0)


def oracle_focal_loss(prob, target, alpha=0.25, gamma=2.0):
    """``focal_loss`` written out of place, one temporary per operation."""
    p = np.asarray(prob, dtype=float)
    t = np.asarray(target)
    pos = t == 1
    p_t = np.where(pos, p, 1.0 - p)
    a_t = np.where(pos, alpha, 1.0 - alpha)
    sign = np.where(pos, 1.0, -1.0)
    log_pt = np.log(np.maximum(p_t, np.finfo(float).tiny))
    one_m = 1.0 - p_t
    loss = -a_t * one_m**gamma * log_pt
    grad = -a_t * sign * (one_m ** (gamma + 1.0) - gamma * p_t * one_m**gamma * log_pt)
    return loss, grad


def assert_same_bits(got, want):
    """Same type, shape and bytes: -0.0 is not 0.0, and a 0-d array is not a scalar."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# 0 and 1 (log floor, zero loss), the smallest subnormal, the double below 1
FOCAL_EDGE_PROBS = [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)]


# 0, 0.5, 1 and 2 take numpy's ``**`` fast paths (ones, sqrt, copy, square); 2.5 and 3 take pow
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("alpha", [0.25, 0.0, 1.0, 0, 1])
def test_focal_equals_the_out_of_place_oracle_bit_for_bit(alpha, gamma):
    rng = np.random.default_rng(int(10 * gamma) + int(100 * alpha))
    p = np.concatenate([rng.random(500), rng.random(20) * 1e-300, FOCAL_EDGE_PROBS])
    ints = rng.integers(0, 2, size=p.size)
    cases = [
        (p, ints),
        (p, ints.astype(bool)),
        (p, ints * 2 - 1),  # only 1 is positive
        (p[:24].reshape(4, 6), ints[:6]),  # target broadcast along rows
        (p[:6], ints[:20].reshape(5, 4)[:, :1]),  # both broadcast
        (p[:30].reshape(5, 6), True),
        (0.75, p[:9].round().astype(int)),
        (np.empty((0, 3)), np.zeros(3, dtype=bool)),
    ]
    # scalars, whose ``**`` is C pow rather than the array fast paths
    cases += [(float(v), k) for v in FOCAL_EDGE_PROBS + list(rng.random(60)) for k in (0, 1, True)]
    cases += [(np.float64(0.3), np.int64(1)), (np.array(0.3), np.array(0))]
    for prob, target in cases:
        got, want = th.focal_loss(prob, target, alpha, gamma), oracle_focal_loss(prob, target, alpha, gamma)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


def test_focal_frees_a_temporary_input_and_keeps_four_buffers():
    # at ~300 lanes every (n, n) float buffer is 0.7 MiB; the out-of-place
    # form held about twelve of them
    n = 300
    labels = np.random.default_rng(0).random((n, n)) < 0.05
    tracemalloc.start()
    try:
        loss, grad = th.focal_loss(np.random.default_rng(1).random((n, n)), labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = 8 * n * n
    # the input, dropped once p_t exists; then p_t, log p_t, 1 - p_t and its
    # power; plus the two bool masks
    assert peak < 4.5 * buffer, f"traced peak {peak / buffer:.2f} buffers"
    assert loss.shape == grad.shape == (n, n)


# ---------------------------------------------------------------------------
# embeddings and pairwise logits


def embed_one_lane(lane, params):
    feats, _ = th.embed_lanes(th.lane_inputs(DetectionRecord("s", [lane], []), params.config), params)
    return feats[0]


def embed_one_traffic(te, params):
    feats, _ = th.embed_traffic_batch(th.traffic_inputs([te]), params)
    return feats[0]


def traffic_input(te):
    """Oracle of one ``traffic_inputs`` row: box over the image extent,
    one-hot category, confidence, built element by element."""
    box = np.asarray(te.box, dtype=float)
    norm = box / np.array([IMAGE_WIDTH, IMAGE_HEIGHT, IMAGE_WIDTH, IMAGE_HEIGHT], dtype=float)
    onehot = np.zeros(NUM_CATEGORIES)
    onehot[te.category] = 1.0
    return np.concatenate([norm, onehot, [te.confidence]])


def test_embed_lane_zero_params_gives_zero():
    cfg = small_config()
    zero = th.TopoHeadParams(cfg)
    lane = PredLane(ctrl=np.ones((3, 3)), class_score=0.7)
    assert embed_one_lane(lane, zero) == pytest.approx(np.zeros(cfg.feature_dim))


def test_embed_lane_zero_feat_embedder_leaves_coord_embedding():
    cfg = small_config(seed=3)
    params = th.init_params(cfg)
    for w in params.feat_embedder.weights:
        w[:] = 0.0
    for b in params.feat_embedder.biases:
        b[:] = 0.0
    lane = PredLane(ctrl=np.arange(9, dtype=float).reshape(3, 3), class_score=0.4)
    coord_in = lane.ctrl.reshape(1, -1) / cfg.coord_scale
    expected, _ = th.mlp_forward(params.coord_embedder, coord_in)
    assert embed_one_lane(lane, params) == pytest.approx(expected[0])


def test_embed_lane_matches_matrix_oracle():
    cfg = small_config(seed=9)
    params = th.init_params(cfg)
    lane = PredLane(ctrl=np.array([(1.0, 2.0, 0.5), (3.0, -1.0, 0.0), (5.0, 0.5, 1.0)]), class_score=0.8)

    def run(mlp, x):
        a = x
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = w @ a + b
            a = z if l == len(mlp.weights) - 1 else np.maximum(z, 0.0)
        return a

    coord_in = lane.ctrl.reshape(-1) / cfg.coord_scale
    surrogate_in = np.concatenate([coord_in, [lane.class_score]])
    expected = run(params.coord_embedder, coord_in) + run(params.feat_embedder, surrogate_in)
    assert embed_one_lane(lane, params) == pytest.approx(expected)


def test_embed_lane_detector_feature_path():
    cfg = small_config(detector_feature_width=5, seed=2)
    params = th.init_params(cfg)
    lane = PredLane(ctrl=np.zeros((3, 3)), class_score=1.0, feature=np.arange(5.0))
    out = embed_one_lane(lane, params)
    expected = th.mlp_forward(params.coord_embedder, np.zeros((1, 9)))[0] + th.mlp_forward(params.feat_embedder, np.arange(5.0)[None, :])[0]
    assert out == pytest.approx(expected[0])
    with pytest.raises(ValueError):
        embed_one_lane(PredLane(ctrl=np.zeros((3, 3)), class_score=1.0, feature=np.zeros(4)), params)


@pytest.mark.parametrize("feature, got", [(None, "no feature"), (np.ones(4), "a feature of shape (4,)")])
def test_train_and_predict_name_a_wrong_feature_as_the_loader_does(tmp_path, feature, got):
    cfg = small_config(detector_feature_width=5)
    scene, det = random_scene_pair(np.random.default_rng(4), n_lanes=3, m=cfg.control_points)
    for lane in det.lanes:
        lane.feature = np.ones(5)
    det.lanes[1].feature = feature
    path = tmp_path / "d.jsonl"
    save_detections([det], path)
    with pytest.raises(ValidationError) as loaded:
        load_detections(path, cfg.control_points, cfg.detector_feature_width)
    want = f"scene 's', field 'lanes.feature': lane 1 has {got}, expected width 5"
    assert str(loaded.value) == f"{path}:1: {want}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        th.predict(det, th.init_params(cfg))
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        th.train([scene], [det], cfg=cfg)


@pytest.mark.parametrize("feature", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, "x", 2.0]], ids=["nan", "inf", "string"])
def test_validation_train_and_predict_reject_a_non_finite_feature(feature):
    cfg = small_config(detector_feature_width=3)
    scene, det = random_scene_pair(np.random.default_rng(5), n_lanes=3, m=cfg.control_points)
    for lane in det.lanes:
        lane.feature = np.ones(3)
    det.lanes[1].feature = feature
    params = th.init_params(cfg)
    want = "scene 's', field 'lanes.feature': lane 1 has a feature that is not 3 finite numbers"
    for call in (
        lambda: validate_detection(det, feature_width=3),
        lambda: th.predict_records([det], params),
        lambda: th.predict(det, params),
        lambda: th.train([scene], [det], cfg=cfg),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            call()


@pytest.mark.parametrize(
    "widths, want",
    [
        ((None, 3, None), "lane 0 has no feature, expected width 3 as on lane 1"),
        ((3, 3, 4), "lane 2 has a feature of shape (4,), expected width 3 as on lane 0"),
    ],
    ids=["some-lanes", "two-widths"],
)
def test_mixed_features_are_rejected_under_params_trained_without_them(tmp_path, widths, want):
    cfg = small_config()
    _, det = random_scene_pair(np.random.default_rng(6), n_lanes=3, m=cfg.control_points)
    for lane, width in zip(det.lanes, widths):
        lane.feature = None if width is None else np.ones(width)
    want = f"scene 's', field 'lanes.feature': {want}"
    path = tmp_path / "d.jsonl"
    save_detections([det], path)
    with pytest.raises(ValidationError) as loaded:
        load_detections(path, cfg.control_points, cfg.detector_feature_width)
    assert str(loaded.value) == f"{path}:1: {want}"
    for call in (lambda: validate_detection(det), lambda: th.predict_records([det], th.init_params(cfg))):
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            call()


@pytest.mark.parametrize("confidence", ["0.5", np.array([0.5])])
def test_predict_records_names_a_confidence_that_is_no_number(confidence):
    cfg = small_config()
    params = th.init_params(cfg)
    _, det = random_scene_pair(np.random.default_rng(21), n_lanes=3, n_traffic=2, m=cfg.control_points)
    det.traffic[1].confidence = confidence
    with pytest.raises(ValidationError, match=r"field 'traffic.confidence': expected a number, got"):
        th.predict_records([det], params)


def test_embed_traffic_zero_params_and_onehot_block():
    cfg = small_config()
    zero = th.TopoHeadParams(cfg)
    te = TrafficElement(id=0, box=np.array([10.0, 10.0, 50.0, 60.0]), category=4, confidence=0.9)
    assert embed_one_traffic(te, zero) == pytest.approx(np.zeros(cfg.feature_dim))
    other = TrafficElement(id=1, box=te.box.copy(), category=7, confidence=0.9)
    xa, xb = th.traffic_inputs([te, other])
    differing = np.nonzero(xa != xb)[0]
    assert set(differing) == {4 + 4, 4 + 7}
    assert len(xa) == 18


def test_embed_traffic_matches_oracle():
    cfg = small_config(seed=21)
    params = th.init_params(cfg)
    te = TrafficElement(id=0, box=np.array([100.0, 200.0, 300.0, 400.0]), category=2, confidence=0.65)
    x = traffic_input(te)
    a = np.maximum(params.traffic_embedder.weights[0] @ x + params.traffic_embedder.biases[0], 0.0)
    expected = params.traffic_embedder.weights[1] @ a + params.traffic_embedder.biases[1]
    assert embed_one_traffic(te, params) == pytest.approx(expected)


@pytest.mark.parametrize(
    "categories",
    [
        pytest.param([], id="empty"),
        pytest.param([NUM_CATEGORIES - 1], id="single"),
        pytest.param([0, 5, NUM_CATEGORIES - 1, 0, 7], id="multi"),
    ],
)
def test_traffic_inputs_equal_the_per_element_oracle(categories):
    rng = np.random.default_rng(len(categories))
    elements = [
        TrafficElement(
            id=k,
            box=np.sort(rng.uniform(0, 2000, size=4)),
            category=c,
            confidence=float(rng.uniform()),
        )
        for k, c in enumerate(categories)
    ]
    x = th.traffic_inputs(elements)
    assert x.shape == (len(elements), 4 + NUM_CATEGORIES + 1)
    assert np.array_equal(x, np.array([traffic_input(te) for te in elements]).reshape(x.shape))


@pytest.mark.parametrize("category", [-1, NUM_CATEGORIES])
def test_out_of_range_category_is_rejected_by_train_and_predict(category):
    rng = np.random.default_rng(24)
    scenes, dets = make_training_set(rng, 2)
    dets[1].traffic[1].category = category
    message = f"traffic element 1: category {category} outside"
    with pytest.raises(ValueError, match=message):
        th.train(scenes, dets, cfg=small_config(epochs=1))
    with pytest.raises(ValueError, match=message):
        th.predict(dets[1], th.init_params(small_config()))


@pytest.mark.parametrize("category", [2.7, True])
def test_a_category_that_is_no_integer_is_rejected_by_traffic_inputs_train_and_predict(category):
    # an int cast would one-hot 2.7 as category 2
    rng = np.random.default_rng(24)
    scenes, dets = make_training_set(rng, 2)
    dets[1].traffic[1].category = category
    message = f"^traffic element 1: expected an integer, got {category!r}$"
    with pytest.raises(ValueError, match=message):
        th.traffic_inputs(dets[1].traffic)
    with pytest.raises(ValueError, match=message):
        th.train(scenes, dets, cfg=small_config(epochs=1))
    with pytest.raises(ValueError, match=message):
        th.predict(dets[1], th.init_params(small_config()))


def test_ll_logits_shapes_and_oracle():
    cfg = small_config(seed=5)
    params = th.init_params(cfg)
    rng = np.random.default_rng(8)
    one = rng.normal(size=(1, cfg.feature_dim))
    out, _ = th.ll_logits(one, params)
    assert out.shape == (1, 1)
    zero = th.TopoHeadParams(cfg)
    feats = rng.normal(size=(3, cfg.feature_dim))
    zl, _ = th.ll_logits(feats, zero)
    assert np.all(zl == 0.0)
    two = rng.normal(size=(2, cfg.feature_dim))
    mat, _ = th.ll_logits(two, params)
    for i in range(2):
        for j in range(2):
            z = np.concatenate([two[i], two[j]])
            expected, _ = th.mlp_forward(params.ll_head, z[None, :])
            assert mat[i, j] == pytest.approx(expected[0, 0])


def test_lt_logits_shapes_and_oracle_sum_compose():
    cfg = small_config(seed=6)
    params = th.init_params(cfg)
    rng = np.random.default_rng(9)
    lanes = rng.normal(size=(2, cfg.feature_dim))
    empty, _ = th.lt_logits(lanes, np.zeros((0, cfg.feature_dim)), params)
    assert empty.shape == (2, 0)
    traffic = rng.normal(size=(1, cfg.feature_dim))
    mat, _ = th.lt_logits(lanes, traffic, params)
    assert mat.shape == (2, 1)
    for i in range(2):
        expected, _ = th.mlp_forward(params.lt_head, (lanes[i] + traffic[0])[None, :])
        assert mat[i, 0] == pytest.approx(expected[0, 0])


def test_pair_logits_match_unfactorized_heads():
    # reference: the head run on every explicitly built pair input
    cfg = th.HeadConfig(feature_dim=16, mlp_hidden=12, seed=10)
    params = th.init_params(cfg)
    rng = np.random.default_rng(10)
    lanes = rng.normal(size=(7, cfg.feature_dim))
    traffic = rng.normal(size=(5, cfg.feature_dim))
    n, t = len(lanes), len(traffic)
    concat = np.hstack([np.repeat(lanes, n, axis=0), np.tile(lanes, (n, 1))])
    ll_ref, _ = th.mlp_forward(params.ll_head, concat)
    summed = (lanes[:, None, :] + traffic[None, :, :]).reshape(n * t, -1)
    lt_ref, _ = th.mlp_forward(params.lt_head, summed)
    ll, _ = th.ll_logits(lanes, params)
    lt, _ = th.lt_logits(lanes, traffic, params)
    np.testing.assert_allclose(ll, ll_ref.reshape(n, n), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lt, lt_ref.reshape(n, t), rtol=1e-12, atol=1e-12)


def test_pair_kernel_across_blocks_matches_dense_heads():
    # default width: a 200-wide right side gives one left row per block,
    # a 40-wide one several rows per block and several blocks
    cfg = th.HeadConfig(seed=14)
    params = th.init_params(cfg)
    rng = np.random.default_rng(14)
    n, t, c = 40, 200, cfg.feature_dim
    lanes = rng.normal(size=(n, c))
    traffic = rng.normal(size=(t, c))
    dense_ll = np.hstack([np.repeat(lanes, n, axis=0), np.tile(lanes, (n, 1))])
    dense_lt = (lanes[:, None, :] + traffic[None, :, :]).reshape(n * t, c)
    cases = (
        (th.ll_logits(lanes, params), params.ll_head, "ll_head", dense_ll, (n, n)),
        (th.lt_logits(lanes, traffic, params), params.lt_head, "lt_head", dense_lt, (n, t)),
    )
    for (logits, cache), head, name, dense, shape in cases:
        ref, ref_cache = th.mlp_forward(head, dense)
        np.testing.assert_allclose(logits, ref.reshape(shape), rtol=1e-12, atol=1e-12)
        # dense reference of the same gradients: the head's own backward
        # on every pair input, folded back onto the two sides
        dlogits = rng.normal(size=shape)
        ref_grads, dx = th.mlp_backward(head, ref_cache, dlogits.reshape(-1, 1))
        dx = dx.reshape(*shape, -1)
        if name == "ll_head":
            ref_left, ref_right = dx[..., :c].sum(axis=1), dx[..., c:].sum(axis=0)
        else:
            ref_left, ref_right = dx.sum(axis=1), dx.sum(axis=0)
        grads = th.TopoHeadParams(cfg)
        g_left, g_right = th._pair_backward(head, getattr(grads, name), cache, dlogits)
        np.testing.assert_allclose(g_left, ref_left, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g_right, ref_right, rtol=1e-12, atol=1e-12)
        got = getattr(grads, name)
        for a, b in zip(got.weights + got.biases, ref_grads.weights + ref_grads.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, m", [(8, 300), (300, 8), (1, 1), (1, 7), (7, 1), (0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("name", ["ll_head", "lt_head"])
def test_pair_backward_matches_dense_head_at_kinks_ragged_blocks_and_empty_sides(name, n, m):
    # default width: at 8 x 300 the 8-row side takes blocks of 3 rows and the
    # 300-row side (the transposed sum) blocks of 128 rows, the last of each ragged
    cfg = th.HeadConfig(seed=18)
    params = th.init_params(cfg)
    rng = np.random.default_rng(18)
    c, head = cfg.feature_dim, getattr(params, name)
    cols = (slice(0, c), slice(c, 2 * c)) if name == "ll_head" else (slice(None), slice(None))
    left, right = rng.normal(size=(n, c)), rng.normal(size=(m, c))
    _, cache = th._pair_logits(head, left, right, *cols)
    proj_l, shifted = cache["proj"]
    # exact-zero pre-activations: unit h of pair (i, partner[i]) for about half the units
    planted = np.zeros(proj_l.shape, dtype=bool)
    if m:
        planted = rng.random(size=proj_l.shape) < 0.5
        proj_l[planted] = -shifted[rng.integers(0, m, size=n)][planted]
    pre = proj_l[:, None, :] + shifted  # the forward's hidden pre-activation, as it rounds it
    assert (pre == 0).sum() >= planted.sum()
    # dense reference: the head's own backward on every pair input, with the
    # pre-activations taken from the planted projections
    x = np.zeros((n, m, head.in_dim))
    x[:, :, cols[0]] += left[:, None]
    x[:, :, cols[1]] += right[None]
    pre = pre.reshape(n * m, cfg.mlp_hidden)
    hidden = np.maximum(pre, 0.0)
    ref_cache = {
        "inputs": [x.reshape(n * m, head.in_dim), hidden],
        "pre": [pre, hidden @ head.weights[1].T + head.biases[1]],
    }
    dlogits = rng.normal(size=(n, m))
    ref_grads, dx = th.mlp_backward(head, ref_cache, dlogits.reshape(-1, 1))
    dx = dx.reshape(n, m, head.in_dim)
    grads = th.TopoHeadParams(cfg)
    g_left, g_right = th._pair_backward(head, getattr(grads, name), cache, dlogits)
    assert g_left.shape == (n, c) and g_right.shape == (m, c)
    np.testing.assert_allclose(g_left, dx[..., cols[0]].sum(axis=1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g_right, dx[..., cols[1]].sum(axis=0), rtol=1e-12, atol=1e-12)
    got = getattr(grads, name)
    for a, b in zip(got.weights + got.biases, ref_grads.weights + ref_grads.biases):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    if n * m == 0:
        assert not grads.flat.any()


@pytest.mark.parametrize("n, t", [(40, 200), (37, 203)])
def test_predict_permutation_equivariance_exact_across_blocks(n, t):
    # lanes and traffic both permuted; 37 x 203 puts pairs in the tail
    # lanes of a BLAS matrix-vector kernel, whose bits depend on position
    cfg = th.HeadConfig(seed=15)
    params = th.init_params(cfg)
    _, det = random_scene_pair(np.random.default_rng(15), n_lanes=n, n_traffic=t, m=cfg.control_points)
    ll, lt = th.predict(det, params)
    perm_l = np.random.default_rng(16).permutation(n)
    perm_t = np.random.default_rng(17).permutation(t)
    det_p = DetectionRecord(det.scene_id, [det.lanes[i] for i in perm_l], [det.traffic[k] for k in perm_t])
    ll_p, lt_p = th.predict(det_p, params)
    assert np.array_equal(ll_p, ll[np.ix_(perm_l, perm_l)])
    assert np.array_equal(lt_p, lt[np.ix_(perm_l, perm_t)])


def test_pair_heads_allocate_no_pair_sized_hidden_tensor():
    # query-budget scene (~300 lanes x ~300 traffic elements): a cached
    # (n*m, H) hidden tensor would alone take ~90 MiB here
    from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene

    scene = generate_scene(GeneratorConfig(seed=0), 0)
    det = corrupt_scene(scene, NoiseModel(ctrl_sigma=0.3, drop_prob=0.1, spurious_rate=280.0), [0, 1])
    assert len(det.lanes) >= 250 and len(det.traffic) >= 250
    params = th.init_params(th.HeadConfig())
    for run in (
        lambda: th.scene_loss_and_grads(th.scene_targets(det, scene, params.config), params),
        lambda: th.predict(det, params),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"


def query_budget_pair():
    """The first scene of the benchmark's query-budget set-up at seed 0 and
    its detection: 300 lanes (the budget) and 295 traffic elements."""
    from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene

    scene = generate_scene(GeneratorConfig(scenes=16, seed=0), 0)
    det = corrupt_scene(scene, NoiseModel(ctrl_sigma=0.25, drop_prob=0.1, spurious_rate=280.0), [0, 10007, 0])
    return scene, det


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_head_at_a_time_bounds_the_query_budget_peak_memory():
    # with both heads' terms alive at once and a focal loss of out-of-place
    # temporaries, the step read 14.3 MiB and predict 4.65 MiB
    scene, det = query_budget_pair()
    assert (len(det.lanes), len(det.traffic)) == (300, 295)
    params = th.init_params(th.HeadConfig())
    targets = th.scene_targets(det, scene, params.config)
    grads = th.TopoHeadParams(params.config)
    step = traced_peak(lambda: th.scene_loss_and_grads(targets, params, grads=grads))
    assert step < 10 * 2**20, f"scene_loss_and_grads traced peak {step / 2**20:.2f} MiB"
    predict = traced_peak(lambda: th.predict(det, params))
    assert predict < 4.6 * 2**20, f"predict traced peak {predict / 2**20:.2f} MiB"


def both_heads_at_once(targets, params):
    """``scene_loss_and_grads`` as it was before it took one head at a time:
    both heads' logits, focal terms and gradients alive together, with the
    out-of-place focal oracle. Returns the two losses and the gradient."""
    cfg = params.config
    n, t = targets.lt_labels.shape
    lane_feats, lane_cache = th.embed_lanes(targets.lane_in, params)
    traffic_feats, traffic_cache = th.embed_traffic_batch(targets.traffic_in, params)
    ll_z, ll_cache = th.ll_logits(lane_feats, params)
    lt_z, lt_cache = th.lt_logits(lane_feats, traffic_feats, params)
    n_ll = int(targets.off_diag.sum())
    ll_terms, ll_grad = oracle_focal_loss(th.stable_sigmoid(ll_z), targets.ll_labels, cfg.focal_alpha, cfg.focal_gamma)
    lt_terms, lt_grad = oracle_focal_loss(th.stable_sigmoid(lt_z), targets.lt_labels, cfg.focal_alpha, cfg.focal_gamma)
    loss_ll = float(ll_terms[targets.off_diag].mean()) if n_ll else 0.0
    loss_lt = float(lt_terms.mean()) if n * t else 0.0
    grads = th.TopoHeadParams(cfg)
    dll = np.where(targets.off_diag, ll_grad, 0.0) / max(n_ll, 1)
    g_left, g_right = th._pair_backward(params.ll_head, grads.ll_head, ll_cache, dll)
    g_lanes, dfeat_traffic = th._pair_backward(params.lt_head, grads.lt_head, lt_cache, lt_grad / max(n * t, 1))
    dfeat_lanes = g_left + g_right + g_lanes
    th.mlp_backward(params.coord_embedder, lane_cache[0], dfeat_lanes, grads.coord_embedder)
    th.mlp_backward(params.feat_embedder, lane_cache[1], dfeat_lanes, grads.feat_embedder)
    th.mlp_backward(params.traffic_embedder, traffic_cache, dfeat_traffic, grads.traffic_embedder)
    return loss_ll, loss_lt, grads.flat


def test_scene_loss_and_grads_equal_both_heads_at_once_bit_for_bit():
    rng = np.random.default_rng(27)
    pairs = [random_scene_pair(rng, n_lanes=n, n_traffic=t, m=4) for n, t in ((6, 4), (1, 3), (5, 0), (2, 1))]
    pairs.append(query_budget_pair())
    for focal in ({}, {"focal_alpha": 0.5, "focal_gamma": 2.5}):
        cfg = th.HeadConfig(**focal, seed=3)
        params = th.init_params(cfg)
        params.flat += rng.normal(scale=0.05, size=params.flat.size)  # off the init
        grads = th.TopoHeadParams(cfg)
        grads.flat.fill(np.nan)  # must be zeroed, not added into
        for scene, det in pairs:
            targets = th.scene_targets(det, scene, cfg)
            loss_ll, loss_lt, want = both_heads_at_once(targets, params)
            got = th.scene_loss_and_grads(targets, params, grads=grads)
            assert got[:2] == (loss_ll, loss_lt)
            assert got[2].flat.tobytes() == want.tobytes()
            assert th.scene_loss_and_grads(targets, params, compute_grads=False) == (loss_ll, loss_lt, None)


# ---------------------------------------------------------------------------
# two threads for the pair kernels, OpenBLAS on one inside train and predict


BLAS = th._openblas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread-count entry points in this process")


@pytest.fixture
def splits(monkeypatch):
    """The helper threads that kernel calls started, one per call that split."""
    calls = []

    class Counted(threading.Thread):
        def start(self):
            if self.name == "lanetopo-pairs":
                calls.append(self)
            super().start()

    monkeypatch.setattr(th.threading, "Thread", Counted)
    return calls


@pytest.fixture
def caller_blas_threads():
    """OpenBLAS at two threads for the test (the caller's count), restored after it."""
    get, put = BLAS
    saved = get()
    put(2)
    try:
        yield get()
    finally:
        put(saved)


def unsplit(monkeypatch):
    monkeypatch.setattr(th, "_SPLIT_PAIRS", 10**18)


# 300 x 295: blocks of 3 rows, as at the query budget; 17 x 295 with the
# split size lowered to 4: 6 blocks of 3 rows, the last ragged, and the
# transposed masked sum 5 blocks of 60 rows
SPLIT_SHAPES = [(300, 295), (17, 295)]


def split_from(n, monkeypatch):
    assert th._SPLIT_PAIRS <= 300 * 295
    if n * 295 < th._SPLIT_PAIRS:
        monkeypatch.setattr(th, "_SPLIT_PAIRS", 4)


@pytest.mark.parametrize("n, m", SPLIT_SHAPES)
@pytest.mark.parametrize("name", ["ll_head", "lt_head"])
def test_split_pair_kernels_give_the_unsplit_bytes(name, n, m, splits, monkeypatch):
    split_from(n, monkeypatch)
    cfg = th.HeadConfig(seed=30)
    params = th.init_params(cfg)
    rng = np.random.default_rng(30)
    c, head = cfg.feature_dim, getattr(params, name)
    cols = (slice(0, c), slice(c, 2 * c)) if name == "ll_head" else (slice(None), slice(None))
    left, right, d = rng.normal(size=(n, c)), rng.normal(size=(m, c)), rng.normal(size=(n, m))

    def kernels():
        logits, cache = th._pair_logits(head, left, right, *cols)
        proj_l, shifted = cache["proj"]
        return logits, th._masked_sums(d, proj_l, shifted), th._masked_sums(d.T, shifted, proj_l)

    with monkeypatch.context() as unsplit_here:
        unsplit(unsplit_here)
        alone = kernels()
    assert not splits
    both = kernels()
    assert len(splits) == 3
    for a, b in zip(alone, both):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, m", SPLIT_SHAPES)
def test_split_scene_step_and_predict_give_the_unsplit_bytes(n, m, splits, monkeypatch):
    split_from(n, monkeypatch)
    if n == 300:
        scene, det = query_budget_pair()
    else:
        scene, det = random_scene_pair(np.random.default_rng(31), n_lanes=n, n_traffic=m, m=4)
    assert (len(det.lanes), len(det.traffic)) == (n, m)
    cfg = th.HeadConfig(seed=31)
    params = th.init_params(cfg)
    targets = th.scene_targets(det, scene, cfg)
    with monkeypatch.context() as unsplit_here:
        unsplit(unsplit_here)
        loss_alone = th.scene_loss_and_grads(targets, params)
    loss_both = th.scene_loss_and_grads(targets, params)
    predicted_both = th.predict(det, params)
    assert splits
    assert loss_both[:2] == loss_alone[:2]
    assert loss_both[2].flat.tobytes() == loss_alone[2].flat.tobytes()
    splits.clear()
    unsplit(monkeypatch)
    predicted_alone = th.predict(det, params)
    assert not splits
    for a, b in zip(predicted_alone, predicted_both):
        assert a.tobytes() == b.tobytes()


def test_an_error_on_the_helper_thread_reaches_the_caller_and_the_next_call_works(monkeypatch):
    monkeypatch.setattr(th, "_SPLIT_PAIRS", 4)
    caller = threading.current_thread()
    assert len(list(th._pair_blocks(9, 1, th._PAIR_BLOCK))) == 9  # one row each
    taken = []

    def helper_fails(rows, buffer):
        if threading.current_thread() is not caller:
            raise ZeroDivisionError(f"block {rows.start}")
        time.sleep(0.01)  # leaves blocks for the helper

    def caller_fails(rows, buffer):
        if threading.current_thread() is caller:
            taken.append(rows.start)
            raise KeyError(rows.start)
        time.sleep(0.01)
        taken.append(rows.start)

    cfg = th.HeadConfig(seed=32)
    params = th.init_params(cfg)
    feats = np.random.default_rng(32).normal(size=(17, cfg.feature_dim))
    want = th.ll_logits(feats, params)[0]
    with pytest.raises(ZeroDivisionError, match="block"):
        th._blockwise(9, 1, th._PAIR_BLOCK, helper_fails)
    assert th.ll_logits(feats, params)[0].tobytes() == want.tobytes()
    # the caller's own error wins, raised only once the helper has taken
    # and finished every other block
    with pytest.raises(KeyError):
        th._blockwise(9, 1, th._PAIR_BLOCK, caller_fails)
    assert sorted(taken) == list(range(9))
    assert th.ll_logits(feats, params)[0].tobytes() == want.tobytes()


def test_every_block_is_taken_once_under_a_short_switch_interval():
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two threads take turns as often as the interpreter allows
    try:
        for _ in range(5):
            taken.clear()
            th._blockwise(2000, 1, th._PAIR_BLOCK, lambda rows, buffer: taken.append(rows.start))
            assert sorted(taken) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)


@needs_blas
def test_train_and_predict_hold_openblas_to_one_thread_and_restore_the_callers_count(caller_blas_threads, monkeypatch):
    get = BLAS[0]
    scenes, dets = make_training_set(np.random.default_rng(33), 3)
    during = []
    params, _ = th.train(scenes, dets, cfg=small_config(epochs=2), on_epoch=lambda epoch, stats: during.append(get()))
    assert during == [1, 1] and get() == caller_blas_threads
    embed = th.embed_lanes
    monkeypatch.setattr(th, "embed_lanes", lambda *args: (during.append(get()), embed(*args))[1])
    th.predict(dets[0], params)
    assert during[-1] == 1 and get() == caller_blas_threads
    monkeypatch.setattr(th, "scene_loss_and_grads", lambda *args, **kwargs: (float("nan"), 0.0, None))
    with pytest.raises(th.TrainingError):
        th.train(scenes, dets, cfg=small_config())
    assert get() == caller_blas_threads


def test_a_default_sized_scene_starts_no_thread(splits):
    scene, det = random_scene_pair(np.random.default_rng(34), n_lanes=16, n_traffic=16, m=4)
    before = threading.active_count()
    during = []
    params, _ = th.train([scene], [det], cfg=th.HeadConfig(epochs=2), on_epoch=lambda e, s: during.append(threading.active_count()))
    th.predict(det, params)
    assert during == [before, before] and threading.active_count() == before
    assert not splits


def test_no_thread_outlives_a_query_budget_train_or_predict_call(splits):
    scene, det = query_budget_pair()
    before = threading.enumerate()
    params, _ = th.train([scene], [det], cfg=th.HeadConfig(epochs=1, seed=36))
    # one step: both heads' logits and their two masked sums each split
    assert len(splits) == 6 and threading.enumerate() == before
    th.predict(det, params)
    assert len(splits) == 8 and threading.enumerate() == before
    assert not any(thread.is_alive() for thread in splits)


@pytest.mark.parametrize("split", [True, False], ids=["split", "unsplit"])
def test_a_query_budget_step_and_predict_keep_their_bytes_at_the_old_block_size(split, splits, monkeypatch):
    scene, det = query_budget_pair()
    cfg = th.HeadConfig(seed=37)
    params = th.init_params(cfg)
    params.flat += np.random.default_rng(37).normal(scale=0.05, size=params.flat.size)  # off the init
    targets = th.scene_targets(det, scene, cfg)
    if not split:
        unsplit(monkeypatch)

    def outputs():
        loss_ll, loss_lt, grads = th.scene_loss_and_grads(targets, params)
        return [np.array([loss_ll, loss_lt]).tobytes(), grads.flat.tobytes(), *(p.tobytes() for p in th.predict(det, params))]

    now = outputs()
    with monkeypatch.context() as old:
        old.setattr(th, "_PAIR_BLOCK", 1 << 15)  # one-row blocks at 300 x 295
        assert outputs() == now
    # a step's six kernel calls and a prediction's two, both times
    assert len(splits) == (16 if split else 0)


@pytest.mark.parametrize("hidden", [8, 64, 128])
@pytest.mark.parametrize("block", [1 << 15, 1 << 17], ids=["2^15", "2^17"])
def test_the_split_follows_the_pair_count_alone(block, hidden, splits, monkeypatch):
    monkeypatch.setattr(th, "_PAIR_BLOCK", block)
    for n, m, split in ((223, 295, True), (222, 295, False), (300, 219, True), (300, 218, False), (256, 256, True), (255, 256, False)):
        splits.clear()
        th._blockwise(n, m, hidden, lambda rows, buffer: None)
        assert len(splits) == split, (n, m)


def test_a_query_budget_step_splits_its_six_kernel_calls_and_smaller_scenes_start_no_thread(splits):
    cfg = th.HeadConfig(seed=38)
    params = th.init_params(cfg)
    scene, det = query_budget_pair()
    th.scene_loss_and_grads(th.scene_targets(det, scene, cfg), params)
    assert len(splits) == 6
    splits.clear()
    rng = np.random.default_rng(38)
    for n in (17, 150):
        scene, det = random_scene_pair(rng, n_lanes=n, n_traffic=n, m=cfg.control_points)
        th.scene_loss_and_grads(th.scene_targets(det, scene, cfg), params)
        th.predict(det, params)
    assert not splits


@needs_blas
def test_a_query_budget_train_call_does_not_depend_on_the_openblas_pin(caller_blas_threads, monkeypatch):
    # the pin changes the BLAS thread count of every embedder and projection
    # product; OpenBLAS splits those across threads at this size
    assert caller_blas_threads > 1
    scene, det = query_budget_pair()
    cfg = th.HeadConfig(epochs=2, seed=35)
    pinned, _ = th.train([scene], [det], cfg=cfg)
    pinned_probs = th.predict(det, pinned)
    monkeypatch.setattr(th, "_openblas_threads", lambda: None)
    during = []
    free, _ = th.train([scene], [det], cfg=cfg, on_epoch=lambda e, s: during.append(BLAS[0]()))
    assert during == [caller_blas_threads] * 2
    assert free.flat.tobytes() == pinned.flat.tobytes()
    for a, b in zip(th.predict(det, free), pinned_probs):
        assert a.tobytes() == b.tobytes()


def test_cli_runs_that_split_exit_cleanly_in_dev_mode(tmp_path):
    # every warning an error, ResourceWarning included; nothing printed at shutdown
    src = str(Path(th.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    data, run = tmp_path / "data", tmp_path / "run"
    commands = [
        ["generate", "--scenes", "5", "--seed", "0", "--spurious-rate", "280", "--split", "0.4,0.2,0.4", "--out", str(data)],
        ["train", "--train-scenes", str(data / "train_scenes.jsonl"), "--train-detections", str(data / "train_detections.jsonl"),
         "--epochs", "1", "--seed", "0", "--out", str(run)],
        ["predict", "--params", str(run / "params.json"), "--detections", str(data / "test_detections.jsonl"),
         "--out", str(run / "predictions.jsonl")],
    ]
    for args in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "lanetopo.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    assert len(load_detections(data / "test_detections.jsonl")[0].lanes) >= 250


def test_init_params_views_hold_the_seeded_draws():
    cfg = small_config(seed=12)
    params = th.init_params(cfg)
    rng = np.random.default_rng(cfg.seed)
    for name, mlp in params.modules().items():
        fresh = th.mlp_init([mlp.in_dim] + [w.shape[0] for w in mlp.weights], rng)
        for got, want in zip(mlp.weights + mlp.biases, fresh.weights + fresh.biases):
            assert np.array_equal(got, want), name
            assert np.shares_memory(got, params.flat), name
    assert params.flat.size == sum(a.size for m in params.modules().values() for a in m.weights + m.biases)


# ---------------------------------------------------------------------------
# label projection


def test_project_labels_identity_assignment():
    rng = np.random.default_rng(11)
    scene, det = random_scene_pair(rng)
    n, t = len(det.lanes), len(det.traffic)
    ll, lt = project_edges(np.arange(n), np.arange(t), scene)
    for i, j in scene.topo_ll:
        assert ll[i, j]
    assert ll.sum() == len(scene.topo_ll)
    assert lt.sum() == len(scene.topo_lt)


def test_project_labels_empty_assignment():
    rng = np.random.default_rng(12)
    scene, det = random_scene_pair(rng)
    ll, lt = project_edges(np.full(3, -1), np.full(2, -1), scene)
    assert ll.shape == (3, 3) and lt.shape == (3, 2)
    assert not ll.any() and not lt.any()


def test_project_labels_crossed_assignment_permutes():
    lanes = [GtLane(id=0, ctrl=np.zeros((3, 3))), GtLane(id=1, ctrl=np.ones((3, 3)))]
    scene = SceneRecord("s", lanes, [], topo_ll={(0, 1)}, topo_lt=set())
    ll, _ = project_edges(np.array([1, 0]), np.array([], dtype=int), scene)
    # prediction 1 plays GT lane 0, prediction 0 plays GT lane 1
    assert ll[1, 0] and ll.sum() == 1


def test_project_labels_name_a_bad_edge():
    lanes = [GtLane(id=4, ctrl=np.zeros((3, 3))), GtLane(id=2, ctrl=np.ones((3, 3)))]
    traffic = [TrafficElement(8, np.array([0.0, 0.0, 1.0, 1.0]), 1)]
    match = np.array([1, 0])
    assert project_edges(match, [0], SceneRecord("s", lanes, traffic, {(4, 2)}, {(2, 8)}))[1].tolist() == [[True], [False]]
    for ll, lt, message in (
        ({(4, 4)}, set(), "field 'topo_ll': self-edge on lane 4"),
        ({(4, 7)}, set(), "field 'topo_ll': unknown lane id 7"),
        (set(), {(7, 8)}, "field 'topo_lt': unknown lane id 7"),
        (set(), {(4, 7)}, "field 'topo_lt': unknown traffic id 7"),
    ):
        with pytest.raises(ValidationError, match=message):
            project_edges(match, [0], SceneRecord("s", lanes, traffic, ll, lt))


def test_project_labels_out_of_range():
    # a match entry must lie in [-1, len(GT)): 5, len(GT) = 1 and -2 (which
    # would index from the end without the check) are all rejected
    lanes = SceneRecord("s", [GtLane(id=0, ctrl=np.zeros((3, 3)))], [], set(), set())
    traffic = SceneRecord("s", [], [TrafficElement(0, np.array([0.0, 0.0, 1.0, 1.0]), 1)], set(), set())
    none = np.array([], dtype=int)
    for entry in (5, 1, -2):
        match = np.array([0, entry])
        with pytest.raises(IndexError, match=f"lane match \\(1 -> {entry}\\)"):
            project_edges(match, none, lanes)
        with pytest.raises(IndexError, match=f"traffic match \\(1 -> {entry}\\)"):
            project_edges(none, match, traffic)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_zero_decay_keeps_params():
    cfg = small_config(weight_decay=0.0)
    params = th.init_params(cfg)
    before = params.flat.copy()
    th.adamw_step(params, th.TopoHeadParams(cfg), th.AdamState.zeros(params), 1, cfg)
    assert np.array_equal(params.flat, before)


def test_adamw_first_step_closed_form():
    cfg = small_config(weight_decay=0.0, lr=1e-3)
    params = th.init_params(cfg)
    rng = np.random.default_rng(13)
    grads = th.TopoHeadParams(cfg, rng.normal(size=params.flat.shape))
    before = params.flat.copy()
    th.adamw_step(params, grads, th.AdamState.zeros(params), 1, cfg)
    expected = before - cfg.lr * grads.flat / (np.abs(grads.flat) + cfg.adam_eps)
    assert params.flat == pytest.approx(expected, rel=1e-9)


def test_adamw_decay_only():
    cfg = small_config(weight_decay=0.5, lr=0.1)
    params = th.init_params(cfg)
    before = params.flat.copy()
    th.adamw_step(params, th.TopoHeadParams(cfg), th.AdamState.zeros(params), 1, cfg)
    assert params.flat == pytest.approx(before * (1 - 0.1 * 0.5), rel=1e-12)


def test_adamw_bit_identical_to_out_of_place_update():
    cfg = small_config(lr=1e-2, weight_decay=0.1)
    params = th.init_params(cfg)
    state = th.AdamState.zeros(params)
    assert "scratch" not in repr(state)
    p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
    rng = np.random.default_rng(18)
    for step in range(1, 121):
        g = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2)
        th.adamw_step(params, th.TopoHeadParams(cfg, g), state, step, cfg)
        # the reference: the same expression, evaluated out of place
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1**step
        c2 = 1.0 - b2**step
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p *= 1.0 - cfg.lr * cfg.weight_decay
        p -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        assert np.array_equal(params.flat, p) and np.array_equal(state.m, m) and np.array_equal(state.v, v), step


# ---------------------------------------------------------------------------
# whole-scene objective: gradient check, training, prediction


def test_scene_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    for trial in range(3):
        cfg = small_config(
            feature_dim=int(rng.integers(2, 6)),
            mlp_hidden=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 1000)),
        )
        assert full_gradient_check(cfg, rng) > 0


def test_scene_gradients_match_finite_differences_across_pair_blocks(monkeypatch):
    # 80 hidden entries per block: at 7 lanes, 3 traffic elements and H = 5
    # every masked sum of both heads spans several blocks, the last ragged
    monkeypatch.setattr(th, "_PAIR_BLOCK", 80)
    rows = lambda n, m: [len(range(n)[s]) for s in th._pair_blocks(n, m, 5)]
    assert rows(7, 7) == [2, 2, 2, 1] and rows(7, 3) == [5, 2] and rows(3, 7) == [2, 1]
    cfg = small_config(mlp_hidden=5, seed=21)
    assert full_gradient_check(cfg, np.random.default_rng(78), lanes=(7, 8), traffic=(3, 4)) > 0


def two_branch_sigmoid(z):
    """The logistic as two branches: 1 / (1 + e^-z) on z >= 0, e^z / (1 + e^z) below."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stable_sigmoid_equals_the_two_branch_form_bitwise(seed):
    z = np.random.default_rng(seed).normal(size=(300, 300))
    z.flat[:8] = [np.inf, -np.inf, 0.0, -0.0, 40.0, -40.0, 800.0, -800.0]
    with np.errstate(over="raise"):
        assert th.stable_sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
    out = th.stable_sigmoid(np.array([np.nan, 1.0, -np.nan]))
    assert np.isnan(out[[0, 2]]).all() and out[1] == two_branch_sigmoid(1.0)


def make_training_set(rng, count, n_lanes=3, n_traffic=2, m=3):
    scenes, dets = [], []
    for i in range(count):
        scene, det = random_scene_pair(rng, n_lanes=n_lanes, n_traffic=n_traffic, m=m)
        scene.scene_id = f"s{i}"
        det.scene_id = f"s{i}"
        scenes.append(scene)
        dets.append(det)
    return scenes, dets


@pytest.mark.parametrize("field,kind", [("topo_ll", "lane"), ("topo_lt", "traffic")])
def test_an_unknown_topology_id_is_named_by_train(field, kind):
    rng = np.random.default_rng(26)
    scenes, dets = make_training_set(rng, 2)
    getattr(scenes[1], field).add((0, 999))
    with pytest.raises(ValidationError, match=f"scene 's1', field '{field}': unknown {kind} id 999"):
        th.train(scenes, dets, cfg=small_config(epochs=1))


def test_train_lr_zero_keeps_init():
    rng = np.random.default_rng(14)
    scenes, dets = make_training_set(rng, 3)
    cfg = small_config(lr=0.0, epochs=1)
    params, _ = th.train(scenes, dets, cfg=cfg)
    assert np.array_equal(params.flat, th.init_params(cfg).flat)


def test_train_deterministic():
    rng = np.random.default_rng(15)
    scenes, dets = make_training_set(rng, 4)
    cfg = small_config(epochs=2, seed=5)
    p1, s1 = th.train(scenes, dets, cfg=cfg)
    p2, s2 = th.train(scenes, dets, cfg=cfg)
    assert np.array_equal(p1.flat, p2.flat)
    assert s1.epoch_loss_total == s2.epoch_loss_total
    assert s1.epoch_grad_norm == s2.epoch_grad_norm


def reference_train(scenes, dets, val_scenes, val_dets, cfg):
    """``train`` with no target cache: every step and every validation pass
    rebuilds its scene's targets."""
    params = th.init_params(cfg)
    state = th.AdamState.zeros(params)
    order = np.random.default_rng(cfg.seed).permutation(len(scenes))
    stats = th.TrainStats()
    step = 0
    for _ in range(cfg.epochs):
        losses_ll, losses_lt, norms = [], [], []
        for idx in order:
            targets = th.scene_targets(dets[idx], scenes[idx], cfg)
            loss_ll, loss_lt, grads = th.scene_loss_and_grads(targets, params)
            step += 1
            norms.append(float(np.sqrt(np.einsum("i,i->", grads.flat, grads.flat))))
            th.adamw_step(params, grads, state, step, cfg)
            losses_ll.append(loss_ll)
            losses_lt.append(loss_lt)
        stats.epoch_loss_ll.append(float(np.mean(losses_ll)))
        stats.epoch_loss_lt.append(float(np.mean(losses_lt)))
        stats.epoch_loss_total.append(float(np.mean(losses_ll) + np.mean(losses_lt)))
        stats.epoch_grad_norm.append(float(np.mean(norms)))
        vals = [
            sum(th.scene_loss_and_grads(th.scene_targets(d, s, cfg), params, compute_grads=False)[:2])
            for s, d in zip(val_scenes, val_dets)
        ]
        stats.val_loss_total.append(float(np.mean(vals)))
    return params, stats


def test_train_matches_each_scene_once_and_equals_per_step_targets(monkeypatch):
    rng = np.random.default_rng(22)
    scenes, dets = make_training_set(rng, 5, n_lanes=4, n_traffic=3)
    val_scenes, val_dets = make_training_set(rng, 2, n_lanes=3, n_traffic=2)
    cfg = small_config(epochs=3, lr=5e-3, seed=7)
    want_params, want_stats = reference_train(scenes, dets, val_scenes, val_dets, cfg)

    solves, solve_batch = [], assoc.hungarian_solve_batch

    def counted(costs):
        solves.append([np.array(c) for c in costs])
        return solve_batch(costs)

    monkeypatch.setattr(assoc, "hungarian_solve_batch", counted)
    monkeypatch.setattr(assoc, "hungarian_solve", None)  # no per-matrix solve
    params, stats = th.train(scenes, dets, val_scenes, val_dets, cfg)
    # one stacked solve per call: each train, then each validation scene's
    # lane and traffic costs
    want = [
        cost
        for s, d in zip(scenes + val_scenes, dets + val_dets)
        for cost in (assoc.lane_training_cost(d.lanes, s.lanes), assoc.traffic_training_cost(d.traffic, s.traffic))
    ]
    assert len(solves) == 1 and len(solves[0]) == len(want)
    assert all(np.array_equal(got, cost) for got, cost in zip(solves[0], want))

    assert np.array_equal(params.flat, want_params.flat)
    stats.wall_clock_sec = want_stats.wall_clock_sec
    assert stats == want_stats
    assert len(stats.val_loss_total) == cfg.epochs


def test_scene_targets_batch_equals_one_solve_per_matrix():
    rng = np.random.default_rng(24)
    scenes, dets = make_training_set(rng, 4, n_lanes=5, n_traffic=3)
    dets[1].traffic = []  # an empty side
    dets[2].lanes = dets[2].lanes[:2]  # fewer predictions than GT lanes
    dets[3].lanes = dets[3].lanes + dets[3].lanes[:3]  # more
    cfg = small_config()
    batch = th.scene_targets_batch(list(zip(scenes, dets)), cfg)
    assert len(batch) == len(scenes)
    for got, det, scene in zip(batch, dets, scenes):
        lane_match = assoc.match_for_training(det.lanes, scene.lanes)
        traffic_match = assoc.match_traffic_for_training(det.traffic, scene.traffic)
        ll, lt = project_edges(lane_match, traffic_match, scene)
        assert np.array_equal(got.ll_labels, ll) and np.array_equal(got.lt_labels, lt)
        one = th.scene_targets(det, scene, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got.lane_in, one.lane_in))
        for name in ("traffic_in", "ll_labels", "lt_labels", "off_diag"):
            assert np.array_equal(getattr(got, name), getattr(one, name)), name


def test_train_reports_each_epoch_as_it_ends():
    rng = np.random.default_rng(23)
    scenes, dets = make_training_set(rng, 3)
    val_scenes, val_dets = make_training_set(rng, 1)
    seen = []

    def on_epoch(epoch, stats):
        seen.append((epoch, stats, len(stats.epoch_loss_total), len(stats.val_loss_total)))

    _, stats = th.train(scenes, dets, val_scenes, val_dets, small_config(epochs=3), on_epoch=on_epoch)
    assert [(e, n, v) for e, _, n, v in seen] == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
    assert all(s is stats for _, s, _, _ in seen)


def test_train_loss_decreases_on_clean_data():
    rng = np.random.default_rng(16)
    scenes = []
    dets = []
    for i in range(30):
        scene, _ = random_scene_pair(rng, n_lanes=4, n_traffic=3, m=3)
        scene.scene_id = f"s{i}"
        det = DetectionRecord(
            f"s{i}",
            [PredLane(ctrl=l.ctrl.copy(), class_score=1.0) for l in scene.lanes],
            [TrafficElement(id=te.id, box=te.box.copy(), category=te.category, confidence=1.0) for te in scene.traffic],
        )
        scenes.append(scene)
        dets.append(det)
    cfg = small_config(feature_dim=16, mlp_hidden=16, epochs=5, lr=2e-3, seed=1)
    params, stats = th.train(scenes, dets, cfg=cfg)
    assert stats.epoch_loss_total[-1] < stats.epoch_loss_total[0]


def test_train_empty_set_rejected():
    with pytest.raises(ValueError):
        th.train([], [], cfg=small_config())


def test_train_rejects_duplicate_detection_scene_ids():
    rng = np.random.default_rng(21)
    scenes, dets = make_training_set(rng, 2)
    dets[0].scene_id = "s1"
    with pytest.raises(ValueError, match="'s1'"):
        th.train(scenes[1:], dets, cfg=small_config(epochs=1))


def test_learning_signal_beats_fresh_init_over_seeds():
    # reduced-scale version of the end-to-end check: on clean synthetic data,
    # trained heads must outrank freshly initialized ones on held-out scenes,
    # for every one of 5 seeds
    from lanetopo import metrics
    from lanetopo.dataio import PredictionRecord
    from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene

    gen = GeneratorConfig(scenes=60, lanes_per_scene=(6, 10), traffic_per_scene=(8, 12), seed=909)
    scenes = [generate_scene(gen, i) for i in range(60)]
    dets = [corrupt_scene(s, NoiseModel(), [909, i]) for i, s in enumerate(scenes)]
    held_s, held_d = scenes[48:], dets[48:]

    def top_scores(params):
        records = []
        for d in held_d:
            ll, lt = th.predict(d, params)
            records.append(PredictionRecord(d.scene_id, d.lanes, d.traffic, topo_ll_prob=ll, topo_lt_prob=lt))
        report = metrics.evaluate(records, held_s)
        return report.top_ll, report.top_lt

    for seed in range(5):
        cfg = th.HeadConfig(feature_dim=48, mlp_hidden=48, epochs=6, lr=1e-3, control_points=4, seed=seed)
        params, _ = th.train(scenes[:48], dets[:48], cfg=cfg)
        trained_ll, trained_lt = top_scores(params)
        fresh_ll, fresh_lt = top_scores(th.init_params(cfg))
        assert trained_ll > fresh_ll, f"seed {seed}: {trained_ll} <= {fresh_ll}"
        assert trained_lt > fresh_lt, f"seed {seed}: {trained_lt} <= {fresh_lt}"


def test_predict_zero_params_gives_half_probabilities():
    cfg = small_config()
    zero = th.TopoHeadParams(cfg)
    rng = np.random.default_rng(18)
    _, det = random_scene_pair(rng, n_lanes=3, n_traffic=2)
    ll, lt = th.predict(det, zero)
    assert ll.shape == (3, 3) and lt.shape == (3, 2)
    assert np.all(np.diag(ll) == 0.0)
    off = ll[~np.eye(3, dtype=bool)]
    assert off == pytest.approx(np.full(6, 0.5))
    assert lt == pytest.approx(np.full((3, 2), 0.5))


def _nan_point(lane):
    lane.ctrl[1, 2] = np.nan


def _score(value):
    def mutate(lane):
        lane.class_score = value

    return mutate


@pytest.mark.parametrize("mutate", [_nan_point, _score(-0.1), _score(np.nan)])
def test_predict_records_rejects_what_predict_accepts(mutate):
    # predict_records keeps its own validate_detection call: predict scores
    # these records without complaint
    cfg = small_config()
    params = th.init_params(cfg)
    _, det = random_scene_pair(np.random.default_rng(20), n_lanes=4, n_traffic=2, m=cfg.control_points)
    mutate(det.lanes[2])
    th.predict(det, params)
    with pytest.raises(ValidationError) as got:
        th.predict_records([det], params)
    with pytest.raises(ValidationError) as want:
        validate_detection(det, control_points=cfg.control_points)
    assert str(got.value) == str(want.value)


def test_predict_empty_detection():
    cfg = small_config()
    params = th.init_params(cfg)
    det = DetectionRecord("s", [], [])
    ll, lt = th.predict(det, params)
    assert ll.shape == (0, 0) and lt.shape == (0, 0)


def test_predict_permutation_equivariance_exact():
    cfg = small_config(seed=31)
    params = th.init_params(cfg)
    rng = np.random.default_rng(19)
    _, det = random_scene_pair(rng, n_lanes=4, n_traffic=3)
    ll, lt = th.predict(det, params)
    perm = np.array([2, 0, 3, 1])
    det_p = DetectionRecord(det.scene_id, [det.lanes[i] for i in perm], det.traffic)
    ll_p, lt_p = th.predict(det_p, params)
    assert np.array_equal(ll_p, ll[np.ix_(perm, perm)])
    assert np.array_equal(lt_p, lt[perm, :])


def test_shape_contract_various_sizes():
    cfg = small_config(seed=41)
    params = th.init_params(cfg)
    rng = np.random.default_rng(20)
    for n in (0, 1, 2, 5):
        for t in (0, 1, 3):
            if n == 0:
                det = DetectionRecord("s", [], [])
                t_eff = 0
            else:
                _, det = random_scene_pair(rng, n_lanes=n, n_traffic=t)
                t_eff = t
            ll, lt = th.predict(det, params)
            assert ll.shape == (len(det.lanes),) * 2
            assert lt.shape == (len(det.lanes), t_eff if n else 0)


def test_params_roundtrip(tmp_path):
    cfg = small_config(seed=77)
    params = th.init_params(cfg)
    p = tmp_path / "params.json"
    th.save_params(params, p)
    loaded = th.load_params(p)
    assert loaded.config == cfg
    assert np.array_equal(loaded.flat, params.flat)


def test_load_params_rejects_wrong_shapes(tmp_path):
    cfg = small_config()
    params = th.init_params(cfg)
    p = tmp_path / "params.json"
    th.save_params(params, p)
    import json

    obj = json.loads(p.read_text())
    obj["modules"]["ll_head"][0]["weight"] = [[0.0] * 3] * 2  # wrong width
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        th.load_params(p)
