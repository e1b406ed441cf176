from __future__ import annotations

import re

import numpy as np
import pytest

from lanetopo.geometry import (
    bezier_point,
    box_iou,
    control_point_l1,
    frechet_distance,
    frechet_lower_bound,
    sample_lane,
)


def brute_frechet(a, b):
    """Oracle: minimax leash over all monotone couplings, by plain recursion."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def d(i, j):
        return float(np.linalg.norm(a[i] - b[j]))

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 and j == 0:
            return d(0, 0)
        if i == 0:
            return max(rec(0, j - 1), d(0, j))
        if j == 0:
            return max(rec(i - 1, 0), d(i, 0))
        return max(min(rec(i - 1, j), rec(i - 1, j - 1), rec(i, j - 1)), d(i, j))

    return rec(len(a) - 1, len(b) - 1)


def test_bezier_collinear_midpoint():
    ctrl = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert bezier_point(ctrl, 0.5) == pytest.approx((1.5, 0.0, 0.0))


def test_bezier_endpoint_interpolation():
    ctrl = [(0, 0, 0), (1, 1, 0)]
    assert bezier_point(ctrl, 0.0) == pytest.approx((0.0, 0.0, 0.0))
    assert bezier_point(ctrl, 1.0) == pytest.approx((1.0, 1.0, 0.0))


def test_bezier_cubic_arc_midpoint():
    # hand evaluation: (P0 + 3 P1 + 3 P2 + P3) / 8
    ctrl = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)]
    assert bezier_point(ctrl, 0.5) == pytest.approx((0.5, 0.75, 0.0))


def test_bezier_rejects_t_outside_unit_interval():
    ctrl = [(0, 0, 0), (1, 1, 0)]
    with pytest.raises(ValueError):
        bezier_point(ctrl, -0.01)
    with pytest.raises(ValueError):
        bezier_point(ctrl, 1.01)


def test_bezier_endpoints_exact_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.integers(2, 7)
        ctrl = rng.normal(scale=20.0, size=(m, 3))
        assert np.max(np.abs(bezier_point(ctrl, 0.0) - ctrl[0])) <= 1e-12
        assert np.max(np.abs(bezier_point(ctrl, 1.0) - ctrl[-1])) <= 1e-12


def test_bezier_convex_hull_property():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = rng.integers(2, 6)
        ctrl = rng.normal(scale=15.0, size=(m, 3))
        p = rng.integers(2, 65)
        poly = sample_lane(ctrl, int(p))
        lo = ctrl.min(axis=0) - 1e-9
        hi = ctrl.max(axis=0) + 1e-9
        assert np.all(poly >= lo) and np.all(poly <= hi)


def test_sample_lane_linear():
    poly = sample_lane([(0, 0, 0), (3, 0, 0)], 4)
    assert poly == pytest.approx(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float))


def test_sample_lane_two_points_returns_endpoints():
    ctrl = np.array([(0.0, 2.0, 1.0), (4.0, -1.0, 0.5), (8.0, 3.0, 2.0)])
    poly = sample_lane(ctrl, 2)
    assert np.array_equal(poly[0], ctrl[0])
    assert np.array_equal(poly[-1], ctrl[-1])


def test_sample_lane_cubic_arc():
    ctrl = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)]
    poly = sample_lane(ctrl, 3)
    assert poly == pytest.approx(np.array([[0, 0, 0], [0.5, 0.75, 0], [1, 0, 0]], dtype=float))


def test_sample_lane_rejects_small_count():
    with pytest.raises(ValueError):
        sample_lane([(0, 0, 0), (1, 0, 0)], 1)


def test_frechet_identity_and_translation():
    a = np.array([(0, 0, 0), (1, 0, 0), (2, 1, 0)], dtype=float)
    assert frechet_distance(a, a) == 0.0
    b = a + np.array([0.0, 0.0, 1.0])
    assert frechet_distance(a, b) == pytest.approx(1.0)


def test_frechet_hand_case():
    a = [(0, 0, 0), (1, 0, 0)]
    b = [(0, 1, 0), (1, 2, 0)]
    assert frechet_distance(a, b) == pytest.approx(2.0)


def test_frechet_rejects_empty():
    with pytest.raises(ValueError):
        frechet_distance(np.empty((0, 3)), [(0, 0, 0)])


def test_frechet_matches_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(200):
        na, nb = rng.integers(1, 7, size=2)
        a = rng.normal(scale=5.0, size=(na, 3))
        b = rng.normal(scale=5.0, size=(nb, 3))
        assert frechet_distance(a, b) == pytest.approx(brute_frechet(a, b), abs=1e-9)


def test_frechet_symmetry_and_endpoint_lower_bounds():
    rng = np.random.default_rng(31)
    for _ in range(50):
        na, nb = rng.integers(1, 8, size=2)
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        d = frechet_distance(a, b)
        assert d == pytest.approx(frechet_distance(b, a))
        assert d >= np.linalg.norm(a[0] - b[0]) - 1e-12
        assert d >= np.linalg.norm(a[-1] - b[-1]) - 1e-12


def test_stacked_frechet_equals_each_slice_bitwise():
    rng = np.random.default_rng(53)
    a = rng.normal(scale=4.0, size=(3, 5, 7, 3))
    b = rng.normal(scale=4.0, size=(3, 4, 6, 3))
    stacked = frechet_distance(a, b)
    assert stacked.shape == (3, 5, 4)
    for s in range(3):
        assert stacked[s].tobytes() == frechet_distance(a[s], b[s]).tobytes()
    # one pair per slice, and a leading shape that broadcasts
    pairs = frechet_distance(a[:, :4, None], b[:, :, None])
    assert pairs[..., 0, 0].tobytes() == np.stack([stacked[s].diagonal() for s in range(3)]).tobytes()
    assert frechet_distance(a[:1], b).tobytes() == np.stack([frechet_distance(a[0], b[s]) for s in range(3)]).tobytes()
    assert frechet_distance(a[:, :0], b).shape == (3, 0, 4)


def test_frechet_lower_bound_never_exceeds_the_distance_bitwise():
    rng = np.random.default_rng(59)
    for _ in range(20):
        p, q = rng.integers(1, 9, size=2)
        a = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(2, 6, p, 3))
        b = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(2, 5, q, 3))
        bound = frechet_lower_bound(a, b)
        dist = frechet_distance(a, b)
        assert bound.shape == dist.shape == (2, 6, 5)
        assert np.all(bound <= dist)
        ends = np.maximum(
            np.linalg.norm(a[:, :, None, 0] - b[:, None, :, 0], axis=-1),
            np.linalg.norm(a[:, :, None, -1] - b[:, None, :, -1], axis=-1),
        )
        np.testing.assert_allclose(bound, ends, rtol=1e-12)
    # the bound is tight when the end points are the farthest pair
    a = np.array([(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.0, 0.0)])
    b = a.copy()
    b[[0, -1], 1] = 3.0
    assert frechet_lower_bound(a, b) == frechet_distance(a, b) == 3.0


def test_box_iou_identity_disjoint_overlap():
    assert box_iou((0, 0, 2, 2), (0, 0, 2, 2)) == pytest.approx(1.0)
    assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0
    assert box_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)


def test_box_iou_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = np.sort(rng.uniform(0, 100, size=4).reshape(2, 2), axis=0).T.reshape(-1)
        b = np.sort(rng.uniform(0, 100, size=4).reshape(2, 2), axis=0).T.reshape(-1)
        a = (a[0], a[2], a[1] + 1.0, a[3] + 1.0)
        b = (b[0], b[2], b[1] + 1.0, b[3] + 1.0)
        v = box_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(box_iou(b, a))


def test_box_rejects_degenerate():
    with pytest.raises(ValueError, match=re.escape("degenerate box [0.0, 0.0, 0.0, 1.0]")):
        box_iou((0, 0, 0, 1), (0, 0, 1, 1))
    # in a batch the message names the first degenerate box, wherever it sits
    batch = np.array([(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 2.0, 2.0), (3.0, 1.0, 4.0, 1.0), (5.0, 0.0, 4.0, 1.0)])
    with pytest.raises(ValueError, match=re.escape("degenerate box [3.0, 1.0, 4.0, 1.0]: need x1 < x2")):
        box_iou(batch[:1], batch)


def test_control_point_l1_cases():
    a = np.zeros((2, 3))
    assert control_point_l1(a, a) == 0.0
    assert control_point_l1(a, a + 1.0) == pytest.approx(1.0)
    b = np.array([(1.0, 2.0, 3.0), (0.0, 0.0, 0.0)])
    assert control_point_l1(a, b) == pytest.approx(1.0)  # (1+2+3)/6


def test_control_point_l1_symmetric_rejects_mismatch():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    assert control_point_l1(a, b) == pytest.approx(control_point_l1(b, a))
    with pytest.raises(ValueError):
        control_point_l1(a, rng.normal(size=(3, 3)))


def test_zero_length_lane_is_legal():
    flat = np.zeros((4, 3))
    assert frechet_distance(sample_lane(flat, 5), sample_lane(flat, 5)) == 0.0


def test_batch_kernels_equal_their_pairs_bitwise():
    rng = np.random.default_rng(43)
    lanes_a = rng.normal(scale=10.0, size=(5, 4, 3))
    lanes_b = rng.normal(scale=10.0, size=(3, 4, 3))
    polys_a = sample_lane(lanes_a, 9)
    polys_b = sample_lane(lanes_b, 9)
    assert polys_a.shape == (5, 9, 3)
    for i, lane in enumerate(lanes_a):
        assert sample_lane(lane, 9).tobytes() == polys_a[i].tobytes()
    corners = rng.uniform(0, 50, size=(9, 2))
    boxes_a = np.concatenate([corners[:5], corners[:5] + rng.uniform(1, 20, size=(5, 2))], axis=1)
    boxes_b = np.concatenate([corners[5:8], corners[5:8] + rng.uniform(1, 20, size=(3, 2))], axis=1)
    for kernel, a, b in (
        (frechet_distance, polys_a, polys_b),
        (control_point_l1, lanes_a, lanes_b),
        (box_iou, boxes_a, boxes_b),
    ):
        mat = kernel(a, b)
        assert mat.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert mat[i, j] == kernel(a[i], b[j])
    assert frechet_distance(polys_a[:0], polys_b).shape == (0, 3)
    # a stacked box_iou
    stack_a, stack_b = np.stack([boxes_a, boxes_a[::-1]]), np.stack([boxes_b, boxes_b[::-1]])
    mat = box_iou(stack_a, stack_b)
    assert mat.shape == (2, 5, 3)
    for s, i, j in np.ndindex(mat.shape):
        assert mat[s, i, j] == box_iou(stack_a[s, i], stack_b[s, j])


def test_stacked_box_iou_broadcasts_and_keeps_the_box_checks():
    rng = np.random.default_rng(61)
    corners = rng.uniform(0, 50, size=(3, 9, 2))
    boxes = np.concatenate([corners, corners + rng.uniform(1, 20, size=(3, 9, 2))], axis=-1)
    a, b = boxes[:, :5], boxes[:, 5:]
    assert box_iou(a, b).shape == (3, 5, 4)
    # a leading shape that broadcasts, deeper stacks and empty sides
    assert box_iou(a[:1], b).tobytes() == np.stack([box_iou(a[0], b[s]) for s in range(3)]).tobytes()
    assert box_iou(a[None], b[:, None]).shape == (3, 3, 5, 4)
    assert box_iou(a[:, :0], b).shape == (3, 0, 4)
    with pytest.raises(ValueError, match="degenerate"):
        box_iou(a, np.zeros((3, 1, 4)))


def test_batch_kernels_keep_the_pair_checks():
    lanes = np.zeros((2, 4, 3))
    with pytest.raises(ValueError, match="at least 2"):
        sample_lane(np.zeros((2, 1, 3)), 5)
    bad = lanes.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        control_point_l1(bad, lanes)
    with pytest.raises(ValueError, match="counts differ"):
        control_point_l1(lanes, np.zeros((2, 3, 3)))
    boxes = np.array([(0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 2.0, 3.0)])
    with pytest.raises(ValueError, match="degenerate box \\[2.0, 2.0, 2.0, 3.0\\]"):
        box_iou(boxes, boxes[:1])
    with pytest.raises(ValueError, match="finite"):
        box_iou(np.array([(0.0, 0.0, np.inf, 1.0)]), boxes[:1])
    with pytest.raises(ValueError, match="not a mix"):
        frechet_distance(np.zeros((2, 5, 3)), np.zeros((5, 3)))
