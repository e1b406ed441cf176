from __future__ import annotations

import numpy as np
import pytest

from lanetopo import detstrat
from lanetopo.dataio import SceneRecord, TrafficElement
from lanetopo.detstrat import (
    ResampleConfig,
    TtaConfig,
    category_histogram,
    resample_plan,
    tta_merge,
)


def frame(categories, scene_id="f"):
    traffic = [
        TrafficElement(id=k, box=np.array([10.0 * k, 0.0, 10.0 * k + 5.0, 5.0]), category=c)
        for k, c in enumerate(categories)
    ]
    return SceneRecord(scene_id, [], traffic, set(), set())


def element(x=0.0, cat=0, conf=1.0, te_id=0, size=10.0):
    return TrafficElement(
        id=te_id, box=np.array([x, 0.0, x + size, size]), category=cat, confidence=conf
    )


def test_histogram_empty():
    stats = category_histogram([])
    assert stats.total == 0
    assert np.all(stats.counts == 0)
    assert np.all(stats.frequencies == 0)


def test_histogram_single_red_light():
    stats = category_histogram([frame([1])])
    assert stats.counts[1] == 1 and stats.total == 1
    assert stats.frequencies[1] == 1.0


def test_histogram_skewed_mix():
    cats = [0] * 50 + [1] * 20 + [2] * 20 + [3] * 10
    stats = category_histogram([frame(cats)])
    assert stats.frequencies[:4] == pytest.approx([0.5, 0.2, 0.2, 0.1])
    assert stats.frequencies.sum() == pytest.approx(1.0, abs=1e-12)


def test_resample_plan_no_rare_categories():
    frames = [frame([0, 1]), frame([1, 0])]
    stats = category_histogram(frames)
    assert resample_plan(frames, stats) == [0, 1]


def test_resample_plan_clamps_to_max():
    # one frame holds the rare category at frequency 1/200 = 0.005
    frames = [frame([0] * 10) for _ in range(19)] + [frame([0] * 9 + [3])]
    stats = category_histogram(frames)
    assert stats.frequencies[3] == pytest.approx(0.005)
    plan = resample_plan(frames, stats)
    assert plan.count(19) == 20  # round(0.10 / 0.005) = 20, at the cap
    assert all(plan.count(i) == 1 for i in range(19))


def test_resample_plan_clamps_to_min():
    # rare category at frequency 1/20 = 0.05: round(2) lifts to min_factor 5
    frames = [frame([0] * 10), frame([0] * 9 + [3])]
    stats = category_histogram(frames)
    assert stats.frequencies[3] == pytest.approx(0.05)
    plan = resample_plan(frames, stats)
    assert plan.count(1) == 5
    assert plan.count(0) == 1


def test_resample_plan_takes_max_over_rare_categories():
    # categories 3 (freq 0.02 -> factor 5) and 4 (freq 0.01 -> factor 10)
    fillers = [frame([0]) for _ in range(97)]
    special = frame([3, 3, 4])
    frames = fillers + [special]
    stats = category_histogram(frames)
    assert stats.frequencies[3] == pytest.approx(0.02)
    assert stats.frequencies[4] == pytest.approx(0.01)
    plan = resample_plan(frames, stats)
    assert plan.count(len(frames) - 1) == 10  # the larger factor wins


def test_resample_plan_bounds_and_coverage():
    rng = np.random.default_rng(7)
    frames = [frame(list(rng.integers(0, 13, size=rng.integers(1, 6)))) for _ in range(30)]
    stats = category_histogram(frames)
    plan = resample_plan(frames, stats)
    assert len(plan) >= len(frames)
    counts = {i: plan.count(i) for i in range(len(frames))}
    assert all(c >= 1 for c in counts.values())
    assert all(c == 1 or 5 <= c <= 20 for c in counts.values())


def test_resample_plan_reorder_equivariance():
    rng = np.random.default_rng(9)
    frames = [frame(list(rng.integers(0, 13, size=4)), scene_id=f"f{i}") for i in range(12)]
    stats = category_histogram(frames)
    base = resample_plan(frames, stats)
    perm = list(rng.permutation(len(frames)))
    permuted = resample_plan([frames[i] for i in perm], category_histogram([frames[i] for i in perm]))
    base_counts = {frames[i].scene_id: base.count(i) for i in range(len(frames))}
    perm_counts = {frames[perm[i]].scene_id: permuted.count(i) for i in range(len(frames))}
    assert base_counts == perm_counts


def test_tta_single_scale_passthrough():
    boxes = [element(0.0, 1, 0.9, 0), element(100.0, 1, 0.8, 1)]
    merged = tta_merge([(1.0, boxes)])
    assert len(merged) == 2
    assert {te.id for te in merged} == {0, 1}
    assert np.array_equal(merged[0].box, boxes[0].box)


def test_tta_merges_same_box_across_scales():
    base = element(10.0, 2, 0.9, 0, size=40.0)
    doubled = TrafficElement(id=1, box=base.box * 2.0, category=2, confidence=0.7)
    merged = tta_merge([(1.0, [base]), (2.0, [doubled])])
    assert len(merged) == 1
    assert merged[0].confidence == 0.9
    assert merged[0].box == pytest.approx(base.box)


def test_tta_keeps_low_overlap_pairs():
    a = element(0.0, 3, 0.9, 0, size=10.0)
    b = element(6.5, 3, 0.8, 1, size=10.0)  # IoU ~ 0.21 < 0.6
    merged = tta_merge([(1.0, [a, b])])
    assert len(merged) == 2


def test_tta_different_categories_never_merge():
    a = element(0.0, 3, 0.9, 0)
    b = element(0.0, 4, 0.8, 1)
    merged = tta_merge([(1.0, [a, b])])
    assert len(merged) == 2


def test_tta_idempotent_and_no_high_iou_survivors():
    rng = np.random.default_rng(11)
    boxes = []
    for i in range(40):
        boxes.append(
            TrafficElement(
                id=i,
                box=np.array([0.0, 0.0, 30.0, 30.0]) + rng.uniform(0, 60, size=4).repeat(1),
                category=int(rng.integers(0, 3)),
                confidence=float(rng.uniform(0.1, 1.0)),
            )
        )
        b = boxes[-1].box
        boxes[-1].box = np.array([min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]) + 5, max(b[1], b[3]) + 5])
    cfg = TtaConfig(merge_iou=0.6)
    merged = tta_merge([(1.0, boxes[:20]), (1.4, [TrafficElement(t.id, t.box * 1.4, t.category, t.confidence) for t in boxes[20:]])], cfg)
    again = tta_merge([(1.0, merged)], cfg)
    assert len(again) == len(merged)
    for x, y in zip(merged, again):
        assert x == y
    from lanetopo.geometry import box_iou

    for i, a in enumerate(merged):
        for b in merged[i + 1 :]:
            if a.category == b.category:
                assert box_iou(a.box, b.box) < cfg.merge_iou


def test_tta_rejects_bad_scale_and_config():
    with pytest.raises(ValueError):
        tta_merge([(0.0, [element()])])
    with pytest.raises(ValueError):
        ResampleConfig(min_factor=10, max_factor=5)
