from __future__ import annotations

import re

import numpy as np
import pytest

from lanetopo import detstrat
from lanetopo.dataio import SceneRecord, TrafficElement
from lanetopo.detstrat import TtaConfig, category_histogram, tta_merge


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


@pytest.mark.parametrize("category", [-1, 13])
def test_histogram_rejects_a_category_out_of_range(category):
    frames = [frame([0, 1]), frame([2, 3, category, 4], scene_id="g")]
    with pytest.raises(ValueError, match=rf"^scene 'g', traffic element 2: category {category} outside \[0, 12\]$"):
        category_histogram(frames)


@pytest.mark.parametrize("category", [2.7, True, "2"])
def test_histogram_rejects_a_category_that_is_no_integer(category):
    # an int cast would count 2.7 as category 2
    frames = [frame([0, 1]), frame([2, 3, category, 4], scene_id="g")]
    with pytest.raises(ValueError, match=rf"^scene 'g', traffic element 2: expected an integer, got {re.escape(repr(category))}$"):
        category_histogram(frames)


def test_histogram_counts_integral_floats_as_the_loader_reads_them():
    assert category_histogram([frame([2.0, 12, 2])]).counts.tolist() == [0, 0, 2] + [0] * 9 + [1]


def test_histogram_counts_every_category_across_frames():
    stats = category_histogram([frame([12, 0, 12]), frame([]), frame([5])])
    assert stats.counts.tolist() == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2] and stats.total == 4


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
    for scale in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale must be a finite positive number"):
            tta_merge([(scale, [element()])])
    with pytest.raises(ValueError, match="TtaConfig.merge_iou"):
        TtaConfig(merge_iou=0.0)
