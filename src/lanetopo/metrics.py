"""Evaluation suite: lane detection mAP over Frechet thresholds, traffic
detection mAP over attributes, topology AP over matched graph vertices,
and the aggregate scene score.

Scene predictions enter as :class:`~lanetopo.dataio.PredictionRecord`
(lane list with confidences, traffic list with confidences, and the two
probability matrices). Confidence ranking pools globally across scenes,
ties broken by (scene_id, input index). Undetected GT vertices score 0
in the topology metrics, so detection errors propagate.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import assoc, dataio
from .dataio import MetricReport, SceneRecord
from .geometry import box_iou, frechet_distance, sample_lane

__all__ = [
    "DetMatchConfig",
    "average_precision",
    "det_l",
    "det_t",
    "top_score",
    "ols",
    "evaluate",
    "evaluate_files",
]


@dataclass
class DetMatchConfig:
    lane_frechet_thresholds: tuple[float, ...] = (1.0, 2.0, 3.0)  # meters
    traffic_iou_threshold: float = 0.75
    sample_points: int = 11  # polyline resolution for lane distances

    def __post_init__(self):
        ts = tuple(self.lane_frechet_thresholds)
        if not ts or not all(math.isfinite(t) and t > 0 for t in ts) or list(ts) != sorted(ts):
            raise ValueError(f"DetMatchConfig.lane_frechet_thresholds must be finite, positive and sorted, got {ts}")
        self.lane_frechet_thresholds = ts
        if not (0.0 < self.traffic_iou_threshold <= 1.0):
            raise ValueError("DetMatchConfig.traffic_iou_threshold must be in (0, 1]")
        sp = self.sample_points
        if isinstance(sp, bool) or not isinstance(sp, numbers.Integral) or sp < 2:
            raise ValueError(f"DetMatchConfig.sample_points must be an integer >= 2, got {sp!r}")


def average_precision(flags, num_gt: int) -> float:
    """Precision-sum AP: mean over GT of the precision at each TP rank.

    ``flags`` must already be confidence-ranked. With no GT the score is
    vacuously 1.0 when there are no predictions and 0.0 otherwise.
    """
    if num_gt < 0:
        raise ValueError("num_gt must be >= 0")
    flags = list(flags)
    if num_gt == 0:
        return 1.0 if not flags else 0.0
    tp = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            total += tp / rank
    return total / num_gt


def ols(det_l: float, det_t: float, top_ll: float, top_lt: float) -> float:
    """Aggregate scene score: mean of the detection scores and the square
    roots of the topology scores, all fractions in [0, 1]."""
    for name, v in (("det_l", det_l), ("det_t", det_t), ("top_ll", top_ll), ("top_lt", top_lt)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name}={v} outside [0, 1]")
    return 0.25 * (det_l + det_t + math.sqrt(top_ll) + math.sqrt(top_lt))


# ---------------------------------------------------------------------------
# alignment and per-scene matching


def _align(predictions, gts):
    pred_ids = [p.scene_id for p in predictions]
    gt_ids = [g.scene_id for g in gts]
    missing = sorted(set(gt_ids) - set(pred_ids))
    extra = sorted(set(pred_ids) - set(gt_ids))
    if missing or extra:
        raise ValueError(f"scene mismatch: missing predictions for {missing}, unexpected {extra}")
    for side, ids in (("predictions", pred_ids), ("ground truth", gt_ids)):
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate scene_ids in {side}: {sorted(i for i, c in Counter(ids).items() if c > 1)}")
    by_id = {p.scene_id: p for p in predictions}
    return [(g, by_id[g.scene_id]) for g in sorted(gts, key=lambda g: g.scene_id)]


def _scene_lane_distances(pred, gt, sample_points: int):
    """Ranked pred indices and the (ranked preds, GT) Frechet matrix of one
    scene; every threshold reuses the matrix."""
    order = sorted(range(len(pred.lanes)), key=lambda i: (-pred.lanes[i].class_score, i))
    if not order or not gt.lanes:
        return order, np.zeros((len(order), len(gt.lanes)))
    pred_polys = sample_lane(np.stack([pred.lanes[i].ctrl for i in order]), sample_points)
    gt_polys = sample_lane(np.stack([lane.ctrl for lane in gt.lanes]), sample_points)
    return order, frechet_distance(pred_polys, gt_polys)


def _match_scene_traffic(pred, gt, iou_threshold: float):
    """Per-attribute greedy traffic match on the scene's IoU matrix; returns
    rank entries and pairs.

    Rank entries are (category, confidence, input index, flag).
    """
    boxes = [np.reshape([te.box for te in rec.traffic], (-1, 4)) for rec in (pred, gt)]
    iou = box_iou(*boxes)
    entries = []
    pairs = []
    categories = sorted(
        {te.category for te in pred.traffic} | {te.category for te in gt.traffic}
    )
    for cat in categories:
        p_idx = [i for i, te in enumerate(pred.traffic) if te.category == cat]
        g_idx = [j for j, te in enumerate(gt.traffic) if te.category == cat]
        p_idx.sort(key=lambda i: (-pred.traffic[i].confidence, i))
        # IoU is a similarity: negate it and its threshold (exact)
        flags, cat_pairs = assoc.greedy_metric_match(-iou[np.ix_(p_idx, g_idx)], -iou_threshold)
        entries.extend(
            (cat, pred.traffic[i].confidence, i, flag) for i, flag in zip(p_idx, flags)
        )
        pairs.extend((p_idx[p], g_idx[g]) for p, g in cat_pairs)
    return entries, pairs


def _pooled_ap(per_scene, num_gt: int) -> float:
    """Global AP over (confidence, scene_id, input index, flag) tuples."""
    ranked = sorted(per_scene, key=lambda e: (-e[0], e[1], e[2]))
    return average_precision([e[3] for e in ranked], num_gt)


def det_l(predictions, gts, cfg: DetMatchConfig | None = None):
    """Lane detection score: mean AP over the Frechet thresholds.

    Returns (score, per-threshold breakdown, per-scene matched pairs at
    the loosest threshold).
    """
    cfg = cfg or DetMatchConfig()
    aligned = _align(predictions, gts)
    num_gt = sum(len(g.lanes) for g in gts)
    thresholds = cfg.lane_frechet_thresholds
    pools = [[] for _ in thresholds]
    loose_pairs = {}
    for gt, pred in aligned:
        order, dist = _scene_lane_distances(pred, gt, cfg.sample_points)
        for pool, tau in zip(pools, thresholds):
            flags, pairs = assoc.greedy_metric_match(dist, tau)
            pool.extend(
                (pred.lanes[i].class_score, gt.scene_id, i, flag)
                for i, flag in zip(order, flags)
            )
        # the loop leaves the loosest threshold's pairs
        loose_pairs[gt.scene_id] = [(order[p], g) for p, g in pairs]
    breakdown = {tau: _pooled_ap(pool, num_gt) for pool, tau in zip(pools, thresholds)}
    score = float(np.mean(list(breakdown.values())))
    return score, breakdown, loose_pairs


def det_t(predictions, gts, cfg: DetMatchConfig | None = None):
    """Traffic detection score: mean AP over attributes at the IoU
    threshold, matching within the same attribute only. Attributes with
    zero GT and zero predictions are excluded from the mean.

    Returns (score, per-attribute breakdown, per-scene matched pairs).
    """
    cfg = cfg or DetMatchConfig()
    aligned = _align(predictions, gts)
    pool_by_cat: dict[int, list] = {}
    gt_count_by_cat = Counter(te.category for gt in gts for te in gt.traffic)
    pairs_by_scene = {}
    for gt, pred in aligned:
        entries, pairs = _match_scene_traffic(pred, gt, cfg.traffic_iou_threshold)
        pairs_by_scene[gt.scene_id] = pairs
        for cat, conf, idx, flag in entries:
            pool_by_cat.setdefault(cat, []).append((conf, gt.scene_id, idx, flag))
    categories = sorted(set(pool_by_cat) | set(gt_count_by_cat))
    breakdown = {
        cat: _pooled_ap(pool_by_cat.get(cat, []), gt_count_by_cat.get(cat, 0))
        for cat in categories
    }
    score = float(np.mean(list(breakdown.values()))) if breakdown else 1.0
    return score, breakdown, pairs_by_scene


# ---------------------------------------------------------------------------
# topology score


def _vertex_aps_ll(prediction, gt: SceneRecord, lane_pairs):
    """Per-GT-lane AP over candidate edges incident to its matched
    prediction (both directions), ranked by predicted probability."""
    probs = prediction.topo_ll_prob
    n = len(prediction.lanes)
    gt_pos = {lane.id: pos for pos, lane in enumerate(gt.lanes)}
    matched = {g: p for p, g in lane_pairs}  # gt position -> pred index
    pred_to_gt_id = {p: gt.lanes[g].id for p, g in lane_pairs}
    aps = []
    for pos, lane in enumerate(gt.lanes):
        incident = [(a, b) for (a, b) in gt.topo_ll if a == lane.id or b == lane.id]
        if not incident:
            continue
        if pos not in matched:
            aps.append(0.0)
            continue
        i = matched[pos]
        candidates = []  # (prob, direction, other) with deterministic tie order
        for j in range(n):
            if j == i:
                continue
            candidates.append((float(probs[i, j]), 0, j))
            candidates.append((float(probs[j, i]), 1, j))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        flags = []
        for _, direction, j in candidates:
            other_id = pred_to_gt_id.get(j)
            if other_id is None:
                flags.append(False)
            elif direction == 0:
                flags.append((lane.id, other_id) in gt.topo_ll)
            else:
                flags.append((other_id, lane.id) in gt.topo_ll)
        aps.append(average_precision(flags, len(incident)))
    return aps


def _vertex_aps_lt(prediction, gt: SceneRecord, lane_pairs, traffic_pairs):
    """Per-GT-vertex AP in the lane-traffic bipartite space, covering both
    lane-side and traffic-side vertices."""
    probs = prediction.topo_lt_prob
    n, t = len(prediction.lanes), len(prediction.traffic)
    lane_matched = {g: p for p, g in lane_pairs}
    traffic_matched = {g: p for p, g in traffic_pairs}
    pred_lane_gt_id = {p: gt.lanes[g].id for p, g in lane_pairs}
    pred_traffic_gt_id = {p: gt.traffic[g].id for p, g in traffic_pairs}
    aps = []
    for pos, lane in enumerate(gt.lanes):
        incident = sum(1 for (a, _) in gt.topo_lt if a == lane.id)
        if not incident:
            continue
        if pos not in lane_matched:
            aps.append(0.0)
            continue
        i = lane_matched[pos]
        candidates = sorted(
            ((float(probs[i, k]), k) for k in range(t)), key=lambda c: (-c[0], c[1])
        )
        flags = [
            (lane.id, pred_traffic_gt_id[k]) in gt.topo_lt if k in pred_traffic_gt_id else False
            for _, k in candidates
        ]
        aps.append(average_precision(flags, incident))
    for pos, te in enumerate(gt.traffic):
        incident = sum(1 for (_, b) in gt.topo_lt if b == te.id)
        if not incident:
            continue
        if pos not in traffic_matched:
            aps.append(0.0)
            continue
        k = traffic_matched[pos]
        candidates = sorted(
            ((float(probs[i, k]), i) for i in range(n)), key=lambda c: (-c[0], c[1])
        )
        flags = [
            (pred_lane_gt_id[i], te.id) in gt.topo_lt if i in pred_lane_gt_id else False
            for _, i in candidates
        ]
        aps.append(average_precision(flags, incident))
    return aps


def top_score(prediction, gt: SceneRecord, lane_pairs, traffic_pairs=(), edge_space: str = "ll") -> float:
    """Topology score of one scene: mean per-vertex edge AP.

    ``lane_pairs``/``traffic_pairs`` come from the detection-level greedy
    match at the loosest threshold. GT vertices whose entity went
    undetected contribute 0. A scene with no topology vertices scores
    vacuously 1.0.
    """
    if edge_space == "ll":
        aps = _vertex_aps_ll(prediction, gt, lane_pairs)
    elif edge_space == "lt":
        aps = _vertex_aps_lt(prediction, gt, lane_pairs, traffic_pairs)
    else:
        raise ValueError(f"unknown edge space {edge_space!r}")
    return float(np.mean(aps)) if aps else 1.0


# ---------------------------------------------------------------------------
# full evaluation


def evaluate(predictions, gts, cfg: DetMatchConfig | None = None) -> MetricReport:
    """All five scores plus breakdowns; vertex APs pool across scenes."""
    cfg = cfg or DetMatchConfig()
    detl, lane_breakdown, lane_pairs = det_l(predictions, gts, cfg)
    dett, traffic_breakdown, traffic_pairs = det_t(predictions, gts, cfg)
    aligned = _align(predictions, gts)
    ll_aps: list[float] = []
    lt_aps: list[float] = []
    for gt, pred in aligned:
        ll_aps.extend(_vertex_aps_ll(pred, gt, lane_pairs[gt.scene_id]))
        lt_aps.extend(_vertex_aps_lt(pred, gt, lane_pairs[gt.scene_id], traffic_pairs[gt.scene_id]))
    top_ll = float(np.mean(ll_aps)) if ll_aps else 1.0
    top_lt = float(np.mean(lt_aps)) if lt_aps else 1.0
    return MetricReport(
        det_l=detl,
        det_t=dett,
        top_ll=top_ll,
        top_lt=top_lt,
        ols=ols(detl, dett, top_ll, top_lt),
        lane_ap_by_threshold=lane_breakdown,
        traffic_ap_by_category=traffic_breakdown,
        scene_count=len(gts),
    )


def evaluate_files(predictions_path, scenes_path, cfg: DetMatchConfig | None = None) -> MetricReport:
    predictions = dataio.load_detections(predictions_path)
    gts = dataio.load_scenes(scenes_path)
    for p in predictions:
        if not isinstance(p, dataio.PredictionRecord):
            raise ValueError(f"scene {p.scene_id!r}: record carries no topology probabilities")
    return evaluate(predictions, gts, cfg)
