"""Per-scene DET_l and DET_t: the scoring loop that ``lanetopo.metrics``
replaced with one batch per evaluation, kept as a test oracle.

Each scene is matched on its own (preds, GT) matrices by a row-by-row
greedy scan, then the flags pool across scenes. The batched functions must
return the same scores, breakdowns and matched pairs, exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from lanetopo.geometry import box_iou, frechet_distance, sample_lane
from lanetopo.metrics import DetMatchConfig, _align, average_precision


def greedy_rows(dist, threshold):
    """Greedy TP/FP flags and (rank, GT) pairs of one rank-ordered matrix:
    the nearest free GT within the threshold, the lowest index on a tie."""
    d = np.asarray(dist, dtype=float)
    free = np.ones(d.shape[1], dtype=bool)
    flags, pairs = [], []
    for p_idx, row in enumerate(d):
        candidates = np.flatnonzero(free & (row <= threshold))
        flags.append(candidates.size > 0)
        if candidates.size:
            g_idx = int(candidates[np.argmin(row[candidates])])
            free[g_idx] = False
            pairs.append((p_idx, g_idx))
    return flags, pairs


def pooled_ap(entries, num_gt):
    """Global AP over (confidence, scene_id, input index, flag) tuples."""
    ranked = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    return average_precision([e[3] for e in ranked], num_gt)


def scene_lane_distances(pred, gt, sample_points):
    order = sorted(range(len(pred.lanes)), key=lambda i: (-pred.lanes[i].class_score, i))
    if not order or not gt.lanes:
        return order, np.zeros((len(order), len(gt.lanes)))
    pred_polys = sample_lane(np.stack([pred.lanes[i].ctrl for i in order]), sample_points)
    gt_polys = sample_lane(np.stack([lane.ctrl for lane in gt.lanes]), sample_points)
    return order, frechet_distance(pred_polys, gt_polys)


def det_l(predictions, gts, cfg=None):
    cfg = cfg or DetMatchConfig()
    num_gt = sum(len(g.lanes) for g in gts)
    thresholds = cfg.lane_frechet_thresholds
    pools = [[] for _ in thresholds]
    loose_pairs = {}
    for gt, pred in _align(predictions, gts):
        order, dist = scene_lane_distances(pred, gt, cfg.sample_points)
        for pool, tau in zip(pools, thresholds):
            flags, pairs = greedy_rows(dist, tau)
            pool.extend((pred.lanes[i].class_score, gt.scene_id, i, f) for i, f in zip(order, flags))
        loose_pairs[gt.scene_id] = [(order[p], g) for p, g in pairs]
    breakdown = {tau: pooled_ap(pool, num_gt) for pool, tau in zip(pools, thresholds)}
    return float(np.mean(list(breakdown.values()))), breakdown, loose_pairs


def det_t(predictions, gts, cfg=None):
    cfg = cfg or DetMatchConfig()
    pool_by_cat = {}
    gt_count_by_cat = Counter(te.category for gt in gts for te in gt.traffic)
    pairs_by_scene = {}
    for gt, pred in _align(predictions, gts):
        iou = box_iou(*(np.reshape([te.box for te in rec.traffic], (-1, 4)) for rec in (pred, gt)))
        pairs = pairs_by_scene[gt.scene_id] = []
        for cat in sorted({te.category for te in pred.traffic} | {te.category for te in gt.traffic}):
            p_idx = [i for i, te in enumerate(pred.traffic) if te.category == cat]
            g_idx = [j for j, te in enumerate(gt.traffic) if te.category == cat]
            p_idx.sort(key=lambda i: (-pred.traffic[i].confidence, i))
            flags, cat_pairs = greedy_rows(-iou[np.ix_(p_idx, g_idx)], -cfg.traffic_iou_threshold)
            pool_by_cat.setdefault(cat, []).extend(
                (pred.traffic[i].confidence, gt.scene_id, i, f) for i, f in zip(p_idx, flags)
            )
            pairs.extend((p_idx[p], g_idx[g]) for p, g in cat_pairs)
    categories = sorted(set(pool_by_cat) | set(gt_count_by_cat))
    breakdown = {c: pooled_ap(pool_by_cat.get(c, []), gt_count_by_cat.get(c, 0)) for c in categories}
    score = float(np.mean(list(breakdown.values()))) if breakdown else 1.0
    return score, breakdown, pairs_by_scene
