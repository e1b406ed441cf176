"""Scoring loops that ``lanetopo.metrics`` replaced, kept as test oracles.

Per-scene DET_l and DET_t: each scene is matched on its own (preds, GT)
matrices by a row-by-row greedy scan, then the flags pool across scenes.
The batched functions must return the same scores, breakdowns and matched
pairs, exactly.

Per-vertex TOP: each GT vertex ranks candidate edges built as Python
tuples, looking each one up in the GT edge sets by id. The whole-matrix
routine must return the same vertex APs, exactly.
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


def vertex_aps_ll(prediction, gt, lane_pairs):
    """Per-GT-lane AP over candidate edges incident to its matched
    prediction (both directions), ranked by predicted probability."""
    probs = prediction.topo_ll_prob
    n = len(prediction.lanes)
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


def vertex_aps_lt(prediction, gt, lane_pairs, traffic_pairs):
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
