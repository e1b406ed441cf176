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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import assoc, dataio
from .dataio import MetricReport
from .geometry import box_iou, frechet_distance, frechet_lower_bound, sample_lane
from .settings import Settings, setting

__all__ = [
    "DetMatchConfig",
    "average_precision",
    "det_l",
    "det_t",
    "ols",
    "vertex_aps",
    "evaluate",
    "evaluate_files",
]


@dataclass
class DetMatchConfig(Settings):
    lane_frechet_thresholds: tuple[float, ...] = setting((1.0, 2.0, 3.0), float, "(0, inf)", items=...)  # meters
    traffic_iou_threshold: float = setting(0.75, float, "(0, 1]")
    sample_points: int = setting(11, int, "[2, inf)")  # polyline resolution for lane distances


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


def _flat(counts: np.ndarray):
    """Owner position and input index of every item of the concatenated
    per-scene lists whose lengths are ``counts``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _rank_within(group: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Each item's position within its group when sorted by ``keys``, the
    most significant first."""
    order = np.lexsort((*keys[::-1], group))
    rank = np.empty(len(group), dtype=int)
    rank[order] = np.arange(len(group)) - np.searchsorted(group[order], group[order])
    return rank


def _pooled_ap(flags, conf, scene, idx, num_gt: int) -> float:
    """Global AP of flagged predictions, ranked by confidence descending,
    ties by scene position (scenes are in scene_id order), then input
    index."""
    return average_precision(flags[np.lexsort((idx, scene, -conf))].tolist(), num_gt)


def _padded_stack(flat: np.ndarray, group: np.ndarray, rank: np.ndarray, shape, pad=0.0) -> np.ndarray:
    """(*shape, ...) stack holding ``flat[k]`` at (group[k], rank[k]), ``pad`` elsewhere."""
    out = np.full((*shape, *flat.shape[1:]), pad)
    out[group, rank] = flat
    return out


def _by_scene(aligned, flat_match: np.ndarray, counts: np.ndarray) -> dict:
    """``{scene_id: match}`` from the concatenated per-scene matches of
    the aligned scenes, whose lengths are ``counts``."""
    return dict(zip((gt.scene_id for gt, _ in aligned), np.split(flat_match, np.cumsum(counts)[:-1])))


def det_l(predictions, gts, cfg: DetMatchConfig | None = None):
    """Lane detection score: mean AP over the Frechet thresholds.

    Every scene is scored in one batch: one ``sample_lane`` call per side
    (so all predicted lanes share one control-point count, as do all GT
    lanes), one ``frechet_distance`` call on the (pred, GT) pairs whose
    end points lie within the loosest threshold (the Frechet distance of
    any other pair exceeds every threshold, see ``frechet_lower_bound``),
    and one greedy pass over the +inf-padded (threshold, scene) stack.

    Returns (score, per-threshold breakdown, ``{scene_id: match}`` at the
    loosest threshold, each match the GT index of every predicted lane in
    input order, -1 for a false positive).
    """
    cfg = cfg or DetMatchConfig()
    aligned = _align(predictions, gts)
    thresholds = cfg.lane_frechet_thresholds
    n = np.array([len(pred.lanes) for _, pred in aligned], dtype=int)
    m = np.array([len(gt.lanes) for gt, _ in aligned], dtype=int)
    p_scene, p_idx = _flat(n)
    g_scene, g_idx = _flat(m)
    conf = np.array([lane.class_score for _, pred in aligned for lane in pred.lanes], dtype=float)
    rank = _rank_within(p_scene, -conf, p_idx)
    shape = (len(aligned), n.max(initial=0), m.max(initial=0))
    dist = np.full(shape, np.inf)
    if n.any() and m.any():
        pred_ctrl = np.stack([lane.ctrl for _, pred in aligned for lane in pred.lanes])
        gt_ctrl = np.stack([lane.ctrl for gt, _ in aligned for lane in gt.lanes])
        pred_polys = _padded_stack(sample_lane(pred_ctrl, cfg.sample_points), p_scene, rank, shape[:2])
        gt_polys = _padded_stack(sample_lane(gt_ctrl, cfg.sample_points), g_scene, g_idx, shape[::2])
        real = (np.arange(shape[1]) < n[:, None])[:, :, None] & (np.arange(shape[2]) < m[:, None])[:, None, :]
        near = real & (frechet_lower_bound(pred_polys, gt_polys) <= thresholds[-1])
        s, r, c = np.nonzero(near)
        dist[s, r, c] = frechet_distance(pred_polys[s, r, None], gt_polys[s, c, None])[:, 0, 0]
    stack = np.broadcast_to(dist, (len(thresholds), *shape))
    flags, match = assoc.greedy_metric_match(stack, np.array(thresholds)[:, None])
    num_gt = int(m.sum())
    breakdown = {
        tau: _pooled_ap(f[p_scene, rank], conf, p_scene, p_idx, num_gt) for tau, f in zip(thresholds, flags)
    }
    score = float(np.mean(list(breakdown.values())))
    return score, breakdown, _by_scene(aligned, match[-1][p_scene, rank], n)


def det_t(predictions, gts, cfg: DetMatchConfig | None = None):
    """Traffic detection score: mean AP over attributes at the IoU
    threshold, matching within the same attribute only. Attributes with
    zero GT and zero predictions are excluded from the mean.

    One ``box_iou`` call scores the padded (group, pred, GT) stack of every
    (scene, attribute) group, and one greedy pass matches each group on its
    -IoU matrix (IoU is a similarity: negating it and its threshold is
    exact), its padding at +inf.

    Returns (score, per-attribute breakdown, ``{scene_id: match}``, each
    match the GT index of every predicted element in input order, -1 for a
    false positive).
    """
    cfg = cfg or DetMatchConfig()
    aligned = _align(predictions, gts)
    n = np.array([len(pred.traffic) for _, pred in aligned], dtype=int)
    m = np.array([len(gt.traffic) for gt, _ in aligned], dtype=int)
    p_scene, p_idx = _flat(n)
    g_scene, g_idx = _flat(m)
    pred_te = [te for _, pred in aligned for te in pred.traffic]
    gt_te = [te for gt, _ in aligned for te in gt.traffic]
    p_cat = np.array([te.category for te in pred_te], dtype=int)
    g_cat = np.array([te.category for te in gt_te], dtype=int)
    conf = np.array([te.confidence for te in pred_te], dtype=float)
    # one group per (scene, attribute) present on either side, in that order
    cats = np.concatenate([p_cat, g_cat])
    lo = cats.min(initial=0)
    span = cats.max(initial=0) - lo + 1
    keys, group = np.unique(np.concatenate([p_scene, g_scene]) * span + (cats - lo), return_inverse=True)
    p_group, g_group = group[: len(pred_te)], group[len(pred_te) :]
    p_rank = _rank_within(p_group, -conf, p_idx)
    g_col = _rank_within(g_group, g_idx)
    p_count, g_count = (np.bincount(g, minlength=len(keys)) for g in (p_group, g_group))
    shape = (len(keys), p_count.max(initial=0), g_count.max(initial=0))
    unit = (0.0, 0.0, 1.0, 1.0)  # a valid box to pad with; the mask below drops its pairs
    p_boxes = _padded_stack(np.reshape([te.box for te in pred_te], (-1, 4)), p_group, p_rank, shape[:2], unit)
    g_boxes = _padded_stack(np.reshape([te.box for te in gt_te], (-1, 4)), g_group, g_col, shape[::2], unit)
    # a group's real pairs are one scene's same-attribute pairs
    real = (np.arange(shape[1]) < p_count[:, None])[:, :, None] & (np.arange(shape[2]) < g_count[:, None])[:, None, :]
    dist = np.where(real, -box_iou(p_boxes, g_boxes), np.inf)
    flags, match = assoc.greedy_metric_match(dist, -cfg.traffic_iou_threshold)
    p_flags = flags[p_group, p_rank]
    gt_count_by_cat = Counter(g_cat.tolist())
    breakdown = {}
    for cat in sorted(set(p_cat.tolist()) | set(gt_count_by_cat)):
        sel = p_cat == cat
        breakdown[cat] = _pooled_ap(p_flags[sel], conf[sel], p_scene[sel], p_idx[sel], gt_count_by_cat[cat])
    score = float(np.mean(list(breakdown.values()))) if breakdown else 1.0
    # each group column's GT index, and -1 in a last column for a miss to index
    gt_idx_at = np.full((shape[0], shape[2] + 1), -1)
    gt_idx_at[g_group, g_col] = g_idx
    return score, breakdown, _by_scene(aligned, gt_idx_at[p_group, match[p_group, p_rank]], n)


# ---------------------------------------------------------------------------
# topology score


def _lines(base: np.ndarray, own: np.ndarray, along, across, count, width: int) -> np.ndarray:
    """Flat indices of the ``width`` candidates of each vertex: entry j of
    line ``own`` of its scene's matrix, which starts at ``base`` in the flat
    buffer and whose entries lie ``along`` apart along a line and
    ``across`` apart between lines; -1 for j >= ``count`` or ``own`` < 0."""
    j = np.arange(width)
    real = (j < count[:, None]) & (own[:, None] >= 0)
    return np.where(real, (base + own * across)[:, None] + np.multiply.outer(along, j), -1)


def _ranked_aps(flat: np.ndarray, idx: np.ndarray, hit_rows, hit_cols, degree: np.ndarray) -> np.ndarray:
    """AP of every row of candidates ``flat[idx]`` ranked by probability
    descending against the hits at (``hit_rows``, ``hit_cols``), over
    ``degree`` GT edges each.

    ``flat`` ends in -inf, which index -1 picks: such entries are no
    candidates and sort last, so they move no tie of a stable sort. The
    precision sum adds in rank order from 0.0, as ``average_precision``
    does, so every AP is bit-identical to it.
    """
    hits = np.zeros(idx.shape, dtype=bool)
    hits[hit_rows, hit_cols] = True
    hits &= idx >= 0
    hits = np.take_along_axis(hits, np.argsort(-flat[idx], axis=1, kind="stable"), axis=1)
    gain = np.zeros((len(idx), idx.shape[1] + 1))  # column 0 is the 0.0 the sum starts from
    np.divide(np.cumsum(hits, axis=1), np.arange(1, idx.shape[1] + 1), out=gain[:, 1:], where=hits)
    return np.add.accumulate(gain, axis=1)[:, -1] / degree


def vertex_aps(predictions, gts, lane_match: dict, traffic_match: dict):
    """Per-GT-vertex topology APs of every scene, ranked in one batch per
    edge space.

    ``lane_match`` / ``traffic_match`` map each scene_id to the GT index of
    every predicted lane / traffic element (-1 for none), as ``det_l`` /
    ``det_t`` return them. Every GT vertex with incident edges is scored on
    its matched prediction's probabilities against the GT edges projected
    through the matchings: a lane-lane vertex ranks its outgoing row,
    diagonal dropped, then its incoming column, so ties go outgoing first,
    then to the lowest prediction index; a lane-traffic lane vertex ranks
    its row and a traffic vertex its column. A vertex whose entity went
    undetected scores 0. Probabilities must be finite.

    Vertices are in scene_id order; within a scene, lane-lane lists the
    lane vertices, lane-traffic the lane vertices and then the traffic
    vertices. Returns ((lane-lane APs, detected flags), (lane-traffic APs,
    detected flags)).
    """
    aligned = _align(predictions, gts)
    if not aligned:
        raise ValueError("no scenes to score")
    n, t, m, k = (
        np.array(sizes, dtype=int)
        for sizes in zip(*((len(p.lanes), len(p.traffic), len(g.lanes), len(g.traffic)) for g, p in aligned))
    )
    # one entity index per GT element: each scene a block of its lanes, then its traffic
    start = np.cumsum(m + k) - (m + k)
    entity_scene = np.repeat(np.arange(len(aligned)), m + k)
    owner = np.full(len(entity_scene), -1)  # the matched prediction's index within its scene
    for kind, matches, count, size, first in (
        ("lane", lane_match, n, m, start),
        ("traffic", traffic_match, t, k, start + m),
    ):
        scene, idx = _flat(count)
        gt_idx = np.concatenate([matches[gt.scene_id] for gt, _ in aligned]).astype(int)
        if len(gt_idx) != len(scene) or np.any((gt_idx < -1) | (gt_idx >= size[scene])):
            raise IndexError(f"{kind} match is not one GT index in [-1, GT count) per prediction of every scene")
        took = gt_idx >= 0
        owner[first[scene[took]] + gt_idx[took]] = idx[took]
    # every GT edge as a pair of entity indices
    positions = [dataio.edge_positions(gt) for gt, _ in aligned]
    ll_edges = np.concatenate([ll + first for (ll, _), first in zip(positions, start)])
    lt_edges = np.concatenate([lt + (first, first + lanes) for (_, lt), first, lanes in zip(positions, start, m)])

    def space(edges, probs, candidates):
        """APs and detected flags of one edge space's vertices. ``candidates``
        gives their candidate indices into the flat probabilities, and the
        column offset of an edge's hit in its head vertex's row."""
        src, dst = edges.T
        degree = np.bincount(np.concatenate([src, dst]), minlength=len(owner))
        vertex = np.flatnonzero(degree)
        row = np.zeros(len(owner), dtype=int)
        row[vertex] = np.arange(len(vertex))
        sizes = np.array([np.size(p) for p in probs], dtype=int)
        flat = np.concatenate([*(np.ravel(p) for p in probs), [-np.inf]])
        own = owner[vertex]
        idx, offset = candidates(vertex, own, (np.cumsum(sizes) - sizes)[entity_scene[vertex]])
        src, dst = (ends[(owner[src] >= 0) & (owner[dst] >= 0)] for ends in (src, dst))
        hit_rows, hit_cols = np.concatenate([row[src], row[dst]]), np.concatenate([owner[dst], offset + owner[src]])
        return _ranked_aps(flat, idx, hit_rows, hit_cols, degree[vertex]), own >= 0

    def lane_lane(vertex, own, base):
        # the outgoing row, then the incoming column, each without the diagonal
        count = n[entity_scene[vertex]]
        width = count.max(initial=0)
        idx = np.hstack([_lines(base, own, 1, count, count, width), _lines(base, own, count, 1, count, width)])
        took = np.flatnonzero(own >= 0)
        idx[took, own[took]] = idx[took, width + own[took]] = -1
        return idx, width

    def lane_traffic(vertex, own, base):
        # a lane vertex's row, a traffic vertex's column
        scene = entity_scene[vertex]
        lane = vertex - start[scene] < m[scene]
        count = np.where(lane, t[scene], n[scene])
        idx = _lines(base, own, np.where(lane, 1, t[scene]), np.where(lane, t[scene], 1), count, count.max(initial=0))
        return idx, 0

    ll = space(ll_edges, [pred.topo_ll_prob for _, pred in aligned], lane_lane)
    lt = space(lt_edges, [pred.topo_lt_prob for _, pred in aligned], lane_traffic)
    return ll, lt


# ---------------------------------------------------------------------------
# full evaluation


def evaluate(predictions, gts, cfg: DetMatchConfig | None = None) -> MetricReport:
    """All five scores plus breakdowns; vertex APs pool across scenes.

    An evaluation over zero scenes has nothing to score and raises
    ``ValueError`` rather than reporting vacuous perfect scores, as does a
    record without probability matrices of its shape, in [0, 1].
    """
    if not gts:
        raise ValueError("no scenes to evaluate")
    for p in predictions:
        if not isinstance(p, dataio.PredictionRecord):
            raise ValueError(f"scene {p.scene_id!r}: record carries no topology probabilities")
        dataio._check_probabilities(p)
    cfg = cfg or DetMatchConfig()
    detl, lane_breakdown, lane_match = det_l(predictions, gts, cfg)
    dett, traffic_breakdown, traffic_match = det_t(predictions, gts, cfg)
    (ll_aps, _), (lt_aps, _) = vertex_aps(predictions, gts, lane_match, traffic_match)
    top_ll = float(np.mean(ll_aps)) if ll_aps.size else 1.0
    top_lt = float(np.mean(lt_aps)) if lt_aps.size else 1.0
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
    if not gts:
        raise ValueError(f"{scenes_path}: no scenes to evaluate")
    return evaluate(predictions, gts, cfg)
