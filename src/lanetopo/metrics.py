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
from .dataio import MetricReport, SceneRecord
from .geometry import box_iou, frechet_distance, frechet_lower_bound, sample_lane
from .settings import Settings, setting

__all__ = [
    "DetMatchConfig",
    "average_precision",
    "det_l",
    "det_t",
    "ols",
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


def _padded_stack(flat: np.ndarray, group: np.ndarray, rank: np.ndarray, shape) -> np.ndarray:
    """Zero-padded (*shape, ...) stack holding ``flat[k]`` at (group[k], rank[k])."""
    out = np.zeros((*shape, *flat.shape[1:]))
    out[group, rank] = flat
    return out


def _matched_pairs(match, group, rank, p_scene, p_idx, gt_idx_at, scene_ids):
    """Per-scene (pred index, GT index) pairs of a greedy ``match`` stack,
    in group order then rank order; prediction k sits at (group[k],
    rank[k]) and ``gt_idx_at[g, col]`` is the GT index of column ``col``."""
    pred_at = np.zeros(match.shape, dtype=int)
    pred_at[group, rank] = np.arange(len(group))
    g, r = np.nonzero(match >= 0)
    k = pred_at[g, r]
    pairs = {sid: [] for sid in scene_ids}
    for s, p, q in zip(p_scene[k].tolist(), p_idx[k].tolist(), gt_idx_at[g, match[g, r]].tolist()):
        pairs[scene_ids[s]].append((p, q))
    return pairs


def det_l(predictions, gts, cfg: DetMatchConfig | None = None):
    """Lane detection score: mean AP over the Frechet thresholds.

    Every scene is scored in one batch: one ``sample_lane`` call per side
    (so all predicted lanes share one control-point count, as do all GT
    lanes), one ``frechet_distance`` call on the (pred, GT) pairs whose
    end points lie within the loosest threshold (the Frechet distance of
    any other pair exceeds every threshold, see ``frechet_lower_bound``),
    and one greedy pass over the +inf-padded (threshold, scene) stack.

    Returns (score, per-threshold breakdown, per-scene matched pairs at
    the loosest threshold).
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
    scene_ids = [gt.scene_id for gt, _ in aligned]
    gt_idx_at = np.broadcast_to(np.arange(shape[2]), shape[::2])
    loose_pairs = _matched_pairs(match[-1], p_scene, rank, p_scene, p_idx, gt_idx_at, scene_ids)
    return score, breakdown, loose_pairs


def det_t(predictions, gts, cfg: DetMatchConfig | None = None):
    """Traffic detection score: mean AP over attributes at the IoU
    threshold, matching within the same attribute only. Attributes with
    zero GT and zero predictions are excluded from the mean.

    One greedy pass matches every (scene, attribute) group on its -IoU
    matrix (IoU is a similarity: negating it and its threshold is exact),
    stacked with +inf padding.

    Returns (score, per-attribute breakdown, per-scene matched pairs).
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
    shape = (len(keys), np.bincount(p_group, minlength=1).max(), np.bincount(g_group, minlength=1).max())
    dist = np.full(shape, np.inf)
    p_boxes = np.reshape([te.box for te in pred_te], (-1, 4))
    g_boxes = np.reshape([te.box for te in gt_te], (-1, 4))
    per_scene = (np.split(np.arange(len(te)), np.cumsum(k)[:-1]) for te, k in ((pred_te, n), (gt_te, m)))
    for pi, gi in zip(*per_scene):
        i, j = np.nonzero(p_cat[pi, None] == g_cat[None, gi])  # one scene's same-attribute pairs
        dist[p_group[pi[i]], p_rank[pi[i]], g_col[gi[j]]] = -box_iou(p_boxes[pi], g_boxes[gi])[i, j]
    flags, match = assoc.greedy_metric_match(dist, -cfg.traffic_iou_threshold)
    p_flags = flags[p_group, p_rank]
    gt_count_by_cat = Counter(g_cat.tolist())
    breakdown = {}
    for cat in sorted(set(p_cat.tolist()) | set(gt_count_by_cat)):
        sel = p_cat == cat
        breakdown[cat] = _pooled_ap(p_flags[sel], conf[sel], p_scene[sel], p_idx[sel], gt_count_by_cat[cat])
    score = float(np.mean(list(breakdown.values()))) if breakdown else 1.0
    gt_idx_at = np.zeros(shape[::2], dtype=int)
    gt_idx_at[g_group, g_col] = g_idx
    scene_ids = [gt.scene_id for gt, _ in aligned]
    pairs_by_scene = _matched_pairs(match, p_group, p_rank, p_scene, p_idx, gt_idx_at, scene_ids)
    return score, breakdown, pairs_by_scene


# ---------------------------------------------------------------------------
# topology score


def _ranked_ap(prob: np.ndarray, hits: np.ndarray, num_gt: int) -> float:
    """AP of ``hits`` ranked by probability descending; a stable sort keeps
    ties in input order."""
    return average_precision(hits[np.argsort(-prob, kind="stable")].tolist(), num_gt)


def _vertex_aps(prediction, gt: SceneRecord, lane_pairs: dict[int, int], traffic_pairs: dict[int, int]):
    """Per-GT-vertex topology APs of one scene: (lane-lane, lane-traffic).

    ``lane_pairs``/``traffic_pairs`` map prediction to GT index, from the
    detection-level greedy match at the loosest threshold. Every GT vertex
    with incident edges is scored on its matched prediction's probability
    row (a traffic vertex: its column of the lane-traffic matrix) against
    the same slice of the GT edges projected through the matchings; a lane
    vertex ranks its outgoing row, diagonal dropped, before its incoming
    column, so ties go outgoing first, then to the lowest prediction
    index. A vertex whose entity went undetected scores 0. Lane-traffic
    lists the lane vertices, then the traffic vertices.
    """
    n, t = len(prediction.lanes), len(prediction.traffic)
    ll_hits, lt_hits = assoc.project_edges(lane_pairs, traffic_pairs, gt, n, t)
    ll_prob, lt_prob = prediction.topo_ll_prob, prediction.topo_lt_prob

    def lane_lane(i):
        others = np.delete(np.arange(n), i)
        return (
            np.concatenate([ll_prob[i, others], ll_prob[others, i]]),
            np.concatenate([ll_hits[i, others], ll_hits[others, i]]),
        )

    def aps(entities, pairs, degree, candidates):
        detected = {g: p for p, g in pairs.items()}
        return [
            _ranked_ap(*candidates(detected[pos]), degree[e.id]) if pos in detected else 0.0
            for pos, e in enumerate(entities)
            if degree[e.id]
        ]

    ll_degree = Counter(v for edge in gt.topo_ll for v in edge)
    lane_degree, traffic_degree = Counter(a for a, _ in gt.topo_lt), Counter(k for _, k in gt.topo_lt)
    ll_aps = aps(gt.lanes, lane_pairs, ll_degree, lane_lane)
    lt_aps = aps(gt.lanes, lane_pairs, lane_degree, lambda i: (lt_prob[i], lt_hits[i]))
    lt_aps += aps(gt.traffic, traffic_pairs, traffic_degree, lambda k: (lt_prob[:, k], lt_hits[:, k]))
    return ll_aps, lt_aps


# ---------------------------------------------------------------------------
# full evaluation


def evaluate(predictions, gts, cfg: DetMatchConfig | None = None) -> MetricReport:
    """All five scores plus breakdowns; vertex APs pool across scenes.

    An evaluation over zero scenes has nothing to score and raises
    ``ValueError`` rather than reporting vacuous perfect scores.
    """
    if not gts:
        raise ValueError("no scenes to evaluate")
    cfg = cfg or DetMatchConfig()
    detl, lane_breakdown, lane_pairs = det_l(predictions, gts, cfg)
    dett, traffic_breakdown, traffic_pairs = det_t(predictions, gts, cfg)
    ll_aps: list[float] = []
    lt_aps: list[float] = []
    for gt, pred in _align(predictions, gts):
        ll, lt = _vertex_aps(pred, gt, dict(lane_pairs[gt.scene_id]), dict(traffic_pairs[gt.scene_id]))
        ll_aps += ll
        lt_aps += lt
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
    if not gts:
        raise ValueError(f"{scenes_path}: no scenes to evaluate")
    for p in predictions:
        if not isinstance(p, dataio.PredictionRecord):
            raise ValueError(f"scene {p.scene_id!r}: record carries no topology probabilities")
    return evaluate(predictions, gts, cfg)
