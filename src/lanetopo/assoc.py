"""Bipartite assignment machinery.

Two matching regimes live here:

* optimal (Hungarian) matching with the DETR-style cost used to project
  ground-truth topology onto predicted lanes at training time -- no
  distance gate, every prediction up to min(|preds|, |gts|) gets a
  partner;
* greedy confidence-ranked matching with a distance threshold, the
  standard detection-AP protocol used by the metrics.

Both take a whole scene's preds x GT matrix; the greedy matcher also
takes a stack of them and walks rank r of every matrix at once. Either
matching projects the GT topology onto prediction indices
(:func:`project_edges`): the training labels and the TOP hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import GtLane, PredLane, SceneRecord, TrafficElement
from .geometry import control_point_l1
from .settings import Settings, setting


@dataclass
class CostConfig(Settings):
    """Matching-cost weights: classification (focal) and geometry (L1)."""

    w_cls: float = setting(1.5, float, "[0, inf)")
    w_l1: float = setting(0.0075, float, "[0, inf)")
    focal_alpha: float = setting(0.25, float, "[0, 1]")
    focal_gamma: float = setting(2.0, float, "[0, inf)")


@dataclass
class Assignment:
    """Injective partial map prediction-index -> gt-index."""

    pairs: dict[int, int] = field(default_factory=dict)
    unmatched_preds: list[int] = field(default_factory=list)
    unmatched_gts: list[int] = field(default_factory=list)


def focal_loss(prob, target, alpha: float = 0.25, gamma: float = 2.0):
    """Focal loss of a sigmoid output and its gradient w.r.t. the logit.

    loss = -alpha_t * (1 - p_t)^gamma * log(p_t), with p_t = p for a
    positive target and 1 - p otherwise (alpha_t analogous). The returned
    gradient uses the closed form
        d loss / d logit = -alpha_t * s * ((1-p_t)^(gamma+1)
                            - gamma * p_t * (1-p_t)^gamma * log(p_t))
    with s = +1 for positives and -1 for negatives, which stays bounded at
    extreme logits. Elementwise over broadcastable inputs.
    """
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


def hungarian_solve(cost) -> Assignment:
    """Minimum-total-cost injective assignment of min(R, C) pairs.

    Shortest augmenting paths (Crouse, IEEE TAES 2016) over the smaller
    side; when rows > cols the matrix is solved transposed, with no dummy
    rows or columns. Tie rule: the smaller side in ascending order; a tie
    goes to the lowest index. The cost is first scaled by an exact power
    of two to magnitudes below 1, which keeps the dual potentials finite
    near the float maximum and changes no comparison while entries stay
    normal.
    """
    mat = np.asarray(cost, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"cost must be a 2D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    if not np.all(np.isfinite(mat)):
        raise ValueError("cost matrix entries must be finite (no NaN or inf)")

    mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(initial=0.0))[1])
    transposed = rows > cols
    owners = _augment(mat.T if transposed else mat)
    matched = [(s, o) for o, s in enumerate(owners) if s >= 0]  # (smaller-side, larger-side) index
    pairs = dict(sorted((o, s) if transposed else (s, o) for s, o in matched))
    return Assignment(
        pairs=pairs,
        unmatched_preds=[r for r in range(rows) if r not in pairs],
        unmatched_gts=sorted(set(range(cols)) - set(pairs.values())),
    )


def _augment(cost: np.ndarray) -> list[int]:
    """Assign every row (rows <= cols); returns each column's row or -1."""
    n, m = cost.shape
    inf = float("inf")
    # column m is a virtual start column for each augmentation
    job = np.full(m + 1, -1, dtype=int)
    ys = np.zeros(n)  # row potentials
    yt = np.zeros(m + 1)  # column potentials

    for r in range(n):
        c_cur = m
        job[c_cur] = r
        min_to = np.full(m, inf)
        prv = np.full(m, -1, dtype=int)
        in_z = np.zeros(m + 1, dtype=bool)

        while job[c_cur] != -1:
            in_z[c_cur] = True
            j = job[c_cur]
            reduced = cost[j, :] - ys[j] - yt[:m]
            better = (reduced < min_to) & ~in_z[:m]
            min_to[better] = reduced[better]
            prv[better] = c_cur
            masked = np.where(in_z[:m], inf, min_to)
            c_next = int(np.argmin(masked))  # lowest column wins ties
            delta = masked[c_next]
            # every visited column holds a row: shift both potentials
            ys[job[in_z]] += delta
            yt[in_z] -= delta
            min_to[~in_z[:m]] -= delta
            c_cur = c_next

        while c_cur != m:
            c = prv[c_cur]
            job[c_cur] = job[c]
            c_cur = c

    return job[:m].tolist()


def _training_match(scores, l1: np.ndarray, cfg: CostConfig) -> Assignment:
    """Hungarian match on the DETR-style cost: a weighted focal term of the
    positive class, which depends only on the prediction, plus the
    weighted mean-L1 geometry matrix."""
    cls, _ = focal_loss(np.asarray(scores, dtype=float), 1, cfg.focal_alpha, cfg.focal_gamma)
    return hungarian_solve(cfg.w_cls * cls[:, None] + cfg.w_l1 * l1)


def match_for_training(
    preds: Sequence[PredLane], gts: Sequence[GtLane], cfg: CostConfig | None = None
) -> Assignment:
    """Optimal prediction/GT lane matching for topology supervision.

    No distance gating: every prediction up to min(|preds|, |gts|) gets a
    partner; unmatched predictions receive all-negative topology labels
    downstream. The geometry term is the mean L1 over control points.
    """
    cfg = cfg or CostConfig()
    if not preds or not gts:
        return hungarian_solve(np.zeros((len(preds), len(gts))))
    l1 = control_point_l1(np.stack([p.ctrl for p in preds]), np.stack([g.ctrl for g in gts]))
    return _training_match([p.class_score for p in preds], l1, cfg)


def match_traffic_for_training(
    preds: Sequence[TrafficElement], gts: Sequence[TrafficElement], cfg: CostConfig | None = None
) -> Assignment:
    """Same cost structure for traffic elements, with mean-L1 over box corners."""
    cfg = cfg or CostConfig()
    boxes = np.array([p.box for p in preds], dtype=float).reshape(-1, 4)
    gt_boxes = np.array([g.box for g in gts], dtype=float).reshape(-1, 4)
    l1 = np.mean(np.abs(boxes[:, None] - gt_boxes[None]), axis=-1)
    return _training_match([p.confidence for p in preds], l1, cfg)


def project_edges(
    lane_pairs: dict[int, int], traffic_pairs: dict[int, int], scene: SceneRecord, n: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project a scene's GT topology onto prediction indices through the
    matchings ``{pred index: GT index}`` of its lanes and traffic elements.

    Entry (i, j) of the bool (n, n) lane-lane matrix is True iff
    predictions i and j are matched and their GT lanes form an edge; the
    (n, t) lane-traffic matrix is analogous. Rows and columns of unmatched
    predictions stay False.
    """
    for kind, pairs, size, gts in (("lane", lane_pairs, n, scene.lanes), ("traffic", traffic_pairs, t, scene.traffic)):
        for p, g in pairs.items():
            if not (0 <= p < size and 0 <= g < len(gts)):
                raise IndexError(f"{kind} assignment ({p} -> {g}) out of range")
    lane_pred = {scene.lanes[g].id: p for p, g in lane_pairs.items()}
    traffic_pred = {scene.traffic[g].id: p for p, g in traffic_pairs.items()}
    ll = np.zeros((n, n), dtype=bool)
    lt = np.zeros((n, t), dtype=bool)
    for out, edges, right in ((ll, scene.topo_ll, lane_pred), (lt, scene.topo_lt, traffic_pred)):
        for a, b in edges:
            if a in lane_pred and b in right:
                out[lane_pred[a], right[b]] = True
    return ll, lt


def greedy_metric_match(dist, threshold) -> tuple[np.ndarray, np.ndarray]:
    """Greedy TP/FP labeling over confidence-ranked predictions.

    ``dist`` is a (preds, GT) distance matrix with its rows already sorted
    by confidence descending (stable, ties by input order), or a
    (..., N, M) stack of such matrices; ``threshold`` is one threshold per
    leading index (anything that broadcasts to ``dist.shape[:-2]``). For a
    similarity such as IoU pass its negation and the negated threshold.
    Scanning in rank order, a prediction is a TP if some still-unmatched
    GT lies within the threshold (<=); it takes the nearest one, the
    lowest GT index on a tie. Each GT matches at most once per matrix.
    Rank r of every matrix in the stack is matched in one step. Pad ragged
    matrices with +inf, which never lies within a finite threshold.

    Returns bool flags (..., N) in rank order and int ``match`` (..., N):
    the GT index each prediction took, -1 for a false positive.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim < 2:
        raise ValueError(f"distances must be a matrix or a stack of them, got shape {d.shape}")
    lead, (n, m) = d.shape[:-2], d.shape[-2:]
    k = int(np.prod(lead))
    thr = np.broadcast_to(np.asarray(threshold, dtype=float), lead).reshape(k, 1)
    d = d.reshape(k, n, m)
    match = np.full((k, n), -1)
    if m:
        free = np.ones((k, m), dtype=bool)
        stack = np.arange(k)
        for r in range(n):
            row = d[:, r]
            cand = free & (row <= thr)
            g = np.argmin(np.where(cand, row, np.inf), axis=1)
            # a row whose candidates all sit at +inf (an infinite threshold)
            # takes its lowest candidate, as a tie would
            g = np.where(cand[stack, g], g, np.argmax(cand, axis=1))
            hit = cand[stack, g]
            free[stack[hit], g[hit]] = False
            match[hit, r] = g[hit]
    match = match.reshape(*lead, n)
    return match >= 0, match
