"""Bipartite assignment machinery.

Two matching regimes live here:

* optimal (Hungarian) matching with the DETR-style cost used to project
  ground-truth topology onto predicted lanes at training time -- no
  distance gate, every prediction up to min(|preds|, |gts|) gets a partner;
* greedy confidence-ranked matching with an affinity threshold, the
  standard detection-AP protocol used by the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataio import GtLane, PredLane, TrafficElement
from .geometry import control_point_l1


@dataclass
class CostConfig:
    """Matching-cost weights: classification (focal) and geometry (L1)."""

    w_cls: float = 1.5
    w_l1: float = 0.0075
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        if self.w_cls < 0 or self.w_l1 < 0:
            raise ValueError("cost weights must be >= 0")


@dataclass
class Assignment:
    """Injective partial map prediction-index -> gt-index."""

    pairs: dict[int, int] = field(default_factory=dict)
    unmatched_preds: list[int] = field(default_factory=list)
    unmatched_gts: list[int] = field(default_factory=list)


def hungarian_solve(cost) -> Assignment:
    """Minimum-total-cost injective assignment of min(R, C) pairs.

    Rectangular matrices are padded to square with zeros. Padding fills
    whole rows or columns, so every complete assignment uses exactly
    |R - C| padded cells and any finite pad value leaves the optimal real
    pairs unchanged; zero also keeps the solver's arithmetic finite.
    Deterministic: rows are processed in ascending order and equal-cost
    columns resolve to the lowest column index.
    """
    mat = np.asarray(cost, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"cost must be a 2D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return Assignment({}, list(range(rows)), list(range(cols)))
    if np.any(np.isnan(mat)):
        raise ValueError("cost matrix contains NaN")
    if not np.all(np.isfinite(mat)):
        raise ValueError("cost matrix entries must be finite")

    n = max(rows, cols)
    square = np.zeros((n, n))
    square[:rows, :cols] = mat

    col_to_row = _solve_square(square)

    pairs = {}
    for c, r in enumerate(col_to_row):
        if r < rows and c < cols:
            pairs[r] = c
    return Assignment(
        pairs=pairs,
        unmatched_preds=[r for r in range(rows) if r not in pairs],
        unmatched_gts=[c for c in range(cols) if c not in set(pairs.values())],
    )


def _solve_square(cost: np.ndarray) -> list[int]:
    """Shortest-augmenting-path assignment on a square matrix.

    Returns col_to_row: for each column, the row assigned to it.
    """
    n = cost.shape[0]
    inf = float("inf")
    # column n is a virtual start column for each augmentation
    job = np.full(n + 1, -1, dtype=int)
    ys = np.zeros(n, dtype=float)  # row potentials
    yt = np.zeros(n + 1, dtype=float)  # column potentials

    for r in range(n):
        c_cur = n
        job[c_cur] = r
        min_to = np.full(n, inf)
        prv = np.full(n, -1, dtype=int)
        in_z = np.zeros(n + 1, dtype=bool)

        while job[c_cur] != -1:
            in_z[c_cur] = True
            j = job[c_cur]
            reduced = cost[j, :] - ys[j] - yt[:n]
            better = (reduced < min_to) & ~in_z[:n]
            min_to[better] = reduced[better]
            prv[better] = c_cur
            masked = np.where(in_z[:n], inf, min_to)
            c_next = int(np.argmin(masked))  # lowest column wins ties
            delta = masked[c_next]
            for c in range(n + 1):
                if in_z[c]:
                    if job[c] != -1:
                        ys[job[c]] += delta
                    yt[c] -= delta
            min_to[~in_z[:n]] -= delta
            c_cur = c_next

        while c_cur != n:
            c = prv[c_cur]
            job[c_cur] = job[c]
            c_cur = c

    return [int(job[c]) for c in range(n)]


def lane_pair_cost(pred: PredLane, gt: GtLane, cfg: CostConfig | None = None) -> float:
    """DETR-style pair cost: weighted focal term of the positive class plus
    weighted mean-L1 of the control points."""
    cfg = cfg or CostConfig()
    from .topoheads import focal_loss  # focal lives with the heads

    cls_term, _ = focal_loss(pred.class_score, 1, cfg.focal_alpha, cfg.focal_gamma)
    return cfg.w_cls * float(cls_term) + cfg.w_l1 * control_point_l1(pred.ctrl, gt.ctrl)


def traffic_pair_cost(pred: TrafficElement, gt: TrafficElement, cfg: CostConfig | None = None) -> float:
    """Same cost structure for traffic elements, with mean-L1 over box corners."""
    cfg = cfg or CostConfig()
    from .topoheads import focal_loss

    cls_term, _ = focal_loss(pred.confidence, 1, cfg.focal_alpha, cfg.focal_gamma)
    box_l1 = float(np.mean(np.abs(np.asarray(pred.box, float) - np.asarray(gt.box, float))))
    return cfg.w_cls * float(cls_term) + cfg.w_l1 * box_l1


def match_for_training(
    preds: Sequence[PredLane], gts: Sequence[GtLane], cfg: CostConfig | None = None
) -> Assignment:
    """Optimal prediction/GT lane matching for topology supervision.

    No distance gating: every prediction up to min(|preds|, |gts|) gets a
    partner; unmatched predictions receive all-negative topology labels
    downstream.
    """
    cfg = cfg or CostConfig()
    cost = np.array([[lane_pair_cost(p, g, cfg) for g in gts] for p in preds], dtype=float)
    cost = cost.reshape(len(preds), len(gts))
    return hungarian_solve(cost)


def match_traffic_for_training(
    preds: Sequence[TrafficElement], gts: Sequence[TrafficElement], cfg: CostConfig | None = None
) -> Assignment:
    cfg = cfg or CostConfig()
    cost = np.array([[traffic_pair_cost(p, g, cfg) for g in gts] for p in preds], dtype=float)
    cost = cost.reshape(len(preds), len(gts))
    return hungarian_solve(cost)


def greedy_metric_match(
    preds: Sequence,
    gts: Sequence,
    affinity_fn: Callable,
    threshold: float,
    higher_is_better: bool = False,
) -> tuple[list[bool], list[tuple[int, int]]]:
    """Greedy TP/FP labeling over confidence-ranked predictions.

    ``preds`` must already be sorted by confidence descending (stable,
    ties by input order). Scanning in rank order, a prediction is a TP if
    some still-unmatched GT has affinity within the threshold (<= for
    distances, >= when ``higher_is_better``); it takes the best-affinity
    unmatched GT. Each GT matches at most once.

    Returns per-prediction flags (rank order) and the matched pair list.
    """
    matched_gts: set[int] = set()
    flags: list[bool] = []
    matched_pairs: list[tuple[int, int]] = []
    for p_idx, pred in enumerate(preds):
        best_gt = -1
        best_aff = None
        for g_idx, gt in enumerate(gts):
            if g_idx in matched_gts:
                continue
            aff = affinity_fn(pred, gt)
            ok = aff >= threshold if higher_is_better else aff <= threshold
            if not ok:
                continue
            if best_aff is None or (aff > best_aff if higher_is_better else aff < best_aff):
                best_aff = aff
                best_gt = g_idx
        if best_gt >= 0:
            matched_gts.add(best_gt)
            flags.append(True)
            matched_pairs.append((p_idx, best_gt))
        else:
            flags.append(False)
    return flags, matched_pairs
