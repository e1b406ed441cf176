"""Bipartite assignment machinery.

Two matching regimes live here:

* optimal (Hungarian) matching with the DETR-style cost used to project
  ground-truth topology onto predicted lanes at training time -- no
  distance gate, every prediction up to min(|preds|, |gts|) gets a
  partner;
* greedy confidence-ranked matching with a distance threshold, the
  standard detection-AP protocol used by the metrics.

Both take a whole scene's preds x GT matrix. The Hungarian solver also
takes a ragged batch of them (every scene of a training run) and solves
it in one +inf-padded stack, one path step of every problem per round;
the greedy matcher takes a stack and walks rank r of every matrix at
once. Both return a matching in one form: an int array over the
predictions whose entry i is the GT index that prediction i took, or -1
when it took none.
Either matching projects the GT topology onto prediction indices
(:func:`project_edges`): the training labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import GtLane, PredLane, SceneRecord, TrafficElement, edge_positions
from .geometry import control_point_l1
from .settings import Settings, setting


@dataclass
class CostConfig(Settings):
    """Matching-cost weights: classification (focal) and geometry (L1)."""

    w_cls: float = setting(1.5, float, "[0, inf)")
    w_l1: float = setting(0.0075, float, "[0, inf)")
    focal_alpha: float = setting(0.25, float, "[0, 1]")
    focal_gamma: float = setting(2.0, float, "[0, inf)")


def focal_loss(prob, target, alpha: float = 0.25, gamma: float = 2.0):
    """Focal loss of a sigmoid output and its gradient w.r.t. the logit.

    loss = -alpha_t * (1 - p_t)^gamma * log(p_t), with p_t = p for a
    positive target and 1 - p otherwise (alpha_t analogous). The returned
    gradient uses the closed form
        d loss / d logit = -alpha_t * s * ((1-p_t)^(gamma+1)
                            - gamma * p_t * (1-p_t)^gamma * log(p_t))
    with s = +1 for positives and -1 for negatives, which stays bounded at
    extreme logits. Elementwise over broadcastable inputs; scalar inputs
    give numpy scalars.

    The terms are built in place in at most four buffers of the broadcast
    shape, each element by the same operations in the same order as the
    formulas read. ``-alpha_t`` and ``-alpha_t * s`` take two values each,
    so each is one multiply by a two-valued factor, built while only three
    buffers are alive. ``prob`` is released as soon as p_t exists: a
    temporary sigmoid output passed in is freed there.
    """
    p = np.asarray(prob, dtype=float)
    del prob
    pos = np.asarray(target) == 1
    p_t = np.where(pos, p, 1.0 - p)
    del p
    log_pt = np.maximum(p_t, np.finfo(float).tiny, out=np.empty_like(p_t))
    np.log(log_pt, out=log_pt)
    one_m = np.subtract(1.0, p_t, out=np.empty_like(p_t))
    pow_g = _power(one_m.copy(), gamma)
    grad = _power(one_m, gamma + 1.0)
    # grad = -alpha_t * s * (one_m**(gamma+1) - gamma * p_t * one_m**gamma * log_pt)
    p_t *= gamma
    p_t *= pow_g
    p_t *= log_pt
    grad -= p_t
    del p_t
    grad *= np.where(pos, -float(alpha), 1.0 - alpha)
    # loss = -alpha_t * one_m**gamma * log_pt
    loss = pow_g
    loss *= np.where(pos, -float(alpha), -(1.0 - alpha))
    loss *= log_pt
    return (loss[()], grad[()]) if loss.ndim == 0 else (loss, grad)


def _power(x: np.ndarray, exponent: float) -> np.ndarray:
    """``x **= exponent`` with the arithmetic of the formulas' ``**``:
    numpy's array fast paths (square, sqrt, ...) on an array, and on a 0-d
    buffer the numpy-scalar ``**`` (C ``pow``), which scalar inputs take."""
    if x.ndim:
        x **= exponent
    else:
        x[()] = x[()] ** exponent
    return x


def hungarian_solve(cost) -> np.ndarray:
    """Minimum-total-cost injective assignment of min(R, C) pairs: each
    row's column, or -1 for a row left unmatched.

    Shortest augmenting paths (Crouse, IEEE TAES 2016) over the smaller
    side; when rows > cols the matrix is solved transposed, with no dummy
    rows or columns. Tie rule: the smaller side in ascending order; a tie
    goes to the lowest index. The cost is first scaled by an exact power
    of two to magnitudes below 1, which keeps the dual potentials finite
    near the float maximum and changes no comparison while entries stay
    normal. The one-matrix call of :func:`hungarian_solve_batch`.
    """
    return hungarian_solve_batch([cost])[0]


def hungarian_solve_batch(costs) -> list[np.ndarray]:
    """:func:`hungarian_solve` of every matrix in ``costs``, of any shapes,
    in one pass; the matchings are bit-identical to one call per matrix.

    Each matrix is checked, scaled by its own power of two and, when rows
    > cols, transposed; then all of them are solved together in a
    +inf-padded (k, n, m) stack (see :func:`_augment`).
    """
    mats, transposed = [], []
    for cost in costs:
        mat = np.asarray(cost, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"cost must be a 2D matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("cost matrix entries must be finite (no NaN or inf)")
        mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(initial=0.0))[1])
        transposed.append(mat.shape[0] > mat.shape[1])
        mats.append(mat.T if transposed[-1] else mat)
    owners = _augment(mats)  # each larger-side index's partner
    return [o if t else invert_match(o, len(mat)) for o, mat, t in zip(owners, mats, transposed)]


def invert_match(match: np.ndarray, size: int) -> np.ndarray:
    """The other side's view of a matching: entry g of the result is the
    index whose ``match`` entry is g, or -1 when none is; ``size`` is the
    other side's length."""
    out = np.full(size, -1)
    taken = np.flatnonzero(match >= 0)
    out[match[taken]] = taken
    return out


def _augment(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Assign every row of each matrix (rows <= cols); returns each matrix's
    per-column row, or -1.

    The k matrices sit in a (k, n, m) stack padded with +inf. Each round,
    every problem with a row left takes one step of its own row's shortest
    augmenting path, and a problem whose path reached a free column
    augments and starts its next row. So each problem makes the float
    operations and argmin choices that it would make alone: its padded
    columns hold +inf, sit after its real ones and never win. A row's
    potential is kept at the column that holds the row and moves with it.
    A finished problem keeps stepping on stale state with a zero shift;
    only an augmentation writes ``job``, and none runs for it.
    """
    k = len(mats)
    rows = np.array([a.shape[0] for a in mats], dtype=int)
    n, m = max(rows, default=0), max((a.shape[1] for a in mats), default=0)
    if n == 0:
        return [np.full(a.shape[1], -1) for a in mats]
    inf = float("inf")
    cost = np.full((k, n, m), inf)
    for p, a in enumerate(mats):
        cost[p, : a.shape[0], : a.shape[1]] = a
    ar = np.arange(k)
    # column m is each problem's virtual start column for an augmentation
    job = np.zeros((k, m + 1), dtype=int)
    job[:, :m] = -1
    ys = np.zeros((k, m + 1))  # potential of the row each column holds
    yt = np.zeros((k, m + 1))  # column potentials
    min_to = np.full((k, m), inf)
    prv = np.full((k, m), -1)
    in_z = np.zeros((k, m + 1), dtype=bool)
    row = np.zeros(k, dtype=int)
    live = rows > 0
    c_cur, j = np.full(k, m), np.zeros(k, dtype=int)

    while live.any():
        in_z[ar, c_cur] = True
        out_z = ~in_z[:, :m]
        reduced = cost[ar, j] - ys[ar, c_cur][:, None] - yt[:, :m]
        better = (reduced < min_to) & out_z
        np.copyto(min_to, reduced, where=better)
        np.copyto(prv, c_cur[:, None], where=better)
        masked = np.where(out_z, min_to, inf)
        c_cur = np.argmin(masked, axis=1)  # lowest column wins ties
        delta = np.where(live, masked[ar, c_cur], 0.0)[:, None]
        # every visited column holds a row: shift both potentials
        np.add(ys, delta, out=ys, where=in_z)
        np.subtract(yt, delta, out=yt, where=in_z)
        np.subtract(min_to, delta, out=min_to, where=out_z)
        j = job[ar, c_cur]
        done = live & (j < 0)  # reached a free column
        if done.any():
            idx, cur = np.flatnonzero(done), c_cur[done]
            while idx.size:
                c = prv[idx, cur]
                job[idx, cur], ys[idx, cur] = job[idx, c], ys[idx, c]
                keep = c != m
                idx, cur = idx[keep], c[keep]
            row += done
            live &= row < rows
            c_cur[done] = m
            start = done & live
            job[start, m] = j[start] = row[start]
            ys[start, m] = 0.0
            min_to[start] = inf
            in_z[start] = False

    return [job[p, : a.shape[1]].copy() for p, a in enumerate(mats)]


def lane_training_cost(
    preds: Sequence[PredLane], gts: Sequence[GtLane], cfg: CostConfig | None = None
) -> np.ndarray:
    """The (preds, GT) DETR-style matching cost of lanes: a weighted focal
    term of the positive class, which depends only on the prediction, plus
    the weighted mean L1 over control points."""
    cfg = cfg or CostConfig()
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    l1 = control_point_l1(np.stack([p.ctrl for p in preds]), np.stack([g.ctrl for g in gts]))
    return _training_cost([p.class_score for p in preds], l1, cfg)


def traffic_training_cost(
    preds: Sequence[TrafficElement], gts: Sequence[TrafficElement], cfg: CostConfig | None = None
) -> np.ndarray:
    """Same cost structure for traffic elements, with mean L1 over box corners."""
    cfg = cfg or CostConfig()
    boxes = np.array([p.box for p in preds], dtype=float).reshape(-1, 4)
    gt_boxes = np.array([g.box for g in gts], dtype=float).reshape(-1, 4)
    l1 = np.mean(np.abs(boxes[:, None] - gt_boxes[None]), axis=-1)
    return _training_cost([p.confidence for p in preds], l1, cfg)


def _training_cost(scores, l1: np.ndarray, cfg: CostConfig) -> np.ndarray:
    cls, _ = focal_loss(np.asarray(scores, dtype=float), 1, cfg.focal_alpha, cfg.focal_gamma)
    return cfg.w_cls * cls[:, None] + cfg.w_l1 * l1


def match_for_training(
    preds: Sequence[PredLane], gts: Sequence[GtLane], cfg: CostConfig | None = None
) -> np.ndarray:
    """Optimal prediction/GT lane matching for topology supervision, on
    :func:`lane_training_cost`.

    No distance gating: every prediction up to min(|preds|, |gts|) gets a
    partner; unmatched predictions receive all-negative topology labels
    downstream.
    """
    return hungarian_solve(lane_training_cost(preds, gts, cfg))


def match_traffic_for_training(
    preds: Sequence[TrafficElement], gts: Sequence[TrafficElement], cfg: CostConfig | None = None
) -> np.ndarray:
    """Optimal traffic-element matching on :func:`traffic_training_cost`."""
    return hungarian_solve(traffic_training_cost(preds, gts, cfg))


def project_edges(lane_match, traffic_match, scene: SceneRecord) -> tuple[np.ndarray, np.ndarray]:
    """Project a scene's GT topology onto prediction indices through the
    matchings of its n predicted lanes and t traffic elements (each entry
    a GT index, -1 for an unmatched prediction).

    Entry (i, j) of the bool (n, n) lane-lane matrix is True iff
    predictions i and j are matched and their GT lanes form an edge; the
    (n, t) lane-traffic matrix is analogous. Rows and columns of unmatched
    predictions stay False. A self-edge or an unknown GT id raises
    :class:`~lanetopo.dataio.ValidationError`.
    """
    lane_match, traffic_match = np.asarray(lane_match, dtype=int), np.asarray(traffic_match, dtype=int)
    for kind, match, gts in (("lane", lane_match, scene.lanes), ("traffic", traffic_match, scene.traffic)):
        bad = np.flatnonzero((match < -1) | (match >= len(gts)))
        if bad.size:
            raise IndexError(f"{kind} match ({bad[0]} -> {match[bad[0]]}) outside [-1, {len(gts)})")
    lane_owner = invert_match(lane_match, len(scene.lanes))  # GT position -> prediction
    traffic_owner = invert_match(traffic_match, len(scene.traffic))
    ll = np.zeros((len(lane_match),) * 2, dtype=bool)
    lt = np.zeros((len(lane_match), len(traffic_match)), dtype=bool)
    for out, edges, owner in zip((ll, lt), edge_positions(scene), (lane_owner, traffic_owner)):
        i, j = lane_owner[edges[:, 0]], owner[edges[:, 1]]
        both = (i >= 0) & (j >= 0)
        out[i[both], j[both]] = True
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
    Rank r of every matrix in the stack is matched in one step, and only
    the ranks with a candidate in some matrix are visited: a rank with none
    can take no GT. Pad ragged matrices with +inf, which never lies within
    a finite threshold.

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
        for r in np.flatnonzero((d <= thr[:, :, None]).any(axis=(0, 2))).tolist():
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
