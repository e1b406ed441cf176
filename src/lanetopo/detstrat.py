"""Detector-side data strategies as pure, detector-agnostic operations:
traffic-category statistics and multi-scale TTA box fusion.

Nothing here trains a detector: the heads train on frozen detector
outputs, which the corruption channel stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import NUM_CATEGORIES, SceneRecord, TrafficElement, category_indices
from .geometry import box_iou
from .settings import Settings, setting


@dataclass
class CategoryStats:
    counts: np.ndarray  # (13,) int
    total: int
    frequencies: np.ndarray  # (13,) float, sums to 1 when total > 0


@dataclass
class TtaConfig(Settings):
    merge_iou: float = setting(0.6, float, "(0, 1]")


def category_histogram(frames: Sequence[SceneRecord]) -> CategoryStats:
    """Exact traffic-category counts over all frames. A category that is no
    integer in [0, NUM_CATEGORIES) is an error, not a truncated or wrapped index."""
    counts = np.zeros(NUM_CATEGORIES, dtype=int)
    for frame in frames:
        try:
            categories = category_indices(frame.traffic)
        except ValueError as exc:
            raise ValueError(f"scene {frame.scene_id!r}, {exc}") from exc
        counts += np.bincount(categories, minlength=NUM_CATEGORIES)
    total = int(counts.sum())
    freqs = counts / total if total > 0 else np.zeros(NUM_CATEGORIES)
    return CategoryStats(counts=counts, total=total, frequencies=freqs)


def tta_merge(
    per_scale_boxes: Sequence[tuple[float, Sequence[TrafficElement]]],
    cfg: TtaConfig | None = None,
) -> list[TrafficElement]:
    """Fuse multi-scale detections back at unit scale.

    Every box is rescaled by 1/scale, then pooled; per category, greedy
    non-maximum suppression keeps the highest-confidence box and removes
    same-category boxes overlapping it at IoU >= merge_iou. Survivors keep
    their own confidence, so merging a merged set changes nothing.
    """
    cfg = cfg or TtaConfig()
    pooled: list[TrafficElement] = []
    for scale, boxes in per_scale_boxes:
        if not 0.0 < scale < np.inf:
            raise ValueError(f"scale must be a finite positive number, got {scale}")
        for te in boxes:
            pooled.append(
                TrafficElement(
                    id=te.id,
                    box=np.asarray(te.box, dtype=float) / scale,
                    category=te.category,
                    confidence=te.confidence,
                )
            )
    boxes = np.reshape([te.box for te in pooled], (-1, 4))
    categories = np.array([te.category for te in pooled])
    overlaps = (categories[:, None] == categories[None, :]) & (box_iou(boxes, boxes) >= cfg.merge_iou)
    suppressed = np.zeros(len(pooled), dtype=bool)
    kept: list[TrafficElement] = []
    for i in sorted(range(len(pooled)), key=lambda k: (-pooled[k].confidence, k)):
        if not suppressed[i]:
            kept.append(pooled[i])
            suppressed |= overlaps[i]
    return kept
