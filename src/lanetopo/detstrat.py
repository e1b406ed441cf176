"""Detector-side data strategies as pure, detector-agnostic operations:
category statistics, CBGS-style frame resampling, and multi-scale TTA
box fusion.

Nothing here trains a detector; these transform data for whatever
trainer consumes them. A demonstration harness in the CLI applies the
resampling plan to the synthetic training split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import NUM_CATEGORIES, SceneRecord, TrafficElement
from .geometry import box_iou


@dataclass
class CategoryStats:
    counts: np.ndarray  # (13,) int
    total: int
    frequencies: np.ndarray  # (13,) float, sums to 1 when total > 0


@dataclass
class ResampleConfig:
    freq_threshold: float = 0.10  # categories rarer than this trigger duplication
    min_factor: int = 5
    max_factor: int = 20

    def __post_init__(self):
        if not (1 <= self.min_factor <= self.max_factor):
            raise ValueError("need 1 <= min_factor <= max_factor")
        if not (0.0 < self.freq_threshold <= 1.0):
            raise ValueError("freq_threshold must be in (0, 1]")


@dataclass
class TtaConfig:
    scales: tuple[float, ...] = (0.7, 1.0, 1.4)
    merge_iou: float = 0.6

    def __post_init__(self):
        for s in self.scales:
            if not (0.7 <= s <= 1.4):
                raise ValueError(f"scale {s} outside the supported range [0.7, 1.4]")
        if not (0.0 < self.merge_iou <= 1.0):
            raise ValueError("merge_iou must be in (0, 1]")


def category_histogram(frames: Sequence[SceneRecord]) -> CategoryStats:
    """Exact traffic-category counts over all frames."""
    counts = np.zeros(NUM_CATEGORIES, dtype=int)
    for frame in frames:
        for te in frame.traffic:
            counts[te.category] += 1
    total = int(counts.sum())
    freqs = counts / total if total > 0 else np.zeros(NUM_CATEGORIES)
    return CategoryStats(counts=counts, total=total, frequencies=freqs)


def duplication_factor(freq: float, cfg: ResampleConfig) -> int:
    """Inverse-frequency duplication, clamped to [min_factor, max_factor]."""
    raw = int(np.round(cfg.freq_threshold / freq))
    return int(np.clip(raw, cfg.min_factor, cfg.max_factor))


def resample_plan(
    frames: Sequence[SceneRecord], stats: CategoryStats, cfg: ResampleConfig | None = None
) -> list[int]:
    """Frame-index multiset: frames containing rare categories repeat.

    A frame repeats by the max factor over its rare categories (several
    rare categories in one frame do not stack); frames without rare
    categories appear once. Deterministic, grouped by ascending index.
    """
    cfg = cfg or ResampleConfig()
    plan: list[int] = []
    for idx, frame in enumerate(frames):
        factor = 1
        for cat in {te.category for te in frame.traffic}:
            freq = stats.frequencies[cat]
            if 0.0 < freq < cfg.freq_threshold:
                factor = max(factor, duplication_factor(freq, cfg))
        plan.extend([idx] * factor)
    return plan


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
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
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
