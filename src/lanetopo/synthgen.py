"""Synthetic scene generation and the detector-corruption channel.

Scenes grow as a forest of lane chains: each chain starts at a random
entry point and extends lane by lane, forking with ``branch_prob`` at
each lane end up to a depth limit. Successor lanes start exactly at
their parent's last control point, so lane-lane adjacency is exact by
construction. Traffic elements spawn beside a chain and anchor to one
of its lanes; the box position encodes the anchor's location in the
virtual front image, which is what makes lane-traffic topology
learnable from detector outputs rather than noise.

The corruption channel stands in for imperfect lane/traffic detectors:
jittered geometry, dropped and spurious entities, confused categories,
and perturbed confidences, all driven by explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import (
    DEFAULT_QUERY_BUDGET,
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    NUM_CATEGORIES,
    DetectionRecord,
    GtLane,
    PredLane,
    SceneRecord,
    TrafficElement,
)
from .settings import Settings, setting

# chain growth
CHAIN_DEPTH_LIMIT = 3  # lanes per root-to-leaf path
LANE_LENGTH_RANGE = (8.0, 16.0)  # meters
LATERAL_CURVATURE = 0.12  # interior control point offset, fraction of length
HEADING_TURN = 0.5  # radians, successor heading jitter
FORK_ANGLE = (0.15, 0.6)  # radians, half-angle between forked successors

# traffic boxes
BOX_WIDTH_RANGE = (40.0, 120.0)  # pixels
BOX_HEIGHT_RANGE = (30.0, 100.0)
BOX_JITTER_FRAC = 0.01  # of image dimension

# skewed to mirror a real attribute distribution: unknown lights dominate,
# yellow is rare, the nine signs share roughly a fifth of the mass
CATEGORY_WEIGHTS = np.array(
    [0.48, 0.14, 0.14, 0.04] + [0.2 / 9.0] * 9
)


@dataclass
class GeneratorConfig(Settings):
    scenes: int = setting(200, int, "[0, inf)")
    lanes_per_scene: tuple[int, int] = setting((12, 18), int, "[1, inf)", items=2)
    map_extent: float = setting(50.0, float, "(0, inf)")  # half-width of the square region, meters
    branch_prob: float = setting(0.3, float, "[0, 1]")
    traffic_per_scene: tuple[int, int] = setting((14, 20), int, "[0, inf)", items=2)
    lt_assoc_prob: float = setting(0.05, float, "[0, 1]")  # extra in-chain attachments beyond the anchor
    seed: int = setting(0, int, "[0, inf)")
    control_points: int = setting(4, int, "[2, inf)")  # M


@dataclass
class NoiseModel(Settings):
    ctrl_sigma: float = setting(0.0, float, "[0, inf)")  # meters, per control-point coordinate
    box_sigma: float = setting(0.0, float, "[0, inf)")  # pixels, per box coordinate
    drop_prob: float = setting(0.0, float, "[0, 1]")
    spurious_rate: float = setting(0.0, float, "[0, inf)")  # expected false entities per scene, per type
    confusion_prob: float = setting(0.0, float, "[0, 1]")
    conf_noise: float = setting(0.0, float, "[0, inf)")


def _make_lane_ctrl(start: np.ndarray, heading: float, rng, m: int) -> np.ndarray:
    """Control points from ``start`` along ``heading``; endpoints stay on the
    segment so chained lanes share points exactly."""
    length = rng.uniform(*LANE_LENGTH_RANGE)
    direction = np.array([np.cos(heading), np.sin(heading), 0.0])
    normal = np.array([-np.sin(heading), np.cos(heading), 0.0])
    fractions = np.linspace(0.0, 1.0, m)
    ctrl = start[None, :] + fractions[:, None] * (length * direction)[None, :]
    for k in range(1, m - 1):
        ctrl[k] += rng.uniform(-LATERAL_CURVATURE, LATERAL_CURVATURE) * length * normal
    return ctrl


def _new_entry_point(rng, extent: float, existing: list[np.ndarray]) -> np.ndarray:
    """Entry points repel each other so chains stay distinguishable."""
    min_sep = 0.4 * extent
    best = None
    best_d = -1.0
    for _ in range(40):
        candidate = rng.uniform(-0.6 * extent, 0.6 * extent, size=2)
        d = min((float(np.hypot(*(candidate - p))) for p in existing), default=np.inf)
        if d >= min_sep:
            return candidate
        if d > best_d:
            best_d, best = d, candidate
    return best


def generate_scene(cfg: GeneratorConfig, scene_index: int) -> SceneRecord:
    """Deterministic scene for (cfg.seed, scene_index)."""
    rng = np.random.default_rng([cfg.seed, scene_index])
    target = int(rng.integers(cfg.lanes_per_scene[0], cfg.lanes_per_scene[1] + 1))

    lanes: list[GtLane] = []
    topo_ll: set[tuple[int, int]] = set()
    chains: list[list[int]] = []
    entries: list[np.ndarray] = []

    # frontier entries are committed future lanes: (start, heading, depth,
    # parent lane id or None, chain index)
    frontier: list[tuple[np.ndarray, float, int, int | None, int]] = []

    def committed() -> int:
        return len(lanes) + len(frontier)

    while committed() < target or frontier:
        if not frontier:
            entry = _new_entry_point(rng, cfg.map_extent, entries)
            entries.append(entry)
            chains.append([])
            start = np.array([entry[0], entry[1], 0.0])
            frontier.append((start, float(rng.uniform(0, 2 * np.pi)), 1, None, len(chains) - 1))
        start, heading, depth, parent, chain_idx = frontier.pop(0)
        lane_id = len(lanes)
        ctrl = _make_lane_ctrl(start, heading, rng, cfg.control_points)
        lanes.append(GtLane(id=lane_id, ctrl=ctrl))
        chains[chain_idx].append(lane_id)
        if parent is not None:
            topo_ll.add((parent, lane_id))
        if depth < CHAIN_DEPTH_LIMIT:
            end = ctrl[-1]
            fork = rng.uniform() < cfg.branch_prob
            free = target - committed()
            if fork and free >= 2:
                half = rng.uniform(*FORK_ANGLE)
                for sign in (1.0, -1.0):
                    frontier.append((end, heading + sign * half, depth + 1, lane_id, chain_idx))
            elif not fork and free >= 1:
                turn = rng.uniform(-HEADING_TURN, HEADING_TURN)
                frontier.append((end, heading + turn, depth + 1, lane_id, chain_idx))

    traffic: list[TrafficElement] = []
    topo_lt: set[tuple[int, int]] = set()
    n_traffic = int(rng.integers(cfg.traffic_per_scene[0], cfg.traffic_per_scene[1] + 1))
    encode_extent = 2.0 * cfg.map_extent  # chains may wander past the entry box
    for te_id in range(n_traffic):
        chain = chains[int(rng.integers(len(chains)))]
        anchor = int(chain[int(rng.integers(len(chain)))])
        centroid = np.mean(lanes[anchor].ctrl, axis=0)
        # box center encodes the anchor centroid: image x <- ground y, image y <- ground x
        cx = (centroid[1] + encode_extent) / (2 * encode_extent) * IMAGE_WIDTH
        cy = (centroid[0] + encode_extent) / (2 * encode_extent) * IMAGE_HEIGHT
        cx += rng.uniform(-BOX_JITTER_FRAC, BOX_JITTER_FRAC) * IMAGE_WIDTH
        cy += rng.uniform(-BOX_JITTER_FRAC, BOX_JITTER_FRAC) * IMAGE_HEIGHT
        w = rng.uniform(*BOX_WIDTH_RANGE)
        h = rng.uniform(*BOX_HEIGHT_RANGE)
        cx = float(np.clip(cx, w / 2 + 1, IMAGE_WIDTH - w / 2 - 1))
        cy = float(np.clip(cy, h / 2 + 1, IMAGE_HEIGHT - h / 2 - 1))
        box = np.array([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])
        category = int(rng.choice(NUM_CATEGORIES, p=CATEGORY_WEIGHTS))
        traffic.append(TrafficElement(id=te_id, box=box, category=category, confidence=1.0))
        topo_lt.add((anchor, te_id))
        for lane_id in chain:
            if lane_id != anchor and rng.uniform() < cfg.lt_assoc_prob:
                topo_lt.add((lane_id, te_id))

    return SceneRecord(f"scene-{scene_index:05d}", lanes, traffic, topo_ll, topo_lt)


def _spurious_lane(rng, extent: float, m: int) -> PredLane:
    start = np.array([rng.uniform(-extent, extent), rng.uniform(-extent, extent), 0.0])
    heading = rng.uniform(0, 2 * np.pi)
    length = rng.uniform(4.0, 8.0)  # short false positives
    direction = np.array([np.cos(heading), np.sin(heading), 0.0])
    fractions = np.linspace(0.0, 1.0, m)
    ctrl = start[None, :] + fractions[:, None] * (length * direction)[None, :]
    return PredLane(ctrl=ctrl, class_score=float(rng.uniform(0.05, 0.35)))


def _spurious_box(rng, next_id: int) -> TrafficElement:
    w = rng.uniform(*BOX_WIDTH_RANGE)
    h = rng.uniform(*BOX_HEIGHT_RANGE)
    cx = rng.uniform(w / 2 + 1, IMAGE_WIDTH - w / 2 - 1)
    cy = rng.uniform(h / 2 + 1, IMAGE_HEIGHT - h / 2 - 1)
    return TrafficElement(
        id=next_id,
        box=np.array([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]),
        category=int(rng.integers(NUM_CATEGORIES)),
        confidence=float(rng.uniform(0.05, 0.35)),
    )


def corrupt_scene(scene: SceneRecord, noise: NoiseModel, seed) -> DetectionRecord:
    """Emulate an imperfect detector on one scene, deterministically.

    With the all-zero NoiseModel the output is the ground truth with
    confidence 1.0 for every entity.
    """
    rng = np.random.default_rng(seed)
    lanes: list[PredLane] = []
    for lane in scene.lanes:
        u_drop = rng.uniform()
        jitter = rng.normal(size=lane.ctrl.shape)
        u_conf = rng.uniform()
        if u_drop < noise.drop_prob:
            continue
        ctrl = lane.ctrl + noise.ctrl_sigma * jitter
        score = float(np.clip(1.0 - noise.conf_noise * u_conf, 0.0, 1.0))
        lanes.append(PredLane(ctrl=ctrl, class_score=score))
    m = scene.lanes[0].ctrl.shape[0] if scene.lanes else 4
    extent = max(
        (float(np.max(np.abs(l.ctrl[:, :2]))) for l in scene.lanes), default=50.0
    )
    for _ in range(rng.poisson(noise.spurious_rate)):
        lanes.append(_spurious_lane(rng, extent, m))
    lanes = lanes[:DEFAULT_QUERY_BUDGET]

    traffic: list[TrafficElement] = []
    for te in scene.traffic:
        u_drop = rng.uniform()
        jitter = rng.normal(size=4)
        u_conf = rng.uniform()
        u_confuse = rng.uniform()
        shuffle = int(rng.integers(NUM_CATEGORIES - 1))
        if u_drop < noise.drop_prob:
            continue
        box = te.box + noise.box_sigma * jitter
        x1, x2 = sorted((box[0], box[2]))
        y1, y2 = sorted((box[1], box[3]))
        if x1 == x2:
            x2 += 1e-6
        if y1 == y2:
            y2 += 1e-6
        category = te.category
        if u_confuse < noise.confusion_prob:
            category = (te.category + 1 + shuffle) % NUM_CATEGORIES
        traffic.append(
            TrafficElement(
                id=te.id,
                box=np.array([x1, y1, x2, y2]),
                category=category,
                confidence=float(np.clip(1.0 - noise.conf_noise * u_conf, 0.0, 1.0)),
            )
        )
    next_id = max((te.id for te in scene.traffic), default=-1) + 1
    for _ in range(rng.poisson(noise.spurious_rate)):
        traffic.append(_spurious_box(rng, next_id))
        next_id += 1

    return DetectionRecord(scene.scene_id, lanes, traffic)


def split_counts(total: int, fractions) -> list[int]:
    """Largest-remainder apportionment; exact for fractions that divide evenly."""
    fracs = [float(f) for f in fractions]
    if not all(math.isfinite(f) and f > 0 for f in fracs):
        raise ValueError(f"split fractions must be finite and positive, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")
    raw = [f * total for f in fracs]
    counts = [int(np.floor(r)) for r in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(fracs)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def generate_dataset(
    cfg: GeneratorConfig,
    noise: NoiseModel,
    split_fractions=(0.8, 0.1, 0.1),
    out_dir=".",
) -> dict[str, dict[str, str]]:
    """Generate scenes, corrupt them, and write per-split scene/detection
    files. Splits are disjoint contiguous index ranges, deterministic."""
    counts = split_counts(cfg.scenes, split_fractions)
    if len(counts) != 3:
        raise ValueError(f"split fractions (train, val, test) must be 3 numbers, got {len(counts)}")
    scenes = [generate_scene(cfg, i) for i in range(cfg.scenes)]
    detections = [corrupt_scene(s, noise, [cfg.seed, 10007, i]) for i, s in enumerate(scenes)]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("train", "val", "test")
    paths: dict[str, dict[str, str]] = {}
    start = 0
    for name, count in zip(names, counts):
        chunk = slice(start, start + count)
        start += count
        scene_path = out_dir / f"{name}_scenes.jsonl"
        det_path = out_dir / f"{name}_detections.jsonl"
        dataio.save_scenes(scenes[chunk], scene_path)
        dataio.save_detections(detections[chunk], det_path)
        paths[name] = {"scenes": str(scene_path), "detections": str(det_path), "count": count}
    return paths
