"""Topology-reasoning heads and their from-scratch training machinery.

Two small MLP heads predict lane-lane and lane-traffic connectivity from
frozen detector outputs. Lane features are the sum of a coordinate
embedding and a feature embedding (detector features when available, a
surrogate built from coordinates and class score otherwise). Pairwise
lane-lane features are the concatenation of both lane features; pairwise
lane-traffic features are the elementwise sum of a lane and a traffic
feature. Because a head's first layer is linear, both are evaluated
factorized: each side is projected once and the projections are
broadcast-added, so no per-pair input is ever built. Supervision is focal
loss over all pairs; gradients are hand-derived and parameters, held in
one flat vector, update with a from-scratch AdamW.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, asdict, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import assoc
from .assoc import focal_loss
from .dataio import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    NUM_CATEGORIES,
    DetectionRecord,
    PredictionRecord,
    PredLane,
    SceneRecord,
    TrafficElement,
    validate_detection,
)
from .settings import Settings, setting


class TrainingError(RuntimeError):
    """Raised when the training loop hits a non-finite loss."""


@dataclass
class HeadConfig(Settings):
    feature_dim: int = setting(128, int, "[1, inf)")  # C, width of lane/traffic features
    mlp_hidden: int = setting(128, int, "[1, inf)")
    detector_feature_width: int | None = setting(None, int, "[1, inf)", optional=True)
    control_points: int = setting(4, int, "[2, inf)")  # M
    epochs: int = setting(10, int, "[1, inf)")
    lr: float = setting(2e-4, float, "[0, inf)")
    focal_alpha: float = setting(0.25, float, "[0, 1]")
    focal_gamma: float = setting(2.0, float, "[0, inf)")
    weight_decay: float = setting(0.01, float, "[0, inf)")
    adam_beta1: float = setting(0.9, float, "[0, 1)")
    adam_beta2: float = setting(0.999, float, "[0, 1)")
    adam_eps: float = setting(1e-8, float, "(0, inf)")
    coord_scale: float = setting(50.0, float, "(0, inf)")  # meters; lane coordinates are divided by this
    seed: int = setting(0, int, "[0, inf)")


@dataclass
class MlpParams:
    """Affine-then-rectifier chain; identity on the last layer.

    weights[l] has shape (out_l, in_l); consecutive dimensions must chain.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases length mismatch")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {l}: weight {w.shape} / bias {b.shape} malformed")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(
                    f"layer {l}: input width {w.shape[1]} != previous output {self.weights[l - 1].shape[0]}"
                )

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def module_dims(cfg: HeadConfig) -> dict[str, list[int]]:
    """Layer widths of every module, in parameter-layout order."""
    c, h = cfg.feature_dim, cfg.mlp_hidden
    return {
        "coord_embedder": [3 * cfg.control_points, h, c],
        # detector features, or the surrogate: coordinates plus class score
        "feat_embedder": [cfg.detector_feature_width or 3 * cfg.control_points + 1, h, c],
        # box corners, one-hot category, confidence
        "traffic_embedder": [4 + NUM_CATEGORIES + 1, h, c],
        "ll_head": [2 * c, h, 1],
        "lt_head": [c, h, 1],
    }


class TopoHeadParams:
    """Every learnable parameter of the heads in one float64 vector ``flat``.

    Each module is an MlpParams whose weights and biases are views into
    ``flat``: modules in ``module_dims`` order, then layers in order, each
    weight (row-major) followed by its bias. Update ``flat`` in place only;
    rebinding it would detach the views. ``flat`` defaults to all zeros.
    """

    def __init__(self, config: HeadConfig, flat: np.ndarray | None = None):
        dims = module_dims(config)
        size = sum(o * (i + 1) for d in dims.values() for i, o in zip(d[:-1], d[1:]))
        self.config = config
        self.flat = np.zeros(size) if flat is None else np.asarray(flat, dtype=float)
        if self.flat.shape != (size,):
            raise ValueError(f"flat parameter vector has shape {self.flat.shape}, configuration needs ({size},)")
        offset = 0
        for name, d in dims.items():
            weights, biases = [], []
            for d_in, d_out in zip(d[:-1], d[1:]):
                weights.append(self.flat[offset : offset + d_out * d_in].reshape(d_out, d_in))
                offset += d_out * d_in
                biases.append(self.flat[offset : offset + d_out])
                offset += d_out
            setattr(self, name, MlpParams(weights, biases))

    def modules(self) -> dict[str, MlpParams]:
        return {name: getattr(self, name) for name in module_dims(self.config)}


def _flatten(mlps) -> np.ndarray:
    """Concatenate MLP parameters in the TopoHeadParams layout."""
    return np.concatenate([a.ravel() for mlp in mlps for wb in zip(mlp.weights, mlp.biases) for a in wb])


@dataclass
class TrainStats:
    epoch_loss_ll: list[float] = field(default_factory=list)
    epoch_loss_lt: list[float] = field(default_factory=list)
    epoch_loss_total: list[float] = field(default_factory=list)
    epoch_grad_norm: list[float] = field(default_factory=list)
    val_loss_total: list[float] = field(default_factory=list)
    wall_clock_sec: float = 0.0


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# MLP primitive


def mlp_init(dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer.

    Biases draw from the same interval; exactly-zero biases would park
    rectifier pre-activations on the kink, which breaks finite-difference
    gradient checks.
    """
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_out, d_in)))
        biases.append(rng.uniform(-limit, limit, size=d_out))
    return MlpParams(weights, biases)


def mlp_forward(params: MlpParams, x) -> tuple[np.ndarray, dict]:
    """Run the chain on a (batch, in_dim) matrix; returns the output and
    a cache sufficient for the backward pass."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != params.in_dim:
        raise ValueError(f"input shape {a.shape} != (batch, {params.in_dim})")
    inputs = [a]
    pre = []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        inputs.append(a)
    return a, {"inputs": inputs, "pre": pre}


def mlp_backward(params: MlpParams, cache: dict, output_grad, grads: MlpParams | None = None) -> tuple[MlpParams, np.ndarray]:
    """Exact reverse-mode gradients of mlp_forward.

    Writes the parameter gradients into ``grads`` (new arrays when None)
    and returns them with the gradient w.r.t. the input.
    """
    g = np.asarray(output_grad, dtype=float)
    if g.shape != cache["pre"][-1].shape:
        raise ValueError(f"output_grad shape {g.shape} != forward output {cache['pre'][-1].shape}")
    if grads is None:
        grads = MlpParams([np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases])
    last = len(params.weights) - 1
    for l in range(last, -1, -1):
        gz = g if l == last else g * (cache["pre"][l] > 0)
        grads.weights[l][:] = gz.T @ cache["inputs"][l]
        grads.biases[l][:] = gz.sum(axis=0)
        g = gz @ params.weights[l]
    return grads, g


def init_params(cfg: HeadConfig) -> TopoHeadParams:
    """Seeded init of every module; the draws run in parameter-layout order."""
    rng = np.random.default_rng(cfg.seed)
    return TopoHeadParams(cfg, _flatten(mlp_init(dims, rng) for dims in module_dims(cfg).values()))


# ---------------------------------------------------------------------------
# embeddings and pairwise logits


def _lane_inputs(lanes: Sequence[PredLane], cfg: HeadConfig) -> tuple[np.ndarray, np.ndarray]:
    coords = np.stack([np.asarray(l.ctrl, dtype=float).reshape(-1) for l in lanes])
    coords = coords / cfg.coord_scale
    if cfg.detector_feature_width:
        for i, l in enumerate(lanes):
            if l.feature is None or np.asarray(l.feature).shape != (cfg.detector_feature_width,):
                raise ValueError(f"lane {i}: detector feature of width {cfg.detector_feature_width} required")
        feats = np.stack([np.asarray(l.feature, dtype=float) for l in lanes])
    else:
        scores = np.array([[l.class_score] for l in lanes], dtype=float)
        feats = np.hstack([coords, scores])
    return coords, feats


def traffic_input(te: TrafficElement) -> np.ndarray:
    """Concatenated box (normalized by image extent), one-hot category, confidence."""
    box = np.asarray(te.box, dtype=float)
    norm = box / np.array([IMAGE_WIDTH, IMAGE_HEIGHT, IMAGE_WIDTH, IMAGE_HEIGHT], dtype=float)
    onehot = np.zeros(NUM_CATEGORIES)
    onehot[te.category] = 1.0
    return np.concatenate([norm, onehot, [te.confidence]])


def embed_lanes(lanes: Sequence[PredLane], params: TopoHeadParams):
    """Per-lane sum of the coordinate embedding and the (detector or
    surrogate) feature embedding, shape (n, C), plus the backward cache."""
    cfg = params.config
    if not lanes:
        return np.zeros((0, cfg.feature_dim)), None
    coord_in, feat_in = _lane_inputs(lanes, cfg)
    coord_out, coord_cache = mlp_forward(params.coord_embedder, coord_in)
    feat_out, feat_cache = mlp_forward(params.feat_embedder, feat_in)
    return coord_out + feat_out, (coord_cache, feat_cache)


def embed_traffic_batch(elements: Sequence[TrafficElement], params: TopoHeadParams):
    if not elements:
        return np.zeros((0, params.config.feature_dim)), None
    x = np.stack([traffic_input(te) for te in elements])
    return mlp_forward(params.traffic_embedder, x)


# hidden entries per block of pair rows (256 KiB of float64, cache-resident):
# a 16-lane scene is one block, a ~300 x 300 scene one left row per block
_PAIR_BLOCK = 1 << 15


def _pair_blocks(n: int, m: int, hidden: int):
    rows = max(1, _PAIR_BLOCK // max(m * hidden, 1))
    return (slice(i, i + rows) for i in range(0, n, rows))


def _pair_logits(head: MlpParams, left: np.ndarray, right: np.ndarray, left_cols: slice, right_cols: slice):
    """Logits of the one-hidden-layer ``head`` for every (left row i, right row j) pair.

    The head's first layer sees row i of ``left`` through its input
    columns ``left_cols`` and row j of ``right`` through ``right_cols``, so
    it is the broadcast sum of two per-side projections. The hidden layer
    is built a block of left rows at a time and never kept.
    """
    w1, w2, b2 = head.weights[0], head.weights[1][0], head.biases[1][0]
    proj_l, proj_r = left @ w1[:, left_cols].T, right @ w1[:, right_cols].T
    shifted = proj_r + head.biases[0]
    out = np.empty((len(left), len(right)))
    for rows in _pair_blocks(len(left), len(right), len(w2)):
        hidden = proj_l[rows, None] + shifted
        # einsum, not BLAS: a logit's bits must not depend on its position
        out[rows] = np.einsum("kjh,h->kj", np.maximum(hidden, 0.0, out=hidden), w2) + b2
    return out, {"proj": (proj_l, proj_r), "sides": ((left, left_cols), (right, right_cols))}


def _pair_backward(head: MlpParams, head_grads: MlpParams, cache: dict, dlogits: np.ndarray):
    """Backward of _pair_logits. Fills ``head_grads``, which must hold zeros,
    and returns the gradients w.r.t. ``left`` and ``right``."""
    (proj_l, proj_r), ((left, left_cols), (right, right_cols)) = cache["proj"], cache["sides"]
    w1, w2 = head.weights[0], head.weights[1][0]
    shifted = proj_r + head.biases[0]
    # masked dlogits summed over the other side; scaled by w2 at the end
    g_left, g_right = np.empty_like(proj_l), np.zeros_like(proj_r)
    for rows in _pair_blocks(*dlogits.shape, len(w2)):
        d = dlogits[rows]
        hidden = np.maximum(proj_l[rows, None] + shifted, 0.0)
        head_grads.weights[1][0] += d.reshape(-1) @ hidden.reshape(-1, len(w2))
        masked = np.greater(hidden, 0.0, out=hidden)
        masked *= d[..., None]
        g_left[rows] = masked.sum(axis=1)
        g_right += masked.sum(axis=0)
    head_grads.biases[1][:] += dlogits.sum()
    g_left, g_right = g_left * w2, g_right * w2
    head_grads.biases[0][:] += g_left.sum(axis=0)
    head_grads.weights[0][:, left_cols] += g_left.T @ left
    head_grads.weights[0][:, right_cols] += g_right.T @ right
    return g_left @ w1[:, left_cols], g_right @ w1[:, right_cols]


def ll_logits(lane_feats: np.ndarray, params: TopoHeadParams):
    """Pairwise lane-lane logits, entry (i, j) = head([feat_i || feat_j]).

    The diagonal is computed but callers exclude it from loss and metrics.
    """
    c = params.config.feature_dim
    return _pair_logits(params.ll_head, lane_feats, lane_feats, slice(0, c), slice(c, 2 * c))


def lt_logits(lane_feats: np.ndarray, traffic_feats: np.ndarray, params: TopoHeadParams):
    """Pairwise lane-traffic logits, entry (i, k) = head(lane_i + traffic_k)."""
    return _pair_logits(params.lt_head, lane_feats, traffic_feats, slice(None), slice(None))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)  # not state

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, params: TopoHeadParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adamw_step(
    params: TopoHeadParams,
    grads: TopoHeadParams,
    state: AdamState,
    step_index: int,
    cfg: HeadConfig,
) -> tuple[TopoHeadParams, AdamState]:
    """Decoupled-weight-decay Adam update with bias correction (in place).

    ``step_index`` is 1-based. The update ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``
    keeps that operation order; its temporaries live in ``state.scratch``.
    """
    if step_index < 1:
        raise ValueError("step_index is 1-based")
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if p.shape != g.shape:
        raise ValueError(f"parameter/gradient shape mismatch: {p.shape} vs {g.shape}")
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1, c2 = 1.0 - b1**step_index, 1.0 - b2**step_index
    s, t = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=s)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
    p *= 1.0 - cfg.lr * cfg.weight_decay
    np.multiply(cfg.lr, np.divide(m, c1, out=s), out=s)
    np.add(np.sqrt(np.divide(v, c2, out=t), out=t), cfg.adam_eps, out=t)
    p -= np.divide(s, t, out=s)
    return params, state


# ---------------------------------------------------------------------------
# full-scene loss, training and inference


def scene_loss_and_grads(
    detection: DetectionRecord,
    scene: SceneRecord,
    params: TopoHeadParams,
    cost_cfg: assoc.CostConfig | None = None,
    compute_grads: bool = True,
):
    """Focal-loss objective of one scene and its parameter gradients.

    The loss is the mean focal loss over all off-diagonal lane-lane pairs
    plus the mean over all lane-traffic pairs, with labels projected from
    the GT through optimal matching.
    """
    cfg = params.config
    n, t = len(detection.lanes), len(detection.traffic)
    lane_feats, lane_cache = embed_lanes(detection.lanes, params)
    traffic_feats, traffic_cache = embed_traffic_batch(detection.traffic, params)
    ll_z, ll_cache = ll_logits(lane_feats, params)
    lt_z, lt_cache = lt_logits(lane_feats, traffic_feats, params)

    lane_assign = assoc.match_for_training(detection.lanes, scene.lanes, cost_cfg)
    traffic_assign = assoc.match_traffic_for_training(detection.traffic, scene.traffic, cost_cfg)
    ll_labels, lt_labels = assoc.project_edges(lane_assign.pairs, traffic_assign.pairs, scene, n, t)

    off_diag = ~np.eye(n, dtype=bool) if n else np.zeros((0, 0), dtype=bool)
    n_ll = int(off_diag.sum())
    n_lt = n * t

    ll_loss_terms, ll_grad_terms = focal_loss(stable_sigmoid(ll_z), ll_labels, cfg.focal_alpha, cfg.focal_gamma)
    lt_loss_terms, lt_grad_terms = focal_loss(stable_sigmoid(lt_z), lt_labels, cfg.focal_alpha, cfg.focal_gamma)
    loss_ll = float(ll_loss_terms[off_diag].mean()) if n_ll else 0.0
    loss_lt = float(lt_loss_terms.mean()) if n_lt else 0.0

    if not compute_grads:
        return loss_ll, loss_lt, None

    # an edge space without pairs contributes zero gradient
    grads = TopoHeadParams(cfg)
    dll = np.where(off_diag, ll_grad_terms, 0.0) / max(n_ll, 1)
    g_left, g_right = _pair_backward(params.ll_head, grads.ll_head, ll_cache, dll)
    g_lanes, dfeat_traffic = _pair_backward(params.lt_head, grads.lt_head, lt_cache, lt_grad_terms / max(n_lt, 1))
    dfeat_lanes = g_left + g_right + g_lanes
    if n:
        coord_cache, feat_cache = lane_cache
        mlp_backward(params.coord_embedder, coord_cache, dfeat_lanes, grads.coord_embedder)
        mlp_backward(params.feat_embedder, feat_cache, dfeat_lanes, grads.feat_embedder)
    if t:
        mlp_backward(params.traffic_embedder, traffic_cache, dfeat_traffic, grads.traffic_embedder)
    return loss_ll, loss_lt, grads


def _pair_by_scene_id(scenes, detections, what: str):
    by_id = {d.scene_id: d for d in detections}
    if len(by_id) != len(detections):
        repeated = sorted(i for i, count in Counter(d.scene_id for d in detections).items() if count > 1)
        raise ValueError(f"{what}: duplicate detections for scenes {repeated}")
    missing = [s.scene_id for s in scenes if s.scene_id not in by_id]
    if missing:
        raise ValueError(f"{what}: detections missing for scenes {missing}")
    return [(s, by_id[s.scene_id]) for s in scenes]


def train(
    train_scenes: Sequence[SceneRecord],
    train_detections: Sequence[DetectionRecord],
    val_scenes: Sequence[SceneRecord] = (),
    val_detections: Sequence[DetectionRecord] = (),
    cfg: HeadConfig | None = None,
    cost_cfg: assoc.CostConfig | None = None,
) -> tuple[TopoHeadParams, TrainStats]:
    """Train both heads with one AdamW step per scene.

    Deterministic given ``cfg.seed``: seeded init, one seeded scene
    permutation reused by every epoch.
    """
    cfg = cfg or HeadConfig()
    cost_cfg = cost_cfg or assoc.CostConfig()  # built once, not per scene
    if not train_scenes:
        raise ValueError("training set is empty")
    pairs = _pair_by_scene_id(train_scenes, train_detections, "train")
    val_pairs = _pair_by_scene_id(val_scenes, val_detections, "val") if val_scenes else []

    params = init_params(cfg)
    state = AdamState.zeros(params)
    order = np.random.default_rng(cfg.seed).permutation(len(pairs))
    stats = TrainStats()
    t_start = time.perf_counter()
    step = 0
    for epoch in range(cfg.epochs):
        losses_ll, losses_lt, norms = [], [], []
        for idx in order:
            scene, det = pairs[idx]
            loss_ll, loss_lt, grads = scene_loss_and_grads(det, scene, params, cost_cfg)
            total = loss_ll + loss_lt
            if not np.isfinite(total):
                raise TrainingError(f"non-finite loss at epoch {epoch}, scene {scene.scene_id!r}")
            step += 1
            norms.append(float(np.sqrt(grads.flat @ grads.flat)))
            adamw_step(params, grads, state, step, cfg)
            losses_ll.append(loss_ll)
            losses_lt.append(loss_lt)
        stats.epoch_loss_ll.append(float(np.mean(losses_ll)))
        stats.epoch_loss_lt.append(float(np.mean(losses_lt)))
        stats.epoch_loss_total.append(float(np.mean(losses_ll) + np.mean(losses_lt)))
        stats.epoch_grad_norm.append(float(np.mean(norms)))
        if val_pairs:
            vals = [
                sum(scene_loss_and_grads(d, s, params, cost_cfg, compute_grads=False)[:2])
                for s, d in val_pairs
            ]
            stats.val_loss_total.append(float(np.mean(vals)))
    stats.wall_clock_sec = time.perf_counter() - t_start
    return params, stats


def predict(detection: DetectionRecord, params: TopoHeadParams) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid probabilities for both edge spaces; the lane-lane diagonal
    (self-loops) is forced to zero."""
    lane_feats, _ = embed_lanes(detection.lanes, params)
    traffic_feats, _ = embed_traffic_batch(detection.traffic, params)
    ll_z, _ = ll_logits(lane_feats, params)
    lt_z, _ = lt_logits(lane_feats, traffic_feats, params)
    ll_p = stable_sigmoid(ll_z)
    np.fill_diagonal(ll_p, 0.0)
    return ll_p, stable_sigmoid(lt_z)


def predict_records(detections: Sequence[DetectionRecord], params: TopoHeadParams) -> list[PredictionRecord]:
    """Prediction records for every detection, after checking that every
    lane has the control-point count the parameters were trained for."""
    for det in detections:
        validate_detection(det, control_points=params.config.control_points)
    return [PredictionRecord(d.scene_id, d.lanes, d.traffic, *predict(d, params)) for d in detections]


# ---------------------------------------------------------------------------
# persistence


def save_params(params: TopoHeadParams, path) -> None:
    obj = {
        "config": asdict(params.config),
        "modules": {
            name: [
                {"weight": w.tolist(), "bias": b.tolist()}
                for w, b in zip(mlp.weights, mlp.biases)
            ]
            for name, mlp in params.modules().items()
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _saved_config(raw: dict) -> HeadConfig:
    """HeadConfig from a saved config echo. Older files also carry the unused
    ``query_budget`` and ``lt_compose``, which must be the sum."""
    raw = dict(raw)
    raw.pop("query_budget", None)
    compose = raw.pop("lt_compose", "sum")
    if compose != "sum":
        raise ValueError(f"config field lt_compose: only 'sum' is supported, got {compose!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(HeadConfig)})
    if unknown:
        raise ValueError(f"unknown config field(s) {unknown}")
    return HeadConfig(**raw)


def load_params(path) -> TopoHeadParams:
    """Parameters saved by ``save_params``, validated against their config."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        cfg = _saved_config(obj["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    dims = module_dims(cfg)
    if set(obj["modules"]) != set(dims):
        raise ValueError(f"{path}: modules {sorted(obj['modules'])} != expected {sorted(dims)}")
    mlps = []
    for name, d in dims.items():
        layers = obj["modules"][name]
        weights = [np.asarray(l["weight"], dtype=float) for l in layers]
        biases = [np.asarray(l["bias"], dtype=float) for l in layers]
        if [w.shape for w in weights] != [(o, i) for i, o in zip(d[:-1], d[1:])]:
            raise ValueError(f"{path}: {name}: layer shapes do not match the configuration")
        mlps.append(MlpParams(weights, biases))  # checks the bias shapes
    return TopoHeadParams(cfg, _flatten(mlps))


def save_stats(stats: TrainStats, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(asdict(stats), indent=2) + "\n", encoding="utf-8")
