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
loss over all pairs, with labels projected from the GT through optimal
matching. The detector is frozen, so a scene's matches, labels and
embedder inputs (its ``SceneTargets``) are built once per training run.
Gradients are hand-derived and parameters, held in one flat vector,
update with a from-scratch AdamW.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, asdict, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import assoc
from .assoc import focal_loss
from .dataio import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    NUM_CATEGORIES,
    DetectionRecord,
    PredictionRecord,
    SceneRecord,
    TrafficElement,
    category_indices,
    lane_features,
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
    """1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below, from one exp(-|z|), in two
    arrays: more freed (n, n) temporaries make glibc trim the heap at ~300 lanes."""
    z = np.asarray(z, dtype=float)
    e = np.abs(z, out=np.empty_like(z))
    np.exp(np.negative(e, out=e), out=e)
    p = np.where(z >= 0, 1.0, e)
    return np.divide(p, np.add(e, 1.0, out=e), out=p)


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


_IMAGE_EXTENT = np.array([IMAGE_WIDTH, IMAGE_HEIGHT, IMAGE_WIDTH, IMAGE_HEIGHT], dtype=float)


def lane_inputs(detection: DetectionRecord, cfg: HeadConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two lane embedders' inputs: control points over ``coord_scale``,
    (n, 3M), and the detector features (see ``lane_features``) or, without
    them, the surrogate of coordinates plus class score."""
    lanes = detection.lanes
    n = len(lanes)
    coords = np.array([l.ctrl for l in lanes], dtype=float).reshape(n, 3 * cfg.control_points) / cfg.coord_scale
    if cfg.detector_feature_width:
        feats = lane_features(detection, cfg.detector_feature_width)
    else:
        feats = np.hstack([coords, np.array([l.class_score for l in lanes], dtype=float)[:, None]])
    return coords, feats


def traffic_inputs(elements: Sequence[TrafficElement]) -> np.ndarray:
    """The traffic embedder's input, one row per element: the box over the
    image extent, the one-hot category and the confidence. A category that
    is no integer in [0, NUM_CATEGORIES) is an error (see ``category_indices``)."""
    t = len(elements)
    categories = category_indices(elements)
    x = np.zeros((t, 4 + NUM_CATEGORIES + 1))
    x[:, :4] = np.array([te.box for te in elements], dtype=float).reshape(t, 4) / _IMAGE_EXTENT
    x[:, 4:-1][np.arange(t), categories] = 1.0
    x[:, -1] = [te.confidence for te in elements]
    return x


def embed_lanes(inputs: tuple[np.ndarray, np.ndarray], params: TopoHeadParams):
    """Per-lane sum of the coordinate embedding and the (detector or
    surrogate) feature embedding of ``lane_inputs``, shape (n, C), plus the
    backward cache."""
    coord_in, feat_in = inputs
    coord_out, coord_cache = mlp_forward(params.coord_embedder, coord_in)
    feat_out, feat_cache = mlp_forward(params.feat_embedder, feat_in)
    return coord_out + feat_out, (coord_cache, feat_cache)


def embed_traffic_batch(inputs: np.ndarray, params: TopoHeadParams):
    """Traffic embedding of ``traffic_inputs``, shape (t, C), plus the backward cache."""
    return mlp_forward(params.traffic_embedder, inputs)


# hidden (forward) or mask (backward) entries per block of pair rows: 1 MiB
# as float64, half of one core's 2 MiB L2. A 16-20-lane scene's call is one
# block, a ~300 x 300 call about 100 blocks of three rows.
_PAIR_BLOCK = 1 << 17

# A kernel call of at least this many pairs, n * m, shares its blocks with a
# helper thread, whatever the hidden width H: from 223 rows at 295 columns,
# or 219 columns at 300 rows, so a ~300-lane scene's calls split and a
# default 16-20-lane scene's never do. On a 2-vCPU host whose second vCPU
# is often time-sliced away, a training step that split every call of 4 or
# more one-row blocks ran 0.92-1.01x as fast from 24 to 150 lanes, and
# 1.22-1.44x at 300 (H = 128). With both vCPUs running, from H = 3 to 128,
# a step split from 256 x 256 pairs on was never slower (parity at H = 3,
# 1.16-1.55x from H = 8), and one of 120 x 120 pairs at H = 8 ran 0.83x.
_SPLIT_PAIRS = 1 << 16


def _pair_blocks(n: int, m: int, hidden: int):
    rows = max(1, _PAIR_BLOCK // max(m * hidden, 1))
    return (slice(i, min(i + rows, n)) for i in range(0, n, rows))


@functools.cache
def _openblas_threads():
    """The ``(get, set)`` thread-count entry points of the OpenBLAS library
    that numpy loaded, or None where they cannot be found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS held to one thread, so that its workers neither spin nor
    compete with the pair kernels' helper thread; the caller's count comes
    back on exit, on error too. The count is process-global, so concurrent
    callers are not supported."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def _blockwise(n: int, m: int, hidden: int, work: Callable[[slice, np.ndarray], None]) -> None:
    """``work(rows, buffer)`` for every block of ``_pair_blocks(n, m, hidden)``,
    ``buffer`` a float64 (block rows, m, hidden) scratch array that the block
    may overwrite.

    From ``_SPLIT_PAIRS`` pairs (n * m) on, a helper thread started here and
    the calling thread take blocks in turn from one deque, so a helper that
    starts late takes fewer; the helper is joined before the call returns,
    which raises the caller's error first, else the helper's. Each block
    writes only its own rows, so every result keeps its bits.
    """
    blocks = deque(_pair_blocks(n, m, hidden))  # popleft is atomic: each block is taken once
    split = n * m >= _SPLIT_PAIRS
    buffers = np.empty((1 + split, blocks[0].stop if blocks else 0, m, hidden))

    def run(buffer):
        while True:
            try:
                rows = blocks.popleft()
            except IndexError:  # every block taken
                return
            work(rows, buffer[: rows.stop - rows.start])

    if not split:
        run(buffers[0])
        return
    errors = []

    def helper():
        try:
            run(buffers[1])
        except BaseException as exc:  # raised again by the caller, below
            errors.append(exc)

    thread = threading.Thread(target=helper, name="lanetopo-pairs")
    thread.start()
    try:
        run(buffers[0])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _pair_logits(head: MlpParams, left: np.ndarray, right: np.ndarray, left_cols: slice, right_cols: slice):
    """Logits of the one-hidden-layer ``head`` for every (left row i, right row j) pair.

    The head's first layer sees row i of ``left`` through its input
    columns ``left_cols`` and row j of ``right`` through ``right_cols``, so
    it is the broadcast sum of two per-side projections. The hidden layer
    is built a block of left rows at a time and never kept. The cache holds
    ``proj_l`` and ``shifted``, the right side's projection plus the first
    bias, built in place: the backward needs no other form of it.
    """
    w1, w2, b2 = head.weights[0], head.weights[1][0], head.biases[1][0]
    proj_l, shifted = left @ w1[:, left_cols].T, right @ w1[:, right_cols].T
    shifted += head.biases[0]
    out = np.empty((len(left), len(right)))

    def block(rows, hidden):
        np.maximum(np.add(proj_l[rows, None], shifted, out=hidden), 0.0, out=hidden)
        # einsum, not BLAS: a logit's bits must not depend on its position
        np.einsum("kjh,h->kj", hidden, w2, out=out[rows])
        out[rows] += b2

    _blockwise(len(left), len(right), len(w2), block)
    return out, {"proj": (proj_l, shifted), "sides": ((left, left_cols), (right, right_cols))}


def _masked_sums(d: np.ndarray, near: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Row i is sum_j d[i, j] * [near[i] + far[j] > 0], shape (len(near), H).

    A rounded sum of two doubles is 0 only when they cancel exactly, so
    ``near[i] + far[j] > 0`` holds exactly when ``near[i] > -far[j]``: the
    mask is the forward's rectifier mask bit for bit, built without the sum,
    as 0.0 / 1.0 so that ``matmul`` needs no cast of it.
    """
    out = np.empty_like(near)
    neg = -far

    def block(rows, mask):
        np.matmul(d[rows, None, :], np.greater(near[rows, None], neg, out=mask), out=out[rows, None])

    _blockwise(len(near), *far.shape, block)
    return out


def _pair_backward(head: MlpParams, head_grads: MlpParams, cache: dict, dlogits: np.ndarray):
    """Backward of _pair_logits. Fills ``head_grads``, which must hold zeros,
    and returns the gradients w.r.t. ``left`` and ``right``.

    Only the rectifier mask of each pair enters, never its hidden value.
    With G_l[i] = sum_j dlogits[i, j] * mask[i, j] and G_r[j] the same sum
    over i (see _masked_sums), relu(a + b) = (a + b) * mask gives
    dw2 = sum_i proj_l[i] * G_l[i] + sum_j shifted[j] * G_r[j], where
    shifted = proj_r + b1 comes from the forward's cache.
    """
    (proj_l, shifted), ((left, left_cols), (right, right_cols)) = cache["proj"], cache["sides"]
    w1, w2 = head.weights[0], head.weights[1][0]
    g_left = _masked_sums(dlogits, proj_l, shifted)
    g_right = _masked_sums(dlogits.T, shifted, proj_l)
    head_grads.weights[1][0] += np.einsum("ih,ih->h", proj_l, g_left) + np.einsum("jh,jh->h", shifted, g_right)
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


@dataclass(frozen=True, eq=False)
class SceneTargets:
    """Everything in a scene's objective that no parameter enters. The
    detector is frozen, so a scene's targets hold for every training step."""

    lane_in: tuple[np.ndarray, np.ndarray]  # lane_inputs
    traffic_in: np.ndarray  # traffic_inputs
    ll_labels: np.ndarray  # bool (n, n): GT edges projected through the training matches
    lt_labels: np.ndarray  # bool (n, t)
    off_diag: np.ndarray  # bool (n, n): the lane-lane pairs the loss averages over


def scene_targets(detection: DetectionRecord, scene: SceneRecord, cfg: HeadConfig) -> SceneTargets:
    """The embedder inputs of ``detection`` and the labels that its optimal
    matching against ``scene`` (at the default ``CostConfig``) projects
    from the GT edges: the one-scene form of :func:`scene_targets_batch`."""
    return scene_targets_batch([(scene, detection)], cfg)[0]


def scene_targets_batch(pairs: Sequence[tuple[SceneRecord, DetectionRecord]], cfg: HeadConfig) -> list[SceneTargets]:
    """:func:`scene_targets` of every (scene, detection) pair, with every
    scene's lane and traffic matches found in one stacked Hungarian solve."""
    costs = []
    for scene, det in pairs:
        costs += [assoc.lane_training_cost(det.lanes, scene.lanes), assoc.traffic_training_cost(det.traffic, scene.traffic)]
    matches = assoc.hungarian_solve_batch(costs)
    return [
        SceneTargets(
            lane_inputs(det, cfg),
            traffic_inputs(det.traffic),
            *assoc.project_edges(matches[2 * i], matches[2 * i + 1], scene),
            ~np.eye(len(det.lanes), dtype=bool),
        )
        for i, (scene, det) in enumerate(pairs)
    ]


def scene_loss_and_grads(
    targets: SceneTargets,
    params: TopoHeadParams,
    compute_grads: bool = True,
    grads: TopoHeadParams | None = None,
):
    """Focal-loss objective of one scene and its parameter gradients.

    The loss is the mean focal loss over all off-diagonal lane-lane pairs
    plus the mean over all lane-traffic pairs. The gradients go into
    ``grads``, zeroed here (new when None).
    """
    cfg = params.config
    n, t = targets.lt_labels.shape
    lane_feats, lane_cache = embed_lanes(targets.lane_in, params)
    traffic_feats, traffic_cache = embed_traffic_batch(targets.traffic_in, params)

    # One head at a time, each spent (n, n) / (n, t) array dropped at once:
    # at ~300 lanes these arrays set the process's peak memory.
    off_diag = targets.off_diag
    n_ll = int(off_diag.sum())
    ll_z, ll_cache = ll_logits(lane_feats, params)
    terms, dll = focal_loss(stable_sigmoid(ll_z), targets.ll_labels, cfg.focal_alpha, cfg.focal_gamma)
    del ll_z
    loss_ll = float(terms[off_diag].mean()) if n_ll else 0.0
    del terms
    if compute_grads:
        if grads is None:
            grads = TopoHeadParams(cfg)
        else:
            grads.flat.fill(0.0)  # _pair_backward adds into it
        # an edge space without pairs contributes zero gradient
        np.copyto(dll, 0.0, where=~off_diag)
        dll /= max(n_ll, 1)
        g_left, g_right = _pair_backward(params.ll_head, grads.ll_head, ll_cache, dll)
    del dll, ll_cache

    n_lt = n * t
    lt_z, lt_cache = lt_logits(lane_feats, traffic_feats, params)
    terms, dlt = focal_loss(stable_sigmoid(lt_z), targets.lt_labels, cfg.focal_alpha, cfg.focal_gamma)
    del lt_z
    loss_lt = float(terms.mean()) if n_lt else 0.0
    del terms
    if not compute_grads:
        return loss_ll, loss_lt, None
    dlt /= max(n_lt, 1)
    g_lanes, dfeat_traffic = _pair_backward(params.lt_head, grads.lt_head, lt_cache, dlt)
    del dlt, lt_cache

    dfeat_lanes = g_left + g_right + g_lanes
    coord_cache, feat_cache = lane_cache
    mlp_backward(params.coord_embedder, coord_cache, dfeat_lanes, grads.coord_embedder)
    mlp_backward(params.feat_embedder, feat_cache, dfeat_lanes, grads.feat_embedder)
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


@_one_blas_thread()
def train(
    train_scenes: Sequence[SceneRecord],
    train_detections: Sequence[DetectionRecord],
    val_scenes: Sequence[SceneRecord] = (),
    val_detections: Sequence[DetectionRecord] = (),
    cfg: HeadConfig | None = None,
    on_epoch: Callable[[int, TrainStats], None] | None = None,
) -> tuple[TopoHeadParams, TrainStats]:
    """Train both heads with one AdamW step per scene.

    Deterministic given ``cfg.seed``: seeded init, one seeded scene
    permutation reused by every epoch. Every train and validation scene's
    targets are built once, before the first epoch, in one stacked
    Hungarian solve. ``on_epoch(epoch, stats)`` runs as each epoch
    ends (``epoch`` counts from 0), after its entries are in ``stats``.
    OpenBLAS runs on one thread inside the call (see ``_one_blas_thread``).
    """
    cfg = cfg or HeadConfig()
    if not train_scenes:
        raise ValueError("training set is empty")
    pairs = _pair_by_scene_id(train_scenes, train_detections, "train")
    val_pairs = _pair_by_scene_id(val_scenes, val_detections, "val") if val_scenes else []

    params = init_params(cfg)
    state = AdamState.zeros(params)
    grads = TopoHeadParams(cfg)
    order = np.random.default_rng(cfg.seed).permutation(len(pairs))
    stats = TrainStats()
    t_start = time.perf_counter()
    targets = scene_targets_batch(pairs + val_pairs, cfg)
    targets, val_targets = targets[: len(pairs)], targets[len(pairs) :]
    step = 0
    for epoch in range(cfg.epochs):
        losses_ll, losses_lt, norms = [], [], []
        for idx in order:
            loss_ll, loss_lt, _ = scene_loss_and_grads(targets[idx], params, grads=grads)
            total = loss_ll + loss_lt
            if not np.isfinite(total):
                raise TrainingError(f"non-finite loss at epoch {epoch}, scene {pairs[idx][0].scene_id!r}")
            step += 1
            # a numpy reduction, not BLAS: its bits and time do not depend on BLAS threads
            norms.append(float(np.sqrt(np.einsum("i,i->", grads.flat, grads.flat))))
            adamw_step(params, grads, state, step, cfg)
            losses_ll.append(loss_ll)
            losses_lt.append(loss_lt)
        stats.epoch_loss_ll.append(float(np.mean(losses_ll)))
        stats.epoch_loss_lt.append(float(np.mean(losses_lt)))
        stats.epoch_loss_total.append(float(np.mean(losses_ll) + np.mean(losses_lt)))
        stats.epoch_grad_norm.append(float(np.mean(norms)))
        if val_targets:
            vals = [sum(scene_loss_and_grads(v, params, compute_grads=False)[:2]) for v in val_targets]
            stats.val_loss_total.append(float(np.mean(vals)))
        if on_epoch is not None:
            on_epoch(epoch, stats)
    stats.wall_clock_sec = time.perf_counter() - t_start
    return params, stats


@_one_blas_thread()
def predict(detection: DetectionRecord, params: TopoHeadParams) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid probabilities for both edge spaces; the lane-lane diagonal
    (self-loops) is forced to zero. OpenBLAS runs on one thread inside the
    call (see ``_one_blas_thread``)."""
    # the embedders' backward caches are dropped before the pair kernels run,
    # and each head's logits before the next head's are built
    lane_feats = embed_lanes(lane_inputs(detection, params.config), params)[0]
    traffic_feats = embed_traffic_batch(traffic_inputs(detection.traffic), params)[0]
    ll_p = stable_sigmoid(ll_logits(lane_feats, params)[0])
    np.fill_diagonal(ll_p, 0.0)
    return ll_p, stable_sigmoid(lt_logits(lane_feats, traffic_feats, params)[0])


def predict_records(detections: Sequence[DetectionRecord], params: TopoHeadParams) -> list[PredictionRecord]:
    """Prediction records for every detection, after checking that every
    lane has the control-point count and the detector feature width the
    parameters were trained for."""
    cfg = params.config
    for det in detections:
        validate_detection(det, cfg.control_points, cfg.detector_feature_width)
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
