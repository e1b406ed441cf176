"""Geometric kernels: Bezier lanes, discrete Frechet distance, box IoU.

Lanes are Bezier curves given by an ordered set of 3D control points
(ego-centric ground frame, meters). Traffic elements are axis-aligned
2D boxes in pixels. Everything here is a pure function of its inputs.

The pairwise kernels (``frechet_distance``, ``box_iou``,
``control_point_l1``) take either one item per side and return a float,
or one batch per side and return the (n, m) matrix of every pair; the
Frechet kernels and ``box_iou`` also take stacked batches, (..., n, P, 3)
x (..., m, Q, 3) and (..., n, 4) x (..., m, 4) -> (..., n, m). Every form
runs the same elementwise arithmetic, so a matrix entry equals the float of
its pair bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bezier_point",
    "sample_lane",
    "frechet_distance",
    "frechet_lower_bound",
    "box_iou",
    "control_point_l1",
    "as_control_points",
    "as_box",
]


def _is_batch(a, b, item_ndim: int) -> bool:
    """True for two batches, False for two single items."""
    batch_a, batch_b = np.ndim(a) > item_ndim, np.ndim(b) > item_ndim
    if batch_a != batch_b:
        raise ValueError("pass one item per side or one batch per side, not a mix")
    return batch_a


def array_shape(value) -> tuple | None:
    """``np.shape(value)``, or None where ``value`` is ragged (of unequal lengths)."""
    try:
        return np.shape(value)
    except ValueError:
        return None


def float_array(value) -> np.ndarray | None:
    """``np.asarray(value, dtype=float)``, or None where ``value`` is ragged; an
    integer beyond the float range is a ValueError."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError("number outside the float range") from None
    except ValueError:
        if array_shape(value) is not None:  # stacks, so a value is not numeric
            raise
    return None


def as_control_points(ctrl, batch: bool = False) -> np.ndarray:
    """Coerce to a (M, 3) float array of control points, M >= 2, all finite;
    with ``batch``, to an (L, M, 3) stack of such lanes."""
    pts = float_array(ctrl)
    if pts is None or pts.ndim != 2 + batch or pts.shape[-1] != 3:
        got = "a ragged list" if pts is None else pts.shape
        raise ValueError(f"control points must have shape {'(L, M, 3)' if batch else '(M, 3)'}, got {got}")
    if pts.shape[-2] < 2:
        raise ValueError("a lane needs at least 2 control points")
    if not np.isfinite(pts).all():
        raise ValueError("control points must be finite")
    return pts


def as_box(box, batch: bool = False) -> np.ndarray:
    """Coerce to a (4,) float array (x1, y1, x2, y2) with x1 < x2 and y1 < y2;
    with ``batch``, to an (n, 4) or (..., n, 4) stack of such boxes."""
    b = float_array(box)
    if b is not None and not batch:
        b = b.reshape(-1)
    if b is None or b.shape[-1:] != (4,) or (b.ndim < 2 if batch else b.ndim != 1):
        raise ValueError(f"box must have 4 coordinates, got {'a ragged list' if b is None else b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("box coordinates must be finite")
    flat = b.reshape(-1, 4)
    bad = flat[:, :2] >= flat[:, 2:]  # all finite here, so >= is "not <"
    if bad.any():
        raise ValueError(f"degenerate box {flat[bad.any(axis=1)][0].tolist()}: need x1 < x2 and y1 < y2")
    return b


def _de_casteljau(pts: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Bezier points of (..., M, 3) control points at each parameter in
    ``ts``: (..., len(ts), 3), by repeated linear interpolation."""
    m = pts.shape[-2]
    b = np.repeat(pts[..., None, :, :], len(ts), axis=-3)
    t = ts[:, None, None]
    for step in range(1, m):
        b[..., : m - step, :] = (1.0 - t) * b[..., : m - step, :] + t * b[..., 1 : m - step + 1, :]
    return b[..., 0, :]


def bezier_point(ctrl, t: float) -> np.ndarray:
    """Evaluate the degree-(M-1) Bezier curve of (M, 3) control points at
    ``t`` in [0, 1]; returns a (3,) point.

    Uses de Casteljau's recurrence (repeated linear interpolation of the
    Bernstein form), which is exact at the endpoints: t=0 returns the
    first control point and t=1 the last.
    """
    pts = as_control_points(ctrl)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"parameter t={t} outside [0, 1]")
    return _de_casteljau(pts, np.array([t], dtype=float))[0]


def sample_lane(ctrl, num_points: int) -> np.ndarray:
    """Sample lanes at uniform parameters t = k/(P-1), k = 0..P-1.

    One (M, 3) lane gives a (P, 3) polyline; an (L, M, 3) batch gives
    (L, P, 3). The first/last samples equal the first/last control points
    exactly.
    """
    pts = as_control_points(ctrl, batch=np.ndim(ctrl) == 3)
    if num_points < 2:
        raise ValueError(f"need at least 2 sample points, got {num_points}")
    ts = np.arange(num_points, dtype=float) / (num_points - 1)
    return _de_casteljau(pts, ts)


def _polylines(a, b):
    """Both sides as float arrays of polylines with at least one point each,
    plus whether they are batches."""
    batch = _is_batch(a, b, 2)
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if not batch:
        pa, pb = np.atleast_2d(pa)[None], np.atleast_2d(pb)[None]
    if pa.shape[-2] == 0 or pb.shape[-2] == 0:
        raise ValueError("polylines must contain at least one point")
    return pa, pb, batch


def _point_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Distances between every point of (..., n, P, 3) and (..., m, Q, 3)
    polylines, as (P, Q, ..., n, m): each lattice cell is one contiguous
    (..., n, m) block. The squared x, y and z differences are summed in that
    order, as a sum over the last axis would, then square-rooted."""
    lead = np.broadcast_shapes(pa.shape[:-3], pb.shape[:-3])
    pa = np.broadcast_to(pa, lead + pa.shape[-3:])
    pb = np.broadcast_to(pb, lead + pb.shape[-3:])
    (n, p), (m, q) = pa.shape[-3:-1], pb.shape[-3:-1]
    # per coordinate, contiguous (P, 1, ..., n, 1) and (1, Q, ..., 1, m)
    ca = np.ascontiguousarray(np.moveaxis(pa, (-1, -2), (0, 1))).reshape(3, p, 1, *lead, n, 1)
    cb = np.ascontiguousarray(np.moveaxis(pb, (-1, -2), (0, 1))).reshape(3, 1, q, *lead, 1, m)
    return np.sqrt(sum((xa - xb) ** 2 for xa, xb in zip(ca, cb)))


def frechet_distance(a, b):
    """Discrete Frechet distance between 3D polylines.

    Dynamic program over the coupling lattice: the minimax leash length
    over all monotone couplings of the two point sequences. Symmetric,
    and zero iff the sequences are identical. Two polylines give a float;
    an (n, P, 3) and an (m, Q, 3) batch give the (n, m) matrix; stacked
    batches (..., n, P, 3) and (..., m, Q, 3) whose leading shapes
    broadcast give (..., n, m); every lattice step is one numpy call over
    the whole stack.
    """
    pa, pb, batch = _polylines(a, b)
    dist = _point_distances(pa, pb)
    p, q = dist.shape[:2]
    # dp[i + 1, j + 1] is the leash for the prefixes a[:i+1], b[:j+1]; the
    # border is +inf except the corner, so every cell uses one rule
    dp = np.full((p + 1, q + 1) + dist.shape[2:], np.inf)
    dp[0, 0] = 0.0
    for i in range(p):
        for j in range(q):
            dp[i + 1, j + 1] = np.maximum(np.minimum(np.minimum(dp[i, j + 1], dp[i, j]), dp[i + 1, j]), dist[i, j])
    out = dp[-1, -1]
    return out if batch else float(out[0, 0])


def frechet_lower_bound(a, b):
    """The larger of the first-point and the last-point distance, in every
    form of :func:`frechet_distance`, at the cost of two-point polylines.

    Every monotone coupling holds both end pairs, the dynamic program only
    takes minima and maxima, and this bound uses the same point-distance
    arithmetic: ``frechet_distance(a, b) >= frechet_lower_bound(a, b)``
    bit for bit, so a pair whose bound exceeds a threshold is beyond it.
    """
    pa, pb, batch = _polylines(a, b)
    dist = _point_distances(pa[..., [0, -1], :], pb[..., [0, -1], :])
    out = np.maximum(dist[0, 0], dist[1, 1])
    return out if batch else float(out[0, 0])


def box_iou(a, b):
    """Intersection-over-union of axis-aligned boxes, in [0, 1]. Two
    boxes give a float; an (n, 4) and an (m, 4) batch give (n, m); stacked
    batches (..., n, 4) and (..., m, 4) whose leading shapes broadcast give
    (..., n, m)."""
    batch = _is_batch(a, b, 1)
    ba = np.atleast_2d(as_box(a, batch))[..., :, None, :]
    bb = np.atleast_2d(as_box(b, batch))[..., None, :, :]
    side = np.maximum(0.0, np.minimum(ba[..., 2:], bb[..., 2:]) - np.maximum(ba[..., :2], bb[..., :2]))
    inter = side[..., 0] * side[..., 1]
    area_a = (ba[..., 2] - ba[..., 0]) * (ba[..., 3] - ba[..., 1])
    area_b = (bb[..., 2] - bb[..., 0]) * (bb[..., 3] - bb[..., 1])
    out = inter / (area_a + area_b - inter)
    return out if batch else float(out[0, 0])


def control_point_l1(a, b):
    """Mean absolute coordinate difference over all M x 3 entries. Two
    lanes give a float; an (n, M, 3) and an (m, M, 3) batch give (n, m)."""
    batch = _is_batch(a, b, 2)
    pa = as_control_points(a, batch)
    pb = as_control_points(b, batch)
    if not batch:
        pa, pb = pa[None], pb[None]
    m = pa.shape[1]
    if pb.shape[1] != m:
        raise ValueError(f"control point counts differ: {m} vs {pb.shape[1]}")
    diff = np.abs(pa[:, None] - pb[None]).reshape(len(pa), len(pb), 3 * m)
    out = np.mean(diff, axis=-1)
    return out if batch else float(out[0, 0])
