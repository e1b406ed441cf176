"""On-disk dataset format: scenes, detections, predictions, and metric reports.

Scenes and detections are stored one JSON object per line (UTF-8). Reals are
written with Python's shortest round-trip repr, so save -> load is bit-exact.

Scene line:
    {"scene_id": str,
     "lanes":   [{"id": int, "ctrl": [[x, y, z] * M]}, ...],
     "traffic": [{"id": int, "box": [x1, y1, x2, y2], "category": int,
                  "confidence": num}, ...],
     "topo_ll": [[i, j], ...],
     "topo_lt": [[i, k], ...]}

Detection line: same shape with
    "lanes": [{"ctrl": ..., "class_score": num, "feature": [...]?}, ...]

Prediction line: a detection line plus topology probabilities
    "topo_ll_prob": str, "topo_lt_prob": str
the padded standard base64 of the (n, n) / (n, t) matrices' row-major
little-endian float64 bytes, so they round-trip bit-exactly. With numpy:
    lt = np.frombuffer(base64.b64decode(obj["topo_lt_prob"]), "<f8")
    lt = lt.reshape(len(obj["lanes"]), len(obj["traffic"]))

Every line is read one way: ``json.loads``, then ``scene_from_obj`` /
``detection_from_obj``, then the ``validate_scene`` / ``validate_detection``
that records built in memory go through. The converters read each field of
a record's lanes and traffic as one array, and go entry by entry only where
that fails, to name the first bad entry; the validators check a record in
one batch, and lane by lane only to name the first bad one.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import as_box, as_control_points
from .settings import is_real

NUM_CATEGORIES = 13
CATEGORY_NAMES = (
    "unknown-light",
    "red",
    "green",
    "yellow",
    "go-straight",
    "turn-left",
    "turn-right",
    "no-left-turn",
    "no-right-turn",
    "u-turn",
    "no-u-turn",
    "slight-left",
    "slight-right",
)

# virtual front-camera image extent, pixels (width x height)
IMAGE_WIDTH = 2048
IMAGE_HEIGHT = 1550

DEFAULT_QUERY_BUDGET = 300


class FormatError(ValueError):
    """Input bytes do not parse as the expected file format."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ValidationError(ValueError):
    """A parsed record violates a declared invariant; ``where`` is its ``path:line``."""

    def __init__(self, scene_id: str, fieldname: str, message: str, where: str = ""):
        super().__init__(f"{where}{': ' if where else ''}scene {scene_id!r}, field {fieldname!r}: {message}")
        self.scene_id, self.field, self.message = scene_id, fieldname, message


class _Record:
    """Field-wise equality for the array-holding records: ``np.array_equal``
    for arrays, ``==`` otherwise, and the same type on both sides. Records
    stay unhashable."""

    def __eq__(self, other):
        if type(self) is not type(other):
            return False
        theirs = vars(other)  # the dataclass fields, by name
        for name, a in vars(self).items():
            b = theirs[name]
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b):
                return False
        return True


@dataclass(eq=False)
class TrafficElement(_Record):
    """A 2D front-view box with one of 13 attributes and a confidence score."""

    id: int
    box: np.ndarray  # (4,) pixels, x1 < x2, y1 < y2
    category: int
    confidence: float = 1.0


@dataclass(eq=False)
class GtLane(_Record):
    id: int
    ctrl: np.ndarray  # (M, 3) meters


@dataclass(eq=False)
class SceneRecord(_Record):
    scene_id: str
    lanes: list[GtLane]
    traffic: list[TrafficElement]
    topo_ll: set[tuple[int, int]] = field(default_factory=set)
    topo_lt: set[tuple[int, int]] = field(default_factory=set)


@dataclass(eq=False)
class PredLane(_Record):
    ctrl: np.ndarray  # (M, 3)
    class_score: float
    feature: np.ndarray | None = None  # detector "decoded feature", optional


@dataclass(eq=False)
class DetectionRecord(_Record):
    scene_id: str
    lanes: list[PredLane]
    traffic: list[TrafficElement]


@dataclass(eq=False)
class PredictionRecord(DetectionRecord):
    """Detector output plus predicted topology probability matrices."""

    topo_ll_prob: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))  # (n, n)
    topo_lt_prob: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))  # (n, t)


@dataclass
class MetricReport:
    det_l: float
    det_t: float
    top_ll: float
    top_lt: float
    ols: float
    lane_ap_by_threshold: dict[float, float] = field(default_factory=dict)
    traffic_ap_by_category: dict[int, float] = field(default_factory=dict)
    scene_count: int = 0

    def scores(self) -> tuple[float, float, float, float, float]:
        return (self.det_l, self.det_t, self.top_ll, self.top_lt, self.ols)


# ---------------------------------------------------------------------------
# validation


def _geometry(check, value, scene_id: str, fieldname: str) -> np.ndarray:
    """``check(value)``, its ValueError raised as a ValidationError naming the field."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValidationError(scene_id, fieldname, str(exc)) from exc


def _check_boxes(scene_id: str, elements: Sequence[TrafficElement]) -> None:
    """Every box of a record in one batch check; boxes that do not stack into
    an (n, 4) matrix are checked one at a time, so the message names the
    shape of the first wrong one."""
    try:
        boxes = np.array([te.box for te in elements], dtype=float).reshape(len(elements), -1)
    except (TypeError, ValueError):  # ragged or not numeric
        boxes = None
    if boxes is not None and boxes.shape[1] == 4:
        _geometry(lambda b: as_box(b, batch=True), boxes, scene_id, "traffic.box")
    else:
        for te in elements:
            _geometry(as_box, te.box, scene_id, "traffic.box")


_NUMBER_TYPES = {int, float}  # the JSON numbers, exact types: a bool is an int subclass


def _integer(value) -> int:
    """An integer as an int, for the loader and the validators alike: a bool
    is none, an integral float is one (2.0 reads as 2)."""
    if type(value) is int:  # the common case first: an ABC check costs ~0.4 us
        return value
    if is_real(value) and (isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _category_error(category) -> str | None:
    """Why ``category`` is no traffic category, in the loader's words, or
    None: it must be an integer in [0, NUM_CATEGORIES)."""
    try:
        if 0 <= _integer(category) < NUM_CATEGORIES:
            return None
    except ValueError as exc:
        return str(exc)
    return f"category {category} outside [0, {NUM_CATEGORIES - 1}]"


def category_indices(elements: Sequence[TrafficElement]) -> np.ndarray:
    """The elements' categories as an int array of one-hot positions. One that
    is no integer in [0, NUM_CATEGORIES) raises a ValueError naming the
    element, where an index cast would truncate 2.7 or wrap -1."""
    for k, te in enumerate(elements):
        why = _category_error(te.category)
        if why:
            raise ValueError(f"traffic element {k}: {why}")
    return np.array([te.category for te in elements], dtype=int)


def _in_unit(values: np.ndarray) -> bool:
    """Every entry in [0, 1]; NaN is not."""
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def _numbers(values: list) -> np.ndarray | None:
    """In-memory scores or confidences as a float vector, or None where one
    is no real number (see ``is_real``); the per-entry check then names it."""
    if _NUMBER_TYPES.issuperset(map(type, values)) or all(map(is_real, values)):
        return np.array(values, dtype=float)
    return None


def _traffic_pass(elements: Sequence[TrafficElement], require_ids: bool) -> bool:
    """True when a record's traffic passes every check of
    :func:`_check_traffic`, found in one batch on its stacked values: the
    (t, 4) boxes, the ids (ints, unique when ``require_ids``), the categories
    (ints in range) and the confidences (in [0, 1]). False also when the
    values do not stack or a check cannot run; the per-element loop then
    decides."""
    try:
        as_box(np.array([te.box for te in elements], dtype=float), batch=True)
        confidences = _numbers([te.confidence for te in elements])
        ids = [te.id for te in elements]
        categories = [te.category for te in elements]
        return (
            {int}.issuperset(map(type, ids))
            and (not require_ids or len(set(ids)) == len(ids))
            and {int}.issuperset(map(type, categories))
            and 0 <= min(categories) <= max(categories) < NUM_CATEGORIES
            and confidences is not None
            and _in_unit(confidences)
        )
    except (TypeError, ValueError, OverflowError):  # ragged, not numeric, unhashable
        return False


def _check_traffic(scene_id: str, elements: Sequence[TrafficElement], require_ids: bool):
    """Each box, each element's id (an integer, unique when ``require_ids``),
    category and confidence. A record that fails the batch check is checked
    element by element, so the message names the first bad entry."""
    if not elements or _traffic_pass(elements, require_ids):
        return
    _check_boxes(scene_id, elements)
    seen = set()
    for te in elements:
        _geometry(_integer, te.id, scene_id, "traffic.id")
        if require_ids:
            if te.id in seen:
                raise ValidationError(scene_id, "traffic.id", f"duplicate id {te.id}")
            seen.add(te.id)
        why = _category_error(te.category)
        if why:
            raise ValidationError(scene_id, "traffic.category", why)
        if not is_real(te.confidence):
            raise ValidationError(scene_id, "traffic.confidence", f"expected a number, got {te.confidence!r}")
        if not (0.0 <= te.confidence <= 1.0):
            raise ValidationError(
                scene_id, "traffic.confidence", f"confidence {te.confidence} outside [0, 1]"
            )


def _lanes_pass(lanes: Sequence, control_points: int | None, gt: bool) -> bool:
    """True when a record's lanes pass every check of :func:`_check_lanes`,
    found in one batch on their stacked values: the (L, M, 3) control
    points and their count, and the ids (GT, unique ints) or the class
    scores (detection, in [0, 1]). False also when the values do not stack
    or a check cannot run; the per-lane loop then decides."""
    try:
        pts = as_control_points(np.array([lane.ctrl for lane in lanes], dtype=float), batch=True)
        if control_points is not None and pts.shape[1] != control_points:
            return False
        if gt:
            ids = [lane.id for lane in lanes]
            return {int}.issuperset(map(type, ids)) and len(set(ids)) == len(ids)
        scores = _numbers([lane.class_score for lane in lanes])
        return scores is not None and _in_unit(scores)
    except (TypeError, ValueError, OverflowError):
        return False


def _check_lanes(scene_id: str, lanes: Sequence, control_points: int | None, gt: bool) -> None:
    """Each lane's control points and their count, and each GT lane's id (an
    integer, unique) or each detected lane's class score (in [0, 1]). A
    record that fails the batch check is checked lane by lane, so the
    message names the first bad entry."""
    if _lanes_pass(lanes, control_points, gt):
        return
    seen = set()
    for idx, lane in enumerate(lanes):
        if gt:
            _geometry(_integer, lane.id, scene_id, "lanes.id")
            if lane.id in seen:
                raise ValidationError(scene_id, "lanes.id", f"duplicate id {lane.id}")
            seen.add(lane.id)
        pts = _geometry(as_control_points, lane.ctrl, scene_id, "lanes.ctrl")
        if control_points is not None and pts.shape[0] != control_points:
            raise ValidationError(
                scene_id,
                "lanes.ctrl",
                f"lane {lane.id if gt else idx} has {pts.shape[0]} control points, expected {control_points}",
            )
        if gt:
            continue
        if not is_real(lane.class_score):
            raise ValidationError(scene_id, "lanes.class_score", f"expected a number, got {lane.class_score!r}")
        if not (0.0 <= lane.class_score <= 1.0):
            raise ValidationError(scene_id, "lanes.class_score", f"score {lane.class_score} outside [0, 1]")


def _shape(value) -> tuple | None:
    """``np.shape(value)``, or None where ``value`` is ragged."""
    try:
        return np.shape(value)
    except ValueError:
        return None


def lane_features(record: DetectionRecord, width: int | None = None) -> np.ndarray | None:
    """The ``lanes.feature`` rule, and the detector features of ``record``'s
    lanes as one (n, width) matrix: every lane carries a vector of ``width``
    finite numbers (no bools), or, with ``width`` None, every lane carries
    one of the width of the first lane's that does, or none does (None is
    returned then). A lane that breaks the rule is the ValidationError that
    the loader raises for it, naming the first bad lane."""
    features = [lane.feature for lane in record.lanes]
    if width is None and all(f is None for f in features):
        return None
    if all(isinstance(f, np.ndarray) and f.dtype.kind in "iuf" for f in features):  # the loader's: one batch
        stack = np.array(features, dtype=float) if len({f.shape for f in features}) == 1 else None
        if stack is not None and stack.ndim == 2 and width in (None, stack.shape[1]) and np.isfinite(stack).all():
            return stack

    def fail(idx: int, message: str):
        raise ValidationError(record.scene_id, "lanes.feature", f"lane {idx} has {message}")

    source = ""
    if width is None:  # the first lane that carries a feature sets it
        first = next(idx for idx, f in enumerate(features) if f is not None)
        shape = _shape(features[first])
        if shape is None or len(shape) != 1:
            fail(first, "a feature that is not a vector of finite numbers")
        width, source = shape[0], f" as on lane {first}"
    for idx, feature in enumerate(features):
        shape = _shape(feature)
        if feature is None or shape is not None and shape != (width,):
            got = "no feature" if feature is None else f"a feature of shape {shape}"
            fail(idx, f"{got}, expected width {width}{source}")
        if isinstance(feature, np.ndarray):
            numeric = feature.dtype.kind in "iuf"
        else:  # a bool or a string is no number here, as in the loader
            numeric = shape is not None and all(map(is_real, feature))
        if not (numeric and np.isfinite(np.asarray(feature, dtype=float)).all()):
            fail(idx, f"a feature that is not {width} finite numbers")
    return np.array(features, dtype=float).reshape(len(features), width)


def edge_positions(scene: SceneRecord) -> tuple[np.ndarray, np.ndarray]:
    """The GT edges of ``scene`` as (E, 2) int arrays of list positions, in
    set order: ``topo_ll`` as (lane, lane), ``topo_lt`` as (lane, traffic).
    A self-edge or an unknown id raises a ValidationError naming the field."""
    lane_at = {lane.id: g for g, lane in enumerate(scene.lanes)}
    traffic_at = {te.id: g for g, te in enumerate(scene.traffic)}
    out = []
    for name, edges, kind, at in (("topo_ll", scene.topo_ll, "lane", lane_at), ("topo_lt", scene.topo_lt, "traffic", traffic_at)):
        pos = []
        for i, j in edges:
            if at is lane_at and i == j:
                raise ValidationError(scene.scene_id, name, f"self-edge on lane {i}")
            if i not in lane_at:
                raise ValidationError(scene.scene_id, name, f"unknown lane id {i}")
            if j not in at:
                raise ValidationError(scene.scene_id, name, f"unknown {kind} id {j}")
            pos.append((lane_at[i], at[j]))
        out.append(np.array(pos, dtype=int).reshape(-1, 2))
    return out[0], out[1]


def validate_scene(scene: SceneRecord, control_points: int | None = None) -> None:
    """Check every SceneRecord invariant; raise ValidationError on the first hit."""
    _check_lanes(scene.scene_id, scene.lanes, control_points, gt=True)
    _check_traffic(scene.scene_id, scene.traffic, require_ids=True)
    edge_positions(scene)


def validate_detection(
    record: DetectionRecord, control_points: int | None = None, feature_width: int | None = None
) -> None:
    """Check every DetectionRecord invariant; every lane must carry a
    detector feature of ``feature_width``, or, where that is None, of one
    width or none (see ``lane_features``)."""
    if len(record.lanes) > DEFAULT_QUERY_BUDGET:
        raise ValidationError(
            record.scene_id, "lanes", f"{len(record.lanes)} lanes exceed query budget {DEFAULT_QUERY_BUDGET}"
        )
    _check_lanes(record.scene_id, record.lanes, control_points, gt=False)
    lane_features(record, feature_width)
    _check_traffic(record.scene_id, record.traffic, require_ids=False)
    if isinstance(record, PredictionRecord):
        _check_probabilities(record)


def _check_probabilities(record: PredictionRecord) -> None:
    for name, mat in _prob_matrices(record):
        if mat.size and not (np.all(mat >= 0.0) and np.all(mat <= 1.0)):
            raise ValidationError(record.scene_id, name, "probabilities outside [0, 1]")


def _prob_matrices(record: PredictionRecord):
    """``(field, matrix)`` for both probability matrices, each checked to be (n, n) / (n, t)."""
    n, t = len(record.lanes), len(record.traffic)
    for name, shape in (("topo_ll_prob", (n, n)), ("topo_lt_prob", (n, t))):
        mat = getattr(record, name)
        if np.shape(mat) != shape:
            raise ValidationError(record.scene_id, name, f"shape {np.shape(mat)} != {shape}")
        yield name, mat


# ---------------------------------------------------------------------------
# reading: each field of a record's entries converted as one array; entry by
# entry only where that fails, so the first bad entry is named


def _reals(value, ndim: int | None = None) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array, after one
    scan of its leaf types; bools, strings and null entries are rejected,
    not coerced, and with ``ndim`` so is an array of another rank."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError("number outside the float range") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim} dimensions, got {arr.ndim}")
    if not _NUMBER_TYPES.issuperset(map(type, _leaves(value, arr.ndim))):
        bad = next(v for v in _leaves(value, arr.ndim) if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"expected numbers, got {bad!r}")
    return arr


def _leaves(value, ndim: int):
    """The scalars of ``value``, nested lists ``ndim`` deep."""
    if ndim == 0:
        return (value,)
    for _ in range(ndim - 1):
        value = chain.from_iterable(value)
    return value


def _field(obj: dict, name: str, convert=_reals, take: bool = False):
    """``convert`` of the entry of the JSON object ``obj`` that the last part
    of the dotted ``name`` keys, with ``take`` removed from ``obj``; a
    missing or malformed entry is an error naming the field (Python's and
    numpy's own text names none)."""
    key = name.rpartition(".")[2]
    try:
        return convert(obj.pop(key) if take else obj[key])
    except (KeyError, TypeError, ValueError) as exc:  # TypeError too when ``obj`` is no object
        raise ValueError(f"field {name!r}: {'missing' if isinstance(exc, KeyError) else exc}") from exc


def _real(value) -> float:
    """A JSON number as a float; bools, strings and null are rejected."""
    if type(value) in _NUMBER_TYPES:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"expected a number, got {value!r}")


def _text(value) -> str:
    """A JSON string; null and numbers are rejected."""
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


def _array(value) -> list:
    """A JSON array; objects, strings and other iterables are rejected."""
    if isinstance(value, list):
        return value
    raise ValueError(f"expected an array, got {type(value).__name__}")


def _feature(values, ndim: int = 1) -> np.ndarray:
    """A detector feature, or with ``ndim`` 2 a stack of them, of finite numbers."""
    feat = _reals(values)
    if feat.ndim != ndim or not np.all(np.isfinite(feat)):
        raise ValueError("expected a list of finite numbers")
    return feat


def _entries(obj: dict, name: str, stacked, one) -> list:
    """The JSON array ``obj[name]`` as a list of records: ``stacked`` of all
    its entries, which reads each field as one array and gives each record
    arrays of its own, or, where that fails, ``one`` of each entry, which
    names the first bad one."""
    entries = _field(obj, name, _array)
    if entries:
        try:
            return stacked(entries)
        except (KeyError, TypeError, ValueError):  # an entry that is no object, a field missing or malformed
            pass
    return [one(entry) for entry in entries]


def _column(entries: list, key: str, ndim: int) -> np.ndarray:
    """The ``key`` values of the JSON objects ``entries`` as one float array."""
    return _reals([entry[key] for entry in entries], ndim)


def _integers(values: list) -> list:
    """:func:`_integer` of each of ``values``, after one scan of their types."""
    return values if {int}.issuperset(map(type, values)) else [_integer(v) for v in values]


def _gt_lanes(entries: list) -> list[GtLane]:
    ids = _integers([entry["id"] for entry in entries])
    return [GtLane(i, ctrl.copy()) for i, ctrl in zip(ids, _column(entries, "ctrl", 3))]


def _gt_lane(obj: dict) -> GtLane:
    return GtLane(id=_field(obj, "lanes.id", _integer), ctrl=_field(obj, "lanes.ctrl"))


def _pred_lanes(entries: list) -> list[PredLane]:
    pts, scores = _column(entries, "ctrl", 3), _column(entries, "class_score", 1).tolist()
    features = [None] * len(entries)
    if any("feature" in entry for entry in entries):  # then every lane's, or a KeyError
        features = [feat.copy() for feat in _feature([entry["feature"] for entry in entries], 2)]
    return [PredLane(ctrl.copy(), score, feat) for ctrl, score, feat in zip(pts, scores, features)]


def _pred_lane(obj: dict) -> PredLane:
    return PredLane(
        ctrl=_field(obj, "lanes.ctrl"),  # first: a lane that is no object fails here, named
        class_score=_field(obj, "lanes.class_score", _real),
        feature=_field(obj, "lanes.feature", _feature) if "feature" in obj else None,
    )


def _traffic(entries: list) -> list[TrafficElement]:
    ids, categories = (_integers([entry[key] for entry in entries]) for key in ("id", "category"))
    boxes, confidences = _column(entries, "box", 2), _column(entries, "confidence", 1).tolist()
    return [TrafficElement(*te) for te in zip(ids, (box.copy() for box in boxes), categories, confidences)]


def traffic_from_obj(obj: dict) -> TrafficElement:
    return TrafficElement(
        id=_field(obj, "traffic.id", _integer),
        box=_field(obj, "traffic.box"),
        category=_field(obj, "traffic.category", _integer),
        confidence=_field(obj, "traffic.confidence", _real),
    )


def tta_entry_from_obj(obj) -> tuple[float, list[TrafficElement]]:
    """One entry of a ``tta-merge`` input list: {"scale": num, "traffic": [element, ...]}."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with 'scale' and 'traffic', got {obj!r}")
    scale = _field(obj, "scale", _real)
    traffic = _entries(obj, "traffic", _traffic, traffic_from_obj)
    try:
        _check_traffic("", traffic, require_ids=False)
    except ValidationError as exc:
        raise ValueError(f"field {exc.field!r}: {exc.message}") from exc
    return scale, traffic


def scene_from_obj(obj: dict) -> SceneRecord:
    lanes = _entries(obj, "lanes", _gt_lanes, _gt_lane)
    traffic = _entries(obj, "traffic", _traffic, traffic_from_obj)
    topo_ll, topo_lt = (
        _field(obj, name, lambda pairs: {(_integer(i), _integer(j)) for i, j in _array(pairs)}) if name in obj else set()
        for name in ("topo_ll", "topo_lt")
    )
    return SceneRecord(_field(obj, "scene_id", _text), lanes, traffic, topo_ll, topo_lt)


def _matrix(text, shape: tuple[int, int]) -> np.ndarray:
    """A base64 float64 matrix of ``shape`` as a writable native array."""
    if not isinstance(text, str):
        hint = " (the old list form: re-run `lanetopo predict`)" if isinstance(text, list) else ""
        raise ValueError(f"expected a base64 string, got {type(text).__name__}{hint}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"invalid base64: {exc}") from exc
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(f"{len(raw)} bytes, expected 8 * {shape[0]} * {shape[1]}")
    return np.frombuffer(raw, "<f8").reshape(shape).astype(float)


def detection_from_obj(obj: dict) -> DetectionRecord:
    """The record of a detection or prediction object. A prediction's base64
    texts are taken out of ``obj`` as they are decoded."""
    lanes = _entries(obj, "lanes", _pred_lanes, _pred_lane)
    traffic = _entries(obj, "traffic", _traffic, traffic_from_obj)
    scene_id = _field(obj, "scene_id", _text)
    if "topo_ll_prob" not in obj and "topo_lt_prob" not in obj:
        return DetectionRecord(scene_id, lanes, traffic)
    n, t = len(lanes), len(traffic)
    ll, lt = (
        _field(obj, name, functools.partial(_matrix, shape=shape), take=True)
        for name, shape in (("topo_ll_prob", (n, n)), ("topo_lt_prob", (n, t)))
    )
    return PredictionRecord(scene_id, lanes, traffic, ll, lt)


# ---------------------------------------------------------------------------
# writing: each record formatted whole from its values


class _JsonFloat(float):
    """A non-finite float whose repr is the token ``json.dumps`` writes."""

    def __repr__(self):
        return "NaN" if self != self else "Infinity" if self > 0 else "-Infinity"


@functools.cache
def _template(shape: tuple) -> str:
    """The %-template of a float array of ``shape``: its nested lists as
    ``json.dumps`` writes them, with ``%r`` for each value."""
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]" if shape else "%r"


def _floats(arrays: list) -> tuple[list, list]:
    """The template and the flat float values of each of ``arrays``, as
    ``np.asarray(a, dtype=float)`` reads it; one conversion when they stack."""
    if not arrays:
        return [], []
    try:
        stack = np.array(arrays, dtype=float)
    except ValueError:  # ragged: one at a time
        stack = None
    if stack is not None:
        return [_template(stack.shape[1:])] * len(arrays), stack.reshape(len(arrays), -1).tolist()
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    return [_template(a.shape) for a in arrays], [a.ravel().tolist() for a in arrays]


def _fill(template: str, values: list, *head: str) -> str:
    """``template`` filled with ``head`` (its ``%s``) and ``values``, each
    non-finite float written as ``json.dumps`` writes it."""
    try:
        finite = math.isfinite(sum(values))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        values = [_JsonFloat(v) if type(v) is float and not math.isfinite(v) else v for v in values]
    return template % (*head, *values)


def _traffic_template(elements: Sequence[TrafficElement], values: list) -> str:
    """The template of a JSON array of ``elements``; their values are
    appended to ``values``."""
    parts = []
    templates, boxes = _floats([te.box for te in elements])
    for te, template, box in zip(elements, templates, boxes):
        parts.append('{"id": %d, "box": ' + template + ', "category": %d, "confidence": %r}')
        values.append(int(te.id))
        values += box
        values += (int(te.category), float(te.confidence))
    return "[" + ", ".join(parts) + "]"


def traffic_json(elements: Sequence[TrafficElement]) -> str:
    """The JSON array of ``elements``, as one line of a ``tta-merge`` output."""
    values = []
    return _fill(_traffic_template(elements, values), values)


def _scene_line(scene: SceneRecord) -> str:
    values = []
    templates, ctrls = _floats([lane.ctrl for lane in scene.lanes])
    lanes = []
    for lane, template, ctrl in zip(scene.lanes, templates, ctrls):
        lanes.append('{"id": %d, "ctrl": ' + template + "}")
        values.append(int(lane.id))
        values += ctrl
    traffic = _traffic_template(scene.traffic, values)
    edges = []
    for pairs in (scene.topo_ll, scene.topo_lt):
        pairs = sorted(pairs)
        edges.append("[" + ", ".join(["[%d, %d]"] * len(pairs)) + "]")
        values += map(int, chain.from_iterable(pairs))
    template = '{"scene_id": %s, "lanes": [' + ", ".join(lanes) + '], "traffic": ' + traffic
    template += ', "topo_ll": ' + edges[0] + ', "topo_lt": ' + edges[1] + "}"
    return _fill(template, values, json.dumps(scene.scene_id))


def _detection_head(record: DetectionRecord) -> str:
    """A detection line up to its closing brace."""
    values = []
    templates, ctrls = _floats([lane.ctrl for lane in record.lanes])
    with_feature = [lane for lane in record.lanes if lane.feature is not None]
    feature_templates, features = map(iter, _floats([lane.feature for lane in with_feature]))
    lanes = []
    for lane, template, ctrl in zip(record.lanes, templates, ctrls):
        values += ctrl
        values.append(float(lane.class_score))
        if lane.feature is None:
            lanes.append('{"ctrl": ' + template + ', "class_score": %r}')
        else:
            lanes.append('{"ctrl": ' + template + ', "class_score": %r, "feature": ' + next(feature_templates) + "}")
            values += next(features)
    traffic = _traffic_template(record.traffic, values)
    template = '{"scene_id": %s, "lanes": [' + ", ".join(lanes) + '], "traffic": ' + traffic
    return _fill(template, values, json.dumps(record.scene_id))


def _detection_line(record: DetectionRecord) -> list[str]:
    """A detection or prediction line as its parts. A prediction's base64
    probability texts need no escaping, so they follow the head as the bytes
    ``json.dumps`` would write, without its escaper's scan of ~1 MB per
    ~300-lane record."""
    parts = [_detection_head(record)]
    if isinstance(record, PredictionRecord):
        for name, mat in _prob_matrices(record):
            parts.append(f', "{name}": "{base64.b64encode(np.asarray(mat, dtype="<f8").tobytes()).decode("ascii")}"')
    parts.append("}\n")
    return parts


def scene_to_obj(scene: SceneRecord) -> dict:
    """The JSON object of a scene line."""
    return json.loads(_scene_line(scene))


def detection_to_obj(record: DetectionRecord) -> dict:
    """The JSON object of a detection or prediction line."""
    return json.loads("".join(_detection_line(record)))


def traffic_to_obj(te: TrafficElement) -> dict:
    return json.loads(traffic_json([te]))[0]


# ---------------------------------------------------------------------------
# file I/O


def _load_lines(path, parse_obj, validate, control_points: int | None):
    """Parse and validate every non-blank line, each dropped once parsed:
    ``parse_obj`` converts its JSON object and ``validate`` checks the
    record as it checks one built in memory. A ``control_points`` of None is
    set from the first lane of the file, and a count error then names that
    lane."""
    out = []
    source = ""
    line_no = 0  # counted here: ``enumerate`` would hold on to the last line
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line_no += 1
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                line = None
                record = parse_obj(obj)
                # a first lane with no point list infers nothing; its validation names it
                if control_points is None and record.lanes and np.ndim(record.lanes[0].ctrl):
                    control_points = np.shape(record.lanes[0].ctrl)[0]
                    source = f" as the first lane of line {line_no}"
                validate(record, control_points)
            except ValidationError as exc:
                message = exc.message
                if source and exc.field == "lanes.ctrl" and message.endswith(f"control points, expected {control_points}"):
                    message += source
                raise ValidationError(exc.scene_id, exc.field, message, f"{path}:{line_no}") from exc
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(path, line_no, str(exc)) from exc
            out.append(record)
    return out


def load_scenes(path, control_points: int | None = None) -> list[SceneRecord]:
    """Read and validate a JSONL scenes file, preserving record order.

    When ``control_points`` is None, the count is inferred from the first
    lane and then enforced across the file.
    """
    return _load_lines(path, scene_from_obj, validate_scene, control_points)


def load_detections(path, control_points: int | None = None, feature_width: int | None = None) -> list[DetectionRecord]:
    """:func:`load_scenes` for a detections or predictions file. Each
    record's lanes carry detector features as ``lane_features`` rules: of
    ``feature_width`` each, or, where that is None, of one width or none."""
    validate = functools.partial(validate_detection, feature_width=feature_width)
    return _load_lines(path, detection_from_obj, validate, control_points)


def save_scenes(scenes: Iterable[SceneRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(_scene_line(scene) + "\n")


def save_detections(records: Iterable[DetectionRecord], path) -> None:
    """One JSON line per record. Each record is formatted whole before it is
    written, so a misshapen matrix raises before any of its bytes reach the
    file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.writelines(_detection_line(record))


def format_report_table(report: MetricReport) -> str:
    """Render the headline scores as a percentage table (two decimals)."""
    header = f"{'DET_l':>8} {'DET_t':>8} {'TOP_ll':>8} {'TOP_lt':>8} {'OLS':>8}"
    row = " ".join(f"{100.0 * v:8.2f}" for v in report.scores())
    return header + "\n" + row


def write_report(report: MetricReport, path) -> None:
    """Write the machine-readable report plus a human-readable score table.

    The JSON lands at ``path``; the table at ``path`` + ".txt". A header
    warning is recorded when the stored OLS disagrees with the value
    recomputed from the four sub-scores.
    """
    for name, v in zip(("det_l", "det_t", "top_ll", "top_lt", "ols"), report.scores()):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"report field {name}={v} outside [0, 1]")
    from .metrics import ols as ols_formula

    warnings = []
    expected = ols_formula(report.det_l, report.det_t, report.top_ll, report.top_lt)
    if abs(expected - report.ols) > 1e-9:
        warnings.append(
            f"ols field {report.ols:.6f} inconsistent with aggregation of sub-scores ({expected:.6f})"
        )
    obj = {
        "warnings": warnings,
        "scores": {
            "det_l": report.det_l,
            "det_t": report.det_t,
            "top_ll": report.top_ll,
            "top_lt": report.top_lt,
            "ols": report.ols,
        },
        "lane_ap_by_threshold": {str(k): v for k, v in report.lane_ap_by_threshold.items()},
        "traffic_ap_by_category": {str(k): v for k, v in report.traffic_ap_by_category.items()},
        "scene_count": report.scene_count,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    Path(str(path) + ".txt").write_text(format_report_table(report) + "\n", encoding="utf-8")


def load_report(path) -> MetricReport:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    s = obj["scores"]
    return MetricReport(
        det_l=s["det_l"],
        det_t=s["det_t"],
        top_ll=s["top_ll"],
        top_lt=s["top_lt"],
        ols=s["ols"],
        lane_ap_by_threshold={float(k): v for k, v in obj.get("lane_ap_by_threshold", {}).items()},
        traffic_ap_by_category={int(k): v for k, v in obj.get("traffic_ap_by_category", {}).items()},
        scene_count=int(obj.get("scene_count", 0)),
    )
