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
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import as_box, as_control_points

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
    category: int = 0  # single "centerline" class


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


def _check_traffic(scene_id: str, elements: Sequence[TrafficElement], require_ids: bool):
    seen = set()
    for te in elements:
        if require_ids:
            if te.id in seen:
                raise ValidationError(scene_id, "traffic.id", f"duplicate id {te.id}")
            seen.add(te.id)
        _geometry(as_box, te.box, scene_id, "traffic.box")
        if not (0 <= te.category < NUM_CATEGORIES):
            raise ValidationError(
                scene_id, "traffic.category", f"category {te.category} outside [0, {NUM_CATEGORIES - 1}]"
            )
        if not (0.0 <= te.confidence <= 1.0):
            raise ValidationError(
                scene_id, "traffic.confidence", f"confidence {te.confidence} outside [0, 1]"
            )


def validate_scene(scene: SceneRecord, control_points: int | None = None) -> None:
    """Check every SceneRecord invariant; raise ValidationError on the first hit."""
    lane_ids = set()
    for lane in scene.lanes:
        if lane.id in lane_ids:
            raise ValidationError(scene.scene_id, "lanes.id", f"duplicate id {lane.id}")
        lane_ids.add(lane.id)
        pts = _geometry(as_control_points, lane.ctrl, scene.scene_id, "lanes.ctrl")
        if control_points is not None and pts.shape[0] != control_points:
            raise ValidationError(
                scene.scene_id,
                "lanes.ctrl",
                f"lane {lane.id} has {pts.shape[0]} control points, expected {control_points}",
            )
    _check_traffic(scene.scene_id, scene.traffic, require_ids=True)
    traffic_ids = {te.id for te in scene.traffic}
    for i, j in scene.topo_ll:
        if i == j:
            raise ValidationError(scene.scene_id, "topo_ll", f"self-edge on lane {i}")
        for v in (i, j):
            if v not in lane_ids:
                raise ValidationError(scene.scene_id, "topo_ll", f"unknown lane id {v}")
    for i, k in scene.topo_lt:
        if i not in lane_ids:
            raise ValidationError(scene.scene_id, "topo_lt", f"unknown lane id {i}")
        if k not in traffic_ids:
            raise ValidationError(scene.scene_id, "topo_lt", f"unknown traffic id {k}")


def validate_detection(
    record: DetectionRecord,
    control_points: int | None = None,
    max_lanes: int = DEFAULT_QUERY_BUDGET,
    feature_width: int | None = None,
) -> None:
    if len(record.lanes) > max_lanes:
        raise ValidationError(
            record.scene_id, "lanes", f"{len(record.lanes)} lanes exceed query budget {max_lanes}"
        )
    for idx, lane in enumerate(record.lanes):
        pts = _geometry(as_control_points, lane.ctrl, record.scene_id, "lanes.ctrl")
        if control_points is not None and pts.shape[0] != control_points:
            raise ValidationError(
                record.scene_id,
                "lanes.ctrl",
                f"lane {idx} has {pts.shape[0]} control points, expected {control_points}",
            )
        if not (0.0 <= lane.class_score <= 1.0):
            raise ValidationError(
                record.scene_id, "lanes.class_score", f"score {lane.class_score} outside [0, 1]"
            )
        if lane.feature is not None and feature_width is not None and lane.feature.shape != (feature_width,):
            raise ValidationError(
                record.scene_id,
                "lanes.feature",
                f"feature width {lane.feature.shape} != configured {feature_width}",
            )
    _check_traffic(record.scene_id, record.traffic, require_ids=False)
    if isinstance(record, PredictionRecord):
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
# (de)serialization helpers


def traffic_to_obj(te: TrafficElement) -> dict:
    return {
        "id": int(te.id),
        "box": np.asarray(te.box, dtype=float).tolist(),
        "category": int(te.category),
        "confidence": float(te.confidence),
    }


def _integer(value, fieldname: str) -> int:
    """A JSON integer; bools and non-integral numbers are rejected."""
    if type(value) is int:  # exact type: a bool is an int subclass
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"field {fieldname!r}: expected an integer, got {value!r}")


def traffic_from_obj(obj: dict) -> TrafficElement:
    return TrafficElement(
        id=_integer(obj["id"], "traffic.id"),
        box=np.asarray(obj["box"], dtype=float),
        category=_integer(obj["category"], "traffic.category"),
        confidence=float(obj["confidence"]),
    )


def scene_to_obj(scene: SceneRecord) -> dict:
    return {
        "scene_id": scene.scene_id,
        "lanes": [
            {"id": int(l.id), "ctrl": np.asarray(l.ctrl, dtype=float).tolist()} for l in scene.lanes
        ],
        "traffic": [traffic_to_obj(te) for te in scene.traffic],
        "topo_ll": [[int(i), int(j)] for i, j in sorted(scene.topo_ll)],
        "topo_lt": [[int(i), int(k)] for i, k in sorted(scene.topo_lt)],
    }


def scene_from_obj(obj: dict) -> SceneRecord:
    lanes = [
        GtLane(id=_integer(l["id"], "lanes.id"), ctrl=np.asarray(l["ctrl"], dtype=float)) for l in obj["lanes"]
    ]
    traffic = [traffic_from_obj(te) for te in obj["traffic"]]
    topo_ll = {(_integer(i, "topo_ll"), _integer(j, "topo_ll")) for i, j in obj.get("topo_ll", [])}
    topo_lt = {(_integer(i, "topo_lt"), _integer(k, "topo_lt")) for i, k in obj.get("topo_lt", [])}
    return SceneRecord(str(obj["scene_id"]), lanes, traffic, topo_ll, topo_lt)


def detection_to_obj(record: DetectionRecord) -> dict:
    lanes = []
    for lane in record.lanes:
        entry = {
            "ctrl": np.asarray(lane.ctrl, dtype=float).tolist(),
            "class_score": float(lane.class_score),
        }
        if lane.feature is not None:
            entry["feature"] = np.asarray(lane.feature, dtype=float).tolist()
        lanes.append(entry)
    obj = {
        "scene_id": record.scene_id,
        "lanes": lanes,
        "traffic": [traffic_to_obj(te) for te in record.traffic],
    }
    if isinstance(record, PredictionRecord):
        for name, mat in _prob_matrices(record):
            obj[name] = base64.b64encode(np.asarray(mat, dtype="<f8").tobytes()).decode("ascii")
    return obj


def _matrix(text, shape: tuple[int, int], fieldname: str) -> np.ndarray:
    """A base64 float64 matrix of ``shape`` as a writable native array."""
    if not isinstance(text, str):
        hint = " (the old list form: re-run `lanetopo predict`)" if isinstance(text, list) else ""
        raise ValueError(f"field {fieldname!r}: expected a base64 string, got {type(text).__name__}{hint}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"field {fieldname!r}: invalid base64: {exc}") from exc
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(f"field {fieldname!r}: {len(raw)} bytes, expected 8 * {shape[0]} * {shape[1]}")
    return np.frombuffer(raw, "<f8").reshape(shape).astype(float)


def _feature(values) -> np.ndarray:
    feat = np.asarray(values, dtype=float)
    if feat.ndim != 1 or not np.all(np.isfinite(feat)):
        raise ValueError("field 'lanes.feature': expected a list of finite numbers")
    return feat


def detection_from_obj(obj: dict) -> DetectionRecord:
    lanes = [
        PredLane(
            ctrl=np.asarray(l["ctrl"], dtype=float),
            class_score=float(l["class_score"]),
            feature=_feature(l["feature"]) if "feature" in l else None,
        )
        for l in obj["lanes"]
    ]
    traffic = [traffic_from_obj(te) for te in obj["traffic"]]
    if "topo_ll_prob" in obj:
        n, t = len(lanes), len(traffic)
        ll = _matrix(obj["topo_ll_prob"], (n, n), "topo_ll_prob")
        lt = _matrix(obj["topo_lt_prob"], (n, t), "topo_lt_prob")
        return PredictionRecord(str(obj["scene_id"]), lanes, traffic, topo_ll_prob=ll, topo_lt_prob=lt)
    return DetectionRecord(str(obj["scene_id"]), lanes, traffic)


# ---------------------------------------------------------------------------
# file I/O


def _load_lines(path, parse_obj, validate):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse_obj(json.loads(line))
                validate(record)
            except ValidationError as exc:
                raise ValidationError(exc.scene_id, exc.field, exc.message, f"{path}:{line_no}") from exc
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(path, line_no, str(exc)) from exc
            out.append(record)
    return out


def load_scenes(path, control_points: int | None = None) -> list[SceneRecord]:
    """Read and validate a JSONL scenes file, preserving record order.

    When ``control_points`` is None, the count is inferred from the first
    lane and then enforced across the file.
    """
    inferred = [control_points]

    def validate(scene):
        if inferred[0] is None and scene.lanes:
            inferred[0] = np.asarray(scene.lanes[0].ctrl).shape[0]
        validate_scene(scene, control_points=inferred[0])

    return _load_lines(path, scene_from_obj, validate)


def load_detections(
    path,
    control_points: int | None = None,
    max_lanes: int = DEFAULT_QUERY_BUDGET,
) -> list[DetectionRecord]:
    inferred = [control_points]

    def validate(rec):
        if inferred[0] is None and rec.lanes:
            inferred[0] = np.asarray(rec.lanes[0].ctrl).shape[0]
        validate_detection(rec, control_points=inferred[0], max_lanes=max_lanes)

    return _load_lines(path, detection_from_obj, validate)


def save_scenes(scenes: Iterable[SceneRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(json.dumps(scene_to_obj(scene)) + "\n")


def save_detections(records: Iterable[DetectionRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(detection_to_obj(record)) + "\n")


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
