"""lanetopo: lane-graph topology heads, a synthetic scene benchmark, and
the OpenLane-style metric suite.

The package splits into:

* :mod:`lanetopo.geometry` - Bezier lanes, discrete Frechet distance, box IoU
* :mod:`lanetopo.dataio` - record types and the JSONL dataset format
* :mod:`lanetopo.synthgen` - scene generator and detector-corruption channel
* :mod:`lanetopo.assoc` - focal matching cost, Hungarian/greedy matching, GT-edge projection
* :mod:`lanetopo.topoheads` - MLP topology heads, AdamW training
* :mod:`lanetopo.detstrat` - category statistics, frame resampling, TTA fusion
* :mod:`lanetopo.metrics` - DET/TOP scores and the aggregate OLS
* :mod:`lanetopo.settings` - the declared rule of every config field
* :mod:`lanetopo.cli` - reproducible batch commands over all of the above
"""

from .assoc import Assignment, CostConfig, focal_loss, greedy_metric_match, hungarian_solve, match_for_training
from .dataio import (
    DetectionRecord,
    GtLane,
    MetricReport,
    PredictionRecord,
    PredLane,
    SceneRecord,
    TrafficElement,
)
from .geometry import bezier_point, box_iou, control_point_l1, frechet_distance, sample_lane
from .metrics import DetMatchConfig, average_precision, evaluate, ols
from .synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_dataset, generate_scene
from .topoheads import (
    HeadConfig,
    TopoHeadParams,
    TrainStats,
    init_params,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CostConfig",
    "DetectionRecord",
    "DetMatchConfig",
    "GeneratorConfig",
    "GtLane",
    "HeadConfig",
    "MetricReport",
    "NoiseModel",
    "PredictionRecord",
    "PredLane",
    "SceneRecord",
    "TopoHeadParams",
    "TrafficElement",
    "TrainStats",
    "average_precision",
    "bezier_point",
    "box_iou",
    "control_point_l1",
    "corrupt_scene",
    "evaluate",
    "focal_loss",
    "frechet_distance",
    "generate_dataset",
    "generate_scene",
    "greedy_metric_match",
    "hungarian_solve",
    "init_params",
    "match_for_training",
    "ols",
    "predict",
    "sample_lane",
    "train",
]
