"""Golden regression tests for the matchers.

Evaluation reports and training-time assignments on a fixed fixture are
compared, with ``==``, against values recorded in ``golden_matching.json``.
The fixture is 24 generated scenes at each of the 4 README sweep levels,
plus 3 scenes at the query budget (``spurious_rate`` 280), scored under
the default configs and one non-default config each. Topology
probabilities are seeded uniform draws, so the fixture depends only on
``synthgen`` and the matchers.

Re-record (only when a change of scores is intended and explained):
``PYTHONPATH=src python tests/test_golden.py --record``.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np

from lanetopo import assoc, metrics, synthgen
from lanetopo.cli import DEFAULT_SWEEP_LEVELS
from lanetopo.dataio import PredictionRecord

GOLDEN = Path(__file__).with_name("golden_matching.json")
GEN_SEED = 31
SWEEP_SCENES = 24
BUDGET_SCENES = 3
BUDGET_NOISE = {"ctrl_sigma": 0.25, "drop_prob": 0.1, "spurious_rate": 280.0}

METRIC_CONFIGS = {
    "default": metrics.DetMatchConfig(),
    "custom": metrics.DetMatchConfig(
        lane_frechet_thresholds=(0.5, 1.5, 2.5, 4.0), traffic_iou_threshold=0.5, sample_points=7
    ),
}
COST_CONFIGS = {
    "default": assoc.CostConfig(),
    "custom": assoc.CostConfig(w_cls=0.5, w_l1=0.2, focal_alpha=0.4, focal_gamma=1.5),
}


@functools.lru_cache(maxsize=None)
def fixture():
    """{group name: (scenes, prediction records)}."""
    gen = synthgen.GeneratorConfig(seed=GEN_SEED)
    groups = {}
    specs = [(f"level{k}", level, SWEEP_SCENES) for k, level in enumerate(DEFAULT_SWEEP_LEVELS)]
    specs.append(("budget", BUDGET_NOISE, BUDGET_SCENES))
    for g, (name, noise, count) in enumerate(specs):
        scenes = [synthgen.generate_scene(gen, 1000 * g + i) for i in range(count)]
        records = []
        for i, scene in enumerate(scenes):
            det = synthgen.corrupt_scene(scene, synthgen.NoiseModel(**noise), [GEN_SEED, g, i])
            rng = np.random.default_rng([GEN_SEED, g, i, 1])
            n, t = len(det.lanes), len(det.traffic)
            records.append(
                PredictionRecord(
                    det.scene_id,
                    det.lanes,
                    det.traffic,
                    topo_ll_prob=rng.uniform(size=(n, n)),
                    topo_lt_prob=rng.uniform(size=(n, t)),
                )
            )
        groups[name] = (scenes, records)
    return groups


def report_values():
    out = {}
    for cfg_name, cfg in METRIC_CONFIGS.items():
        for group, (scenes, records) in fixture().items():
            rep = metrics.evaluate(records, scenes, cfg)
            out[f"{cfg_name}/{group}"] = {
                "scores": list(rep.scores()),
                "lane_ap_by_threshold": [[k, v] for k, v in rep.lane_ap_by_threshold.items()],
                "traffic_ap_by_category": [[k, v] for k, v in rep.traffic_ap_by_category.items()],
                "scene_count": rep.scene_count,
            }
    return out


def _matched(match):
    """(pred index, GT index) of every matched prediction, the recorded form."""
    return [(p, g) for p, g in enumerate(match.tolist()) if g >= 0]


def training_pairs():
    out = {}
    for cfg_name, cfg in COST_CONFIGS.items():
        for group, (scenes, records) in fixture().items():
            out[f"{cfg_name}/{group}"] = [
                [
                    _matched(assoc.match_for_training(rec.lanes, scene.lanes, cfg)),
                    _matched(assoc.match_traffic_for_training(rec.traffic, scene.traffic, cfg)),
                ]
                for scene, rec in zip(scenes, records)
            ]
    return out


def _recorded(key):
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[key]


def test_evaluate_reports_match_recorded():
    assert report_values() == _recorded("reports")


def test_training_matches_match_recorded():
    # JSON has no tuples: compare as nested lists
    got = json.loads(json.dumps(training_pairs()))
    assert got == _recorded("training_pairs")


def test_one_pruned_frechet_call_per_det_l(monkeypatch):
    calls = []
    original = metrics.frechet_distance

    def counting(a, b):
        calls.append(len(a))
        return original(a, b)

    monkeypatch.setattr(metrics, "frechet_distance", counting)
    scenes, records = fixture()["level2"]
    all_pairs = sum(len(s.lanes) * len(r.lanes) for s, r in zip(scenes, records))
    metrics.evaluate(records, scenes)
    # one call per det_l, on the pairs the end-point bound keeps
    assert len(calls) == 1
    assert 0 < calls[0] < all_pairs


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    new = {"reports": report_values(), "training_pairs": training_pairs()}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for table, values in new.items():
        recorded = old.get(table, {})
        for key in sorted(values.keys() | recorded.keys()):
            # JSON has no tuples: compare as nested lists
            if json.loads(json.dumps(values.get(key))) != recorded.get(key):
                print(f"changed: {table}/{key}")
    pairs = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in new["training_pairs"].items())
    text = f'{{"reports": {json.dumps(new["reports"], indent=1)},\n "training_pairs": {{\n{pairs}\n }}\n}}\n'
    GOLDEN.write_text(text, encoding="utf-8")
