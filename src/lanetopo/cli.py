"""Batch command-line front end wiring the library into reproducible
experiments: data generation, corruption, training, prediction,
evaluation, the noise-sweep study, the category histogram and TTA fusion.

Flags can also come from a JSON config file (--config); explicit flags
override file entries. Exit codes: 0 success, 2 config or validation
error, 1 runtime or I/O error. All commands are deterministic given
their seed; the only non-reproducible output field is the training
stats' wall_clock_sec.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, detstrat, metrics, synthgen, topoheads
from .dataio import FormatError, ValidationError


DEFAULT_SWEEP_LEVELS = (
    {"ctrl_sigma": 0.0, "drop_prob": 0.0},
    {"ctrl_sigma": 0.25, "drop_prob": 0.1},
    {"ctrl_sigma": 0.5, "drop_prob": 0.3},
    {"ctrl_sigma": 1.0, "drop_prob": 0.3},
)

NOISE_KEYS = tuple(f.name for f in fields(synthgen.NoiseModel))

# options named differently from the config field they set
FLAG_FIELDS = {
    "lanes": "lanes_per_scene",
    "traffic": "traffic_per_scene",
    "lane_thresholds": "lane_frechet_thresholds",
    "iou_threshold": "traffic_iou_threshold",
}


def _flag(key: str, field: str = "") -> str:
    return f"option {key!r} (--{key.replace('_', '-')}{', ' + field if field else ''})"


def _int(value, name: str) -> int:
    """An integer option: an int or an integral string; anything else is an error naming it."""
    try:
        if type(value) is int or isinstance(value, str):  # a bool is an int subclass
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A real option: a number or a numeric string, not a bool; anything else is an error naming it."""
    try:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            return float(value)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _items(value, name: str, convert, size=None) -> tuple:
    """A tuple option: 'a,b' as text or a JSON list, each entry converted;
    ``size`` is None or ``...`` for any length, or n for exactly n entries;
    one value as text stands for both ends of a pair (``size=2``)."""
    if isinstance(value, str) or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        value = str(value).split(",")
        if size == 2 and len(value) == 1:
            value *= 2
    if not isinstance(value, (list, tuple)) or size not in (None, ..., len(value)):
        form = "'lo,hi' or a list [lo, hi] of two" if size == 2 else "'a,b,...' or a list of"
        raise ValueError(f"{name} must be {form} numbers, got {value!r}")
    return tuple(convert(v, name) for v in value)


def _config(cls, opts: dict, label=_flag):
    """A ``cls`` from the options that set its fields, each converted as its
    declared rule says; a field with no option keeps its dataclass default.
    An error calls an option ``label(key, "Class.field")``."""
    rules = {f.name: f.metadata["rule"] for f in fields(cls)}
    kwargs = {}
    for key, value in opts.items():
        name = FLAG_FIELDS.get(key, key)
        if name not in rules:
            continue
        rule, what = rules[name], label(key, f"{cls.__name__}.{name}")
        convert = _int if rule.kind is int else _real
        if value is not None:  # None goes to the rule, which allows it only for an optional field
            value = convert(value, what) if rule.items is None else _items(value, what, convert, rule.items)
        kwargs[name] = value
    return cls(**kwargs)


def _at_least(opts: dict, key: str, lo: int) -> int:
    """An integer option that is not a config field, checked against its lower bound."""
    value = _int(opts[key], _flag(key))
    if value < lo:
        raise ValueError(f"{_flag(key)} must be >= {lo}, got {value}")
    return value


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


# ---------------------------------------------------------------------------
# commands


def run_generate(opts: dict) -> int:
    _require(opts, "seed", "out")
    cfg = _config(synthgen.GeneratorConfig, opts)
    noise = _config(synthgen.NoiseModel, opts)
    fractions = _items(opts["split"], _flag("split"), _real)
    paths = synthgen.generate_dataset(cfg, noise, fractions, opts["out"])
    for split in ("train", "val", "test"):
        print(f"{split}: {paths[split]['count']} scenes -> {paths[split]['scenes']}")
    return 0


def run_corrupt(opts: dict) -> int:
    _require(opts, "seed", "scenes_file", "out")
    scenes = dataio.load_scenes(opts["scenes_file"])
    noise = _config(synthgen.NoiseModel, opts)
    seed = _at_least(opts, "seed", 0)
    detections = [synthgen.corrupt_scene(s, noise, [seed, i]) for i, s in enumerate(scenes)]
    dataio.save_detections(detections, opts["out"])
    print(f"corrupted {len(detections)} scenes -> {opts['out']}")
    return 0


def run_train(opts: dict) -> int:
    _require(opts, "seed", "train_scenes", "train_detections", "out")
    cfg = _config(topoheads.HeadConfig, opts)
    lanes = {"control_points": cfg.control_points}
    dets = {**lanes, "feature_width": cfg.detector_feature_width}
    train_scenes = dataio.load_scenes(opts["train_scenes"], **lanes)
    train_dets = dataio.load_detections(opts["train_detections"], **dets)
    val_scenes, val_dets = [], []
    if opts.get("val_scenes"):
        _require(opts, "val_detections")
        val_scenes = dataio.load_scenes(opts["val_scenes"], **lanes)
        val_dets = dataio.load_detections(opts["val_detections"], **dets)

    def print_epoch(e: int, stats: topoheads.TrainStats) -> None:
        line = (
            f"epoch {e + 1}/{cfg.epochs} "
            f"loss_ll={stats.epoch_loss_ll[e]:.6f} "
            f"loss_lt={stats.epoch_loss_lt[e]:.6f} "
            f"total={stats.epoch_loss_total[e]:.6f}"
        )
        if stats.val_loss_total:
            line += f" val={stats.val_loss_total[e]:.6f}"
        print(line, flush=True)

    params, stats = topoheads.train(train_scenes, train_dets, val_scenes, val_dets, cfg, on_epoch=print_epoch)
    out = Path(opts["out"])
    topoheads.save_params(params, out / "params.json")
    topoheads.save_stats(stats, out / "stats.json")
    print(f"params -> {out / 'params.json'}")
    return 0


def _predictions(detections, params: topoheads.TopoHeadParams) -> list:
    """The prediction record of each detection, without the check of
    ``topoheads.predict_records``: a command checks its records once, where
    they enter, against the params' control points and feature width."""
    return [dataio.PredictionRecord(d.scene_id, d.lanes, d.traffic, *topoheads.predict(d, params)) for d in detections]


def run_predict(opts: dict) -> int:
    _require(opts, "params", "detections", "out")
    params = topoheads.load_params(opts["params"])
    cfg = params.config
    detections = dataio.load_detections(opts["detections"], cfg.control_points, cfg.detector_feature_width)
    records = _predictions(detections, params)
    dataio.save_detections(records, opts["out"])
    print(f"predicted topology for {len(records)} scenes -> {opts['out']}")
    return 0


def run_evaluate(opts: dict) -> int:
    _require(opts, "predictions", "scenes_file")
    cfg = _config(metrics.DetMatchConfig, opts)
    report = metrics.evaluate_files(opts["predictions"], opts["scenes_file"], cfg)
    print(dataio.format_report_table(report))
    if opts.get("out"):
        dataio.write_report(report, opts["out"])
        print(f"report -> {opts['out']}")
    return 0


def _levels(spec) -> list:
    """The sweep's noise levels from a non-empty list of objects (or its
    JSON text), each built through the ``NoiseModel`` rules; an error names
    the level and the key."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{_flag('levels')} must be JSON: {exc}") from exc
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"{_flag('levels')} must be a non-empty list of objects, got {spec!r}")
    levels = []
    for idx, level in enumerate(spec):
        where = f"{_flag('levels')} level {idx}"
        if not isinstance(level, dict):
            raise ValueError(f"{where} must be an object, got {level!r}")
        unknown = sorted(set(level) - set(NOISE_KEYS))
        if unknown:
            raise ValueError(f"{where}: unknown key {unknown[0]!r}, expected one of {list(NOISE_KEYS)}")
        try:
            # a level's keys are no flags of their own
            levels.append(_config(synthgen.NoiseModel, level, lambda key, field: f"key {key!r} ({field})"))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return levels


def run_sweep(opts: dict) -> int:
    _require(opts, "params", "scenes_file", "out")
    params = topoheads.load_params(opts["params"])
    # corrupt_scene keeps a scene's control-point count, so this load is its detections' check too
    scenes = dataio.load_scenes(opts["scenes_file"], params.config.control_points)
    if not scenes:
        raise ValueError(f"{opts['scenes_file']}: no scenes to evaluate")
    cfg = _config(metrics.DetMatchConfig, opts)
    seeds = _at_least(opts, "seeds", 1)
    seed = _at_least(opts, "seed", 0)
    levels = _levels(opts.get("levels", DEFAULT_SWEEP_LEVELS))
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    header = f"{'level':>5} {'ctrl_sigma':>10} {'drop_prob':>9} {'DET_l':>8} {'DET_t':>8} {'TOP_ll':>8} {'TOP_lt':>8} {'OLS':>8}"
    print(header, flush=True)
    detail = []
    for level_idx, noise in enumerate(levels):
        per_seed = []
        for rep in range(seeds):
            preds_in = [
                synthgen.corrupt_scene(s, noise, [seed, level_idx, rep, i])
                for i, s in enumerate(scenes)
            ]
            records = _predictions(preds_in, params)
            report = metrics.evaluate(records, scenes, cfg)
            per_seed.append(list(report.scores()))
        mean = np.mean(np.asarray(per_seed), axis=0)
        print(
            f"{level_idx:>5} {noise.ctrl_sigma:>10.3f} {noise.drop_prob:>9.3f} "
            + " ".join(f"{100 * v:8.2f}" for v in mean),
            flush=True,
        )
        detail.append(
            {
                "level": level_idx,
                "noise": {k: getattr(noise, k) for k in NOISE_KEYS},
                "mean": dict(zip(("det_l", "det_t", "top_ll", "top_lt", "ols"), mean.tolist())),
                "per_seed": per_seed,
            }
        )

    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", *NOISE_KEYS, "det_l", "det_t", "top_ll", "top_lt", "ols"])
        for level in detail:
            writer.writerow([level["level"], *level["noise"].values(), *level["mean"].values()])
    (out_dir / "sweep.json").write_text(
        json.dumps({"seeds": seeds, "levels": detail}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"sweep -> {out_dir / 'sweep.csv'}")
    return 0


def run_stats(opts: dict) -> int:
    _require(opts, "scenes_file")
    scenes = dataio.load_scenes(opts["scenes_file"])
    stats = detstrat.category_histogram(scenes)
    obj = {
        "counts": stats.counts.tolist(),
        "total": stats.total,
        "frequencies": stats.frequencies.tolist(),
        "category_names": list(dataio.CATEGORY_NAMES),
    }
    for name, count, freq in zip(dataio.CATEGORY_NAMES, stats.counts, stats.frequencies):
        print(f"{name:>15} {count:>7} {100 * freq:7.2f}%")
    if opts.get("out"):
        Path(opts["out"]).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        print(f"histogram -> {opts['out']}")
    return 0


def run_tta_merge(opts: dict) -> int:
    _require(opts, "input", "out")
    payload = json.loads(Path(opts["input"]).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError(f"{opts['input']}: expected a list of {{'scale', 'traffic'}} objects")
    per_scale = []
    for index, entry in enumerate(payload):
        try:
            per_scale.append(dataio.tta_entry_from_obj(entry))
        except ValueError as exc:
            raise ValueError(f"{opts['input']}: entry {index}: {exc}") from exc
    cfg = _config(detstrat.TtaConfig, opts)
    merged = detstrat.tta_merge(per_scale, cfg)
    Path(opts["out"]).write_text(dataio.traffic_json(merged) + "\n", encoding="utf-8")
    print(f"merged {sum(len(b) for _, b in per_scale)} boxes -> {len(merged)}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

COMMANDS = {
    "generate": run_generate,
    "corrupt": run_corrupt,
    "train": run_train,
    "predict": run_predict,
    "evaluate": run_evaluate,
    "sweep": run_sweep,
    "stats": run_stats,
    "tta-merge": run_tta_merge,
}

# every option of each command; an option that sets a config field takes its
# default from the dataclass
COMMAND_OPTIONS = {
    "generate": (
        "scenes", "split", "lanes", "traffic", "map_extent", "branch_prob", "lt_assoc_prob",
        "control_points", "seed", "out", *NOISE_KEYS,
    ),
    "corrupt": ("scenes_file", "seed", "out", *NOISE_KEYS),
    "train": (
        "train_scenes", "train_detections", "val_scenes", "val_detections", "out", "seed", "epochs", "lr",
        "feature_dim", "mlp_hidden", "control_points", "detector_feature_width", "focal_alpha", "focal_gamma",
        "weight_decay", "coord_scale",
    ),
    "predict": ("params", "detections", "out"),
    "evaluate": ("predictions", "scenes_file", "out", "lane_thresholds", "iou_threshold", "sample_points"),
    "sweep": ("params", "scenes_file", "out", "seed", "seeds", "levels", "lane_thresholds", "iou_threshold", "sample_points"),
    "stats": ("scenes_file", "out"),
    "tta-merge": ("input", "out", "merge_iou"),
}
# defaults of the options that set no config field
OPTION_DEFAULTS = {"generate": {"split": "0.8,0.1,0.1"}, "sweep": {"seed": 0, "seeds": 20}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanetopo",
        description="Synthetic lane-topology benchmark: generate, corrupt, train, predict, evaluate, sweep.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", dest="config", default=argparse.SUPPRESS)
        for key in options:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS)
    return parser


def _merge_options(command: str, given: dict) -> dict:
    opts = dict(OPTION_DEFAULTS.get(command, {}))
    config_path = given.pop("config", None)
    if config_path:
        file_opts = json.loads(Path(config_path).read_text(encoding="utf-8"))
        unknown = set(file_opts) - set(COMMAND_OPTIONS[command])
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        opts.update(file_opts)
    opts.update(given)  # explicit flags win
    return opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        opts = _merge_options(args.command, given)
        return COMMANDS[args.command](opts)
    except (ValidationError, FormatError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except topoheads.TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
