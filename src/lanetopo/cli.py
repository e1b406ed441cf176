"""Batch command-line front end wiring the library into reproducible
experiments: data generation, corruption, training, prediction,
evaluation, the noise-sweep study, and the data-strategy utilities.

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

NOISE_KEYS = ("ctrl_sigma", "box_sigma", "drop_prob", "spurious_rate", "confusion_prob", "conf_noise")


def _int(value, key: str) -> int:
    """An integer option: an int or an integral string; anything else is an error naming it."""
    try:
        if type(value) is int or isinstance(value, str):  # a bool is an int subclass
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"option {key!r} (--{key.replace('_', '-')}) must be an integer, got {value!r}")


def _parse_pair(opts: dict, key: str) -> tuple[int, int]:
    """A (lo, hi) option: 'lo,hi' (or one integer for both) as text, or a
    JSON list of two integers."""
    value = opts[key]
    if isinstance(value, list) and len(value) == 2:
        parts = value
    elif (type(value) is int or isinstance(value, str)) and str(value).count(",") <= 1:
        parts = str(value).split(",")
    else:
        raise ValueError(f"option {key!r} (--{key}) must be 'lo,hi' or a list [lo, hi] of two integers, got {value!r}")
    parts = [_int(v, key) for v in parts]
    return parts[0], parts[-1]


def _parse_floats(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(v) for v in str(text).split(","))


def _noise_from(opts: dict) -> synthgen.NoiseModel:
    return synthgen.NoiseModel(**{k: float(opts[k]) for k in NOISE_KEYS})


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _generator_from(opts: dict) -> synthgen.GeneratorConfig:
    return synthgen.GeneratorConfig(
        scenes=_int(opts["scenes"], "scenes"),
        lanes_per_scene=_parse_pair(opts, "lanes"),
        map_extent=float(opts["map_extent"]),
        branch_prob=float(opts["branch_prob"]),
        traffic_per_scene=_parse_pair(opts, "traffic"),
        lt_assoc_prob=float(opts["lt_assoc_prob"]),
        seed=_int(opts["seed"], "seed"),
        control_points=_int(opts["control_points"], "control_points"),
    )


def _head_config_from(opts: dict) -> topoheads.HeadConfig:
    ints = ("feature_dim", "mlp_hidden", "control_points", "epochs", "seed")
    floats = ("lr", "focal_alpha", "focal_gamma", "weight_decay", "coord_scale")
    width = opts.get("detector_feature_width")
    return topoheads.HeadConfig(
        detector_feature_width=_int(width, "detector_feature_width") if width else None,
        **{k: _int(opts[k], k) for k in ints},
        **{k: float(opts[k]) for k in floats},
    )


def _metric_config_from(opts: dict) -> metrics.DetMatchConfig:
    return metrics.DetMatchConfig(
        lane_frechet_thresholds=_parse_floats(opts["lane_thresholds"]),
        traffic_iou_threshold=float(opts["iou_threshold"]),
        sample_points=_int(opts["sample_points"], "sample_points"),
    )


# ---------------------------------------------------------------------------
# commands


def run_generate(opts: dict) -> int:
    _require(opts, "seed", "out")
    cfg = _generator_from(opts)
    noise = _noise_from(opts)
    fractions = _parse_floats(opts["split"])
    paths = synthgen.generate_dataset(cfg, noise, fractions, opts["out"])
    for split in ("train", "val", "test"):
        print(f"{split}: {paths[split]['count']} scenes -> {paths[split]['scenes']}")
    return 0


def run_corrupt(opts: dict) -> int:
    _require(opts, "seed", "scenes_file", "out")
    scenes = dataio.load_scenes(opts["scenes_file"])
    noise = _noise_from(opts)
    seed = _int(opts["seed"], "seed")
    detections = [synthgen.corrupt_scene(s, noise, [seed, i]) for i, s in enumerate(scenes)]
    dataio.save_detections(detections, opts["out"])
    print(f"corrupted {len(detections)} scenes -> {opts['out']}")
    return 0


def run_train(opts: dict) -> int:
    _require(opts, "seed", "train_scenes", "train_detections", "out")
    cfg = _head_config_from(opts)
    train_scenes = dataio.load_scenes(opts["train_scenes"], control_points=cfg.control_points)
    train_dets = dataio.load_detections(opts["train_detections"], control_points=cfg.control_points)
    val_scenes, val_dets = [], []
    if opts.get("val_scenes"):
        _require(opts, "val_detections")
        val_scenes = dataio.load_scenes(opts["val_scenes"], control_points=cfg.control_points)
        val_dets = dataio.load_detections(opts["val_detections"], control_points=cfg.control_points)
    params, stats = topoheads.train(train_scenes, train_dets, val_scenes, val_dets, cfg)
    out = Path(opts["out"])
    topoheads.save_params(params, out / "params.json")
    topoheads.save_stats(stats, out / "stats.json")
    for e in range(len(stats.epoch_loss_total)):
        line = (
            f"epoch {e + 1}/{cfg.epochs} "
            f"loss_ll={stats.epoch_loss_ll[e]:.6f} "
            f"loss_lt={stats.epoch_loss_lt[e]:.6f} "
            f"total={stats.epoch_loss_total[e]:.6f}"
        )
        if stats.val_loss_total:
            line += f" val={stats.val_loss_total[e]:.6f}"
        print(line)
    print(f"params -> {out / 'params.json'}")
    return 0


def run_predict(opts: dict) -> int:
    _require(opts, "params", "detections", "out")
    params = topoheads.load_params(opts["params"])
    detections = dataio.load_detections(opts["detections"])
    records = topoheads.predict_records(detections, params)
    dataio.save_detections(records, opts["out"])
    print(f"predicted topology for {len(records)} scenes -> {opts['out']}")
    return 0


def run_evaluate(opts: dict) -> int:
    _require(opts, "predictions", "scenes_file")
    cfg = _metric_config_from(opts)
    report = metrics.evaluate_files(opts["predictions"], opts["scenes_file"], cfg)
    print(dataio.format_report_table(report))
    if opts.get("out"):
        dataio.write_report(report, opts["out"])
        print(f"report -> {opts['out']}")
    return 0


def run_sweep(opts: dict) -> int:
    _require(opts, "params", "scenes_file", "out")
    params = topoheads.load_params(opts["params"])
    scenes = dataio.load_scenes(opts["scenes_file"])
    if not scenes:
        raise ValueError(f"{opts['scenes_file']}: no scenes to evaluate")
    cfg = _metric_config_from(opts)
    seeds = _int(opts["seeds"], "seeds")
    if seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {seeds}")
    seed = _int(opts["seed"], "seed") if opts.get("seed") is not None else 0
    levels_spec = opts.get("levels")
    if isinstance(levels_spec, str):
        levels_spec = json.loads(levels_spec)
    if levels_spec is None:
        levels_spec = [dict(l) for l in DEFAULT_SWEEP_LEVELS]
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    detail = []
    for level_idx, level in enumerate(levels_spec):
        noise = synthgen.NoiseModel(**level)
        per_seed = []
        for rep in range(seeds):
            preds_in = [
                synthgen.corrupt_scene(s, noise, [seed, level_idx, rep, i])
                for i, s in enumerate(scenes)
            ]
            records = topoheads.predict_records(preds_in, params)
            report = metrics.evaluate(records, scenes, cfg)
            per_seed.append(list(report.scores()))
        mean = np.mean(np.asarray(per_seed), axis=0)
        rows.append((level_idx, noise, mean))
        detail.append(
            {
                "level": level_idx,
                "noise": {k: getattr(noise, k) for k in NOISE_KEYS},
                "mean": dict(zip(("det_l", "det_t", "top_ll", "top_lt", "ols"), mean.tolist())),
                "per_seed": per_seed,
            }
        )

    header = f"{'level':>5} {'ctrl_sigma':>10} {'drop_prob':>9} {'DET_l':>8} {'DET_t':>8} {'TOP_ll':>8} {'TOP_lt':>8} {'OLS':>8}"
    print(header)
    for level_idx, noise, mean in rows:
        print(
            f"{level_idx:>5} {noise.ctrl_sigma:>10.3f} {noise.drop_prob:>9.3f} "
            + " ".join(f"{100 * v:8.2f}" for v in mean)
        )

    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", *NOISE_KEYS, "det_l", "det_t", "top_ll", "top_lt", "ols"])
        for level_idx, noise, mean in rows:
            writer.writerow(
                [level_idx, *(getattr(noise, k) for k in NOISE_KEYS), *(float(v) for v in mean)]
            )
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


def run_resample(opts: dict) -> int:
    _require(opts, "scenes_file", "out")
    scenes = dataio.load_scenes(opts["scenes_file"])
    stats = detstrat.category_histogram(scenes)
    cfg = detstrat.ResampleConfig(
        freq_threshold=float(opts["freq_threshold"]),
        min_factor=_int(opts["min_factor"], "min_factor"),
        max_factor=_int(opts["max_factor"], "max_factor"),
    )
    plan = detstrat.resample_plan(scenes, stats, cfg)
    Path(opts["out"]).write_text(json.dumps(plan) + "\n", encoding="utf-8")
    print(f"{len(scenes)} frames -> {len(plan)} after resampling; plan -> {opts['out']}")
    return 0


def run_tta_merge(opts: dict) -> int:
    _require(opts, "input", "out")
    payload = json.loads(Path(opts["input"]).read_text(encoding="utf-8"))
    per_scale = [
        (float(entry["scale"]), [dataio.traffic_from_obj(te) for te in entry["traffic"]])
        for entry in payload
    ]
    cfg = detstrat.TtaConfig(merge_iou=float(opts["merge_iou"]))
    merged = detstrat.tta_merge(per_scale, cfg)
    Path(opts["out"]).write_text(
        json.dumps([dataio.traffic_to_obj(te) for te in merged]) + "\n", encoding="utf-8"
    )
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
    "resample": run_resample,
    "tta-merge": run_tta_merge,
}

COMMAND_DEFAULTS: dict[str, dict] = {
    "generate": {
        "scenes": 200,
        "split": "0.8,0.1,0.1",
        "lanes": "12,18",
        "traffic": "14,20",
        "map_extent": 50.0,
        "branch_prob": 0.3,
        "lt_assoc_prob": 0.05,
        "control_points": 4,
        "seed": None,
        "out": None,
        **{k: 0.0 for k in NOISE_KEYS},
    },
    "corrupt": {
        "scenes_file": None,
        "seed": None,
        "out": None,
        **{k: 0.0 for k in NOISE_KEYS},
    },
    "train": {
        "train_scenes": None,
        "train_detections": None,
        "val_scenes": None,
        "val_detections": None,
        "out": None,
        "seed": None,
        "epochs": 10,
        "lr": 2e-4,
        "feature_dim": 128,
        "mlp_hidden": 128,
        "control_points": 4,
        "detector_feature_width": None,
        "focal_alpha": 0.25,
        "focal_gamma": 2.0,
        "weight_decay": 0.01,
        "coord_scale": 50.0,
    },
    "predict": {"params": None, "detections": None, "out": None},
    "evaluate": {
        "predictions": None,
        "scenes_file": None,
        "out": None,
        "lane_thresholds": "1.0,2.0,3.0",
        "iou_threshold": 0.75,
        "sample_points": 11,
    },
    "sweep": {
        "params": None,
        "scenes_file": None,
        "out": None,
        "seed": 0,
        "seeds": 20,
        "levels": None,
        "lane_thresholds": "1.0,2.0,3.0",
        "iou_threshold": 0.75,
        "sample_points": 11,
    },
    "stats": {"scenes_file": None, "out": None},
    "resample": {
        "scenes_file": None,
        "out": None,
        "freq_threshold": 0.10,
        "min_factor": 5,
        "max_factor": 20,
    },
    "tta-merge": {"input": None, "out": None, "merge_iou": 0.6},
}


def _add_flags(sub: argparse.ArgumentParser, defaults: dict) -> None:
    for key in defaults:
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanetopo",
        description="Synthetic lane-topology benchmark: generate, corrupt, train, predict, evaluate, sweep.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, defaults in COMMAND_DEFAULTS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", dest="config", default=argparse.SUPPRESS)
        _add_flags(sub, defaults)
    return parser


def _merge_options(command: str, given: dict) -> dict:
    opts = dict(COMMAND_DEFAULTS[command])
    config_path = given.pop("config", None)
    if config_path:
        file_opts = json.loads(Path(config_path).read_text(encoding="utf-8"))
        unknown = set(file_opts) - set(opts)
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
