"""The benchmark's workloads: set-up, timed closed loops and output checks.

Every workload is a small README pipeline at one operating point:
generate -> JSONL write/read -> train -> score. The workloads differ in
scale and in where the time goes (see README.md for why each exists).
Only public functions of synthgen, dataio, topoheads and metrics are
called, always through their module so that the tracer's wrappers see
each call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lanetopo import dataio, metrics, synthgen, topoheads

# The README sweep's noise levels; level 1 is also the detector noise of
# the training data.
SWEEP_LEVELS = (
    {"ctrl_sigma": 0.0, "drop_prob": 0.0},
    {"ctrl_sigma": 0.25, "drop_prob": 0.1},
    {"ctrl_sigma": 0.5, "drop_prob": 0.3},
    {"ctrl_sigma": 1.0, "drop_prob": 0.3},
)
LEVEL_1 = SWEEP_LEVELS[1]

# End-to-end metrics, in report order: (name, unit). BENCHMARK.json lists
# the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("train_steps_per_s", "steps/s"),
    ("eval_scenes_per_s", "scenes/s"),
    ("peak_rss_mb", "MiB"),
)

LOSS_RTOL = 1e-6  # pinned losses: relative tolerance
SCORE_ATOL = 1e-6  # pinned scores: absolute tolerance
OLS_ATOL = 1e-12  # reported OLS against its formula


@dataclass(frozen=True)
class Spec:
    """Sizes and time shares of one workload."""

    scenes: int  # generated per set-up, split by ``fractions``
    fractions: tuple[float, float, float]  # train, val, test
    noise: dict  # detector noise of the generated detections
    train_chunk: int  # training scenes per topoheads.train call
    val_chunk: int  # validation scenes per call
    epochs: int
    eval_chunk: int  # scenes per scored operation
    train_share: float  # share of --seconds in the training loop
    min_train_ops: int  # training calls and scored operations a measured
    min_eval_ops: int  # run makes however long they take
    setup_repeats: int
    pinned_scores: int  # leading eval operations whose scores are pinned

    @property
    def setup_training(self) -> bool:
        """A workload whose loop does not train gets its scored params
        from a training call in set-up."""
        return self.train_share == 0.0


WORKLOADS = {
    # Training-side layers: cost build, Hungarian, MLP fwd/bwd, AdamW.
    "train_default": Spec(
        scenes=128,
        fractions=(0.625, 0.0625, 0.3125),
        noise={**LEVEL_1, "spurious_rate": 1.5},
        train_chunk=16,
        val_chunk=2,
        epochs=2,
        eval_chunk=10,
        train_share=0.7,
        min_train_ops=3,
        min_eval_ops=3,
        setup_repeats=5,
        pinned_scores=1,
    ),
    # Scoring-side layers: Frechet, Bezier sampling, greedy matching,
    # forward-only heads; each operation is one (level, seed) replicate.
    "sweep_default": Spec(
        scenes=160,
        fractions=(0.2, 0.05, 0.75),
        noise=dict(LEVEL_1),
        train_chunk=32,
        val_chunk=8,
        epochs=1,
        eval_chunk=20,
        train_share=0.0,
        min_train_ops=0,
        min_eval_ops=len(SWEEP_LEVELS),
        setup_repeats=3,
        pinned_scores=len(SWEEP_LEVELS),
    ),
    # The paper's query budget: ~290 lanes per scene, truncated at N_max.
    "query_budget": Spec(
        scenes=16,
        fractions=(0.25, 0.0625, 0.6875),
        noise={**LEVEL_1, "spurious_rate": 280.0},
        train_chunk=1,
        val_chunk=0,
        epochs=1,
        eval_chunk=1,
        train_share=0.7,
        min_train_ops=3,
        min_eval_ops=10,
        setup_repeats=3,
        pinned_scores=1,
    ),
}


def report_problems(report) -> list[str]:
    """Checks every report must pass, whatever the seed."""
    scores = report.scores()
    names = ("det_l", "det_t", "top_ll", "top_lt", "ols")
    problems = [f"{n}={v!r} outside [0, 1]" for n, v in zip(names, scores) if not 0.0 <= v <= 1.0]
    if problems:
        return problems
    det_l, det_t, top_ll, top_lt, ols = scores
    expected = 0.25 * (det_l + det_t + math.sqrt(top_ll) + math.sqrt(top_lt))
    if abs(ols - expected) > OLS_ATOL:
        problems.append(f"ols={ols!r} differs from its formula {expected!r}")
    return problems


def loss_matches(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=LOSS_RTOL, abs_tol=0.0)


def scores_match(got, want) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= SCORE_ATOL for g, w in zip(got, want))


def _losses(stats) -> list[float]:
    return list(stats.epoch_loss_total) + list(stats.val_loss_total)


def _prediction(det, params):
    ll, lt = topoheads.predict(det, params)
    return dataio.PredictionRecord(det.scene_id, det.lanes, det.traffic, topo_ll_prob=ll, topo_lt_prob=lt)


class Pass:
    """One pass over a workload: set-up, then training and eval operations."""

    def __init__(self, name: str, seed: int, workdir: Path, golden: dict | None = None):
        self.name = name
        self.golden = golden or {}  # pinned values, for the seed they were recorded with
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.observed: dict = {"scores": []}  # the values at the pinned positions
        self.inputs: str | None = None  # digest of the set-up's input files
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        # (steps, seconds) of each training call, (scenes, seconds) of each
        # scored operation
        self.train_ops: list[tuple[int, float]] = []
        self.eval_ops: list[tuple[int, float]] = []
        self.counts = {"train": 0, "eval": 0}
        self.schedule: list[str] = []  # kinds of the operations run, in order
        self.operation = "setup"  # id of the running operation, for spans

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Generate, corrupt, write and read the inputs (and, for the sweep,
        train the scored params). Timed; repeating it must give the same
        inputs."""
        spec = self.spec
        self.operation = f"setup:{len(self.setup_s)}"
        t0 = time.perf_counter()
        cfg = synthgen.GeneratorConfig(scenes=spec.scenes, seed=self.seed)
        paths = synthgen.generate_dataset(cfg, synthgen.NoiseModel(**spec.noise), spec.fractions, self.workdir)
        self.splits = {
            split: (dataio.load_scenes(p["scenes"]), dataio.load_detections(p["detections"]))
            for split, p in paths.items()
        }
        train_wall = None
        if spec.setup_training:
            t1 = time.perf_counter()
            self.params, stats = self._train(0)
            train_wall = time.perf_counter() - t1
        self.setup_s.append(time.perf_counter() - t0)

        digest = hashlib.sha256()
        for p in paths.values():
            digest.update(Path(p["scenes"]).read_bytes())
            digest.update(Path(p["detections"]).read_bytes())
        if spec.setup_training:
            steps = self._steps(0)
            self.attempted += steps
            if not (self._check_losses(stats, digest) and self._pin_loss(stats)):
                self.failed += steps
            self.train_ops.append((steps, train_wall))
        inputs = digest.hexdigest()
        if self.inputs not in (None, inputs):
            self.problems.append("repeated set-up produced different inputs")
        self.inputs = inputs
        self.digest.update(inputs.encode())

    # -- training operations --------------------------------------------

    def _chunk(self, split: str, size: int, k: int):
        scenes, dets = self.splits[split]
        if size == 0:
            return [], []
        start = (k * size) % max(len(scenes) - size + 1, 1)
        return scenes[start : start + size], dets[start : start + size]

    def _steps(self, k: int) -> int:
        return len(self._chunk("train", self.spec.train_chunk, k)[0]) * self.spec.epochs

    def _train(self, k: int):
        spec = self.spec
        train_scenes, train_dets = self._chunk("train", spec.train_chunk, k)
        val_scenes, val_dets = self._chunk("val", spec.val_chunk, k)
        cfg = topoheads.HeadConfig(epochs=spec.epochs, seed=self.seed)
        return topoheads.train(train_scenes, train_dets, val_scenes, val_dets, cfg)

    def _check_losses(self, stats, digest) -> bool:
        losses = _losses(stats)
        digest.update(repr(losses).encode())
        if not all(math.isfinite(v) for v in losses):
            self.problems.append(f"non-finite training loss in {losses!r}")
            return False
        return True

    def _pin_loss(self, stats) -> bool:
        """Record the final loss of the pinned training call; False if it
        misses its pinned value."""
        loss = stats.epoch_loss_total[-1]
        self.observed["loss"] = loss
        want = self.golden.get("loss")
        if want is None or loss_matches(loss, want):
            return True
        self.problems.append(f"final training loss {loss!r} != pinned {want!r}")
        return False

    def train_op(self, k: int) -> None:
        steps = self._steps(k)
        self.attempted += steps
        t0 = time.perf_counter()
        try:
            params, stats = self._train(k)
        except Exception as exc:  # an operation's failure is counted, not fatal
            self.failed += steps
            self.problems.append(f"train call {k}: {type(exc).__name__}: {exc}")
            return
        self.train_ops.append((steps, time.perf_counter() - t0))
        ok = self._check_losses(stats, self.digest)
        if k == 0:
            self.params = params  # the eval operations score the first call's params
            ok = self._pin_loss(stats) and ok
        if not ok:
            self.failed += steps

    # -- eval operations ------------------------------------------------

    def _eval(self, k: int):
        """Score one operation's scenes; returns (prediction records, report)."""
        if self.name == "sweep_default":
            # replicate ``rep`` of noise level ``level``, as in `lanetopo sweep`
            level, rep = k % len(SWEEP_LEVELS), k // len(SWEEP_LEVELS)
            scenes, _ = self._chunk("test", self.spec.eval_chunk, rep)
            noise = synthgen.NoiseModel(**SWEEP_LEVELS[level])
            dets = [synthgen.corrupt_scene(s, noise, [self.seed, level, rep, i]) for i, s in enumerate(scenes)]
        else:
            scenes, dets = self._chunk("test", self.spec.eval_chunk, k)
        records = [_prediction(d, self.params) for d in dets]
        if self.name == "query_budget":
            # the `lanetopo predict` / `lanetopo evaluate` file path
            path = self.workdir / "predictions.jsonl"
            dataio.save_detections(records, path)
            loaded = dataio.load_detections(path)
            if loaded != records:
                raise ValueError("prediction records changed in a JSONL round trip")
            records = loaded
        return records, metrics.evaluate(records, scenes)

    def eval_op(self, k: int) -> None:
        units = len(self._chunk("test", self.spec.eval_chunk, k)[0])
        self.attempted += units
        t0 = time.perf_counter()
        try:
            records, report = self._eval(k)
        except Exception as exc:  # an operation's failure is counted, not fatal
            self.failed += units
            self.problems.append(f"eval operation {k}: {type(exc).__name__}: {exc}")
            return
        self.eval_ops.append((units, time.perf_counter() - t0))
        problems = report_problems(report)
        for r in records:
            for mat in (r.topo_ll_prob, r.topo_lt_prob):
                self.digest.update(mat.tobytes())
                if mat.size and not (np.all(mat >= 0.0) and np.all(mat <= 1.0)):
                    problems.append(f"{r.scene_id}: probabilities outside [0, 1]")
        scores = [float(v) for v in report.scores()]
        self.digest.update(repr(scores).encode())
        if k < self.spec.pinned_scores:
            self.observed["scores"].append(scores)
            pinned = self.golden.get("scores", [])
            if k < len(pinned) and not scores_match(scores, pinned[k]):
                problems.append(f"scores {scores!r} != pinned {pinned[k]!r}")
        if problems:
            self.failed += units
            self.problems.extend(f"eval operation {k}: {p}" for p in problems)

    # -- the closed loop -------------------------------------------------

    def _op(self, kind: str) -> None:
        k = self.counts[kind]
        self.operation = f"{kind}:{k}"
        (self.train_op if kind == "train" else self.eval_op)(k)
        self.counts[kind] += 1
        self.schedule.append(kind)

    def _next_kind(self, short: list[str]) -> str:
        """The kind of the next operation: training first (the eval scores
        its params), then whichever kind is furthest below its time share,
        among those still short of their minimum count if any are."""
        if "train" in short and self.counts["train"] == 0:
            return "train"
        share = {"train": self.spec.train_share, "eval": 1.0 - self.spec.train_share}
        spent = {"train": sum(s for _, s in self.train_ops), "eval": sum(s for _, s in self.eval_ops)}
        kinds = short or [k for k in share if share[k] > 0]
        return min(kinds, key=lambda k: spent[k] / share[k])

    def run(self, seconds: float, schedule: list[str] | None = None, measured: bool = True) -> None:
        """Set up, then interleave training and eval operations for
        ``seconds``, so both kinds sample the whole run.

        A ``measured`` run makes at least the spec's minimum operation
        counts and sets up ``setup_repeats`` times, spread over the run.
        Otherwise it sets up once and makes only the operations whose
        outputs are pinned. ``schedule`` replays a previous pass's
        operations in order instead.
        """
        spec = self.spec
        mins = {
            "train": 0 if spec.setup_training else (spec.min_train_ops if measured else 1),
            "eval": spec.min_eval_ops if measured else spec.pinned_scores,
        }
        setups = spec.setup_repeats if measured else 1
        self.setup()
        if schedule is not None:
            for kind in schedule:
                self._op(kind)
            return
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            short = [k for k in ("train", "eval") if self.counts[k] < mins[k]]
            if elapsed >= seconds and not short:
                break
            if len(self.setup_s) < setups - 1 and elapsed >= len(self.setup_s) * seconds / (setups - 1):
                self.setup()
            else:
                self._op(self._next_kind(short))
        while len(self.setup_s) < setups:
            self.setup()
