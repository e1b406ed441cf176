"""Span tracer that wraps public lanetopo functions from outside the package.

The tracer replaces module attributes with thin wrappers for the duration
of one traced pass and restores the originals afterwards. Each wrapper
records a span (name, start, end, parent span, operation id) and calls the
original with the same arguments, so the traced pass computes exactly what
an untraced pass computes. A name that does not exist on the commit under
test is skipped and reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

# Per-layer metrics, in report order: (name, unit). Every traced run reports
# all of them; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("geometry.frechet_s", "s"),
    ("geometry.frechet_calls", "count"),
    ("geometry.sample_lane_s", "s"),
    ("geometry.sample_lane_calls", "count"),
    ("geometry.box_iou_calls", "count"),
    ("synthgen.generate_s", "s"),
    ("synthgen.corrupt_s", "s"),
    ("synthgen.corrupt_calls", "count"),
    ("dataio.save_s", "s"),
    ("dataio.save_bytes", "bytes"),
    ("dataio.load_s", "s"),
    ("dataio.load_records", "count"),
    ("assoc.cost_build_s", "s"),
    ("assoc.hungarian_s", "s"),
    ("assoc.hungarian_calls", "count"),
    ("assoc.hungarian_cells", "count"),
    ("assoc.greedy_s", "s"),
    ("assoc.greedy_affinity_calls", "count"),
    ("assoc.greedy_match_ratio", "fraction"),
    ("topoheads.embed_fwd_s", "s"),
    ("topoheads.pair_fwd_s", "s"),
    ("topoheads.embed_bwd_s", "s"),
    ("topoheads.pair_bwd_s", "s"),
    ("topoheads.loss_self_s", "s"),
    ("topoheads.adamw_s", "s"),
    ("topoheads.predict_s", "s"),
    ("topoheads.step_ms_p50", "ms"),
    ("topoheads.step_ms_ptail", "ms"),
    ("topoheads.step_ptail_pct", "%"),
    ("topoheads.step_samples", "count"),
    ("topoheads.pair_rows", "count"),
    ("topoheads.pair_bytes", "bytes-computed"),
    ("metrics.evaluate_s", "s"),
    ("metrics.det_l_s", "s"),
    ("metrics.det_t_s", "s"),
    ("metrics.top_s", "s"),
    ("metrics.evaluate_calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.absent_wrappers", "count"),
    ("trace.spans", "count"),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, operation=lambda: "-"):
        # each span is [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.operation = operation  # returns the id of the running operation
        self.absent: list[str] = []
        self.probe_errors: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments returning one. ``after(tracer, args, kwargs, result)``
        may add counters; if it fails on an unexpected signature the
        counter is left out and the failure is counted, never raised.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.operation()]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    tracer.probe_errors[span_name] += 1
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# counters taken from arguments and results


def _count_hungarian(tracer, args, kwargs, result):
    rows, cols = args[0].shape
    tracer.counters["assoc.hungarian_cells"] += rows * cols


def _count_greedy(tracer, args, kwargs, result):
    tracer.counters["assoc.greedy_matched"] += len(result[1])


def _count_saved(tracer, args, kwargs, result):
    tracer.counters["dataio.save_bytes"] += os.path.getsize(args[1])


def _count_loaded(tracer, args, kwargs, result):
    tracer.counters["dataio.load_records"] += len(result)


def _count_ll_pairs(tracer, args, kwargs, result):
    n = args[0].shape[0]
    rows = n * n
    tracer.counters["topoheads.pair_rows"] += rows
    tracer.counters["topoheads.pair_bytes"] += rows * args[1].ll_head.in_dim * args[0].itemsize


def _count_lt_pairs(tracer, args, kwargs, result):
    rows = args[0].shape[0] * args[1].shape[0]
    tracer.counters["topoheads.pair_rows"] += rows
    tracer.counters["topoheads.pair_bytes"] += rows * args[2].lt_head.in_dim * args[0].itemsize


def _backward_name(args) -> str:
    # The pair heads are the only MLPs with a single output unit.
    try:
        return "topoheads.pair_bwd" if args[0].out_dim == 1 else "topoheads.embed_bwd"
    except (AttributeError, IndexError):
        return "topoheads.mlp_bwd"


def install(tracer: Tracer, lanetopo) -> None:
    """Wrap the public functions the per-layer metrics are built from.

    Geometry kernels are wrapped where ``metrics`` looks them up, so only
    the evaluation's calls are counted.
    """
    assoc, dataio, metrics = lanetopo.assoc, lanetopo.dataio, lanetopo.metrics
    synthgen, topoheads = lanetopo.synthgen, lanetopo.topoheads
    table = (
        (metrics, "frechet_distance", "geometry.frechet", None),
        (metrics, "sample_lane", "geometry.sample_lane", None),
        (metrics, "box_iou", "geometry.box_iou", None),
        (synthgen, "generate_scene", "synthgen.generate", None),
        (synthgen, "corrupt_scene", "synthgen.corrupt", None),
        (dataio, "save_scenes", "dataio.save", _count_saved),
        (dataio, "save_detections", "dataio.save", _count_saved),
        (dataio, "load_scenes", "dataio.load", _count_loaded),
        (dataio, "load_detections", "dataio.load", _count_loaded),
        (assoc, "match_for_training", "assoc.cost_build", None),
        (assoc, "match_traffic_for_training", "assoc.cost_build", None),
        (assoc, "hungarian_solve", "assoc.hungarian", _count_hungarian),
        (assoc, "greedy_metric_match", "assoc.greedy", _count_greedy),
        (topoheads, "train", "topoheads.train", None),
        (topoheads, "scene_loss_and_grads", "topoheads.loss", None),
        (topoheads, "embed_lanes", "topoheads.embed_fwd", None),
        (topoheads, "embed_traffic_batch", "topoheads.embed_fwd", None),
        (topoheads, "ll_logits", "topoheads.pair_fwd", _count_ll_pairs),
        (topoheads, "lt_logits", "topoheads.pair_fwd", _count_lt_pairs),
        (topoheads, "mlp_backward", _backward_name, None),
        (topoheads, "adamw_step", "topoheads.adamw", None),
        (topoheads, "predict", "topoheads.predict", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "det_l", "metrics.det_l", None),
        (metrics, "det_t", "metrics.det_t", None),
    )
    for module, attr, name, after in table:
        tracer.wrap(module, attr, name, after)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def step_latencies_ms(spans) -> list[float]:
    """Optimizer-step latencies: from the start of the loss-and-gradient
    call to the end of the AdamW update that consumes it."""
    out = []
    last_loss_start = None
    for name, start, end, parent, op in spans:
        if name == "topoheads.loss":
            last_loss_start = start
        elif name == "topoheads.adamw" and last_loss_start is not None:
            out.append(1e3 * (end - last_loss_start))
            last_loss_start = None
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples
    beyond it; 100 (the maximum) when there are too few samples for any."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return 100.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Fold the recorded spans and counters into the per-layer metrics."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, parent, op), s in zip(spans, selfs):
        total[name] += end - start
        own[name] += s
        calls[name] += 1
    greedy_ids = {i for i, sp in enumerate(spans) if sp[0] == "assoc.greedy"}
    affinity_calls = sum(1 for sp in spans if sp[3] in greedy_ids)
    steps = step_latencies_ms(spans)
    tail = tail_percentile(len(steps))
    c = tracer.counters
    return {
        "geometry.frechet_s": total["geometry.frechet"],
        "geometry.frechet_calls": calls["geometry.frechet"],
        "geometry.sample_lane_s": total["geometry.sample_lane"],
        "geometry.sample_lane_calls": calls["geometry.sample_lane"],
        "geometry.box_iou_calls": calls["geometry.box_iou"],
        "synthgen.generate_s": total["synthgen.generate"],
        "synthgen.corrupt_s": total["synthgen.corrupt"],
        "synthgen.corrupt_calls": calls["synthgen.corrupt"],
        "dataio.save_s": total["dataio.save"],
        "dataio.save_bytes": c["dataio.save_bytes"],
        "dataio.load_s": total["dataio.load"],
        "dataio.load_records": c["dataio.load_records"],
        "assoc.cost_build_s": own["assoc.cost_build"],
        "assoc.hungarian_s": total["assoc.hungarian"],
        "assoc.hungarian_calls": calls["assoc.hungarian"],
        "assoc.hungarian_cells": c["assoc.hungarian_cells"],
        "assoc.greedy_s": own["assoc.greedy"],
        "assoc.greedy_affinity_calls": affinity_calls,
        "assoc.greedy_match_ratio": c["assoc.greedy_matched"] / affinity_calls if affinity_calls else 0.0,
        "topoheads.embed_fwd_s": total["topoheads.embed_fwd"],
        "topoheads.pair_fwd_s": total["topoheads.pair_fwd"],
        "topoheads.embed_bwd_s": total["topoheads.embed_bwd"],
        "topoheads.pair_bwd_s": total["topoheads.pair_bwd"],
        "topoheads.loss_self_s": own["topoheads.loss"],
        "topoheads.adamw_s": total["topoheads.adamw"],
        "topoheads.predict_s": total["topoheads.predict"],
        "topoheads.step_ms_p50": percentile(steps, 50.0) if steps else 0.0,
        "topoheads.step_ms_ptail": percentile(steps, tail) if steps else 0.0,
        "topoheads.step_ptail_pct": tail,
        "topoheads.step_samples": len(steps),
        "topoheads.pair_rows": c["topoheads.pair_rows"],
        "topoheads.pair_bytes": c["topoheads.pair_bytes"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.det_l_s": total["metrics.det_l"],
        "metrics.det_t_s": total["metrics.det_t"],
        "metrics.top_s": own["metrics.evaluate"],
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "trace.overhead_s": overhead_s,
        "trace.absent_wrappers": len(tracer.absent),
        "trace.spans": len(spans),
    }
