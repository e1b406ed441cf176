"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q lanebench
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lanetopo  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lanetopo import dataio, metrics  # noqa: E402


def test_self_time_of_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["b", 5.0, 7.0, 0, "op"],
        ["c", 2.0, 3.0, 1, "op"],
        ["d", 2.5, 3.5, 1, "op"],  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == [5.0, 1.5, 2.0, 1.0, 1.0]


def test_step_latency_and_tail_percentile():
    spans = [
        ["topoheads.loss", 0.0, 0.010, -1, "op"],
        ["topoheads.adamw", 0.011, 0.012, -1, "op"],
        ["topoheads.loss", 0.020, 0.021, -1, "op"],  # validation pass, no update
        ["topoheads.loss", 0.030, 0.035, -1, "op"],
        ["topoheads.adamw", 0.035, 0.036, -1, "op"],
    ]
    got = tracing.step_latencies_ms(spans)
    assert [round(v, 9) for v in got] == [12.0, 6.0]
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(96) == 75.0
    assert tracing.tail_percentile(30) == 100.0
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0


def test_wrapper_returns_what_the_wrapped_function_returns():
    sentinel = object()
    module = types.ModuleType("fake")
    module.kernel = lambda *args, **kwargs: (sentinel, args, kwargs)
    original = module.kernel
    t = tracing.Tracer()
    t.wrap(module, "kernel", "fake.kernel")
    t.wrap(module, "missing", "fake.missing")
    result = module.kernel(1, key=2)
    assert result[0] is sentinel and result[1:] == ((1,), {"key": 2})
    assert [s[0] for s in t.spans] == ["fake.kernel"]
    assert t.absent == ["fake.missing"]
    t.uninstall()
    assert module.kernel is original


def test_failing_counter_probe_is_counted_not_raised():
    module = types.ModuleType("fake")
    module.kernel = lambda x: x
    t = tracing.Tracer()
    t.wrap(module, "kernel", "fake.kernel", after=lambda tr, args, kwargs, result: args[5])
    assert module.kernel(7) == 7
    assert t.probe_errors["fake.kernel"] == 1
    t.uninstall()


def test_installed_wrappers_leave_lanetopo_results_unchanged():
    scenes = [lanetopo.synthgen.generate_scene(lanetopo.synthgen.GeneratorConfig(seed=5), i) for i in range(2)]
    noise = lanetopo.synthgen.NoiseModel(**workloads.LEVEL_1)
    dets = [lanetopo.synthgen.corrupt_scene(s, noise, [5, i]) for i, s in enumerate(scenes)]
    params = lanetopo.topoheads.init_params(lanetopo.topoheads.HeadConfig(seed=5))
    plain = [lanetopo.topoheads.predict(d, params) for d in dets]
    records = [workloads._prediction(d, params) for d in dets]
    plain_report = metrics.evaluate(records, scenes)

    original_evaluate = metrics.evaluate
    t = tracing.Tracer()
    tracing.install(t, lanetopo)
    try:
        assert metrics.evaluate is not original_evaluate
        traced = [lanetopo.topoheads.predict(d, params) for d in dets]
        traced_report = metrics.evaluate(records, scenes)
    finally:
        t.uninstall()
    for (a_ll, a_lt), (b_ll, b_lt) in zip(plain, traced):
        assert a_ll.tobytes() == b_ll.tobytes() and a_lt.tobytes() == b_lt.tobytes()
    assert plain_report.scores() == traced_report.scores()
    assert t.absent == []
    names = {s[0] for s in t.spans}
    assert {"topoheads.predict", "metrics.evaluate", "geometry.frechet", "assoc.greedy"} <= names
    assert metrics.evaluate is original_evaluate


def _report(det_l=0.5, det_t=0.6, top_ll=0.25, top_lt=0.36):
    ols = 0.25 * (det_l + det_t + top_ll**0.5 + top_lt**0.5)
    return dataio.MetricReport(det_l, det_t, top_ll, top_lt, ols)


def test_output_checks_reject_a_perturbed_score():
    good = _report()
    assert workloads.report_problems(good) == []
    bad_ols = _report()
    bad_ols.ols += 1e-6
    assert workloads.report_problems(bad_ols)
    out_of_range = _report()
    out_of_range.top_ll = 1.5
    assert workloads.report_problems(out_of_range)

    pinned = list(good.scores())
    assert workloads.scores_match([v + 1e-12 for v in pinned], pinned)
    assert not workloads.scores_match([pinned[0] + 1e-4, *pinned[1:]], pinned)
    assert not workloads.scores_match(pinned[:4], pinned)
    assert workloads.loss_matches(0.125 * (1 + 1e-12), 0.125)
    assert not workloads.loss_matches(0.126, 0.125)


def test_two_seeds_give_different_inputs_of_the_same_shape():
    shapes, digests = [], []
    scratch = HERE.parent / ".lanebench"
    scratch.mkdir(exist_ok=True)
    for seed in (0, 1):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = workloads.Pass("query_budget", seed, Path(tmp))
            bench.setup()
        shapes.append({split: (len(s), len(d)) for split, (s, d) in bench.splits.items()})
        digests.append(bench.inputs)
        lanes = [len(d.lanes) for d in bench.splits["test"][1]]
        assert max(lanes) <= dataio.DEFAULT_QUERY_BUDGET and min(lanes) > 250
    assert shapes[0] == shapes[1]
    assert digests[0] != digests[1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(workloads.END_TO_END)
    assert per_layer == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {name for name, _ in tracing.LAYER_METRICS}
    assert set(tracing.layer_metrics(tracing.Tracer(), 0.0)) == names
