from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lanetopo
from lanetopo import assoc
from lanetopo.assoc import (
    greedy_metric_match,
    hungarian_solve,
    invert_match,
    match_for_training,
)
from lanetopo.dataio import GtLane, PredLane
from lanetopo.geometry import box_iou, frechet_distance
from lanetopo.synthgen import GeneratorConfig, NoiseModel, corrupt_scene, generate_scene


def test_every_public_name_resolves():
    for module in (lanetopo, lanetopo.geometry, lanetopo.metrics):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [] and len(set(module.__all__)) == len(module.__all__), module.__name__
    assert "Assignment" not in lanetopo.__all__  # a matching is a per-prediction int array


def brute_min_cost(cost):
    """Oracle: minimum assignment total over all injective maps."""
    cost = np.asarray(cost, dtype=float)
    r, c = cost.shape
    best = math.inf
    if r <= c:
        for perm in itertools.permutations(range(c), r):
            best = min(best, sum(cost[i, perm[i]] for i in range(r)))
    else:
        for perm in itertools.permutations(range(r), c):
            best = min(best, sum(cost[perm[j], j] for j in range(c)))
    return best


def total_cost(cost, match):
    return sum(cost[r][c] for r, c in enumerate(match.tolist()) if c >= 0)


def test_hungarian_singleton():
    a = hungarian_solve([[7.0]])
    assert a.dtype.kind == "i" and a.tolist() == [0]


def test_hungarian_hand_case():
    # identity total 5 vs crossed total 4
    assert hungarian_solve([[1.0, 2.0], [2.0, 4.0]]).tolist() == [1, 0]


def test_hungarian_prefers_zero_diagonal():
    cost = np.ones((4, 4))
    np.fill_diagonal(cost, 0.0)
    assert hungarian_solve(cost).tolist() == [0, 1, 2, 3]


def test_hungarian_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        hungarian_solve([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hungarian_solve([[1.0, float("inf")], [0.0, 1.0]])


def test_hungarian_empty_sides():
    a = hungarian_solve(np.zeros((0, 3)))
    assert a.shape == (0,) and invert_match(a, 3).tolist() == [-1, -1, -1]
    assert hungarian_solve(np.zeros((2, 0))).tolist() == [-1, -1]


def test_invert_match_gives_each_gt_its_prediction():
    assert invert_match(np.array([2, -1, 0]), 4).tolist() == [2, -1, 0, -1]
    assert invert_match(np.array([-1, -1]), 0).tolist() == []


def test_hungarian_matches_bruteforce_square_and_rect():
    rng = np.random.default_rng(17)
    for _ in range(200):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        cost = rng.uniform(-10, 10, size=(r, c))
        a = hungarian_solve(cost)
        assert a.shape == (r,) and (a >= 0).sum() == min(r, c)
        cols = a[a >= 0].tolist()
        assert len(set(cols)) == len(cols)  # injective
        assert total_cost(cost, a) == pytest.approx(brute_min_cost(cost), abs=1e-9)


def test_hungarian_scale_invariance_of_assignment():
    rng = np.random.default_rng(29)
    for _ in range(30):
        cost = rng.uniform(0, 5, size=(5, 5))
        assert np.array_equal(hungarian_solve(cost), hungarian_solve(3.7 * cost))


def test_hungarian_deterministic():
    rng = np.random.default_rng(101)
    cost = rng.uniform(size=(6, 4))
    first = hungarian_solve(cost)
    for _ in range(5):
        assert np.array_equal(hungarian_solve(cost), first)


def test_hungarian_terminates_on_huge_finite_costs():
    # rectangular costs near the float maximum must not send the solver into
    # a hang; the solve runs in a subprocess so that a hang fails, not blocks
    code = (
        "import numpy as np\n"
        "from lanetopo.assoc import hungarian_solve\n"
        "for shape in ((6, 3), (3, 6)):\n"
        "    assert (hungarian_solve(np.full(shape, 1e307)) >= 0).sum() == 3\n"
    )
    src = str(Path(lanetopo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=10, env=env)


def test_hungarian_tie_rule_when_rows_exceed_cols():
    # the smaller side (columns here) is processed in ascending order and
    # each tie goes to the lowest row index
    assert hungarian_solve([[1.0], [1.0]]).tolist() == [0, -1]
    assert hungarian_solve(np.zeros((3, 2))).tolist() == [0, 1, -1]
    assert hungarian_solve([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]).tolist() == [1, 0, -1]


def test_hungarian_potentials_stay_finite_near_float_max():
    # costs at the float maximum must neither overflow the dual potentials
    # nor lose the optimum; totals are compared after an exact rescale
    rng = np.random.default_rng(41)
    for _ in range(300):
        r, c = (int(v) for v in rng.integers(1, 7, size=2))
        cost = rng.choice([-1.7e308, -1e308, 1e308, 1.7e308], size=(r, c))
        with np.errstate(over="raise", invalid="raise"):
            a = hungarian_solve(cost)
        assert (a >= 0).sum() == min(r, c)
        assert len(set(a[a >= 0].tolist())) == min(r, c)
        if r * c <= 16:
            scaled = np.ldexp(cost, -1024)
            assert total_cost(scaled, a) == pytest.approx(brute_min_cost(scaled), rel=1e-12)


def oracle_augment(cost: np.ndarray) -> np.ndarray:
    """One matrix's shortest augmenting paths, one path step per loop pass
    (rows <= cols): each column's row, or -1."""
    n, m = cost.shape
    inf = float("inf")
    # column m is a virtual start column for each augmentation
    job = np.full(m + 1, -1, dtype=int)
    ys = np.zeros(n)  # row potentials
    yt = np.zeros(m + 1)  # column potentials

    for r in range(n):
        c_cur = m
        job[c_cur] = r
        min_to = np.full(m, inf)
        prv = np.full(m, -1, dtype=int)
        in_z = np.zeros(m + 1, dtype=bool)

        while job[c_cur] != -1:
            in_z[c_cur] = True
            j = job[c_cur]
            reduced = cost[j, :] - ys[j] - yt[:m]
            better = (reduced < min_to) & ~in_z[:m]
            min_to[better] = reduced[better]
            prv[better] = c_cur
            masked = np.where(in_z[:m], inf, min_to)
            c_next = int(np.argmin(masked))  # lowest column wins ties
            delta = masked[c_next]
            # every visited column holds a row: shift both potentials
            ys[job[in_z]] += delta
            yt[in_z] -= delta
            min_to[~in_z[:m]] -= delta
            c_cur = c_next

        while c_cur != m:
            c = prv[c_cur]
            job[c_cur] = job[c]
            c_cur = c

    return job[:m]


def oracle_solve(cost) -> np.ndarray:
    """``hungarian_solve`` one matrix at a time: the same scaling, transpose
    and tie rule, with ``oracle_augment`` as the solver."""
    mat = np.asarray(cost, dtype=float)
    rows, cols = mat.shape
    mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(initial=0.0))[1])
    if rows > cols:
        return oracle_augment(mat.T)
    return invert_match(oracle_augment(mat), rows)


def training_costs(spurious_rate: float, scenes: int, seed: int) -> list[np.ndarray]:
    """Every scene's lane and traffic training costs at the bench's level-1
    detector noise with ``spurious_rate`` false entities per type."""
    cfg = GeneratorConfig(seed=seed)
    noise = NoiseModel(ctrl_sigma=0.25, drop_prob=0.1, spurious_rate=spurious_rate)
    costs = []
    for i in range(scenes):
        scene = generate_scene(cfg, i)
        det = corrupt_scene(scene, noise, seed=[seed, i])
        costs += [assoc.lane_training_cost(det.lanes, scene.lanes), assoc.traffic_training_cost(det.traffic, scene.traffic)]
    return costs


def ragged_batch(rng, count: int) -> list[np.ndarray]:
    """Seeded matrices of 0-11 rows and columns: every other one of small
    integers (full of ties), the rest normal draws at scales up to 1e300."""
    out = []
    for t in range(count):
        r, c = (int(v) for v in rng.integers(0, 12, size=2))
        if t % 2:
            out.append(rng.integers(0, 4, size=(r, c)).astype(float))
        else:
            out.append(rng.normal(size=(r, c)) * 10.0 ** float(rng.integers(-5, 301)))
    return out


def test_hungarian_batch_equals_the_one_matrix_oracle():
    rng = np.random.default_rng(58)
    edge_cases = [
        np.zeros((0, 4)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
        np.array([[7.0]]),
        np.full((3, 5), 1e307),
        np.full((5, 3), -1e307),
        np.array([[1e307, -1e307, 0.0], [-1e307, 1e307, 1e307]]),
        rng.integers(0, 3, size=(9, 4)).astype(float),  # rows > cols, ties
    ]
    batches = [
        ragged_batch(rng, 60),
        ragged_batch(rng, 60) + edge_cases,
        edge_cases,
        # the bench's train_default call and query-budget scene in one batch
        training_costs(1.5, 18, seed=0) + training_costs(280.0, 1, seed=0),
    ]
    batches += [[cost] for cost in edge_cases + batches[-1][-2:]]  # one-problem stacks
    for costs in batches:
        with np.errstate(over="raise", invalid="raise"):
            got = assoc.hungarian_solve_batch(costs)
        assert len(got) == len(costs)
        for cost, match in zip(costs, got):
            want = oracle_solve(cost)
            assert match.dtype == want.dtype and np.array_equal(match, want), cost.shape
    assert assoc.hungarian_solve_batch([]) == []
    assert max(cost.shape[0] for cost in batches[3]) >= 250  # the query-budget scene is in it


def test_hungarian_batch_checks_every_matrix():
    with pytest.raises(ValueError, match=r"cost must be a 2D matrix, got shape \(3,\)"):
        assoc.hungarian_solve_batch([np.zeros((2, 2)), np.zeros(3)])
    with pytest.raises(ValueError, match=r"cost matrix entries must be finite \(no NaN or inf\)"):
        assoc.hungarian_solve_batch([np.zeros((2, 2)), [[1.0, float("nan")]]])


@pytest.mark.parametrize("shape", [(40, 300), (300, 16), (17, 290), (64, 64), (1, 50), (50, 1)])
def test_hungarian_matches_scipy(shape):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    cost = rng.uniform(-5.0, 5.0, size=shape)
    a = hungarian_solve(cost)
    rows, cols = optimize.linear_sum_assignment(cost)
    assert (a >= 0).sum() == min(shape)
    assert total_cost(cost, a) == pytest.approx(cost[rows, cols].sum(), abs=1e-9)


@pytest.mark.parametrize(
    "field, value",
    [
        ("w_cls", float("nan")),
        ("w_cls", True),
        ("w_l1", float("inf")),
        ("focal_alpha", 7.0),
        ("focal_alpha", -0.25),
        ("focal_alpha", float("nan")),
        ("focal_gamma", -1.0),
        ("focal_gamma", float("inf")),
        ("focal_gamma", "2"),
    ],
)
def test_cost_config_rejects_values_that_matched_silently(field, value):
    with pytest.raises(ValueError, match=f"CostConfig.{field}"):
        assoc.CostConfig(**{field: value})


def test_cost_config_keeps_its_range_edges():
    assoc.CostConfig(w_cls=0.0, w_l1=0, focal_alpha=1.0, focal_gamma=0.0)
    assoc.CostConfig(focal_alpha=0)
    with pytest.raises(ValueError, match="CostConfig.w_l1"):
        assoc.CostConfig(w_l1=-1e-9)


def make_lane(ctrl, score=1.0):
    return PredLane(ctrl=np.asarray(ctrl, dtype=float), class_score=score)


def training_cost(monkeypatch, preds, gts):
    """The cost matrix match_for_training hands to the solver."""
    seen = []

    def capture(cost):
        seen.append(np.array(cost))
        return hungarian_solve(cost)

    monkeypatch.setattr(assoc, "hungarian_solve", capture)
    match_for_training(preds, gts)
    return seen[0]


def test_lane_pair_cost_perfect_prediction(monkeypatch):
    ctrl = np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], dtype=float)
    gt = GtLane(id=0, ctrl=ctrl)
    assert training_cost(monkeypatch, [make_lane(ctrl, 1.0)], [gt])[0, 0] == pytest.approx(0.0)


def test_lane_pair_cost_class_term(monkeypatch):
    ctrl = np.zeros((4, 3))
    gt = GtLane(id=0, ctrl=ctrl)
    # 1.5 * 0.25 * (1 - 0.5)^2 * ln 2
    expected = 1.5 * 0.25 * 0.25 * math.log(2.0)
    assert training_cost(monkeypatch, [make_lane(ctrl, 0.5)], [gt])[0, 0] == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(0.06498, abs=5e-6)


def test_lane_pair_cost_l1_term(monkeypatch):
    ctrl = np.zeros((4, 3))
    gt = GtLane(id=0, ctrl=ctrl)
    pred = make_lane(ctrl + 1.0, 1.0)
    assert training_cost(monkeypatch, [pred], [gt])[0, 0] == pytest.approx(0.0075)


def test_lane_pair_cost_m_mismatch():
    gt = GtLane(id=0, ctrl=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        match_for_training([make_lane(np.zeros((3, 3)))], [gt])


def test_match_for_training_identity_on_copies(monkeypatch):
    rng = np.random.default_rng(3)
    gts = [GtLane(id=i, ctrl=rng.normal(scale=10, size=(4, 3))) for i in range(4)]
    preds = [make_lane(g.ctrl, 1.0) for g in gts]
    a = match_for_training(preds, gts)
    assert a.tolist() == [0, 1, 2, 3]
    cost = training_cost(monkeypatch, preds, gts)
    assert total_cost(cost, a) == pytest.approx(0.0, abs=1e-12)


def test_match_for_training_no_gts():
    preds = [make_lane(np.zeros((4, 3)))] * 3
    assert match_for_training(preds, []).tolist() == [-1, -1, -1]


def test_match_for_training_crossed():
    gt0 = GtLane(id=0, ctrl=np.zeros((4, 3)))
    gt1 = GtLane(id=1, ctrl=np.full((4, 3), 10.0))
    # pred0 sits near gt1, pred1 near gt0
    a = match_for_training([make_lane(gt1.ctrl + 0.1), make_lane(gt0.ctrl + 0.1)], [gt0, gt1])
    assert a.tolist() == [1, 0]


def test_match_for_training_solves_the_public_cost():
    rng = np.random.default_rng(59)
    gts = [GtLane(id=i, ctrl=rng.normal(scale=10, size=(4, 3))) for i in range(5)]
    preds = [make_lane(rng.normal(scale=10, size=(4, 3)), float(rng.uniform())) for _ in range(7)]
    cost = assoc.lane_training_cost(preds, gts)
    assert cost.shape == (7, 5)
    assert np.array_equal(match_for_training(preds, gts), oracle_solve(cost))
    assert assoc.lane_training_cost(preds, []).shape == (7, 0)


def frechet_matrix(preds, gts):
    return frechet_distance(np.stack(preds), np.stack(gts))


def matched_pairs(match):
    """(rank, GT index) pairs of a 1-D greedy match array."""
    return [(p, g) for p, g in enumerate(match.tolist()) if g >= 0]


def test_greedy_all_tp_on_exact_copies():
    gts = [np.array([(0, 0, 0), (1, 0, 0)], dtype=float), np.array([(5, 5, 0), (6, 5, 0)], dtype=float)]
    preds = [g.copy() for g in gts]
    flags, match = greedy_metric_match(frechet_matrix(preds, gts), threshold=0.5)
    assert flags.tolist() == [True, True]
    assert matched_pairs(match) == [(0, 0), (1, 1)]


def test_greedy_single_use_gt():
    gt = [np.zeros((2, 3))]
    preds = [np.zeros((2, 3)), np.zeros((2, 3))]
    flags, _ = greedy_metric_match(frechet_matrix(preds, gt), threshold=0.5)
    assert flags.tolist() == [True, False]


def test_greedy_rank2_steals_gt_from_rank3():
    gt_a = np.zeros((2, 3))
    gt_b = np.full((2, 3), 5.0)
    # rank order: p1 only near A; p2 near both; p3 only near B
    p1 = gt_a + 0.1
    p2 = gt_b + 0.2
    p3 = gt_b + 0.1
    flags, match = greedy_metric_match(frechet_matrix([p1, p2, p3], [gt_a, gt_b]), threshold=1.0)
    assert flags.tolist() == [True, True, False]
    assert matched_pairs(match) == [(0, 0), (1, 1)]


def test_greedy_iou_mode_picks_best_overlap():
    # a similarity is matched through its negation and the negated threshold
    gts = np.array([(0.0, 0.0, 10.0, 10.0), (20.0, 20.0, 30.0, 30.0)])
    preds = np.array([(1.0, 1.0, 11.0, 11.0), (19.0, 19.0, 29.0, 29.0)])
    flags, match = greedy_metric_match(-box_iou(preds, gts), threshold=-0.5)
    assert flags.tolist() == [True, True]
    assert matched_pairs(match) == [(0, 0), (1, 1)]


def test_greedy_appending_low_rank_preds_keeps_earlier_flags():
    rng = np.random.default_rng(12)
    gts = [rng.normal(size=(3, 3)) for _ in range(3)]
    preds = [g + rng.normal(scale=0.05, size=(3, 3)) for g in gts]
    flags_before, _ = greedy_metric_match(frechet_matrix(preds, gts), threshold=1.0)
    extra = [rng.normal(size=(3, 3)) + 100.0 for _ in range(4)]
    flags_after, _ = greedy_metric_match(frechet_matrix(preds + extra, gts), threshold=1.0)
    assert flags_after[: len(preds)].tolist() == flags_before.tolist()
    assert sum(flags_after) <= min(len(preds) + len(extra), len(gts))


def test_greedy_ties_go_to_the_lowest_gt_and_empty_sides():
    flags, match = greedy_metric_match(np.zeros((2, 3)), threshold=0.0)
    assert flags.tolist() == [True, True] and matched_pairs(match) == [(0, 0), (1, 1)]
    flags, match = greedy_metric_match(np.zeros((2, 0)), threshold=1.0)
    assert flags.tolist() == [False, False] and matched_pairs(match) == []
    flags, match = greedy_metric_match(np.zeros((0, 2)), threshold=1.0)
    assert flags.tolist() == [] and matched_pairs(match) == []


def greedy_reference(dist, threshold):
    """Row-by-row greedy match of one matrix: the rule, written out."""
    free = [True] * dist.shape[1]
    match = []
    for row in dist.tolist():
        cands = [j for j, v in enumerate(row) if free[j] and v <= threshold]
        g = min(cands, key=lambda j: (row[j], j)) if cands else -1
        if cands:
            free[g] = False
        match.append(g)
    return match


def test_stacked_greedy_matches_each_slice():
    rng = np.random.default_rng(71)
    # coarse values make ties common; +inf entries are padding
    dist = rng.integers(0, 6, size=(3, 4, 7, 5)).astype(float)
    dist[rng.uniform(size=dist.shape) < 0.2] = np.inf
    thresholds = rng.integers(0, 6, size=(3, 4)).astype(float)
    thresholds[0, 0] = np.inf  # +inf candidates tie: the lowest index wins
    dist[0, 0, :2] = [0.0, np.inf, np.inf, np.inf, np.inf]
    flags, match = greedy_metric_match(dist, thresholds)
    assert flags.shape == match.shape == (3, 4, 7)
    for idx in np.ndindex(3, 4):
        slice_flags, slice_match = greedy_metric_match(dist[idx], thresholds[idx])
        assert match[idx].tolist() == slice_match.tolist() == greedy_reference(dist[idx], thresholds[idx])
        assert flags[idx].tolist() == slice_flags.tolist() == (slice_match >= 0).tolist()
    # one threshold broadcasts over the whole stack
    flags_one, match_one = greedy_metric_match(dist, 2.0)
    for idx in np.ndindex(3, 4):
        assert match_one[idx].tolist() == greedy_reference(dist[idx], 2.0)
    with pytest.raises(ValueError, match="matrix"):
        greedy_metric_match(np.zeros(3), 1.0)
