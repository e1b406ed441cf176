"""Shared harness for finite-difference gradient checks of the scene
objective, used by the topoheads suite and the acceptance suite."""

from __future__ import annotations

import numpy as np

from lanetopo import topoheads as th
from lanetopo.dataio import (
    DetectionRecord,
    GtLane,
    PredLane,
    SceneRecord,
    TrafficElement,
)


def small_config(**kw):
    base = dict(
        feature_dim=6,
        mlp_hidden=5,
        control_points=3,
        coord_scale=10.0,
        seed=0,
    )
    base.update(kw)
    return th.HeadConfig(**base)


def random_scene_pair(rng, n_lanes=3, n_traffic=2, m=3):
    lanes = [GtLane(id=i, ctrl=rng.normal(scale=8.0, size=(m, 3))) for i in range(n_lanes)]
    traffic = [
        TrafficElement(
            id=k,
            box=np.sort(rng.uniform(0, 2000, size=(2, 2)), axis=0).T.reshape(-1) + np.array([0, 0, 5, 5]),
            category=int(rng.integers(0, 13)),
            confidence=1.0,
        )
        for k in range(n_traffic)
    ]
    topo_ll = set()
    for i in range(n_lanes - 1):
        if rng.uniform() < 0.7:
            topo_ll.add((i, i + 1))
    topo_lt = {(int(rng.integers(0, n_lanes)), k) for k in range(n_traffic)}
    scene = SceneRecord("s", lanes, traffic, topo_ll, topo_lt)
    det = DetectionRecord(
        "s",
        [
            PredLane(
                ctrl=l.ctrl + rng.normal(scale=0.05, size=l.ctrl.shape),
                class_score=float(rng.uniform(0.5, 1.0)),
            )
            for l in lanes
        ],
        [
            TrafficElement(
                id=te.id,
                box=te.box + rng.normal(scale=2.0, size=4),
                category=te.category,
                confidence=float(rng.uniform(0.5, 1.0)),
            )
            for te in traffic
        ],
    )
    for te in det.traffic:
        te.box = np.sort(te.box.reshape(2, 2), axis=0).T.reshape(-1)
        te.box[2] += 1.0
        te.box[3] += 1.0
        te.confidence = min(max(te.confidence, 0.0), 1.0)
    return scene, det


def min_abs_preactivation(targets, params):
    """Smallest |pre-activation| across every rectifier in the scene forward.

    Finite differences are only trustworthy away from the ReLU kink, so
    gradient checks resample configurations that land too close to it.
    """
    lane_feats, lane_cache = th.embed_lanes(targets.lane_in, params)
    traffic_feats, traffic_cache = th.embed_traffic_batch(targets.traffic_in, params)
    _, ll_cache = th.ll_logits(lane_feats, params)
    _, lt_cache = th.lt_logits(lane_feats, traffic_feats, params)
    # the pair heads keep only their per-side projections, the right one
    # shifted by the first bias: rebuild the hidden pre-activation of every pair
    pres = []
    for cache in (ll_cache, lt_cache):
        proj_l, shifted = cache["proj"]
        pres.append(proj_l[:, None, :] + shifted)
    for cache in (*lane_cache, traffic_cache):
        pres.extend(cache["pre"][:-1])  # last layer is identity, no kink
    smallest = np.inf
    for pre in pres:
        if pre.size:
            smallest = min(smallest, float(np.min(np.abs(pre))))
    return smallest


def full_gradient_check(cfg, rng, rel_tol=1e-4, lanes=(1, 5), traffic=(0, 4)):
    """Check every parameter gradient of the scene objective against
    central finite differences, on a scene whose lane and traffic counts
    are drawn from the half-open ranges ``lanes`` and ``traffic``. Returns
    the number of parameters checked."""
    for _ in range(20):
        scene, det = random_scene_pair(
            rng,
            n_lanes=int(rng.integers(*lanes)),
            n_traffic=int(rng.integers(*traffic)),
            m=cfg.control_points,
        )
        params = th.init_params(cfg)
        targets = th.scene_targets(det, scene, cfg)
        if min_abs_preactivation(targets, params) > 1e-3:
            break
    else:
        raise AssertionError("could not sample a kink-free configuration")

    def objective():
        l1, l2, _ = th.scene_loss_and_grads(targets, params, compute_grads=False)
        return l1 + l2

    _, _, grads = th.scene_loss_and_grads(targets, params)
    h = 1e-5
    checked = 0
    for idx in range(params.flat.size):
        old = params.flat[idx]
        params.flat[idx] = old + h
        up = objective()
        params.flat[idx] = old - h
        dn = objective()
        params.flat[idx] = old
        fd = (up - dn) / (2 * h)
        analytic = grads.flat[idx]
        ok = abs(analytic - fd) <= max(rel_tol * abs(fd), 1e-8)
        assert ok, f"param {idx} analytic {analytic} vs finite difference {fd}"
        checked += 1
    return checked
