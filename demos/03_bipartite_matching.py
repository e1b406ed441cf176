"""
Two matching regimes
====================

Training-time matching is optimal (Hungarian) over the focal + L1 cost
and never gates by distance: every prediction up to min(preds, gts)
receives a partner. Metric-time matching is greedy in confidence order
and thresholded, the standard detection-AP protocol. Both return the
same form: entry i is the GT index that prediction i took, -1 for none.
"""

import numpy as np

from lanetopo import GtLane, PredLane, greedy_metric_match, hungarian_solve, match_for_training
from lanetopo.geometry import frechet_distance, sample_lane

print("Hungarian on a 2x2 cost matrix [[1, 2], [2, 4]]:")
match = hungarian_solve([[1.0, 2.0], [2.0, 4.0]])
print("  GT index per row:", match.tolist(), "(crossed beats identity: total 4 < 5)")

# two ground-truth lanes and two swapped predictions
gt0 = GtLane(id=0, ctrl=np.array([[0.0, 0, 0], [4, 0, 0], [8, 0, 0], [12, 0, 0]]))
gt1 = GtLane(id=1, ctrl=gt0.ctrl + np.array([0.0, 20, 0]))
preds = [
    PredLane(ctrl=gt1.ctrl + 0.1, class_score=0.9),
    PredLane(ctrl=gt0.ctrl - 0.1, class_score=0.8),
]
match = match_for_training(preds, [gt0, gt1])
print("\ntraining match of swapped predictions (GT index per prediction):", match.tolist())

# greedy metric matching: confidence rank decides who claims a GT first
gts = sample_lane(np.stack([gt0.ctrl, gt1.ctrl]), 11)
ranked_preds = sample_lane(
    np.stack(
        [
            gt0.ctrl + 0.2,  # rank 1, near gt0
            gt0.ctrl + 0.4,  # rank 2, also near gt0 -> gt0 is taken
            gt1.ctrl + 0.2,  # rank 3, near gt1
        ]
    ),
    11,
)
dist = frechet_distance(ranked_preds, gts)  # (3, 2): every pred against every GT
print("\nFrechet distances (ranked preds x GTs):\n", np.round(dist, 2))
flags, match = greedy_metric_match(dist, threshold=2.0)  # match[rank] is a GT index, -1 for a FP
print("\ngreedy flags by rank:", flags.tolist())
print("GT index by rank (-1 = false positive):", match.tolist())
print("the rank-2 duplicate of gt0 became a false positive")
