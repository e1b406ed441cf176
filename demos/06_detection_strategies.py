"""
Detector-side data strategies
=============================

The traffic-attribute distribution is heavily skewed (unknown lights
near half of all annotations, yellow rare, the nine signs sharing about
a fifth). Two pure data operations serve a detector trained on it: the
category histogram that measures the skew, and multi-scale TTA fusion.
"""

import numpy as np

from lanetopo import GeneratorConfig, TrafficElement, generate_scene
from lanetopo.dataio import CATEGORY_NAMES
from lanetopo.detstrat import category_histogram, tta_merge

gen = GeneratorConfig(scenes=60, seed=12)
frames = [generate_scene(gen, i) for i in range(60)]
stats = category_histogram(frames)

print("category distribution over the generated training frames:")
for name, count, freq in zip(CATEGORY_NAMES, stats.counts, stats.frequencies):
    bar = "#" * int(60 * freq)
    print(f"  {name:>13} {count:5d} {100 * freq:5.1f}% {bar}")

# the same physical box seen at two test scales merges back to one
base = TrafficElement(0, np.array([100.0, 100.0, 180.0, 160.0]), 2, 0.9)
upscaled = TrafficElement(1, base.box * 1.4, 2, 0.75)
merged = tta_merge([(1.0, [base]), (1.4, [upscaled])])
print(f"\nTTA fusion: 2 boxes across scales -> {len(merged)}, "
      f"survivor confidence {merged[0].confidence}, box {merged[0].box.tolist()}")
