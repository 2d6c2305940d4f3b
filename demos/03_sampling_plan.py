"""Inspect the sampling plan: undersampling, universum, reduced universum.

Shows the exact set sizes the trainer derives from the class counts, replays
the pair log to verify every universum point is a cross-class midpoint, and
replays the reduced universum G* from the universum rows the plan kept.
"""

import numpy as np

from ifutsvm import Dataset, build_plan

rng = np.random.default_rng(1)
m1, m2 = 9, 31
X = np.vstack([rng.normal(0, 1, (m1, 3)), rng.normal(3, 1, (m2, 3))])
y = np.array([1] * m1 + [-1] * m2)
ds = Dataset("demo", X, y)

plan = build_plan(ds, seed=42)
print(f"classes: {ds.m1} positive, {ds.m2} negative")
print(f"undersampled majority subset: {plan.x2_star_indices.shape[0]} rows "
      f"(one per minority sample)")
print(f"universum (random cross-class averaging): {plan.universum.shape[0]} rows "
      f"(= {ds.m2} - {ds.m1})")
print(f"reduced universum: {plan.universum_star.shape[0]} rows (= ceil({ds.m1}/2))\n")

pos, neg = ds.positives(), ds.negatives()
print("pair-log replay for the first five universum points:")
for r, (pi, ni) in enumerate(plan.pair_log[:5]):
    mid = 0.5 * (pos[pi] + neg[ni])
    ok = np.allclose(mid, plan.universum[r])
    print(f"  row {r}: midpoint of positive[{pi}] and negative[{ni}]  "
          f"{'verified' if ok else 'MISMATCH'}")

print("\nreduced-universum replay from the kept universum rows:")
for r, idx in enumerate(plan.universum_star_indices):
    pi, ni = plan.pair_log[idx]
    ok = np.allclose(0.5 * (pos[pi] + neg[ni]), plan.universum_star[r])
    print(f"  G* row {r}: universum row {idx}, midpoint of positive[{pi}] and "
          f"negative[{ni}]  {'verified' if ok else 'MISMATCH'}")

balanced = build_plan(
    Dataset("balanced", X[: 2 * m1], np.array([1] * m1 + [-1] * m1)), seed=0)
print(f"\nbalanced classes fall back gracefully: universum rows = "
      f"{balanced.universum.shape[0]}, reduced universum rows = "
      f"{balanced.universum_star.shape[0]}")
