"""Friedman / Nemenyi comparison machinery on the bundled benchmark table.

The package ships the published 46-dataset KEEL accuracy table for six
imbalanced-data classifiers.  This script aggregates it exactly the way the
`aggregate` CLI subcommand does: average accuracy, average ranks, the
Friedman chi-square with its F correction, and the Nemenyi critical
difference.  Both critical values are the alpha = 0.05 ones for the table's
6 models and 46 datasets.
"""

import numpy as np

from ifutsvm import (
    average_ranks,
    friedman,
    friedman_f_critical,
    load_benchmark_matrix,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
)

names, models, acc = load_benchmark_matrix()
print(f"{acc.shape[0]} datasets x {acc.shape[1]} models\n")

table = average_ranks(acc)
print(f"{'model':<14} {'avg ACC':>8} {'avg rank':>9}")
for j, model in enumerate(models):
    print(f"{model:<14} {acc[:, j].mean():>8.2f} {table.average_ranks[j]:>9.2f}")

N, p = acc.shape
fr = friedman(table.average_ranks, N=N, p=p)
q = nemenyi_q(p)
cd = nemenyi_cd(p, N)
f_critical = friedman_f_critical(p, N)
print(f"\nFriedman chi-square: {fr.chi_sq:.2f}   F form: {fr.f_stat:.2f}")
print(f"5% F critical value for ({p - 1}, {(p - 1) * (N - 1)}) dof: {f_critical:.4f} -> "
      f"{'reject' if fr.f_stat > f_critical else 'keep'} the equal-rank hypothesis")
print(f"Nemenyi critical difference (q = {q:.3f}): {cd:.3f}\n")

sig = pairwise_significance(table.average_ranks, cd)
best = int(np.argmin(table.average_ranks))
print(f"pairwise differences against the top-ranked model ({models[best]}):")
for j, model in enumerate(models):
    if j == best:
        continue
    diff = abs(table.average_ranks[j] - table.average_ranks[best])
    verdict = "significant" if sig[best, j] else "not significant"
    print(f"  vs {model:<14} |rank gap| = {diff:.2f}  ({verdict})")
