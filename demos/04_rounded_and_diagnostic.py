"""Rounded-data likelihood and the acceptance-rejection closeness diagnostic.

Part 1 treats decimal-rounded observations exactly through their implied
cells instead of pretending they are continuous.  Part 2 measures how
fast the mixture family closes in on a truncated normal: the envelope
constant c_m = sup f_m/f falls toward 1 and the fraction of true-density
draws acceptable as mixture draws rises toward 1.
Run:  python demos/04_rounded_and_diagnostic.py
"""

import numpy as np

import bernmix as bm
from bernmix.sim import best_mixture_approximation, true_unit_pdf

rng = np.random.default_rng(3)

# --- rounded data -----------------------------------------------------
raw = rng.beta(2.0, 4.0, size=300)
rounded = bm.RoundedSample(np.round(raw, 1), grid_density=10)
grouped = bm.rounded_to_grouped(rounded, (0.0, 1.0))
print("rounding grid 1/10 induces cells:")
print("  breakpoints:", np.round(grouped.breakpoints, 2).tolist())
print("  counts:     ", grouped.counts.tolist())

report = bm.em_grouped(grouped, (0.0, 1.0), m=5)
w = bm.SimplexWeights(report.weights.p)
print(f"fit at degree 5: loglik {report.loglik:.3f}"
      f" (= rounded-data loglik {bm.loglik_rounded(w, rounded, (0.0, 1.0)):.3f})")

# --- acceptance-rejection diagnostic ----------------------------------
truth = true_unit_pdf(bm.ScenarioSpec("normal01", n=1, n_cells=1))
print("\ndegree   c_m      accepted fraction")
for m in (4, 8, 16, 32):
    weights = best_mixture_approximation(truth, m, nodes=256)
    c, kept = bm.acceptance_rejection_diag(truth, weights, n=20_000, seed=1)
    print(f"{m:6d}   {c:7.4f}  {kept:8.4f}")
print("\nboth columns should approach 1 as the degree grows")
