"""Rounded-data likelihood and the acceptance-rejection closeness diagnostic.

Part 1 treats decimal-rounded observations exactly as grouped data: each
value is one count in its rounding cell, not a continuous observation.
Part 2 measures how fast the mixture family closes in on a truncated
normal: the envelope constant c_m = sup f_m/f falls toward 1, and the
fraction of true-density draws acceptable as mixture draws rises toward
1.  That fraction is drawn from its exact law, Binomial(n, 1/c_m)/n, so
it scatters around 1/c_m.
Run:  python demos/04_rounded_and_diagnostic.py
"""

import numpy as np

import bernmix as bm
from bernmix.sim import best_mixture_approximation, true_unit_pdf

rng = np.random.default_rng(3)

# --- rounded data -----------------------------------------------------
raw = rng.beta(2.0, 4.0, size=300)
grouped = bm.rounded_to_grouped(np.round(raw, 1), 10, (0.0, 1.0))
print("rounding grid 1/10 induces cells:")
print("  breakpoints:", np.round(grouped.breakpoints, 2).tolist())
print("  counts:     ", grouped.counts.tolist())

report = bm.em_grouped(grouped, (0.0, 1.0), m=5)
loglik = bm.loglik_grouped(report.weights, grouped, (0.0, 1.0))
print(f"fit at degree 5: loglik {report.loglik:.3f} (= rounded-data loglik {loglik:.3f})")

# --- acceptance-rejection diagnostic ----------------------------------
truth = true_unit_pdf(bm.ScenarioSpec("normal01", n=1, n_cells=1))
print("\ndegree   c_m      1/c_m    accepted fraction")
for m in (4, 8, 16, 32):
    weights = best_mixture_approximation(truth, m)
    c, kept = bm.acceptance_rejection_diag(truth, weights, n=20_000, seed=1)
    print(f"{m:6d}   {c:7.4f}  {1 / c:7.4f}  {kept:8.4f}")
print("\nevery column should approach 1 as the degree grows")
