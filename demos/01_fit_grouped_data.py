"""Fit a beta-mixture density to binned counts and compare with the truth.

Simulates a truncated-exponential sample, bins it into 10 equal cells,
fits the mixture at a fixed degree, and tabulates fitted vs true density
on a coarse grid.  Run:  python demos/01_fit_grouped_data.py
"""

import numpy as np

import bernmix as bm
from bernmix.sim import GRID, true_unit_pdf

try:
    import matplotlib.pyplot as plt

    HAVE_MPL = True
except ImportError:
    HAVE_MPL = False


spec = bm.ScenarioSpec("exp1", n=400, n_cells=10, seed=7)
data = bm.generate(spec, replicate=0)
grouped = bm.group(data, spec.n_cells)
print(f"n = {grouped.n} observations in {grouped.n_cells} equal cells")
print("counts:", grouped.counts.tolist())

m = 6
report = bm.em_grouped(grouped, (0.0, 1.0), m)
print(f"\ndegree {m}: loglik {report.loglik:.4f}, "
      f"{report.iterations} EM iterations, converged={report.converged}")
print("weights:", np.round(report.weights.p, 4).tolist())

mix = bm.BernsteinMixture(report.weights)
truth = true_unit_pdf(spec)
grid = np.linspace(0.0, 1.0, 11)
print("\n   t    fitted    true")
for t in grid:
    print(f"{t:5.2f}  {mix.pdf(t):8.4f}  {truth(t):8.4f}")

ise = bm.integrated_squared_error(mix.pdf(GRID), truth(GRID))
print(f"\nintegrated squared error (unit scale): {ise:.5f}")

if HAVE_MPL:
    fine = np.linspace(0.0, 1.0, 400)
    plt.figure(figsize=(7, 4))
    plt.stairs(
        grouped.counts / (grouped.n * grouped.widths),
        grouped.breakpoints,
        label="histogram",
        color="0.7",
        fill=True,
    )
    plt.plot(fine, truth(fine), "k--", label="true density")
    plt.plot(fine, mix.pdf(fine), "C0", label=f"mixture fit (m={m})")
    plt.legend()
    plt.xlabel("unit scale t")
    plt.tight_layout()
    plt.savefig("demo01_fit.png", dpi=120)
    print("wrote demo01_fit.png")
