"""Monte Carlo event simulation against the analytic predictions.

Draws each trial's caterers and the interfering clusters near the requesting
device, averages the success probability given that geometry (fading is
integrated out, and the clusters beyond the near radius enter through their
exact far-field factor), and checks the estimates against the exact
transform-based coverage and the closed-form offloading lower bound. Fixed
seeds make every number here reproducible.
"""

from d2dcache.analytic import (
    QuadratureSpec,
    coverage_content,
    offloading_closed_form_k1,
)
from d2dcache.model import ContentLibrary, NetworkConfig
from d2dcache.optimizer import solve_p1
from d2dcache.simulator import estimate_coverage, estimate_offloading

cfg = NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=50.0, alpha=4.0, theta=1.0)
quad = QuadratureSpec()
lib = ContentLibrary.from_zipf(100, 0.5, 5)

print("cooperative coverage, caching probability 0.6:")
exact = coverage_content(0.6, cfg, quad, method="exact-tcp").value
est = estimate_coverage(0.6, cfg, trials=8000, seed=1)
print(f"  analytic (exact transform) {exact:.4f}")
print(f"  simulated                  {est.mean:.4f} +/- {est.half_width_95:.4f} "
      f"({est.trials} trials)")
assert abs(est.mean - exact) <= 2 * est.half_width_95
print("  simulation agrees within its confidence interval")
print()

print("offloading probability under the optimized policy:")
sol = solve_p1(lib, cfg)
lower = offloading_closed_form_k1(sol.policy, lib, cfg)
off = estimate_offloading(sol.policy, lib, cfg, trials=20000, seed=2)
print(f"  closed-form lower bound {lower:.4f}")
print(f"  simulated               {off.mean:.4f} +/- {off.half_width_95:.4f}")
assert off.mean + off.half_width_95 >= lower
print("  the bound sits at or below the simulated value, as it must")
print()

repeat = estimate_coverage(0.6, cfg, trials=8000, seed=1)
print(f"repeatability: same seed reproduces the estimate bit for bit: "
      f"{repeat.mean == est.mean}")
