"""Optimal probabilistic caching versus the baseline placements.

Maximizes the single-caterer offloading lower bound over the caching vector
(a structural KKT solve in which files of equal popularity share one
caching probability), compares the result with the baselines
across popularity skews, and shows how the optimum shifts from spread-out to
concentrated caching as the network geometry changes.
"""

from d2dcache.analytic import offloading_closed_form_k1
from d2dcache.experiments import policy_entropy
from d2dcache.model import (
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_zipf_proportional,
)
from d2dcache.optimizer import solve_p1

cfg = NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=50.0, alpha=4.0, theta=1.0)

print("offloading lower bound by placement policy:")
print(f"{'beta':>5} {'optimized':>10} {'proportional':>13} "
      f"{'most-popular':>13} {'gain':>7}")
for beta in (0.0, 0.5, 1.0, 1.5):
    lib = ContentLibrary.from_zipf(100, beta, 5)
    opt = solve_p1(lib, cfg)
    prop = offloading_closed_form_k1(policy_zipf_proportional(lib), lib, cfg)
    cpf = offloading_closed_form_k1(policy_cpf(lib), lib, cfg)
    # round to the printed precision first, so a 2e-17 tie prints as 0.0%
    gain = round((opt.objective - prop) / prop, 3) + 0.0
    print(f"{beta:>5.2f} {opt.objective:>10.4f} {prop:>13.4f} "
          f"{cpf:>13.4f} {gain:>7.1%}")
print()

lib = ContentLibrary.from_zipf(100, 0.5, 5)
sol = solve_p1(lib, cfg)
labels = sol.diagnostics["labels"]
print(f"solution at beta 0.5: multiplier {sol.multiplier:.6f}, "
      f"{labels.count('clamped-1')} files pinned at 1, "
      f"{labels.count('interior')} interior, "
      f"{labels.count('clamped-0')} uncached")
print(f"caching head {[round(float(c), 3) for c in sol.policy.probs[:5]]}")
print()

print("geometry steers concentration (entropy of the caching vector):")
for sigma, lam, label in ((10.0, 20e-6, "compact clusters"),
                          (100.0, 50e-6, "diffuse clusters")):
    sol_g = solve_p1(lib, cfg.with_(sigma=sigma, lambda_p=lam))
    print(f"  sigma {sigma:>5.0f} m, {lam * 1e6:>4.0f} clusters/km^2 "
          f"({label}): entropy {policy_entropy(sol_g.policy):.3f} nats")
print("compact clusters reward spreading content; diffuse ones favor "
      "caching the most popular files")
