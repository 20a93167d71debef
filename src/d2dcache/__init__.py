"""Clustered device-to-device caching: analysis, simulation, optimization.

Models a network whose devices form Gaussian clusters around Poisson
parent points, cache content according to a probabilistic placement
policy, and serve cluster neighbors over D2D links with joint
transmission from every device holding the requested file. The package
evaluates the offloading probability analytically (exact cluster-process
interference transform and a closed-form lower bound), validates it by
Monte Carlo simulation, and optimizes the caching vector under a
per-device budget.
"""

from .analytic import (
    CoverageResult,
    NumericalError,
    QuadratureSpec,
    compute_Z,
    coverage_content,
    laplace_exact,
    laplace_ppp_bound,
    offloading_closed_form_k1,
    offloading_gain,
)
from .cli import RunSettings, emit_results, load_config, main
from .experiments import EXPERIMENTS, ExperimentSpec, policy_entropy, run_experiment
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
    require_valid_policy,
    validate_policy,
    zipf_popularity,
)
from .optimizer import (
    KktSolution,
    grid_search_oracle,
    solve_p1,
)
from .simulator import (
    MonteCarloEstimate,
    default_sim_radius,
    estimate_coverage,
    estimate_offloading,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "NetworkConfig",
    "ContentLibrary",
    "CachingPolicy",
    "zipf_popularity",
    "validate_policy",
    "require_valid_policy",
    "policy_cpf",
    "policy_uniform",
    "policy_zipf_proportional",
    # analytic
    "QuadratureSpec",
    "CoverageResult",
    "NumericalError",
    "laplace_exact",
    "laplace_ppp_bound",
    "coverage_content",
    "compute_Z",
    "offloading_gain",
    "offloading_closed_form_k1",
    # optimizer
    "KktSolution",
    "solve_p1",
    "grid_search_oracle",
    # simulator
    "MonteCarloEstimate",
    "default_sim_radius",
    "estimate_coverage",
    "estimate_offloading",
    # experiments / cli
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_experiment",
    "policy_entropy",
    "RunSettings",
    "load_config",
    "emit_results",
    "main",
]
