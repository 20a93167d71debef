"""Named experiment drivers producing tabular results.

Each experiment takes an ExperimentSpec (base configuration plus sweep
axes) and returns (columns, rows) ready for emit_results: parameter
columns first, then method / value / ci_half_width / trials / seed.
Simulation seeds are derived deterministically from the spec seed and the
sweep-point index, so a fixed spec reproduces results byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    QuadratureSpec,
    _is_int,
    compute_Z,
    coverage_content,
    laplace_exact,
    laplace_ppp_bound,
    offloading_closed_form_k1,
    offloading_gain,
)
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
)
from .optimizer import solve_p1
from .simulator import estimate_coverage, estimate_offloading

__all__ = ["EXPERIMENTS", "ExperimentSpec", "run_experiment", "policy_entropy"]

EXPERIMENTS = (
    "coverage-vs-sigma",
    "offload-vs-beta",
    "policy-histogram",
    "validate-bounds",
    "custom-sweep",
)

_SEED_STRIDE = 1_000_003  # per-sweep-point seed offset


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one named experiment."""

    name: str
    network: NetworkConfig
    library: ContentLibrary
    trials: int = 20_000
    seed: int = 0
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENTS}"
            )
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


def policy_entropy(policy: CachingPolicy) -> float:
    """Shannon entropy (nats) of the caching vector normalized to sum 1."""
    c = policy.probs
    total = c.sum()
    if total <= 0:
        return 0.0
    p = c[c > 0] / total
    return float(-(p * np.log(p)).sum())


def _point_seed(seed: int, index: int) -> int:
    return int(seed + _SEED_STRIDE * index)


def _coverage_point(spec: ExperimentSpec, sigma, lam, c_value, seed):
    """The exact, bound and simulated rows of one (sigma, lambda_p) grid
    point of coverage-vs-sigma. The points run one after another; each
    evaluation spreads its own work over threads (analytic._thread_map)."""
    cfg = spec.network.with_(sigma=sigma, lambda_p=lam)
    exact = coverage_content(c_value, cfg, spec.quadrature, method="exact-tcp")
    bound = coverage_content(c_value, cfg, spec.quadrature, method="ppp-bound")
    sim = estimate_coverage(c_value, cfg, spec.trials, seed=seed)
    base = {"sigma_m": sigma, "lambda_p_per_m2": lam}
    return [
        {**base, "method": "exact-tcp", "value": exact.value,
         "ci_half_width": exact.numerical_error, "trials": 0, "seed": seed},
        {**base, "method": "ppp-bound", "value": bound.value,
         "ci_half_width": bound.numerical_error, "trials": 0, "seed": seed},
        {**base, "method": "simulation", "value": sim.mean,
         "ci_half_width": sim.half_width_95, "trials": sim.trials,
         "seed": seed},
    ]


def _run_coverage_vs_sigma(spec: ExperimentSpec):
    params = spec.params
    sigmas = [float(s) for s in params.get("sigma_m", (10.0, 25.0, 50.0, 100.0))]
    lambdas = [
        float(l)
        for l in params.get("lambda_p_per_m2",
                            (10e-6, 20e-6, 40e-6))
    ]
    c_value = float(params.get("c", 1.0))
    rows = []
    for i, (sig, lam) in enumerate((s, l) for s in sigmas for l in lambdas):
        rows += _coverage_point(spec, sig, lam, c_value, _point_seed(spec.seed, i))
    columns = ["sigma_m", "lambda_p_per_m2", "method", "value",
               "ci_half_width", "trials", "seed"]
    return columns, rows


def _run_offload_vs_beta(spec: ExperimentSpec):
    betas = [float(b) for b in spec.params.get(
        "beta", (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5))]
    rows = []
    for i, beta in enumerate(betas):
        lib = ContentLibrary.from_zipf(
            spec.library.n_files, beta, spec.library.cache_size
        )
        named = (
            ("kkt", solve_p1(lib, spec.network).policy),
            ("zipf-proportional", policy_zipf_proportional(lib)),
            ("cpf", policy_cpf(lib)),
        )
        seed = _point_seed(spec.seed, i)
        for policy_name, policy in named:
            closed = offloading_closed_form_k1(policy, lib, spec.network)
            rows.append({
                "beta": beta, "policy": policy_name,
                "method": "closed-form-k1", "value": closed,
                "ci_half_width": 0.0, "trials": 0, "seed": seed,
            })
            sim = estimate_offloading(policy, lib, spec.network, spec.trials, seed=seed)
            rows.append({
                "beta": beta, "policy": policy_name, "method": "simulation",
                "value": sim.mean, "ci_half_width": sim.half_width_95,
                "trials": sim.trials, "seed": seed,
            })
    columns = ["beta", "policy", "method", "value", "ci_half_width",
               "trials", "seed"]
    return columns, rows


def _run_policy_histogram(spec: ExperimentSpec):
    default_pairs = (
        {"sigma": 10.0, "lambda_p": 20e-6},
        {"sigma": 100.0, "lambda_p": 50e-6},
    )
    pairs = spec.params.get("pairs", default_pairs)
    rows = []
    for pair in pairs:
        cfg = spec.network.with_(sigma=float(pair["sigma"]),
                                 lambda_p=float(pair["lambda_p"]))
        solution = solve_p1(spec.library, cfg)
        base = {"sigma_m": cfg.sigma, "lambda_p_per_m2": cfg.lambda_p}
        for m, c_m in enumerate(solution.policy.probs):
            rows.append({**base, "file_index": m, "method": "policy-c",
                         "value": float(c_m)})
        rows.append({**base, "file_index": -1, "method": "entropy",
                     "value": policy_entropy(solution.policy)})
        rows.append({**base, "file_index": -1, "method": "objective",
                     "value": solution.objective})
    columns = ["sigma_m", "lambda_p_per_m2", "file_index", "method", "value"]
    return columns, rows


def _run_validate_bounds(spec: ExperimentSpec):
    decades = float(spec.params.get("decades", 6))
    n_points = int(spec.params.get("points", 30))
    cfg, quad = spec.network, spec.quadrature
    center = cfg.theta
    grid = center * np.logspace(-decades / 2.0, decades / 2.0, n_points)
    exact = laplace_exact(grid, cfg, quad)
    bound = laplace_ppp_bound(grid, cfg)
    rows = []
    for t, e_val, b_val in zip(grid, exact, bound):
        rows.append({"check": "laplace-ordering", "x_value": float(t),
                     "method": "exact-tcp", "value": float(e_val),
                     "passed": int(b_val <= e_val + 1e-12)})
        rows.append({"check": "laplace-ordering", "x_value": float(t),
                     "method": "ppp-bound", "value": float(b_val),
                     "passed": int(b_val <= e_val + 1e-12)})

    # closed-form consistency of the single-caterer offloading expression
    lib = spec.library
    policy = policy_zipf_proportional(lib)
    closed = offloading_closed_form_k1(policy, lib, cfg)

    def k1_coverage(c_m):
        z = compute_Z(cfg)
        return c_m * cfg.n_bar * math.exp(-c_m * cfg.n_bar) / z

    via_gain = offloading_gain(policy, lib, k1_coverage)
    rows.append({"check": "k1-identity", "x_value": 0.0, "method": "residual",
                 "value": abs(closed - via_gain),
                 "passed": int(abs(closed - via_gain) < 1e-6)})
    rows.append({"check": "z-constant", "x_value": 0.0, "method": "value",
                 "value": compute_Z(cfg), "passed": 1})
    columns = ["check", "x_value", "method", "value", "passed"]
    return columns, rows


_SWEEPABLE = ("sigma", "lambda_p", "n_bar", "alpha", "theta", "gamma_d")
_POLICIES = {
    "zipf-proportional": policy_zipf_proportional,
    "cpf": policy_cpf,
    "uniform": policy_uniform,
    "kkt": None,  # resolved against the sweep-point config
}


def _run_custom_sweep(spec: ExperimentSpec):
    params = spec.params
    parameter = params.get("parameter", "sigma")
    if parameter not in _SWEEPABLE:
        raise ValueError(
            f"cannot sweep {parameter!r}; choose from {_SWEEPABLE}"
        )
    values = [float(v) for v in params.get("values", ())]
    if not values:
        raise ValueError("custom-sweep requires a non-empty 'values' list")
    metric = params.get("metric", "coverage-exact")
    c_value = float(params.get("c", 1.0))
    policy_name = params.get("policy", "zipf-proportional")
    if policy_name not in _POLICIES:
        raise ValueError(f"unknown policy {policy_name!r}")

    rows = []
    for i, value in enumerate(values):
        cfg = spec.network.with_(**{parameter: value})
        seed = _point_seed(spec.seed, i)
        row = {"parameter": parameter, "x_value": value, "method": metric,
               "ci_half_width": 0.0, "trials": 0, "seed": seed}
        if metric == "coverage-exact":
            res = coverage_content(c_value, cfg, spec.quadrature,
                                   method="exact-tcp")
            row.update(value=res.value, ci_half_width=res.numerical_error)
        elif metric == "coverage-bound":
            res = coverage_content(c_value, cfg, spec.quadrature,
                                   method="ppp-bound")
            row.update(value=res.value, ci_half_width=res.numerical_error)
        elif metric == "coverage-sim":
            est = estimate_coverage(c_value, cfg, spec.trials, seed=seed)
            row.update(value=est.mean, ci_half_width=est.half_width_95,
                       trials=est.trials)
        elif metric == "offload-closed-form":
            if policy_name == "kkt":
                policy = solve_p1(spec.library, cfg).policy
            else:
                policy = _POLICIES[policy_name](spec.library)
            row.update(value=offloading_closed_form_k1(policy, spec.library,
                                                       cfg))
        else:
            raise ValueError(f"unknown metric {metric!r}")
        rows.append(row)
    columns = ["parameter", "x_value", "method", "value", "ci_half_width",
               "trials", "seed"]
    return columns, rows


_RUNNERS = {
    "coverage-vs-sigma": _run_coverage_vs_sigma,
    "offload-vs-beta": _run_offload_vs_beta,
    "policy-histogram": _run_policy_histogram,
    "validate-bounds": _run_validate_bounds,
    "custom-sweep": _run_custom_sweep,
}


def run_experiment(spec: ExperimentSpec):
    """Dispatch to the named experiment; returns (columns, rows)."""
    return _RUNNERS[spec.name](spec)
