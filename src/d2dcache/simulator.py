"""Monte Carlo simulation of the clustered D2D network.

Ground truth for the analytic module. Interference is worst-case: every
device outside the representative cluster transmits, while inside it only
the devices holding the requested file (the caterers, transmitting
jointly) are active.

Both estimators simulate only the requests that meet at least one
caterer in their cluster, and only the near field. Each simulated request
draws its caterers (a zero-truncated Poisson count) and the interfering
clusters whose parents lie within the near radius r_sim, and contributes
its success probability given that geometry,

    exp(-sum_j ln(1 + t d_j^-alpha) - F(t)),   t = theta / sum_i h_i^-alpha.

Under joint Rayleigh transmission the desired power is S Exp(1) with
S = sum_i h_i^-alpha, so the SIR test passes with probability exp(-t I);
averaging each interferer's Rayleigh fading turns that into the product
over the near interferers at distances d_j. The clusters centered beyond
r_sim contribute the exact factor exp(-F(t)) of the parent process's
probability generating functional, F(t) = 2 pi lambda_p * integral from
r_sim of (1 - exp(-n_bar zeta(v, t))) v dv, tabulated over the t range of
a call's requests by the kind of quintic exponent table that also backs
exact coverage, here of ln F at every other lattice node, 4 per decade
(_far_field). Its nodes sit on a fixed lattice that the process keeps
per (cfg, r_sim) (analytic._lattice), so calls at one configuration
compute each node once, and a call's result does not depend on the calls
before it. The near field is sampled in chunks of _CHUNK requests; the far
table and the chunks are the items of one analytic._thread_map.
Replacing the success indicator by its conditional expectation
(conditional Monte Carlo) removes the fading draws and lowers the
per-request variance; half-widths come from the sample variance of the
per-request values.

Intra-cluster link distances follow the model used by the analysis: each
link between the requesting device and a fellow member is an independent
Rayleigh(sqrt(2) sigma) pairwise distance (two independent Gaussian
scatter terms folded together per link).

A request for file m is a local hit with probability c_m (only
estimate_offloading counts these), and its cluster holds no caterer with
probability exp(-c_m n_bar). Both outcomes are known exactly, so one
sampler (_served) simulates only the rest: each file in proportion to its
share of them, max(100, round(trials W)) requests in all, W the share of
all requests that needs geometry (conditional Monte Carlo). Both
estimators report W times the mean and the half-width of the simulated
values; estimate_coverage is the one-file case.

t = theta / S is free of the transmit power, so results are bit-for-bit
independent of the configured power scaling. The caterers come from a
counter-based Philox generator keyed by the caller's seed, and each
near-field chunk from an SFC64 stream keyed by one draw of that generator
and the chunk's index. So a fixed seed and trial count give the same bytes
at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import (
    NumericalError,
    QuadratureSpec,
    _eval_table,
    _ExponentLattice,
    _lattice,
    _thread_map,
)
from .model import CachingPolicy, ContentLibrary, NetworkConfig, require_valid_policy

__all__ = [
    "MonteCarloEstimate",
    "default_sim_radius",
    "estimate_coverage",
    "estimate_offloading",
]

# fewest trials an estimator takes, and so an experiment (ExperimentSpec)
MIN_TRIALS = 1000
_CHUNK = 1024
# largest node error estimate the far-field table accepts
_FAR_MAX_ERROR = 1e-6
# fewest requests _served simulates: the sample variance of a
# handful of skewed per-request values is no basis for a half-width
_MIN_SIMULATED = 100


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Estimate with a 95% normal-approximation confidence half-width."""

    mean: float
    half_width_95: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("estimate of a probability must lie in [0,1]")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def default_sim_radius(cfg: NetworkConfig) -> float:
    """Near-field radius: four cluster spreads plus the radius of the disc
    that holds four parents on average, 4 sigma + 2 / sqrt(pi lambda_p)."""
    return 4.0 * cfg.sigma + 2.0 / math.sqrt(math.pi * cfg.lambda_p)


def _as_generator(seed) -> np.random.Generator:
    """Philox generator keyed by seed (an int or a sequence of ints)."""
    return np.random.Generator(np.random.Philox(seed))


def _caterer_t(k: np.ndarray, cfg: NetworkConfig,
               rng: np.random.Generator) -> np.ndarray:
    """t = theta / sum_i h_i^-alpha for requests with k >= 1 caterers each.

    Only requests with a caterer are simulated (_served), so every t is
    finite. Each link is an independent pairwise distance (module
    docstring), whose square is exponential with mean 4 sigma^2.
    """
    h_sq = 4.0 * cfg.sigma**2 * rng.standard_exponential(int(k.sum()))
    request_of_caterer = np.repeat(np.arange(k.size), k)
    s = np.bincount(request_of_caterer, weights=h_sq ** (-cfg.alpha / 2.0),
                    minlength=k.size)
    return cfg.theta / s


def _far_field(t: np.ndarray, lattice: _ExponentLattice):
    """F(t): exponent of the exact Laplace factor of the clusters centered
    beyond lattice.v_inner, as one table over the range of the t of all
    simulated requests.

    The table is a quintic spline of ln F in ln t over the lattice's nodes,
    every other node of the fixed lattice, 4 per decade
    (_ExponentLattice.table and _window), held as its Taylor coefficients
    at each node and evaluated by analytic._eval_table; F is its exp.
    Where F is small, ln F is nearly linear in ln t (F grows like t, then
    like t^(2/alpha)), so ln F is far easier to interpolate than F: at 4 nodes
    per decade it moves exp(-F) by under 4e-8 in the scenarios of the
    README's numerical notes, against 2.2e-8 for F itself at 8 per decade.
    ln F needs F > 0 at every node; a non-positive node raises
    NumericalError. The evaluator raises outside the table.
    """
    table, t_nodes, errors = lattice.table(t.min(), t.max())
    worst = int(np.argmax(errors))
    if errors[worst] > _FAR_MAX_ERROR:
        raise NumericalError(
            "far-field exponent table exceeds its error bound",
            diagnostics={"t_gamma": float(t_nodes[worst]),
                         "error": float(errors[worst]), "r0": lattice.v_inner},
        )

    def far(t_eval: np.ndarray) -> np.ndarray:
        x = np.log(t_eval)
        return np.exp(_eval_table(table, x, "far-field", out=x), out=x)

    return far


def _near_exponents(t: np.ndarray, cfg: NetworkConfig, r0: float, key: int,
                    index: int) -> np.ndarray:
    """sum_j ln(1 + t d_j^-alpha) over the interferers of the clusters
    centered within r0, sampled for each t of chunk `index` (at most
    _CHUNK requests) from its own SFC64 stream, keyed by (key, index);
    averaging the interferers' Rayleigh fading exactly gives the factor
    exp(-that sum). SFC64 draws the chunk's normal and Poisson variates in
    75-82% of Philox's time (one core of a 2-vCPU Xeon VM), and these
    draws are most of the sampling.
    """
    rng = np.random.Generator(np.random.SFC64([key, index]))
    n = t.size
    n_clusters = rng.poisson(cfg.lambda_p * math.pi * r0**2, n)
    total_c = int(n_clusters.sum())
    radii = r0 * np.sqrt(rng.random(total_c))
    counts = rng.poisson(cfg.n_bar, total_c)
    # only distances matter and the member scatter is isotropic, so each
    # cluster's center can sit on the x-axis at its distance
    scatter = rng.normal(0.0, cfg.sigma, (2, int(counts.sum())))
    # in place from here on: d^-alpha = (x^2 + y^2)^(-alpha/2), then the
    # log term of each member
    d = np.repeat(radii, counts)
    d += scatter[0]
    d *= d
    scatter[1] *= scatter[1]
    d += scatter[1]
    d **= -cfg.alpha / 2.0
    del scatter
    trial_of_member = np.repeat(np.repeat(np.arange(n), n_clusters), counts)
    d *= t[trial_of_member]
    return np.bincount(trial_of_member, weights=np.log1p(d, out=d), minlength=n)


def _conditional_coverage(t: np.ndarray, cfg: NetworkConfig, r0: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Per-request success probability given the caterers and the near field.

    Samples the clusters centered within r0 for every request (each with
    at least one caterer, so every t is finite) and returns
    exp(-sum_j ln(1 + t d_j^-alpha) - F(t)): the interferers' Rayleigh
    fading and the desired signal's are averaged out exactly. The requests
    are sampled in chunks of _CHUNK, each from its own SFC64 stream keyed by
    one draw of rng and the chunk's index (_near_exponents). The far-field
    table over the t range (_far_field) is built at the default
    QuadratureSpec(), whatever quadrature a caller configured for exact
    coverage. The table and the chunks are the items of one
    _thread_map, the table first: the nodes it lacks run as one serial
    batch on the thread that takes it (a nested map), beside the sampling
    on the others. The values do not depend on the thread count. If an
    item fails, the first failure in item order is raised, and the lattice
    keeps none of the nodes of a failed batch.
    """
    key = int(rng.integers(2**63))
    chunks = [partial(_near_exponents, t[start:start + _CHUNK], cfg, r0, key, i)
              for i, start in enumerate(range(0, t.size, _CHUNK))]
    lattice = _lattice(cfg, QuadratureSpec(), v_inner=r0)
    far, *near = _thread_map(lambda task: task(), [partial(_far_field, t, lattice), *chunks])
    return np.exp(-(np.concatenate(near) + far(t)))


def _half_width(values: np.ndarray) -> float:
    """95% normal-approximation half-width of the mean of per-request values."""
    return 1.96 * math.sqrt(float(values.var(ddof=1)) / values.size)


def _served(mu: np.ndarray, w: np.ndarray, trials: int, cfg: NetworkConfig,
            seed, r_sim: float | None) -> tuple[float, float]:
    """(W mean(v), W half-width of mean(v)) over the requests that meet a
    caterer in their cluster, W = sum(w).

    Request class i (a file, or the one file of estimate_coverage) has
    share w_i of all requests and Poisson(mu_i) caterers. Of the requests
    trials stands for, max(100, round(trials W)) are simulated: class i
    with probability w_i / W, a caterer count from the zero-truncated
    Poisson(mu_i), and v the conditional coverage given the drawn geometry
    (module docstring), r_sim the near/far split radius (None for
    default_sim_radius). W = 0 gives (0, 0).
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if r_sim is None:
        r_sim = default_sim_radius(cfg)
    weight = float(w.sum())
    if weight == 0.0:
        return 0.0, 0.0
    rng = _as_generator(seed)
    n = max(_MIN_SIMULATED, round(trials * weight))
    mu = mu[rng.choice(mu.size, size=n, p=w / weight)]
    # zero-truncated Poisson(mu): tau is the first arrival of a unit-rate
    # Poisson process given one in [0, mu], the rest are Poisson(mu - tau)
    tau = -np.log1p(rng.random(n) * np.expm1(-mu))
    k = 1 + rng.poisson(np.maximum(mu - tau, 0.0))
    values = _conditional_coverage(_caterer_t(k, cfg, rng), cfg, r_sim, rng)
    return weight * float(values.mean()), weight * _half_width(values)


def estimate_coverage(c_m: float, cfg: NetworkConfig, trials: int, seed: int = 0,
                      r_sim: float | None = None) -> MonteCarloEstimate:
    """Simulated probability that a request for a file cached with
    probability c_m is served over D2D at the SIR threshold.

    A request finds no caterer in its cluster with probability
    exp(-c_m n_bar) and then scores 0 exactly; only requests with a
    caterer are simulated (_served): W = 1 - exp(-c_m n_bar) of trials, with
    zero-truncated Poisson(c_m n_bar) caterer counts. The mean is W
    mean(v) and the half-width W times the sample-variance one of the
    values v, each v the success probability conditional on the drawn
    caterers and near-field clusters (module docstring). r_sim is the
    near/far split radius. The typical device's own cache plays no role
    here.
    """
    if not 0.0 <= c_m <= 1.0:
        raise ValueError("caching probability must lie in [0,1]")
    mu = np.array([c_m * cfg.n_bar])
    mean, half_width = _served(mu, -np.expm1(-mu), trials, cfg, seed, r_sim)
    return MonteCarloEstimate(
        mean=mean,
        half_width_95=half_width,
        trials=trials,
        seed=int(seed),
    )


def estimate_offloading(policy: CachingPolicy, library: ContentLibrary,
                        cfg: NetworkConfig, trials: int, seed: int = 0,
                        r_sim: float | None = None) -> MonteCarloEstimate:
    """Simulated offloading probability under a caching policy.

    A request is offloaded when the device holds the file itself or the
    cluster serves it over D2D above the SIR threshold. trials counts the
    requests the estimate stands for, and is reported as given. Of these,
    local hits (sum_m q_m c_m) and requests whose cluster holds no caterer
    are known exactly; only the remaining share
    W = sum_m q_m (1 - c_m) (1 - exp(-c_m n_bar)) needs geometry, and only
    it is simulated (_served): file m in proportion to its term of W, with
    a zero-truncated Poisson(c_m n_bar) caterer count. The mean is
    sum_m q_m c_m + W mean(v) and the half-width W times the
    sample-variance one of the values v. One far-field table serves the
    whole call; r_sim is the near/far split radius.
    """
    require_valid_policy(policy, library)
    q = library.popularity
    c = policy.probs
    mu = c * cfg.n_bar
    # share of requests that miss the local cache and meet a caterer, per file
    served, half_width = _served(mu, q * (1.0 - c) * -np.expm1(-mu), trials, cfg,
                                 seed, r_sim)
    return MonteCarloEstimate(
        mean=min(float(q @ c) + served, 1.0),
        half_width_95=half_width,
        trials=trials,
        seed=int(seed),
    )
