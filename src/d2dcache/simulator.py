"""Monte Carlo simulation of the clustered D2D network.

Ground truth for the analytic module. Interference is worst-case: every
device outside the representative cluster transmits, while inside it only
the devices holding the requested file (the caterers, transmitting
jointly) are active.

The estimators simulate only the near field. Each trial draws the
caterers of the requesting device's cluster and the interfering clusters
whose parents lie within the near radius r_sim, and contributes its
success probability given that geometry,

    exp(-sum_j ln(1 + t d_j^-alpha) - F(t)),   t = theta / sum_i h_i^-alpha,

or 0 when there is no caterer. Under joint Rayleigh transmission the
desired power is S Exp(1) with S = sum_i h_i^-alpha, so the SIR test
passes with probability exp(-t I); averaging each interferer's Rayleigh
fading turns that into the product over the near interferers at
distances d_j. The clusters centered beyond r_sim contribute the exact
factor exp(-F(t)) of the parent process's probability generating
functional, F(t) = 2 pi lambda_p * integral from r_sim of
(1 - exp(-n_bar zeta(v, t))) v dv, tabulated over the t range of a
call's trials by the quintic exponent table that also backs exact
coverage. Its nodes sit on a fixed lattice held per (cfg, r_sim)
(analytic._ExponentLattice). Each call builds its own, or
estimate_offloading is handed one shared with other calls at the same
(cfg, r_sim), which then compute each node once; a call's result does
not depend on which lattice it is given. The near field is sampled in
chunks of _CHUNK trials; the chunks and the lattice's missing nodes are
the items of one analytic._thread_map, so both run on every core.
Replacing the success indicator by its conditional expectation
(conditional Monte Carlo) removes the fading draws and lowers the
per-trial variance; half-widths come from the sample variance of the
per-trial values.

Intra-cluster link distances follow the model used by the analysis: each
link between the requesting device and a fellow member is an independent
Rayleigh(sqrt(2) sigma) pairwise distance (two independent Gaussian
scatter terms folded together per link).

estimate_offloading simulates only the requests whose outcome needs
geometry. A request for file m is a local hit with probability c_m and
finds no caterer in its cluster with probability (1 - c_m) exp(-c_m n_bar);
both outcomes are known exactly, so only requests that miss the local
cache and meet at least one caterer are simulated, each file in
proportion to its share of them (conditional Monte Carlo).

t = theta / S is free of the transmit power, so results are bit-for-bit
independent of the configured power scaling. The caterers come from a
counter-based Philox generator keyed by the caller's seed, and each
near-field chunk from an SFC64 stream keyed by one draw of that generator
and the chunk's index. So a fixed seed and trial count give the same bytes
at any thread count. (Earlier versions drew the near field from the seed's
generator, in trial order, and then from one Philox stream per chunk:
their simulated numbers differ from these and are statistically
equivalent.)
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
    _thread_map,
)
from .model import CachingPolicy, ContentLibrary, NetworkConfig, require_valid_policy

__all__ = [
    "MonteCarloEstimate",
    "default_sim_radius",
    "estimate_coverage",
    "estimate_offloading",
]

MIN_TRIALS = 1000
_CHUNK = 1024
# largest node error estimate the far-field table accepts
_FAR_MAX_ERROR = 1e-6
# fewest requests estimate_offloading simulates: the sample variance of a
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
    """t = theta / sum_i h_i^-alpha for trials with k caterers each.

    Each link is an independent pairwise distance (module docstring), whose
    square is exponential with mean 4 sigma^2. A trial without caterers
    gets t = inf.
    """
    h_sq = 4.0 * cfg.sigma**2 * rng.standard_exponential(int(k.sum()))
    trial_of_caterer = np.repeat(np.arange(k.size), k)
    s = np.bincount(trial_of_caterer, weights=h_sq ** (-cfg.alpha / 2.0),
                    minlength=k.size)
    with np.errstate(divide="ignore"):
        return cfg.theta / s


def _draw_caterers(c_of_trial: np.ndarray, cfg: NetworkConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Caterers of each trial's cluster: (t, k), t as in _caterer_t.

    Member counts are Poisson(n_bar) and each member caches the file with
    probability c, so the caterer count k is Poisson(c n_bar).
    """
    trials = c_of_trial.size
    t = np.empty(trials)
    k = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        k[start:stop] = rng.poisson(c_of_trial[start:stop] * cfg.n_bar)
        t[start:stop] = _caterer_t(k[start:stop], cfg, rng)
    return t, k


def _far_lattice(cfg: NetworkConfig, r0: float) -> _ExponentLattice:
    """Node lattice of the far-field exponent F of the clusters centered
    beyond r0, at the default quadrature."""
    return _ExponentLattice(cfg, QuadratureSpec(), v_inner=r0)


def _far_field(t: np.ndarray, lattice: _ExponentLattice):
    """F(t): exponent of the exact Laplace factor of the clusters centered
    beyond lattice.v_inner, as one table over the range of the (finite,
    positive) t of all served trials.

    The table is a quintic spline in ln t over the lattice's nodes at 8 per
    decade (_ExponentLattice.table). F itself is interpolated, not ln F:
    exp(-F) needs F's absolute accuracy, and at small t F is negligible.
    The evaluator raises outside the table.
    """
    spline, t_nodes, errors = lattice.table(t.min(), t.max())
    worst = int(np.argmax(errors))
    if errors[worst] > _FAR_MAX_ERROR:
        raise NumericalError(
            "far-field exponent table exceeds its error bound",
            diagnostics={"t_gamma": float(t_nodes[worst]),
                         "error": float(errors[worst]), "r0": lattice.v_inner},
        )

    def far(t_eval: np.ndarray) -> np.ndarray:
        return np.maximum(_eval_table(spline, np.log(t_eval), "far-field"), 0.0)

    return far


def _near_exponents(t: np.ndarray, cfg: NetworkConfig, r0: float, key: int,
                    index: int) -> np.ndarray:
    """sum_j ln(1 + t d_j^-alpha) over the interferers of the clusters
    centered within r0, sampled for each (finite) t of chunk `index` (at
    most _CHUNK trials) from its own SFC64 stream, keyed by (key, index);
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


def _conditional_coverage(t: np.ndarray, lattice: _ExponentLattice,
                          cfg: NetworkConfig, r0: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Per-trial success probability given the caterers and the near field.

    Samples the clusters centered within r0 for every trial with caterers
    and returns exp(-sum_j ln(1 + t d_j^-alpha) - F(t)): the interferers'
    Rayleigh fading and the desired signal's are averaged out exactly.
    Trials without caterers are 0. The served trials are sampled in chunks
    of _CHUNK, each from its own SFC64 stream keyed by one draw of rng and
    the chunk's index (_near_exponents). The chunks and the far-field
    lattice nodes that the served t range lacks are the items of one
    _thread_map: first the node task that grows the lattice's grid, so that
    growth never holds up the sampling, then the chunks, then the other
    nodes. A thread that finishes one item takes the next, and the values
    do not depend on the thread count. If an item fails, the first failure
    in item order is raised and the lattice keeps none of the nodes
    computed here.
    """
    values = np.zeros(t.size)
    served = np.isfinite(t)
    t_served = t[served]
    key = int(rng.integers(2**63))
    if t_served.size:
        missing = lattice.missing(t_served.min(), t_served.max())
        nodes = lattice.node_tasks(missing)
        chunks = [partial(_near_exponents, t_served[start:start + _CHUNK], cfg, r0, key, i)
                  for i, start in enumerate(range(0, t_served.size, _CHUNK))]
        done = _thread_map(lambda task: task(), [*nodes[:1], *chunks, *nodes[1:]])
        first = min(len(nodes), 1)
        near = np.concatenate(done[first:first + len(chunks)])
        lattice.add(missing, done[:first] + done[first + len(chunks):])
        far = _far_field(t_served, lattice)
        values[served] = np.exp(-(near + far(t_served)))
    return values


def _run_coverage(c_of_trial: np.ndarray, cfg: NetworkConfig, r_sim: float,
                  seed) -> tuple[np.ndarray, np.ndarray]:
    """(conditional coverage values, caterer counts) of one trial per entry."""
    rng = _as_generator(seed)
    t, k = _draw_caterers(c_of_trial, cfg, rng)
    values = _conditional_coverage(t, _far_lattice(cfg, r_sim), cfg, r_sim, rng)
    return values, k


def _half_width(values: np.ndarray) -> float:
    """95% normal-approximation half-width of the mean of per-trial values."""
    return 1.96 * math.sqrt(float(values.var(ddof=1)) / values.size)


def estimate_coverage(c_m: float, cfg: NetworkConfig, trials: int, seed: int = 0,
                      r_sim: float | None = None) -> MonteCarloEstimate:
    """Simulated probability that a request for a file cached with
    probability c_m is served over D2D at the SIR threshold.

    Each trial contributes its success probability conditional on the
    drawn caterers and near-field clusters (module docstring); a trial
    without caterers contributes 0. The half-width is the sample-variance
    one of these per-trial values. r_sim is the near/far split radius. The
    typical device's own cache plays no role here.
    """
    if not 0.0 <= c_m <= 1.0:
        raise ValueError("caching probability must lie in [0,1]")
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if r_sim is None:
        r_sim = default_sim_radius(cfg)
    values, _ = _run_coverage(np.full(trials, c_m), cfg, r_sim, seed)
    return MonteCarloEstimate(
        mean=float(values.mean()),
        half_width_95=_half_width(values),
        trials=trials,
        seed=int(seed),
    )


def estimate_offloading(policy: CachingPolicy, library: ContentLibrary,
                        cfg: NetworkConfig, trials: int, seed: int = 0,
                        r_sim: float | None = None, *,
                        _lattice: _ExponentLattice | None = None) -> MonteCarloEstimate:
    """Simulated offloading probability under a caching policy.

    A request is offloaded when the device holds the file itself or the
    cluster serves it over D2D above the SIR threshold. trials counts the
    requests the estimate stands for, and is reported as given. Of these,
    local hits (sum_m q_m c_m) and requests whose cluster holds no caterer
    are known exactly; only the remaining share
    W = sum_m q_m (1 - c_m) (1 - exp(-c_m n_bar)) needs geometry. So
    max(100, round(trials W)) requests are simulated: file m with probability
    proportional to its term of W, a caterer count from the zero-truncated
    Poisson(c_m n_bar), and the conditional coverage given the drawn
    geometry (module docstring). The mean is sum_m q_m c_m + W mean(v) and
    the half-width W times the sample-variance one of the values v. One
    far-field table serves the whole call; r_sim is the near/far split
    radius. _lattice is a far-field node lattice (_far_lattice) shared with
    other calls at the same cfg and r_sim; results equal those without it,
    bit for bit.
    """
    require_valid_policy(policy, library)
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if r_sim is None:
        r_sim = default_sim_radius(cfg)
    if _lattice is None:
        _lattice = _far_lattice(cfg, r_sim)
    elif (_lattice.cfg, _lattice.quad, _lattice.v_inner) != (cfg, QuadratureSpec(), r_sim):
        raise ValueError("far-field lattice was built for another configuration "
                         "or split radius")
    q = library.popularity
    c = policy.probs
    mean = float(q @ c)
    mu = c * cfg.n_bar
    # share of requests that miss the local cache and meet a caterer, per file
    w = q * (1.0 - c) * -np.expm1(-mu)
    weight = float(w.sum())
    half_width = 0.0
    if weight > 0.0:
        rng = _as_generator(seed)
        n = max(_MIN_SIMULATED, round(trials * weight))
        files = rng.choice(q.size, size=n, p=w / weight)
        # zero-truncated Poisson(mu): tau is the first arrival of a unit-rate
        # Poisson process given one in [0, mu], the rest are Poisson(mu - tau)
        tau = -np.log1p(rng.random(n) * np.expm1(-mu[files]))
        k = 1 + rng.poisson(np.maximum(mu[files] - tau, 0.0))
        t = _caterer_t(k, cfg, rng)
        values = _conditional_coverage(t, _lattice, cfg, r_sim, rng)
        mean += weight * float(values.mean())
        half_width = weight * _half_width(values)
    return MonteCarloEstimate(
        mean=float(min(mean, 1.0)),
        half_width_95=half_width,
        trials=trials,
        seed=int(seed),
    )
