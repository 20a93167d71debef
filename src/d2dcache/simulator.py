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
(1 - exp(-n_bar zeta(v, t))) v dv, tabulated once per estimator call over
the t range of its trials by the quintic exponent table
(analytic._exponent_table) that also backs exact coverage.
Replacing the success indicator by its conditional expectation
(conditional Monte Carlo) removes the fading draws and lowers the
per-trial variance; half-widths come from the sample variance of the
per-trial values.

Intra-cluster link distances follow the model used by the analysis: each
link between the requesting device and a fellow member is an independent
Rayleigh(sqrt(2) sigma) pairwise distance (two independent Gaussian
scatter terms folded together per link).

t = theta / S is free of the transmit power, so results are bit-for-bit
independent of the configured power scaling. All randomness flows from a
counter-based Philox generator keyed by the caller's seed; fixed seed and
trial count reproduce results exactly.

The per-trial object APIs (sample_network / attach_caches /
simulate_request) draw one explicit window with fading and test the SIR
directly. They are the brute-force reference: they have no far-field
factor, so a check against the estimators passes a window radius far
larger than the default near radius.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analytic import NumericalError, QuadratureSpec, _exponent_table
from .model import CachingPolicy, ContentLibrary, NetworkConfig, require_valid_policy

__all__ = [
    "OUTCOME_LOCAL_HIT",
    "OUTCOME_D2D_SUCCESS",
    "OUTCOME_D2D_SIR_FAIL",
    "OUTCOME_CLUSTER_MISS",
    "OUTCOMES",
    "TcpRealization",
    "MonteCarloEstimate",
    "default_sim_radius",
    "sample_network",
    "attach_caches",
    "simulate_request",
    "estimate_coverage",
    "estimate_offloading",
]

OUTCOME_LOCAL_HIT = "local-hit"
OUTCOME_D2D_SUCCESS = "d2d-success"
OUTCOME_D2D_SIR_FAIL = "d2d-sir-fail"
OUTCOME_CLUSTER_MISS = "cluster-miss"
OUTCOMES = (
    OUTCOME_LOCAL_HIT,
    OUTCOME_D2D_SUCCESS,
    OUTCOME_D2D_SIR_FAIL,
    OUTCOME_CLUSTER_MISS,
)

MIN_TRIALS = 1000
_CHUNK = 1024
# largest node error estimate the far-field table accepts
_FAR_MAX_ERROR = 1e-6


@dataclass(frozen=True)
class TcpRealization:
    """One snapshot of the network as seen from the requesting device.

    The requesting (typical) device sits at the origin. cluster_centers and
    the flat member arrays describe the interfering clusters; the members
    of the representative cluster (the typical device's own) are stored
    separately, as independent pairwise displacements from the origin
    (module docstring). cache_flags/typical_cache are attached by
    attach_caches and are None for a bare network draw.
    """

    cluster_centers: np.ndarray
    member_positions: np.ndarray
    member_cluster: np.ndarray
    representative_members: np.ndarray
    r_sim: float
    cache_flags: np.ndarray | None = None
    typical_cache: np.ndarray | None = None


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
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def sample_network(cfg: NetworkConfig, r_sim: float | None = None,
                   seed=0) -> TcpRealization:
    """Draw one network realization (no cache placement attached).

    Parents are drawn in the disc of radius r_sim, by default the near
    radius; nothing beyond it is represented.
    """
    rng = _as_generator(seed)
    if r_sim is None:
        r_sim = default_sim_radius(cfg)
    if r_sim <= 0:
        raise ValueError("r_sim must be positive")

    n_clusters = rng.poisson(cfg.lambda_p * math.pi * r_sim**2)
    radii = r_sim * np.sqrt(rng.random(n_clusters))
    angles = rng.uniform(0.0, 2.0 * math.pi, n_clusters)
    centers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    counts = rng.poisson(cfg.n_bar, n_clusters)
    member_cluster = np.repeat(np.arange(n_clusters), counts)
    offsets = rng.normal(0.0, cfg.sigma, (int(counts.sum()), 2))
    member_positions = centers[member_cluster] + offsets

    n_rep = rng.poisson(cfg.n_bar)
    # independent pairwise displacements: each link folds the center offset
    # and the member scatter into one N(0, 2 sigma^2 I) term of its own
    rep_members = rng.normal(0.0, math.sqrt(2.0) * cfg.sigma, (n_rep, 2))

    return TcpRealization(
        cluster_centers=centers,
        member_positions=member_positions,
        member_cluster=member_cluster,
        representative_members=rep_members,
        r_sim=float(r_sim),
    )


def attach_caches(realization: TcpRealization, policy: CachingPolicy,
                  seed=0) -> TcpRealization:
    """Independently draw cache contents for the representative cluster and
    the typical device, one Bernoulli(c_m) flag per file."""
    rng = _as_generator(seed)
    probs = policy.probs
    n_rep = realization.representative_members.shape[0]
    flags = rng.random((n_rep, probs.size)) < probs
    typical = rng.random(probs.size) < probs
    return dataclasses.replace(realization, cache_flags=flags,
                               typical_cache=typical)


def _comp_sir_ok(h_sq: np.ndarray, interference: float, cfg: NetworkConfig,
                 rng: np.random.Generator) -> bool:
    """Joint-transmission SIR test for caterers at squared distances h_sq."""
    weights = h_sq ** (-cfg.alpha / 4.0)
    z = rng.standard_normal((2, weights.size))
    desired = 0.5 * ((z[0] @ weights) ** 2 + (z[1] @ weights) ** 2)
    return bool(desired >= cfg.theta * interference)


def simulate_request(realization: TcpRealization, policy: CachingPolicy,
                     file_index: int, cfg: NetworkConfig, seed=0) -> str:
    """Outcome of one content request from the typical device.

    local-hit: the device holds the file itself; d2d-success /
    d2d-sir-fail: at least one cluster member holds it and the joint
    transmission passes / fails the SIR threshold; cluster-miss: nobody in
    the cluster holds it.
    """
    if not 0 <= file_index < len(policy):
        raise ValueError("file_index out of range")
    rng = _as_generator(seed)
    if realization.cache_flags is None:
        c = policy.probs[file_index]
        n_rep = realization.representative_members.shape[0]
        member_has = rng.random(n_rep) < c
        typical_has = bool(rng.random() < c)
    else:
        member_has = realization.cache_flags[:, file_index]
        typical_has = bool(realization.typical_cache[file_index])

    if typical_has:
        return OUTCOME_LOCAL_HIT
    if not member_has.any():
        return OUTCOME_CLUSTER_MISS

    d_sq = (realization.member_positions**2).sum(axis=1)
    fading = rng.standard_exponential(d_sq.size)
    interference = float((fading * d_sq ** (-cfg.alpha / 2.0)).sum())
    h_sq = (realization.representative_members[member_has] ** 2).sum(axis=1)
    if _comp_sir_ok(h_sq, interference, cfg, rng):
        return OUTCOME_D2D_SUCCESS
    return OUTCOME_D2D_SIR_FAIL


def _draw_caterers(c_of_trial: np.ndarray, cfg: NetworkConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Caterers of each trial's cluster: (t, k) with t = theta / sum_i h_i^-alpha.

    Member counts are Poisson(n_bar) and each member caches the file with
    probability c, so the caterer count k is Poisson(c n_bar); each link is
    an independent pairwise distance (module docstring), whose square is
    exponential with mean 4 sigma^2. A trial without caterers gets t = inf.
    """
    trials = c_of_trial.size
    t = np.empty(trials)
    k = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        k_chunk = rng.poisson(c_of_trial[start:stop] * cfg.n_bar)
        h_sq = 4.0 * cfg.sigma**2 * rng.standard_exponential(int(k_chunk.sum()))
        trial_of_caterer = np.repeat(np.arange(stop - start), k_chunk)
        s = np.bincount(trial_of_caterer, weights=h_sq ** (-cfg.alpha / 2.0),
                        minlength=stop - start)
        with np.errstate(divide="ignore"):
            t[start:stop] = cfg.theta / s
        k[start:stop] = k_chunk
    return t, k


def _far_field(t: np.ndarray, cfg: NetworkConfig, r0: float):
    """F(t): exponent of the exact Laplace factor of the clusters centered
    beyond r0, as one table over the finite t of all trials (None if none).

    The table is analytic._exponent_table with v_inner = r0: a quintic
    spline in ln t at 8 nodes per decade. F itself is interpolated, not
    ln F: at small t it is a prefix difference many orders of magnitude
    below the full exponent, so its relative rounding noise is large while
    its absolute value is negligible. The evaluator raises outside the table.
    """
    finite = t[np.isfinite(t)]
    if finite.size == 0:
        return None
    spline, t_nodes, errors = _exponent_table(
        finite.min(), finite.max(), cfg, QuadratureSpec(), v_inner=r0)
    worst = int(np.argmax(errors))
    if errors[worst] > _FAR_MAX_ERROR:
        raise NumericalError(
            "far-field exponent table exceeds its error bound",
            diagnostics={"t_gamma": float(t_nodes[worst]),
                         "error": float(errors[worst]), "r0": r0},
        )
    x_lo, x_hi = spline.x[0], spline.x[-1]

    def far(t_eval: np.ndarray) -> np.ndarray:
        x = np.log(t_eval)
        if x.min() < x_lo or x.max() > x_hi:
            raise ValueError("t_gamma outside the far-field table")
        return np.maximum(spline(x), 0.0)

    return far


def _conditional_coverage(t: np.ndarray, far, cfg: NetworkConfig,
                          r0: float, rng: np.random.Generator) -> np.ndarray:
    """Per-trial success probability given the caterers and the near field.

    Samples the clusters centered within r0 for every trial with caterers
    and returns exp(-sum_j ln(1 + t d_j^-alpha) - F(t)): the interferers'
    Rayleigh fading and the desired signal's are averaged out exactly.
    Trials without caterers are 0.
    """
    values = np.zeros(t.size)
    served = np.flatnonzero(np.isfinite(t))
    mean_clusters = cfg.lambda_p * math.pi * r0**2
    for start in range(0, served.size, _CHUNK):
        idx = served[start:start + _CHUNK]
        n = idx.size
        n_clusters = rng.poisson(mean_clusters, n)
        total_c = int(n_clusters.sum())
        radii = r0 * np.sqrt(rng.random(total_c))
        counts = rng.poisson(cfg.n_bar, total_c)
        # only distances matter and the member scatter is isotropic, so each
        # cluster's center can sit on the x-axis at its distance
        scatter = rng.normal(0.0, cfg.sigma, (2, int(counts.sum())))
        x = np.repeat(radii, counts) + scatter[0]
        d_sq = x * x + scatter[1] * scatter[1]
        trial_of_member = np.repeat(np.repeat(np.arange(n), n_clusters), counts)
        t_chunk = t[idx]
        near = np.bincount(
            trial_of_member,
            weights=np.log1p(t_chunk[trial_of_member] * d_sq ** (-cfg.alpha / 2.0)),
            minlength=n,
        )
        values[idx] = np.exp(-(near + far(t_chunk)))
    return values


def _run_coverage(c_of_trial: np.ndarray, cfg: NetworkConfig, r_sim: float,
                  seed) -> tuple[np.ndarray, np.ndarray]:
    """(conditional coverage values, caterer counts) of one trial per entry."""
    rng = _as_generator(seed)
    t, k = _draw_caterers(c_of_trial, cfg, rng)
    values = _conditional_coverage(t, _far_field(t, cfg, r_sim), cfg, r_sim, rng)
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
                        r_sim: float | None = None,
                        stratified: bool = True) -> MonteCarloEstimate:
    """Simulated offloading probability under a caching policy.

    A request is offloaded when the device holds the file itself or the
    cluster serves it over D2D above the SIR threshold. The default
    stratified estimator simulates the D2D coverage of each file
    separately and combines strata as sum_m q_m (c_m + (1-c_m) cov_m),
    exploiting that the local-hit term is known exactly; its half-width is
    propagated from the per-stratum sample variances. With
    stratified=False the requested file is drawn from the popularity
    distribution per trial, each trial contributes c_f + (1-c_f) times
    its conditional coverage, and the half-width is the sample-variance
    one. Either way one far-field table, over the t range of every
    trial's caterers, serves the whole call; r_sim is the near/far split
    radius.
    """
    require_valid_policy(policy, library)
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if r_sim is None:
        r_sim = default_sim_radius(cfg)
    q = library.popularity
    c = policy.probs

    if not stratified:
        rng_files = _as_generator(np.random.SeedSequence([int(seed), 0xF11E]))
        files = rng_files.choice(q.size, size=trials, p=q)
        c_of_trial = c[files]
        values, _ = _run_coverage(c_of_trial, cfg, r_sim,
                                  np.random.SeedSequence([int(seed), 1]))
        offloaded = c_of_trial + (1.0 - c_of_trial) * values
        return MonteCarloEstimate(
            mean=float(min(offloaded.mean(), 1.0)),
            half_width_95=_half_width(offloaded),
            trials=trials,
            seed=int(seed),
        )

    # every stratum's caterers first, so that one far-field table covers them all
    strata = []
    mean = 0.0
    for m in range(q.size):
        if c[m] >= 1.0:
            mean += q[m]  # offloaded with certainty via the local cache
            continue
        if c[m] <= 0.0:
            continue  # never held anywhere in the cluster
        n_m = max(100, int(round(trials * q[m])))
        rng = _as_generator(np.random.SeedSequence([int(seed), m]))
        t, _ = _draw_caterers(np.full(n_m, c[m]), cfg, rng)
        strata.append((m, rng, t))
    far = _far_field(np.concatenate([np.empty(0), *(t for *_, t in strata)]), cfg, r_sim)

    variance = 0.0
    total_trials = 0
    for m, rng, t in strata:
        values = _conditional_coverage(t, far, cfg, r_sim, rng)
        weight = q[m] * (1.0 - c[m])
        mean += q[m] * c[m] + weight * float(values.mean())
        variance += weight**2 * float(values.var(ddof=1)) / values.size
        total_trials += values.size
    return MonteCarloEstimate(
        mean=float(min(mean, 1.0)),
        half_width_95=1.96 * math.sqrt(variance),
        trials=max(total_trials, 1),
        seed=int(seed),
    )
