"""Brute-force references for the simulator's estimators and the optimizer.

Draws one explicit window of the clustered network with every device and
its fading, attaches Bernoulli cache contents, and tests the SIR of one
request directly. It has no far-field factor, so a check against the
estimators passes a window radius far larger than the default near
radius. Intra-cluster links are independent Rayleigh(sqrt(2) sigma)
pairwise distances, as in the estimators and the analysis.

float_bisect is the optimizer's reference root finder: it bisects the bit
patterns of the multiplier to one ulp.

far_exponent_2d is the far-field exponent's reference: the two-dimensional
near-disc quadrature, which subtracts the near clusters' mean from the
closed-form exponent over every center distance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from d2dcache import analytic
from d2dcache.model import CachingPolicy, NetworkConfig
from d2dcache.simulator import _as_generator, default_sim_radius

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


def float_bisect(holds, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats lo <= a < b <= hi with holds(a) and not holds(b),
    given holds(lo), not holds(hi) and a monotone predicate.

    Bisects an integer key that orders all finite floats (the bit pattern,
    negated for negative numbers), so a multiplier of any sign and scale is
    resolved to one ulp in at most 64 steps.
    """

    def key(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    def value(k):
        return float(np.int64(k if k >= 0 else -k - 2**63).view(np.float64))

    a, b = key(lo), key(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if holds(value(mid)):
            a = mid
        else:
            b = mid
    return value(a), value(b)


def far_exponent_2d(t_gamma: float, cfg: NetworkConfig, quad, r0: float):
    """(F, error estimate) of the clusters centered beyond r0 at one
    t_gamma > 0, by the two-dimensional near-disc quadrature.

    F = e_ppp - 2 pi lambda_p * integral over v of g(v) v dv, where g is
    n_bar zeta inside r0 (the near clusters' mean, so that the closed-form
    term e_ppp minus it leaves the clusters beyond r0) and the correction
    n_bar zeta - 1 + exp(-n_bar zeta) beyond. The outer panels are linear
    across the zeta window, 8 log panels per decade beyond it up to the
    truncation radius of absolute tolerance quad.abs_tol, with r0 as an
    edge; zeta is the inner quadrature of analytic._ZetaRows. The error
    estimate is the order-16/order-8 disagreement plus the tail bound.
    """
    alpha, n_bar, lam = cfg.alpha, cfg.n_bar, cfg.lambda_p
    half_width = analytic._window_halfwidth(cfg, quad)
    v_floor = max(2.0 * half_width, 10.0 * cfg.sigma + 5.0 / math.sqrt(math.pi * lam), r0)
    e_ppp = analytic._exponent_ppp(t_gamma, cfg)
    tail_coeff = math.pi * lam * n_bar**2 * 4.0**alpha * t_gamma**2 / (2 * alpha - 2)
    v_max = max(v_floor, 2.0 * t_gamma ** (1.0 / alpha),
                (tail_coeff / quad.abs_tol) ** (1.0 / (2 * alpha - 2)))
    n_log = max(2, math.ceil(8 * math.log10(v_max / half_width)))
    edges = np.union1d(np.concatenate([
        np.linspace(0.0, half_width, max(1, math.ceil(half_width / cfg.sigma)) + 1),
        np.geomspace(half_width, v_max, n_log + 1)[1:],
    ]), [r0])
    results = []
    for order in (16, 8):
        v, w = analytic._panel_rule(edges, order)
        nz = n_bar * analytic._ZetaRows(v, cfg, half_width, order)(t_gamma)
        integrand = np.where(v < r0, nz, nz + np.expm1(-nz))
        results.append(e_ppp - 2.0 * math.pi * lam * float((w * integrand * v).sum()))
    tail_bound = tail_coeff * v_max ** (2.0 - 2.0 * alpha)
    return results[0], abs(results[0] - results[1]) + tail_bound


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

