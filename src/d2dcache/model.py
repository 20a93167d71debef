"""Domain types and cache-placement policies for a clustered D2D caching network.

Devices live in Gaussian clusters (a Thomas cluster process), share a common
content library with Zipf-distributed request popularity, and cache files
probabilistically: file m is cached independently at every device with
probability c_m, with the vector c filling the per-device cache budget M in
expectation (sum over m of c_m equals M). A link is covered when its SIR
reaches the one threshold theta of NetworkConfig. Each class checks the
ranges of its fields when it is constructed (a CachingPolicy, that every
c_m lies in [0, 1]), and its ValueError opens with the field's name, which
the config loader turns into the setting's (experiments._consumed). What
needs two objects, a policy's length and budget against a library, is
checked by validate_policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "NetworkConfig",
    "ContentLibrary",
    "CachingPolicy",
    "zipf_popularity",
    "validate_policy",
    "policy_cpf",
    "policy_zipf_proportional",
    "policy_uniform",
]

# Tolerances for the popularity sum and a policy's budget sum.
POPULARITY_SUM_TOL = 1e-12
POLICY_SUM_TOL = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    """Spatial and channel parameters of the clustered network.

    Attributes
    ----------
    lambda_p : float
        Density of cluster centers [clusters per m^2].
    n_bar : float
        Mean number of devices per cluster.
    sigma : float
        Standard deviation of the Gaussian member displacement around a
        cluster center, per axis [m].
    alpha : float
        Path-loss exponent; must exceed 2 for the interference integrals
        to converge.
    gamma_d : float
        D2D transmit power (arbitrary units; cancels in the SIR).
    theta : float
        SIR threshold, linear scale; required. A rate threshold rho
        [bits/sec/Hz] is the threshold theta = 2**rho - 1, which the config
        loader converts.
    """

    lambda_p: float
    n_bar: float
    sigma: float
    alpha: float
    gamma_d: float = 1.0
    theta: float | None = None

    def __post_init__(self):
        for name in ("lambda_p", "n_bar", "sigma", "gamma_d"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if not (self.alpha > 2 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and exceed 2, got {self.alpha!r}")
        theta = self.theta
        if theta is None or not (theta > 0 and math.isfinite(theta)):
            raise ValueError(f"theta must be finite and strictly positive, got {theta!r}")
        # frozen dataclass: bypass immutability once to store theta as a float
        object.__setattr__(self, "theta", float(theta))

    def with_(self, **changes) -> "NetworkConfig":
        """Copy with some fields replaced, checked as a new config."""
        return replace(self, **changes)


def zipf_popularity(n_files: int, beta: float) -> np.ndarray:
    """Zipf request probabilities q_m = m**(-beta) / sum_k k**(-beta).

    The returned vector is normalized and non-increasing in the file rank m.
    """
    if n_files < 1:
        raise ValueError(f"n_files must be >= 1, got {n_files!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be a finite number >= 0, got {beta!r}")
    ranks = np.arange(1, n_files + 1, dtype=float)
    weights = ranks ** (-float(beta))
    q = weights / weights.sum()
    q.setflags(write=False)
    return q


@dataclass(frozen=True)
class ContentLibrary:
    """File catalog: size, Zipf skew, per-device cache budget, popularity vector.

    Without a popularity vector, zipf_popularity builds it and checks
    n_files and beta; beta is read for nothing else."""

    n_files: int
    beta: float
    cache_size: int
    popularity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        q = self.popularity
        if q is None:
            q = zipf_popularity(self.n_files, self.beta)
        else:
            q = np.asarray(q, dtype=float).copy()
            if q.shape != (self.n_files,):
                raise ValueError(f"popularity must have shape ({self.n_files},)")
            if abs(q.sum() - 1.0) > POPULARITY_SUM_TOL:
                raise ValueError(f"popularity must sum to 1, got {q.sum()!r}")
            if np.any(np.diff(q) > 0):
                raise ValueError("popularity must be non-increasing in the file rank")
            q.setflags(write=False)
        if not 1 <= self.cache_size < self.n_files:
            raise ValueError(
                f"cache_size must satisfy 1 <= M < n_files, got M={self.cache_size!r}, "
                f"n_files={self.n_files!r}"
            )
        object.__setattr__(self, "popularity", q)

    @classmethod
    def from_zipf(cls, n_files: int, beta: float, cache_size: int) -> "ContentLibrary":
        return cls(n_files=n_files, beta=beta, cache_size=cache_size)


@dataclass(frozen=True)
class CachingPolicy:
    """Per-file caching probabilities c_m, each in [0, 1] exactly. The
    budget sum(c) = M of a library is checked by validate_policy."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        inside = (probs >= 0.0) & (probs <= 1.0)  # False at NaN
        if not inside.all():
            m = int(np.argmin(inside))
            raise ValueError(f"probs must lie in [0, 1], got c_{m + 1} = {float(probs[m])!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


def _checked_probs(policy: CachingPolicy, library: ContentLibrary) -> np.ndarray:
    """policy.probs, refused (ValueError) unless it has one entry per file."""
    c = policy.probs
    if c.size != library.n_files:
        raise ValueError(
            f"policy length {c.size} does not match library size {library.n_files}"
        )
    return c


def validate_policy(policy: CachingPolicy, library: ContentLibrary) -> list[str]:
    """Check the budget sum(c) == M, to within POLICY_SUM_TOL.

    Returns a list of human-readable violations; an empty list means the
    policy is feasible, since CachingPolicy already holds 0 <= c_m <= 1. A
    length mismatch is an error, not a violation.
    """
    total = float(_checked_probs(policy, library).sum())
    if abs(total - library.cache_size) > POLICY_SUM_TOL:
        return [f"sum(c) = {total:.10g} differs from cache budget M = {library.cache_size}"]
    return []


def require_valid_policy(policy: CachingPolicy, library: ContentLibrary) -> None:
    """Raise ValueError if the policy violates the caching constraints."""
    violations = validate_policy(policy, library)
    if violations:
        raise ValueError("infeasible caching policy: " + "; ".join(violations))


def policy_cpf(library: ContentLibrary) -> CachingPolicy:
    """Cache-popular-files baseline: deterministically cache the M most popular files."""
    c = np.zeros(library.n_files)
    c[: library.cache_size] = 1.0
    return CachingPolicy(c)


def policy_uniform(library: ContentLibrary) -> CachingPolicy:
    """Popularity-blind baseline: every file cached with probability M / N_f."""
    c = np.full(library.n_files, library.cache_size / library.n_files)
    return CachingPolicy(c)


def policy_zipf_proportional(library: ContentLibrary) -> CachingPolicy:
    """Popularity-proportional caching: c_m proportional to q_m, clipped at 1.

    Starts from c_m = M * q_m and, whenever some entries exceed 1, pins them
    at 1 and redistributes the excess budget over the remaining files in
    proportion to their popularity, until the box constraint holds. When no
    clipping is active the result is exactly M * q_m. Files of zero
    popularity share what is left evenly once all others are at 1.
    """
    q = library.popularity
    m_budget = float(library.cache_size)
    c = np.zeros(library.n_files)
    free = np.ones(library.n_files, dtype=bool)
    remaining = m_budget
    # each pass pins at least one entry, so this terminates in <= N_f passes
    for _ in range(library.n_files):
        q_free = q[free]
        total = q_free.sum()
        if total == 0.0:
            # only zero-popularity files are left: they share the rest evenly
            c[free] = remaining / np.count_nonzero(free)
            break
        trial = remaining * (q_free / total)  # no overflow for subnormal totals
        if np.all(trial <= 1.0):
            c[free] = trial
            break
        newly_pinned = np.zeros_like(free)
        newly_pinned[free] = trial >= 1.0
        c[newly_pinned] = 1.0
        free &= ~newly_pinned
        remaining = m_budget - c[~free].sum()
        if not free.any():
            break
    return CachingPolicy(c)
