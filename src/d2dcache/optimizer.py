"""Cache-placement optimization for the single-caterer offloading bound.

Maximizes sum_m q_m f(c_m) over the simplex {0 <= c_m <= 1, sum c = M},
where f(c) = c + (1-c) c n_bar exp(-c n_bar) / Z is each file's offloading
contribution (analytic._k1_gain, which the closed-form objective also uses).
f is concave only up to an inflection point
c_inflect = ((4+n_bar) - sqrt(n_bar^2+8)) / (2 n_bar); for n_bar > 1 it is
convex on (c_inflect, 1]. Its maximum is f(1) = 1, but when n_bar / Z is
large f' turns negative around c_inflect, and so can the multiplier.

The solver uses that structure directly. Files with tied popularity form one
group that shares one caching probability (the symmetric tie-break). At a
local maximum, with the groups ordered by popularity, a prefix of groups
sits at 1, at most one group lies on the convex branch (two such groups
could trade budget and both gain), the next groups lie on the concave
branch with a common multiplier v = q_g f'(c_g), and the rest are 0. When
v < 0 no group is 0, less popular groups take more budget, and the convex
group is the least popular one. Tie groups of unequal size can hold the
convex group at any position, so every position is tried for them. Every
such shape is enumerated, each is solved for its multiplier, and the best
one is kept.

A concave-branch multiplier is the root of budget(v) = rest, a
non-increasing sum over the groups. It is found by safeguarded Newton
steps on the analytic slope, dc/dv = 1 / (q phi'(c)), from a table
estimate of the root. The result is the pair of adjacent floats that
bisecting the multiplier's bit patterns to one ulp returns; that bisection
is replayed at the end, evaluating only its midpoints within the budget's
rounding error of the root, so about ten evaluations find each multiplier.

A brute-force simplex enumeration oracle certifies solutions on small
instances instead of assuming global concavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .analytic import NumericalError, _k1_gain, compute_Z, offloading_closed_form_k1
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
    validate_policy,
)

__all__ = [
    "KktSolution",
    "solve_p1",
    "grid_search_oracle",
]

SUM_TOL = 1e-8
STATIONARITY_TOL = 1e-8
BASELINE_TOL = 1e-12
_CLAMP_EPS = 1e-9
_SCAN_POINTS = 257
_ORACLE_MAX_POINTS = 20_000_000
# rounding error of phi per unit size of its terms, and of the budget sum
# per unit of its size, with margin: the budget's measured departures from
# monotone stayed under a tenth of the tolerance this gives
_ROUNDING = 2.0 * np.finfo(float).eps


@dataclass(frozen=True)
class KktSolution:
    """Optimized caching vector with its multiplier and per-file diagnostics.

    diagnostics keys: 'labels' (per-file 'clamped-0' | 'clamped-1' |
    'interior'), 'sum_residual', 'stationarity_residuals' (interior files,
    in file order), 'concavity_warnings', 'candidates' (number of
    structural candidates solved), 'multiplier_evaluations' (number of
    budget evaluations on the concave branch, the bracket checks of every
    candidate included). Tied popularities always get identical caching
    probabilities.
    """

    policy: CachingPolicy
    multiplier: float
    objective: float
    diagnostics: dict


def _unit_marginal(c, n_bar, Z):
    """d/dc of the per-file gain f = _k1_gain."""
    c = np.asarray(c, dtype=float)
    return 1.0 + (n_bar / Z) * np.exp(-c * n_bar) * (
        1.0 - c * (2.0 + n_bar - n_bar * c)
    )


def _unit_marginal_prime(c, n_bar, Z):
    """d^2/dc^2 of the per-file gain f; positive beyond the inflection point."""
    c = np.asarray(c, dtype=float)
    poly = -2.0 - 2.0 * n_bar + 4.0 * n_bar * c + n_bar**2 * c - n_bar**2 * c**2
    return (n_bar / Z) * np.exp(-c * n_bar) * poly


def _inflection_point(n_bar: float) -> float:
    """Smallest positive root of the curvature polynomial; > 1 means the
    per-file objective is concave on all of [0, 1]."""
    return ((4.0 + n_bar) - math.sqrt(n_bar * n_bar + 8.0)) / (2.0 * n_bar)


class _ConcaveBranch:
    """Caching probability on the concave branch [0, c_b], c_b = min(c_inflect, 1).

    There the unit marginal phi = f' is decreasing and convex, so Newton's
    method on phi(c) = y lands left of the root after at most one step and
    then climbs to it monotonically.
    """

    def __init__(self, n_bar, Z):
        self.n_bar, self.Z = n_bar, Z
        self.c_b = min(_inflection_point(n_bar), 1.0)
        # nodes cluster quadratically at c_b, where phi flattens when c_b = c_inflect
        u = np.linspace(0.0, 1.0, 1025)
        self._c_table = self.c_b * (1.0 - u * u)
        self._phi_table = _unit_marginal(self._c_table, n_bar, Z)  # ascending
        self.phi_b, self.phi0 = float(self._phi_table[0]), float(self._phi_table[-1])

    def phi(self, c):
        return _unit_marginal(c, self.n_bar, self.Z)

    def _phi_and_prime(self, c):
        """phi and phi' from one shared exponential, bit for bit equal to
        _unit_marginal and _unit_marginal_prime, and the size of phi's terms,
        which bounds its rounding error."""
        n_bar = self.n_bar
        a = (n_bar / self.Z) * np.exp(-c * n_bar)
        shape = c * (2.0 + n_bar - n_bar * c)
        poly = -2.0 - 2.0 * n_bar + 4.0 * n_bar * c + n_bar**2 * c - n_bar**2 * c**2
        return 1.0 + a * (1.0 - shape), a * poly, 1.0 + a * (1.0 + shape)

    def interp(self, y):
        """Table estimate of the root of phi(c) = y, clamped to [0, c_b]."""
        return np.interp(y, self._phi_table, self._c_table)

    def __call__(self, v, q):
        """Root of q phi(c) = v for each popularity q > 0: 0 where
        v >= q phi(0), c_b where v <= q phi(c_b). Broadcasts v against q."""
        return self.solve(v, q)[0]

    def solve(self, v, q, scale=1.0):
        """(c, slope, error): c as in __call__; slope = scale dc/dv and
        error, a bound on c's rounding error, where 0 < c < c_b, and 0
        elsewhere. dc/dv = 1 / (q phi') overflows at subnormal q; with a
        scale at or below every q the slope stays finite, and with a power
        of two it is dc/dv times scale, bit for bit, wherever both are
        normal."""
        v, q = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(q, dtype=float))
        c = np.where(v <= q * self.phi_b, self.c_b, 0.0)
        slope, error = np.zeros(c.shape), np.zeros(c.shape)
        inside = (v > q * self.phi_b) & (v < q * self.phi0)
        if inside.any():
            y = v[inside] / q[inside]  # < phi0, so tiny q cannot overflow it
            guess = self.interp(y)
            prime, size = np.empty(y.size), np.empty(y.size)
            todo = np.arange(y.size)
            for _ in range(60):
                g = guess[todo]
                phi, prime[todo], size[todo] = self._phi_and_prime(g)
                # the slope vanishes only at c_inflect, never at a root left of it
                step = (phi - y[todo]) / np.minimum(prime[todo], -1e-300)
                guess[todo] = np.clip(g - step, 0.0, self.c_b)
                todo = todo[np.abs(step) > 1e-15]
                if todo.size == 0:
                    break
            c[inside] = guess
            # phi and phi' at the last iterate, less than 1e-15 from c
            prime = np.minimum(prime, -1e-300)
            with np.errstate(over="ignore", divide="ignore"):
                slope[inside] = 1.0 / (q[inside] / scale * prime)
                error[inside] = _ROUNDING * size / -prime
        return c, slope, error


def _key(x: float) -> int:
    """Integer that orders all finite floats, adjacent floats by adjacent
    integers: the bit pattern, negated for negative numbers."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _value(k: int) -> float:
    """The float whose _key is k."""
    return float(np.int64(k if k >= 0 else -k - 2**63).view(np.float64))


def _root_pair(residual, lo: float, hi: float, start=None,
               scale: float = 1.0) -> tuple[float, float]:
    """Adjacent floats lo <= a < b <= hi with g(a) >= 0 > g(b), given
    g(lo) >= 0 > g(hi) and a residual g that is non-increasing up to its
    rounding.

    residual(v) returns (g, slope, tol): g(v), scale times dg/dv and a
    margin past which the sign of g is monotone, so that g(v) >= tol
    implies g >= 0 at every smaller v and g(v) < -tol implies g < 0 at
    every larger v. A power-of-two scale keeps a slope that would overflow
    finite and leaves every step as it would be without it.

    The pair is the one that bisecting the keys of [lo, hi] to one ulp
    returns, so it does not depend on how the root is approached. Newton
    steps from start (by default the midpoint) first find floats of certain
    sign on either side of the root. A step that leaves the bracket, meets a
    zero slope or fails to halve the last step falls back to a midpoint,
    alternately of the values and of the keys, so a root at subnormal or
    negative scale is reached too; a step that leaves the bracket first
    tries the float at the square root of the bracket's key width from that
    end, which finds a root at a kink next to it. The bisection is then
    replayed: its midpoints outside the floats of certain sign are decided
    without evaluating g. Each of the three stages is capped, at 2 x 64
    evaluations, 64 per side and 64.
    """
    k_lo, k_hi = _key(lo), _key(hi)
    sure_t, sure_f = k_lo, k_hi  # g >= 0 at and below sure_t, g < 0 at and above sure_f
    seen = {}

    def probe(k):
        nonlocal sure_t, sure_f
        g, slope, tol = residual(_value(k))
        seen[k] = g
        if g >= tol:
            sure_t = max(sure_t, k)
        elif g < -tol:
            sure_f = min(sure_f, k)
        return g, slope, tol

    def reach(k_root, k, holds):
        # gallop away from the root until a float of certain sign is found
        span = max(abs(k - k_root), 1)
        k = min(max(k, sure_t), sure_f)
        while (sure_t < k) if holds else (sure_f > k):
            probe(k)
            span *= 2
            k = max(k_root - span, sure_t) if holds else min(k_root + span, sure_f)

    # Newton on the bracket a < b of floats with g(a) >= 0 > g(b)
    a, b = k_lo, k_hi
    x = _key(0.5 * lo + 0.5 * hi if start is None else start)
    k_root = None
    key_step_old, newton_old, arithmetic, near_end = b - a, None, True, False
    for _ in range(2 * 64):
        if b - a <= 1:
            break
        if not a < x < b:
            x = (a + b) // 2
        g, slope, tol = probe(x)
        if g >= 0.0:
            a = x
        else:
            b = x
        v = _value(x)
        step = g / slope * scale if -math.inf < slope < 0.0 and tol < math.inf else math.nan
        root = v - step
        if math.isfinite(root):
            # the error left after this step, from the last two Newton steps
            error = abs(step) * (step / newton_old) ** 2 if newton_old else math.inf
            key_step = abs(_key(root) - x)
            if abs(g) <= tol or error <= tol / -slope * scale or key_step <= 2:
                # floats where g is about +-1.25 tol, past the root's error
                margin = (1.25 * tol * scale
                          + (2.0 * error * -slope if error < math.inf else 0.0)) / slope
                k_root, k_t, k_f = _key(root), _key(root + margin), _key(root - margin)
                break
            inside = _value(a) < root < _value(b)
            if inside and key_step <= key_step_old // 2:
                x, key_step_old, newton_old, near_end = _key(root), key_step, abs(step), False
                continue
            if not (inside or near_end):
                near = math.isqrt(b - a)
                x = a + near if root <= _value(a) else b - near
                newton_old, near_end = None, True
                continue
        x = _key(0.5 * _value(a) + 0.5 * _value(b)) if arithmetic else (a + b) // 2
        arithmetic, key_step_old, newton_old, near_end = not arithmetic, b - a, None, False
    if k_root is None:
        k_root, k_t, k_f = b, a, b
    reach(k_root, min(k_t, k_root - 1), True)
    reach(k_root, max(k_f, k_root + 1), False)
    # replay the bisection
    a, b = k_lo, k_hi
    while b - a > 1:
        mid = (a + b) // 2
        if mid <= sure_t:
            holds = True
        elif mid >= sure_f:
            holds = False
        else:
            holds = (seen[mid] if mid in seen else probe(mid)[0]) >= 0.0
        if holds:
            a = mid
        else:
            b = mid
    return _value(a), _value(b)


def _first_guess(q, sizes, rest, branch):
    """A cheap estimate of the root of budget(v) = rest on the concave branch.

    The groups' thresholds alone bound the root: at v = a enough groups sit
    at c_b to fill rest, and at v = b too few groups are above 0 to fill it.
    Between them, the budget from the table estimate of c is refined on two
    grids, then interpolated linearly. Only the groups that leave c_b or 0
    inside [a, b] are looked up."""
    low, high = q * branch.phi_b, q * branch.phi0
    # groups leave c_b as v grows most popular first, or least popular
    # first when phi_b < 0
    order = slice(None) if branch.phi_b >= 0.0 else slice(None, None, -1)
    i = min(int(np.searchsorted(np.cumsum(sizes[order]) * branch.c_b, rest)), q.size - 1)
    j = min(int(np.searchsorted(np.cumsum(sizes) * branch.c_b, rest)), q.size - 1)
    a, b = low[order][i], high[j]
    moving = (low < b) & (high > a)
    fixed = branch.c_b * sizes[low >= b].sum() - rest
    gap_a = gap_b = 0.0
    for _ in range(2):
        grid = np.linspace(a, b, 33)
        with np.errstate(over="ignore"):
            gap = branch.interp(grid[:, None] / q[moving]) @ sizes[moving] + fixed
        k = min(max(int(np.count_nonzero(gap >= 0.0)), 1), grid.size - 1)
        a, b, gap_a, gap_b = grid[k - 1], grid[k], gap[k - 1], gap[k]
    return a + (b - a) * gap_a / (gap_a - gap_b) if gap_a > gap_b else 0.5 * (a + b)


def _candidates(q, sizes, budget, branch, counts):
    """Yield (c, v) per tie group for every structural candidate.

    A candidate puts the first k groups at 1 and leaves rest = budget -
    (their size) to the others, either all on the concave branch at a
    common multiplier v, or with one group j on the convex branch at c_j,
    where v = q_j phi(c_j) and the budget fixes c_j. Group j is group k, or
    the least popular group when v < 0, or any free group when the free
    tie groups differ in size. A concave-branch shape whose
    v exceeds the marginal q phi(1) of its last group at 1 is no maximum
    (that group would rather give budget away) and is skipped. Each budget
    evaluation on the concave branch adds one to counts["multiplier_evaluations"].
    """
    n_groups = q.size
    prefix = np.concatenate([[0], np.cumsum(sizes)])
    for k in range(n_groups):
        rest = budget - prefix[k]
        if rest < 0:
            return
        c = np.zeros(n_groups)
        c[:k] = 1.0
        if rest == 0:
            yield c, q[k] * branch.phi0
            return
        free_q, free_n = q[k:], sizes[k:]
        # dg/dv = sum of n / (q phi') overflows where a popularity is
        # subnormal; scaled by the power of two at or below the largest free
        # popularity it stays finite unless popularities span 300 decades
        scale = math.ldexp(0.5, math.frexp(free_q[0])[1]) if free_q[0] > 0.0 else 1.0
        seen = {}

        def budget_gap(v):
            """(c, g, scale dg/dv, tol) for the free groups at multiplier v,
            where g = budget(v) - rest and tol bounds how far rounding moves g."""
            if v not in seen:
                counts["multiplier_evaluations"] += 1
                c_free, slope, error = branch.solve(v, free_q, scale)
                used = c_free @ free_n
                # with no group strictly inside, c moves only toward its
                # clamps as v moves away from it, so the sign of g is exact
                tol = error @ free_n
                if tol:
                    tol += _ROUNDING * (used + rest)
                seen[v] = c_free, used - rest, slope @ free_n, tol
            return seen[v]

        # below v_lo every free group sits at c_b; the multiplier is negative
        # when the budget forces groups past the peak of f
        v_lo, v_hi = q[k] * min(branch.phi_b, 0.0), q[k] * branch.phi0
        if budget_gap(v_lo)[1] >= 0.0 and (
                k == 0 or budget_gap(q[k - 1] * float(branch.phi(1.0)))[1] <= 0.0):
            pair = _root_pair(lambda v: budget_gap(v)[1:], v_lo, v_hi,
                              _first_guess(free_q, free_n, rest, branch), scale)
            v = min(pair, key=lambda x: abs(budget_gap(x)[1]))
            concave = c.copy()
            concave[k:] = budget_gap(v)[0]
            yield concave, v
        if branch.c_b >= 1.0:
            continue
        if np.any(sizes[k:] != sizes[k]):
            # tie groups of unequal size can put the convex group anywhere
            for j in range(k, n_groups):
                yield from _convex_candidates(q, sizes, k, j, rest, c, branch)
            continue
        yield from _convex_candidates(q, sizes, k, k, rest, c, branch)
        if branch.phi_b < 0.0 and k < n_groups - 1:
            last = _convex_candidates(q, sizes, k, n_groups - 1, rest, c, branch)
            yield from ((cand, v) for cand, v in last if v < 0.0)


def _convex_candidates(q, sizes, k, j, rest, c, branch):
    """Candidates with groups k.. free and group j on the convex branch.

    The convex branch is (c_inflect, 1). With v = q_j phi(c_j) >= 0 the
    convex group has the largest free c and follows the groups at 1
    (j = k). With v < 0, possible only when phi(c_inflect) < 0, every free
    group sits past the peak of f, where f falls with c: less popular groups
    take more budget, and the convex group, whose f is lowest, is the least
    popular one. The budget residual R(c_j) has dR/dc_j >= 0 exactly when
    the second-order condition for a maximum holds, so only its upward sign
    changes on a scan of c_j are refined to roots. Since
    v >= q_j phi(c_inflect), a group with q phi(0) at or below that value
    stays at 0 and is left out of R.
    """
    others = np.r_[k:j, j + 1:q.size]
    act = others[q[others] * branch.phi0 > q[j] * branch.phi_b]
    act_q, act_n = q[act], sizes[act]
    c = c.copy()

    def budget_gap(c_j, v):
        return sizes[j] * c_j + branch(v, act_q) @ act_n - rest

    def residual(c_j):
        return budget_gap(c_j, q[j] * branch.phi(c_j))

    # the other groups shrink as v = q_j phi(c_j) grows, so R(c_j) lies
    # between these two values on the whole branch
    if (budget_gap(1.0, q[j] * branch.phi_b) < 0.0
            or budget_gap(branch.c_b, q[j] * branch.phi(1.0)) > 0.0):
        return
    grid = np.linspace(branch.c_b, 1.0, _SCAN_POINTS)
    # the table estimate is close enough to locate sign changes; each is
    # checked with the exact residual before it is refined
    y = (q[j] * branch.phi(grid))[:, None] / act_q
    scan = sizes[j] * grid + branch.interp(y) @ act_n - rest
    for i in np.flatnonzero((scan[:-1] < 0.0) & (scan[1:] >= 0.0)):
        lo, hi = grid[i], grid[i + 1]
        if residual(lo) > 0.0 or residual(hi) < 0.0:
            continue
        c_j = brentq(residual, lo, hi, xtol=1e-15)
        v = q[j] * float(branch.phi(c_j))
        c[j] = c_j
        c[act] = branch(v, act_q)
        yield c.copy(), v


def solve_p1(library: ContentLibrary, cfg: NetworkConfig) -> KktSolution:
    """Optimal probabilistic caching for the single-caterer offloading bound.

    Groups tied popularities, enumerates the structural candidates (groups
    at 1, an optional convex-branch group, concave-branch groups at a
    common multiplier, zeros) and keeps the best. Files of zero popularity
    take budget only once every other file is at 1. Raises NumericalError
    when the result misses the budget or interior stationarity by more than
    1e-8, or scores below a baseline policy.
    """
    q = library.popularity
    n_files, budget = library.n_files, float(library.cache_size)
    if library.cache_size >= n_files:
        raise ValueError("cache budget must be smaller than the library")
    n_bar, z = cfg.n_bar, compute_Z(cfg)
    branch = _ConcaveBranch(n_bar, z)
    warnings = []
    if branch.c_b < 1.0:
        warnings.append(f"per-file objective is convex on ({branch.c_b:.4f}, 1]")

    starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
    sizes = np.diff(np.r_[starts, n_files])
    q_g = q[starts]
    positive = q_g > 0
    n_candidates = 0
    counts = {"multiplier_evaluations": 0}
    if sizes[positive].sum() <= budget:
        # only zero-popularity files are left to take the remaining budget
        c_g = positive.astype(float)
        c_g[~positive] = (budget - sizes[positive].sum()) / sizes[~positive]
        v_star = 0.0
    else:
        q_pos, n_pos = q_g[positive], sizes[positive]
        best, c_pos = -np.inf, None
        for cand, v in _candidates(q_pos, n_pos, budget, branch, counts):
            n_candidates += 1
            value = float(_k1_gain(cand, n_bar, z) @ (n_pos * q_pos))
            if value > best:
                best, c_pos, v_star = value, cand, v
        if c_pos is None:
            raise NumericalError("no structural candidate meets the cache budget",
                                 diagnostics={"n_bar": n_bar, "Z": z, "groups": q_pos.size})
        c_g = np.zeros(q_g.size)
        c_g[positive] = c_pos
    # snap clamped groups to exact 0 and 1; the interior groups absorb the
    # budget drift of the snap and of the multiplier's last ulp
    c_g[c_g <= _CLAMP_EPS] = 0.0
    c_g[c_g >= 1.0 - _CLAMP_EPS] = 1.0
    inner = (c_g > 0.0) & (c_g < 1.0)
    if inner.any():
        c_g[inner] += (budget - sizes @ c_g) / sizes[inner].sum()
    c = np.repeat(c_g, sizes)

    policy = CachingPolicy(c)
    violations = validate_policy(policy, library)
    if violations:
        raise NumericalError("optimizer produced an infeasible policy: "
                             + "; ".join(violations))
    objective = offloading_closed_form_k1(policy, library, cfg)
    labels = ["clamped-1" if ci == 1.0 else "clamped-0" if ci == 0.0 else "interior"
              for ci in c]
    interior = (c > 0.0) & (c < 1.0)
    stationarity = np.abs(q[interior] * branch.phi(c[interior]) - v_star).tolist()
    diagnostics = {
        "labels": labels,
        "sum_residual": float(abs(c.sum() - budget)),
        "stationarity_residuals": stationarity,
        "concavity_warnings": warnings,
        "candidates": n_candidates,
        **counts,
    }
    if (diagnostics["sum_residual"] > SUM_TOL
            or max(stationarity, default=0.0) > STATIONARITY_TOL):
        raise NumericalError("structural solve missed the budget or stationarity "
                             "tolerance", diagnostics=diagnostics)
    for baseline in (policy_zipf_proportional, policy_cpf, policy_uniform):
        value = offloading_closed_form_k1(baseline(library), library, cfg)
        if value > objective + BASELINE_TOL:
            raise NumericalError(
                f"{baseline.__name__} scores {value!r} above the solution {objective!r}",
                diagnostics=diagnostics)
    return KktSolution(
        policy=policy, multiplier=float(v_star), objective=float(objective),
        diagnostics=diagnostics,
    )


def _count_compositions(total: int, parts: int, cap: int) -> int:
    """Number of integer vectors of length `parts` in [0, cap] summing to total."""
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(parts):
        new = np.zeros_like(counts)
        for value in range(min(cap, total) + 1):
            new[value:] += counts[: total + 1 - value]
        counts = new
    return int(counts[total])


def grid_search_oracle(
    library: ContentLibrary, cfg: NetworkConfig, step: float
) -> tuple[CachingPolicy, float]:
    """Exhaustive simplex scan maximizing the closed-form objective.

    Enumerates every caching vector with entries in {0, step, ..., 1}
    summing exactly to the cache budget and returns the best (policy,
    objective). Only meant for small instances: n_files <= 6, step <= 0.05,
    and at most ~2e7 lattice points.
    """
    if library.n_files > 6:
        raise ValueError("oracle restricted to n_files <= 6")
    if step > 0.05 + 1e-12 or step <= 0:
        raise ValueError("step must be in (0, 0.05]")
    per_file = round(1.0 / step)
    if abs(per_file * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 exactly")
    total = library.cache_size * per_file
    n_points = _count_compositions(total, library.n_files, per_file)
    if n_points > _ORACLE_MAX_POINTS:
        raise ValueError(
            f"enumeration budget exceeded: {n_points} lattice points"
        )

    # level-by-level vectorized enumeration with budget pruning
    partial = np.zeros((1, 0), dtype=np.int32)
    remaining = np.array([total], dtype=np.int32)
    for depth in range(library.n_files - 1):
        slots_after = library.n_files - 1 - depth
        lo = np.maximum(remaining - slots_after * per_file, 0)
        hi = np.minimum(remaining, per_file)
        counts = hi - lo + 1
        row_idx = np.repeat(np.arange(remaining.size), counts)
        offsets = np.arange(counts.sum()) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        values = lo[row_idx] + offsets.astype(np.int32)
        partial = np.column_stack([partial[row_idx], values])
        remaining = remaining[row_idx] - values
    lattice = np.column_stack([partial, remaining])

    gain_by_level = _k1_gain(np.arange(per_file + 1) * step, cfg.n_bar, compute_Z(cfg))
    objectives = (gain_by_level[lattice] * library.popularity).sum(axis=1)
    best = int(np.argmax(objectives))
    best_policy = CachingPolicy(lattice[best].astype(float) * step)
    return best_policy, float(objectives[best])
