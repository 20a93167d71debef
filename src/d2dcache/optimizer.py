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
non-increasing sum over the groups, and a convex-branch group's c_j is a
root of the budget residual inside its scan bracket. One root finder,
_root, serves both: safeguarded Newton steps on the analytic slope (for the
multiplier dc/dv = 1 / (q phi'(c)) per group), from a table estimate of the
multiplier, until a step moves at most 2 ulps. At the reference library
(100 files, Zipf 0.5, budget 5) a multiplier takes about 5 budget
evaluations, its bracket checks included.

A brute-force simplex enumeration oracle certifies solutions on small
instances instead of assuming global concavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class KktSolution:
    """Optimized caching vector with its multiplier and per-file diagnostics.

    diagnostics keys: 'labels' (per-file 'clamped-0' | 'clamped-1' |
    'interior'), 'sum_residual', 'stationarity_residuals' (interior files,
    in file order), 'concavity_warnings', 'candidates' (number of
    structural candidates solved), 'multiplier_evaluations' (number of
    budget evaluations on the concave branch, the bracket checks of every
    candidate included), 'convex_evaluations' (number of budget residual
    evaluations on the convex branch, its bracket checks included). Tied
    popularities always get identical caching probabilities.

    multiplier is the common marginal q_m f'(c_m) of the interior files.
    With no interior file it is not unique: KKT holds for any value between
    the largest q f'(0) of the files at 0 and the smallest q f'(1) of those
    at 1. The value returned is then q f'(0) of the most popular file at 0
    where whole files fill the budget, 0 where files of zero popularity take
    the leftover budget, and otherwise the point of that interval where the
    root finder stopped.
    """

    policy: CachingPolicy
    multiplier: float
    objective: float
    diagnostics: dict


def _unit_marginals(c, n_bar, Z):
    """(f', f'') of the per-file gain f = _k1_gain, from one shared
    exponential; f'' is positive beyond the inflection point."""
    c = np.asarray(c, dtype=float)
    a = (n_bar / Z) * np.exp(-c * n_bar)
    poly = -2.0 - 2.0 * n_bar + 4.0 * n_bar * c + n_bar**2 * c - n_bar**2 * c**2
    return 1.0 + a * (1.0 - c * (2.0 + n_bar - n_bar * c)), a * poly


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
        self._phi_table = self.phi(self._c_table)  # ascending
        self.phi_b, self.phi0 = float(self._phi_table[0]), float(self._phi_table[-1])

    def marginals(self, c):
        """(phi, phi') at c: _unit_marginals at this branch's n_bar and Z."""
        return _unit_marginals(c, self.n_bar, self.Z)

    def phi(self, c):
        return self.marginals(c)[0]

    def interp(self, y):
        """Table estimate of the root of phi(c) = y, clamped to [0, c_b]."""
        return np.interp(y, self._phi_table, self._c_table)

    def __call__(self, v, q):
        """Root of q phi(c) = v for each popularity q > 0: 0 where
        v >= q phi(0), c_b where v <= q phi(c_b). Broadcasts v against q."""
        return self.solve(v, q)[0]

    def solve(self, v, q, scale=1.0):
        """(c, slope): c as in __call__; slope = scale dc/dv where
        0 < c < c_b, and 0 elsewhere. dc/dv = 1 / (q phi') overflows at
        subnormal q; with a scale at or below every q the slope stays
        finite, and with a power of two it is dc/dv times scale, bit for
        bit, wherever both are normal."""
        v, q = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(q, dtype=float))
        c = np.where(v <= q * self.phi_b, self.c_b, 0.0)
        slope = np.zeros(c.shape)
        inside = (v > q * self.phi_b) & (v < q * self.phi0)
        if inside.any():
            y = v[inside] / q[inside]  # < phi0, so tiny q cannot overflow it
            guess = self.interp(y)
            prime = np.empty(y.size)
            todo = np.arange(y.size)
            for _ in range(60):
                g = guess[todo]
                phi, prime[todo] = self.marginals(g)
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
        return c, slope


def _key(x: float) -> int:
    """Integer that orders all finite floats, adjacent floats by adjacent
    integers: the bit pattern, negated for negative numbers."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _value(k: int) -> float:
    """The float whose _key is k."""
    return float(np.int64(k if k >= 0 else -k - 2**63).view(np.float64))


def _root(residual, lo: float, hi: float, start=None, scale: float = 1.0) -> float:
    """A root of g in [lo, hi], given g(lo) >= 0 >= g(hi) and a residual g
    that is non-increasing up to its rounding.

    residual(x) returns (g(x), scale dg/dx); a power-of-two scale keeps a
    slope that would overflow finite and leaves every step as it would be
    without it. Newton steps from start (by default the midpoint) narrow
    the bracket to the side of each iterate's sign. A step that leaves the
    bracket, meets a slope that is not negative or fails to halve the last
    step falls back to a midpoint, alternately of the values and of the
    keys (_key), so a root at subnormal or negative scale is reached too.
    Ends at a zero of g, once a step moves at most 2 ulps (returning the
    step's end), or once the bracket closes to adjacent floats, at most
    128 evaluations.
    """
    a, b = _key(lo), _key(hi)
    x = start if start is not None and lo < start < hi else 0.5 * lo + 0.5 * hi
    last, arithmetic = b - a, True
    for _ in range(128):
        g, slope = residual(x)
        if g == 0.0:
            return x
        k = _key(x)
        if g > 0.0:
            a = k
        else:
            b = k
        if b - a <= 1:
            return x
        nxt = x - g / slope * scale if -math.inf < slope < 0.0 else math.nan
        if math.isfinite(nxt):
            moved = abs(_key(nxt) - k)
            if moved <= 2:
                return min(max(nxt, _value(a)), _value(b))
            if _value(a) < nxt < _value(b) and moved <= last // 2:
                x, last = nxt, moved
                continue
        x = 0.5 * _value(a) + 0.5 * _value(b) if arithmetic else _value((a + b) // 2)
        arithmetic, last = not arithmetic, b - a
    return x


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
    evaluation on the concave branch adds one to counts["multiplier_evaluations"],
    and each on the convex branch to counts["convex_evaluations"].
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
            """(c, g, scale dg/dv) for the free groups at multiplier v, where
            g = budget(v) - rest."""
            if v not in seen:
                counts["multiplier_evaluations"] += 1
                c_free, slope = branch.solve(v, free_q, scale)
                seen[v] = c_free, c_free @ free_n - rest, slope @ free_n
            return seen[v]

        # below v_lo every free group sits at c_b; the multiplier is negative
        # when the budget forces groups past the peak of f
        v_lo, v_hi = q[k] * min(branch.phi_b, 0.0), q[k] * branch.phi0
        if budget_gap(v_lo)[1] >= 0.0 and (
                k == 0 or budget_gap(q[k - 1] * float(branch.phi(1.0)))[1] <= 0.0):
            v = _root(lambda v: budget_gap(v)[1:], v_lo, v_hi,
                      _first_guess(free_q, free_n, rest, branch), scale)
            concave = c.copy()
            concave[k:] = budget_gap(v)[0]
            yield concave, v
        if branch.c_b >= 1.0:
            continue
        if np.any(sizes[k:] != sizes[k]):
            # tie groups of unequal size can put the convex group anywhere
            for j in range(k, n_groups):
                yield from _convex_candidates(q, sizes, k, j, rest, c, branch, counts)
            continue
        yield from _convex_candidates(q, sizes, k, k, rest, c, branch, counts)
        if branch.phi_b < 0.0 and k < n_groups - 1:
            last = _convex_candidates(q, sizes, k, n_groups - 1, rest, c, branch, counts)
            yield from ((cand, v) for cand, v in last if v < 0.0)


def _convex_candidates(q, sizes, k, j, rest, c, branch, counts):
    """Candidates with groups k.. free and group j on the convex branch.

    The convex branch is (c_inflect, 1). With v = q_j phi(c_j) >= 0 the
    convex group has the largest free c and follows the groups at 1
    (j = k). With v < 0, possible only when phi(c_inflect) < 0, every free
    group sits past the peak of f, where f falls with c: less popular groups
    take more budget, and the convex group, whose f is lowest, is the least
    popular one. The budget residual R(c_j) has dR/dc_j >= 0 exactly when
    the second-order condition for a maximum holds, so only its upward sign
    changes on a scan of c_j are refined to roots (_root, on -R). Since
    v >= q_j phi(c_inflect), a group with q phi(0) at or below that value
    stays at 0 and is left out of R. Each evaluation of R adds one to
    counts["convex_evaluations"].
    """
    others = np.r_[k:j, j + 1:q.size]
    act = others[q[others] * branch.phi0 > q[j] * branch.phi_b]
    act_q, act_n = q[act], sizes[act]
    c = c.copy()
    # dc/dv = 1 / (q phi') of the other groups, scaled by the power of two at
    # or below q_j, stays finite where q_j dc/dv does (_ConcaveBranch.solve)
    scale = math.ldexp(0.5, math.frexp(q[j])[1])

    def budget_gap(c_j, v):
        return sizes[j] * c_j + branch(v, act_q) @ act_n - rest

    def residual(c_j):
        """(-R, -dR/dc_j) with dR/dc_j = n_j + q_j phi'(c_j) sum of n dc/dv."""
        counts["convex_evaluations"] += 1
        phi, prime = branch.marginals(c_j)
        c_act, slope = branch.solve(q[j] * phi, act_q, scale)
        return (-(sizes[j] * c_j + c_act @ act_n - rest),
                -(sizes[j] + q[j] / scale * prime * (slope @ act_n)))

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
        g_lo = residual(lo)[0]
        if g_lo < 0.0:
            continue
        g_hi = residual(hi)[0]
        if g_hi > 0.0:
            continue
        # a root at an end of the bracket is already found: _root's Newton
        # steps would land on that end, outside its open bracket, and fall
        # back to midpoints until the bracket closed
        c_j = hi if g_hi == 0.0 else lo if g_lo == 0.0 else _root(residual, lo, hi)
        v = q[j] * float(branch.phi(c_j))
        c[j] = c_j
        c[act] = branch(v, act_q)
        yield c.copy(), v


def solve_p1(library: ContentLibrary, cfg: NetworkConfig) -> KktSolution:
    """Optimal probabilistic caching for the single-caterer offloading bound.

    Groups tied popularities, enumerates the structural candidates (groups
    at 1, an optional convex-branch group, concave-branch groups at a
    common multiplier, zeros) and keeps the best. Files of zero popularity
    take budget only once every other file is at 1. The library holds
    1 <= M < N and the policy 0 <= c_m <= 1 by construction: clamped groups
    are snapped to exact 0 and 1. Raises NumericalError when the result
    misses the budget or interior stationarity by more than 1e-8, or scores
    below a baseline policy.
    """
    q = library.popularity
    n_files, budget = library.n_files, float(library.cache_size)
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
    counts = {"multiplier_evaluations": 0, "convex_evaluations": 0}
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

    Enumerates every caching vector with entries in {0, 1/p, ..., 1},
    p = round(1 / step), summing exactly to the cache budget and returns
    the best (policy, objective). Only meant for small instances:
    n_files <= 6, step <= 0.05, and at most ~2e7 lattice points.
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

    # i / per_file, not i * step: a step a rounding error above 1 / per_file
    # would put the top level above 1
    levels = np.arange(per_file + 1) / per_file
    gain_by_level = _k1_gain(levels, cfg.n_bar, compute_Z(cfg))
    objectives = (gain_by_level[lattice] * library.popularity).sum(axis=1)
    best = int(np.argmax(objectives))
    best_policy = CachingPolicy(levels[lattice[best]])
    return best_policy, float(objectives[best])
