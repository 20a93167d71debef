"""Cache-placement optimizer: marginals, structural KKT solve, oracle.

Frozen expected values were produced by 30-digit arbitrary-precision
evaluation of the stated formulas before these tests were written.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from brute_force import float_bisect
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import optimizer
from d2dcache.analytic import _k1_gain, compute_Z, offloading_closed_form_k1
from d2dcache.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
    validate_policy,
)
from d2dcache.optimizer import (
    _inflection_point,
    _root_pair,
    _unit_marginal,
    _unit_marginal_prime,
    grid_search_oracle,
    solve_p1,
)

Z_REF = 16.791367041742974
Q1 = 0.053793507888897204

# marginal at c=0.5 with the inputs rounded to published precision
# (q=0.0538, Z=16.7913, n_bar=8)
MARGINAL_ROUNDED = 0.052861055311058561
# same point with the unrounded leading popularity and Z
MARGINAL_Q1 = 0.052854680251955461


class TestMarginalGain:
    """The slope q f'(c) of a file's k = 1 gain, which the solver equates
    to the multiplier."""

    def test_frozen_rounded_inputs(self):
        got = 0.0538 * _unit_marginal(0.5, 8.0, 16.7913)
        assert got == pytest.approx(MARGINAL_ROUNDED, rel=1e-12)

    def test_frozen_reference_inputs(self):
        got = Q1 * _unit_marginal(0.5, 8.0, Z_REF)
        assert got == pytest.approx(MARGINAL_Q1, rel=1e-12)

    def test_upper_threshold_at_zero(self):
        # marginal at c=0 is 1 + n_bar / Z
        assert _unit_marginal(0.0, 8.0, Z_REF) == pytest.approx(1.0 + 8.0 / Z_REF, rel=1e-13)

    def test_lower_threshold_at_one(self):
        # marginal at c=1 is 1 - n_bar e^{-n_bar} / Z
        assert _unit_marginal(1.0, 8.0, Z_REF) == pytest.approx(
            1.0 - 8.0 * math.exp(-8.0) / Z_REF, rel=1e-13
        )

    def test_array_input(self):
        out = _unit_marginal(np.array([0.0, 0.5, 1.0]), 8.0, Z_REF)
        assert out.shape == (3,)
        assert out[1] == _unit_marginal(0.5, 8.0, Z_REF)


class TestSolveP1:
    def test_reference_scenario_feasible(self, ref_cfg, ref_library):
        sol = solve_p1(ref_library, ref_cfg)
        assert validate_policy(sol.policy, ref_library) == []
        assert sol.diagnostics["sum_residual"] < 1e-8
        assert all(r < 1e-8 for r in sol.diagnostics["stationarity_residuals"])
        assert 0.0 < sol.objective < 1.0
        labels = sol.diagnostics["labels"]
        for ci, label in zip(sol.policy.probs, labels):
            if label == "clamped-1":
                assert ci == 1.0
            elif label == "clamped-0":
                assert ci == 0.0
            else:
                assert 0.0 < ci < 1.0

    def test_uniform_popularity_gives_symmetric_solution(self, ref_cfg):
        lib = ContentLibrary.from_zipf(10, 0.0, 4)
        sol = solve_p1(lib, ref_cfg)
        assert np.all(np.abs(sol.policy.probs - 0.4) < 1e-9)

    def test_more_popular_never_cached_less(self, ref_cfg):
        lib = ContentLibrary.from_zipf(40, 1.1, 6)
        c = solve_p1(lib, ref_cfg).policy.probs
        assert np.all(np.diff(c) <= 1e-12)

    def test_dominates_baselines(self, ref_cfg):
        for n, beta, m in [(100, 0.5, 5), (30, 1.2, 4), (12, 0.3, 6)]:
            lib = ContentLibrary.from_zipf(n, beta, m)
            best = solve_p1(lib, ref_cfg).objective
            for build in (policy_cpf, policy_uniform, policy_zipf_proportional):
                base = offloading_closed_form_k1(build(lib), lib, ref_cfg)
                assert best >= base - 1e-12

    def test_matches_grid_oracle_on_random_instances(self, ref_cfg):
        rng = np.random.default_rng(42)
        for _ in range(3):
            lib = ContentLibrary.from_zipf(5, float(rng.uniform(0, 2)), 2)
            sol = solve_p1(lib, ref_cfg)
            _, oracle_value = grid_search_oracle(lib, ref_cfg, step=0.02)
            assert sol.objective >= oracle_value - 1e-3

    def test_multiplier_in_bisection_range(self, ref_cfg, ref_library):
        sol = solve_p1(ref_library, ref_cfg)
        upper = float(ref_library.popularity.max()) * (1.0 + ref_cfg.n_bar / Z_REF)
        assert 0.0 <= sol.multiplier <= upper

    def test_reaches_structural_optimum(self, ref_cfg):
        # sigma 10 m, n_bar 2: the optimum puts two files at 1 and spreads
        # the rest on the concave branch; pairwise budget transfers from the
        # concave-envelope solution stall at 0.205082450004
        cfg = ref_cfg.with_(sigma=10.0, n_bar=2.0)
        lib = ContentLibrary.from_zipf(100, 0.5, 5)
        assert solve_p1(lib, cfg).objective >= 0.205117884671 - 1e-12

    def test_partial_ties_share_one_probability(self, ref_cfg):
        q = np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
        for budget in (1, 2, 3, 4):
            lib = ContentLibrary(n_files=6, beta=0.0, cache_size=budget, popularity=q)
            sol = solve_p1(lib, ref_cfg)
            c = sol.policy.probs
            assert c[1] == c[2] and c[3] == c[4] == c[5]
            assert validate_policy(sol.policy, lib) == []
            for build in (policy_cpf, policy_uniform, policy_zipf_proportional):
                base = offloading_closed_form_k1(build(lib), lib, ref_cfg)
                assert sol.objective >= base - 1e-12

    @pytest.mark.parametrize("sigma", [10.0, 50.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_large_library_converges_silently(self, ref_cfg, sigma, beta):
        lib = ContentLibrary.from_zipf(1000, beta, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_p1(lib, ref_cfg.with_(sigma=sigma))
        assert sol.diagnostics["sum_residual"] <= 1e-8
        assert max(sol.diagnostics["stationarity_residuals"], default=0.0) <= 1e-8

    def test_zero_and_underflowed_popularities(self, ref_cfg):
        # Zipf 400 underflows: ranks 6 on are subnormal or exactly zero
        lib = ContentLibrary.from_zipf(20, 400.0, 5)
        assert lib.popularity[-1] == 0.0 and 0.0 < lib.popularity[5] < 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_p1(lib, ref_cfg)
        assert validate_policy(sol.policy, lib) == []
        assert sol.policy.probs[0] == 1.0

    def test_zero_popularity_files_take_leftover_budget(self, ref_cfg):
        q = np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0])
        lib = ContentLibrary(n_files=6, beta=0.0, cache_size=4, popularity=q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = solve_p1(lib, ref_cfg).policy.probs
        assert c.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


@st.composite
def _instances(draw):
    n_files = draw(st.integers(3, 2000))
    budget = draw(st.integers(1, min(n_files - 1, 50)))
    lib = ContentLibrary.from_zipf(n_files, draw(st.floats(0.0, 3.0)), budget)
    cfg = NetworkConfig(lambda_p=40e-6, n_bar=draw(st.floats(0.5, 30.0)),
                        sigma=draw(st.floats(5.0, 200.0)), alpha=4.0,
                        theta=10.0 ** (draw(st.floats(-10.0, 30.0)) / 10.0))
    return lib, cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_instances())
def test_solve_p1_properties(instance):
    lib, cfg = instance
    sol = solve_p1(lib, cfg)
    c = sol.policy.probs
    assert validate_policy(sol.policy, lib) == []
    assert sol.diagnostics["sum_residual"] <= 1e-8
    assert max(sol.diagnostics["stationarity_residuals"], default=0.0) <= 1e-8
    for build in (policy_cpf, policy_uniform, policy_zipf_proportional):
        assert sol.objective >= offloading_closed_form_k1(build(lib), lib, cfg) - 1e-12
    # c is ordered by rank unless rounding at tiny beta ties popularities
    # into groups of unequal size, which may put the convex group anywhere
    starts = np.flatnonzero(np.r_[True, np.diff(lib.popularity) != 0.0, True])
    if np.unique(np.diff(starts)).size == 1:
        if sol.multiplier >= 0.0:
            assert np.all(np.diff(c) <= 0.0)
        else:
            # every file below 1 is past the peak of the per-file gain f:
            # less popular files take more c but get less f(c)
            gain = _k1_gain(c, cfg.n_bar, compute_Z(cfg))
            assert np.all(np.diff(gain) <= 1e-15)
    assert np.array_equal(solve_p1(lib, cfg.with_(gamma_d=7.5)).policy.probs, c)


def _bisected(residual, lo, hi, start=None, scale=1.0):
    """_root_pair's reference: ulp bisection of the residual's sign."""
    return float_bisect(lambda v: residual(v)[0] >= 0.0, lo, hi)


def _assert_matches_bisection(lib, cfg):
    sol = solve_p1(lib, cfg)
    with mock.patch.object(optimizer, "_root_pair", _bisected):
        ref = solve_p1(lib, cfg)
    assert np.array_equal(sol.policy.probs, ref.policy.probs)
    assert np.array_equal(sol.multiplier, ref.multiplier)


class TestMultiplierRoot:
    """The Newton root finder returns the pair that ulp bisection returns."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_instances())
    def test_solve_p1_matches_bisection(self, instance):
        _assert_matches_bisection(*instance)

    @pytest.mark.parametrize("n_files", [5, 6])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_oracle_probe_shapes_match_bisection(self, ref_cfg, n_files, beta):
        _assert_matches_bisection(ContentLibrary.from_zipf(n_files, beta, 2), ref_cfg)

    def test_large_library_matches_bisection(self, ref_cfg):
        _assert_matches_bisection(ContentLibrary.from_zipf(10_000, 0.8, 50), ref_cfg)

    @staticmethod
    def _evaluations_per_root(lib, cfg):
        roots = []

        def counted(residual, lo, hi, start=None, scale=1.0):
            roots.append((lo, hi))
            return _root_pair(residual, lo, hi, start, scale)

        with mock.patch.object(optimizer, "_root_pair", counted):
            sol = solve_p1(lib, cfg)
        assert roots
        return sol.diagnostics["multiplier_evaluations"] / len(roots)

    def test_evaluations_per_root(self, ref_cfg, ref_library):
        assert self._evaluations_per_root(ref_library, ref_cfg) <= 16

    def test_subnormal_popularities_keep_newton_steps(self, ref_cfg):
        # at Zipf 400 the popularities past rank 5 are subnormal, where the
        # slope dc/dv = 1 / (q phi') overflows; unscaled, the root takes 46
        lib = ContentLibrary.from_zipf(20, 400.0, 5)
        cfg = ref_cfg.with_(n_bar=2.0)
        assert 0.0 < lib.popularity[5] < np.finfo(float).tiny
        assert self._evaluations_per_root(lib, cfg) <= 16
        _assert_matches_bisection(lib, cfg)

    @staticmethod
    def _check(g, lo, hi, slope=lambda v: 0.0, tol=lambda v: 0.0):
        a, b = _root_pair(lambda v: (g(v), slope(v), tol(v)), lo, hi)
        assert lo <= a < b <= hi and b == np.nextafter(a, np.inf)
        assert g(a) >= 0.0 > g(b)
        assert (a, b) == float_bisect(lambda v: g(v) >= 0.0, lo, hi)
        return a, b

    def test_subnormal_root(self):
        root = 5e-320
        a, _ = self._check(lambda v: root - v, 0.0, 1.0, slope=lambda v: -1.0)
        assert a == root

    def test_negative_root(self):
        # as at theta = 30 dB, where phi(c_b) < 0 and so can the multiplier be
        a, _ = self._check(lambda v: -0.3 - v**3, -1.0, 1.0, slope=lambda v: -3.0 * v * v)
        assert a < 0.0

    def test_residual_flat_over_most_of_its_bracket(self):
        def g(v):
            return min(1.0, max(-1.0, 100.0 * (0.71 - v)))

        def slope(v):
            return -100.0 if abs(v - 0.71) < 0.01 else 0.0

        a, _ = self._check(g, 0.0, 1.0, slope=slope)
        assert abs(a - 0.71) < 1e-15

    def test_residual_zero_over_an_interval(self):
        def g(v):
            return 0.2 - v if v < 0.2 else 0.6 - v if v > 0.6 else 0.0

        def slope(v):
            return 0.0 if 0.2 <= v <= 0.6 else -1.0

        a, _ = self._check(g, 0.0, 1.0, slope=slope)
        assert a == 0.6

    @pytest.mark.parametrize("root", np.linspace(0.1, 0.9, 17))
    def test_rounding_noise_within_tol(self, root):
        # a residual that is non-increasing only up to +-1e-13 has many sign
        # changes near its root; whatever the start, the pair is bisection's
        def g(v):
            return root - v + (_key_hash(v) % 2001 - 1000) * 1e-16

        for start in (None, root, root + 5e-14):
            pair = _root_pair(lambda v: (g(v), -1.0, 2e-13), 0.0, 1.0, start)
            assert pair == float_bisect(lambda v: g(v) >= 0.0, 0.0, 1.0)


def _key_hash(v):
    """A deterministic pseudo-random integer per float."""
    bits = int(np.float64(v).view(np.int64))
    return (bits * 0x9E3779B97F4A7C15 >> 17) & 0xFFFF_FFFF


class TestGridSearchOracle:
    def test_validates_resolution_and_size(self, ref_cfg):
        lib = ContentLibrary.from_zipf(5, 0.5, 2)
        with pytest.raises(ValueError):
            grid_search_oracle(lib, ref_cfg, step=0.2)
        with pytest.raises(ValueError):
            grid_search_oracle(lib, ref_cfg, step=0.03)  # must divide 1 evenly
        big = ContentLibrary.from_zipf(40, 0.5, 2)
        with pytest.raises(ValueError):
            grid_search_oracle(big, ref_cfg, step=0.02)

    def test_oracle_policy_feasible_and_consistent(self, ref_cfg):
        lib = ContentLibrary.from_zipf(4, 0.9, 2)
        pol, value = grid_search_oracle(lib, ref_cfg, step=0.05)
        assert validate_policy(pol, lib) == []
        assert value == pytest.approx(
            offloading_closed_form_k1(pol, lib, ref_cfg), rel=1e-12
        )

    def test_finer_grid_dominates_coarser_lattice(self, ref_cfg):
        # every coarse lattice point is also a fine lattice point, so the
        # fine optimum can never be worse
        lib = ContentLibrary.from_zipf(3, 0.7, 1)
        _, fine = grid_search_oracle(lib, ref_cfg, step=0.02)
        step = 0.1
        levels = np.arange(0, 11)
        best_coarse = -1.0
        for i in levels:
            for j in levels:
                k = 10 - i - j
                if 0 <= k <= 10:
                    c = np.array([i, j, k]) * step
                    val = offloading_closed_form_k1(CachingPolicy(c), lib, ref_cfg)
                    best_coarse = max(best_coarse, val)
        assert fine >= best_coarse - 1e-12


class TestConcavityReport:
    """Curvature of the k = 1 per-file gain: f'' changes sign only at
    _inflection_point, which lies in (0, 1) exactly when f is mixed."""

    def test_mixed_curvature_at_large_cluster_size(self):
        c_inflect = _inflection_point(8.0)
        assert 0.0 < c_inflect < 1.0
        before = np.linspace(0.0, c_inflect, 101)[:-1]
        after = np.linspace(c_inflect, 1.0, 101)[1:]
        assert np.all(_unit_marginal_prime(before, 8.0, Z_REF) < 0.0)
        assert np.all(_unit_marginal_prime(after, 8.0, Z_REF) > 0.0)

    def test_shared_exponential_matches_the_marginals(self):
        branch = optimizer._ConcaveBranch(8.0, Z_REF)
        c = np.linspace(0.0, 1.0, 1001)
        phi, prime, _ = branch._phi_and_prime(c)
        assert np.array_equal(phi, _unit_marginal(c, 8.0, Z_REF))
        assert np.array_equal(prime, _unit_marginal_prime(c, 8.0, Z_REF))

    def test_concave_at_small_cluster_size(self):
        assert _inflection_point(0.8) > 1.0
        assert np.all(_unit_marginal_prime(np.linspace(0.0, 1.0, 101), 0.8, Z_REF) < 0.0)
