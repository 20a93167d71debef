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
from scipy.optimize import brentq

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
    _key,
    _root,
    _unit_marginals,
    _value,
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
        got = 0.0538 * _unit_marginals(0.5, 8.0, 16.7913)[0]
        assert got == pytest.approx(MARGINAL_ROUNDED, rel=1e-12)

    def test_frozen_reference_inputs(self):
        got = Q1 * _unit_marginals(0.5, 8.0, Z_REF)[0]
        assert got == pytest.approx(MARGINAL_Q1, rel=1e-12)

    def test_upper_threshold_at_zero(self):
        # marginal at c=0 is 1 + n_bar / Z
        assert _unit_marginals(0.0, 8.0, Z_REF)[0] == pytest.approx(1.0 + 8.0 / Z_REF, rel=1e-13)

    def test_lower_threshold_at_one(self):
        # marginal at c=1 is 1 - n_bar e^{-n_bar} / Z
        assert _unit_marginals(1.0, 8.0, Z_REF)[0] == pytest.approx(
            1.0 - 8.0 * math.exp(-8.0) / Z_REF, rel=1e-13
        )

    def test_array_input(self):
        out = _unit_marginals(np.array([0.0, 0.5, 1.0]), 8.0, Z_REF)[0]
        assert out.shape == (3,)
        assert out[1] == _unit_marginals(0.5, 8.0, Z_REF)[0]


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
    """_root's reference: ulp bisection of the residual's sign, then the end
    of the last bracket with the smaller residual."""
    pair = float_bisect(lambda x: residual(x)[0] >= 0.0, lo, hi)
    return min(pair, key=lambda x: abs(residual(x)[0]))


def _brentq_root(residual, lo, hi, start=None, scale=1.0):
    """_root's second reference: brentq on the residual's value alone, to
    within 4 ulps."""
    return brentq(lambda x: residual(x)[0], lo, hi, xtol=1e-300,
                  rtol=4.0 * np.finfo(float).eps)


def _assert_matches(reference, lib, cfg):
    """solve_p1 with _root against solve_p1 with a reference root finder:
    policies and objectives within 1e-14, and multipliers within 1e-14
    relative wherever a file is interior (without one the multiplier is
    not unique)."""
    sol = solve_p1(lib, cfg)
    with mock.patch.object(optimizer, "_root", reference):
        ref = solve_p1(lib, cfg)
    assert np.max(np.abs(sol.policy.probs - ref.policy.probs)) <= 1e-14
    assert abs(sol.objective - ref.objective) <= 1e-14
    if "interior" in sol.diagnostics["labels"]:
        assert abs(sol.multiplier - ref.multiplier) <= 1e-14 * abs(ref.multiplier)
    return sol, ref


def _assert_sign_change(g, x, lo, hi):
    """g >= 0 two ulps below x and g <= 0 two ulps above it, within [lo, hi]."""
    k = _key(x)
    assert lo <= x <= hi
    assert g(_value(max(k - 2, _key(lo)))) >= 0.0 >= g(_value(min(k + 2, _key(hi))))


class TestMultiplierRoot:
    """_root finds the concave-branch multiplier that ulp bisection finds,
    and a root of every residual shape the solver can meet."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_instances())
    def test_solve_p1_matches_bisection(self, instance):
        _assert_matches(_bisected, *instance)

    @pytest.mark.parametrize("n_files", [5, 6])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_oracle_probe_shapes_match_bisection(self, ref_cfg, n_files, beta):
        _assert_matches(_bisected, ContentLibrary.from_zipf(n_files, beta, 2), ref_cfg)

    def test_large_library_matches_bisection(self, ref_cfg):
        _assert_matches(_bisected, ContentLibrary.from_zipf(10_000, 0.8, 50), ref_cfg)

    @staticmethod
    def _evaluations_per_root(lib, cfg):
        roots = []

        def counted(residual, lo, hi, start=None, scale=1.0):
            # the multiplier's root starts from a table estimate, the
            # convex branch's from the midpoint
            if start is not None:
                roots.append((lo, hi))
            return _root(residual, lo, hi, start, scale)

        with mock.patch.object(optimizer, "_root", counted):
            sol = solve_p1(lib, cfg)
        assert roots
        return sol.diagnostics["multiplier_evaluations"] / len(roots)

    def test_evaluations_per_root(self, ref_cfg, ref_library):
        # bracket checks included; 5.2 measured
        assert self._evaluations_per_root(ref_library, ref_cfg) <= 6

    def test_subnormal_popularities_keep_newton_steps(self, ref_cfg):
        # at Zipf 400 the popularities past rank 5 are subnormal, where the
        # slope dc/dv = 1 / (q phi') overflows; unscaled, the root takes 46
        lib = ContentLibrary.from_zipf(20, 400.0, 5)
        cfg = ref_cfg.with_(n_bar=2.0)
        assert 0.0 < lib.popularity[5] < np.finfo(float).tiny
        assert self._evaluations_per_root(lib, cfg) <= 16
        _assert_matches(_bisected, lib, cfg)

    @staticmethod
    def _check(g, lo, hi, slope):
        x = _root(lambda v: (g(v), slope(v)), lo, hi)
        _assert_sign_change(g, x, lo, hi)
        return x

    def test_subnormal_root(self):
        root = 5e-320
        assert self._check(lambda v: root - v, 0.0, 1.0, slope=lambda v: -1.0) == root

    def test_negative_root(self):
        # as at theta = 30 dB, where phi(c_b) < 0 and so can the multiplier be
        x = self._check(lambda v: -0.3 - v**3, -1.0, 1.0, slope=lambda v: -3.0 * v * v)
        assert x < 0.0

    def test_residual_flat_over_most_of_its_bracket(self):
        def g(v):
            return min(1.0, max(-1.0, 100.0 * (0.71 - v)))

        def slope(v):
            return -100.0 if abs(v - 0.71) < 0.01 else 0.0

        assert abs(self._check(g, 0.0, 1.0, slope=slope) - 0.71) < 1e-15

    def test_residual_zero_over_an_interval(self):
        def g(v):
            return 0.2 - v if v < 0.2 else 0.6 - v if v > 0.6 else 0.0

        def slope(v):
            return 0.0 if 0.2 <= v <= 0.6 else -1.0

        assert 0.2 <= self._check(g, 0.0, 1.0, slope=slope) <= 0.6

    @pytest.mark.parametrize("root", np.linspace(0.1, 0.9, 17))
    def test_rounding_noise_within_tol(self, root):
        # a residual that is non-increasing only up to +-1e-13 has many sign
        # changes near its root; whatever the start, the result lies within
        # the noise of the root
        evaluations = []

        def residual(v):
            evaluations.append(v)
            return root - v + (_key_hash(v) % 2001 - 1000) * 1e-16, -1.0

        for start in (None, root, root + 5e-14):
            evaluations.clear()
            assert abs(_root(residual, 0.0, 1.0, start) - root) <= 1e-13
            assert len(evaluations) <= 20


class TestConvexRoot:
    """_root against brentq, a second reference: solve_p1 as with brentq in
    its place, in fewer evaluations on both branches, and the root of a
    kinked convex-branch residual whatever its slope."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_instances())
    def test_solve_p1_matches_brentq(self, instance):
        _assert_matches(_brentq_root, *instance)

    @pytest.mark.parametrize("n_files", [5, 6])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_oracle_probe_shapes_match_brentq(self, ref_cfg, n_files, beta):
        _assert_matches(_brentq_root, ContentLibrary.from_zipf(n_files, beta, 2), ref_cfg)

    def test_fewer_evaluations_than_brentq(self, ref_cfg, ref_library):
        # both counts take in the bracket checks of every root
        sol, ref = _assert_matches(_brentq_root, ref_library, ref_cfg)
        for count in ("convex_evaluations", "multiplier_evaluations"):
            assert 0 < sol.diagnostics[count] < ref.diagnostics[count]

    def test_root_at_bracket_end_taken_from_the_check(self, ref_cfg):
        # at Zipf 400 with n_bar 2 one convex group's root is c_j = 1, the top
        # of its scan bracket, where the bracket check already finds R = 0;
        # refined from there instead, it took 43 of the solve's 45 evaluations
        lib = ContentLibrary.from_zipf(20, 400.0, 5)
        sol = solve_p1(lib, ref_cfg.with_(n_bar=2.0))
        assert sol.diagnostics["convex_evaluations"] <= 8

    @pytest.mark.parametrize("root", [0.3, 0.5 + 1e-13, 0.9])
    def test_kinked_and_flat_residuals(self, root):
        # a slope that is wrong, zero or negative still ends at the root
        def g(x):
            return -math.tanh(50.0 * (x - root))

        for slope in (1.0, 0.0, -1.0, 1e-300):
            x = _root(lambda x: (g(x), -slope), 0.0, 1.0)
            _assert_sign_change(g, x, 0.0, 1.0)
            assert abs(x - root) <= 2e-15


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

    def test_step_a_rounding_error_off_divides_into_the_same_levels(self, ref_cfg):
        # within the 1e-9 that the step check allows of 1/20: the levels are
        # i/20, so the top one is 1, not 1.00000000001
        lib = ContentLibrary.from_zipf(4, 1.0, 1)
        pol, value = grid_search_oracle(lib, ref_cfg, step=0.05 * (1 + 1e-11))
        exact_pol, exact_value = grid_search_oracle(lib, ref_cfg, step=0.05)
        assert pol.probs.tolist() == exact_pol.probs.tolist() and value == exact_value
        assert pol.probs.max() == 1.0


class TestConcavityReport:
    """Curvature of the k = 1 per-file gain: f'' changes sign only at
    _inflection_point, which lies in (0, 1) exactly when f is mixed."""

    def test_mixed_curvature_at_large_cluster_size(self):
        c_inflect = _inflection_point(8.0)
        assert 0.0 < c_inflect < 1.0
        before = np.linspace(0.0, c_inflect, 101)[:-1]
        after = np.linspace(c_inflect, 1.0, 101)[1:]
        assert np.all(_unit_marginals(before, 8.0, Z_REF)[1] < 0.0)
        assert np.all(_unit_marginals(after, 8.0, Z_REF)[1] > 0.0)

    def test_marginals_are_the_gain_derivatives(self):
        # f' and f'' from the one shared exponential match central
        # differences of _k1_gain and of f'
        c, h = np.linspace(0.01, 0.99, 99), 1e-6
        phi, prime = _unit_marginals(c, 8.0, Z_REF)
        gain_slope = (_k1_gain(c + h, 8.0, Z_REF) - _k1_gain(c - h, 8.0, Z_REF)) / (2 * h)
        phi_slope = (_unit_marginals(c + h, 8.0, Z_REF)[0]
                     - _unit_marginals(c - h, 8.0, Z_REF)[0]) / (2 * h)
        assert np.allclose(phi, gain_slope, rtol=0.0, atol=1e-8)
        assert np.allclose(prime, phi_slope, rtol=0.0, atol=1e-7)

    def test_shared_exponential_matches_the_marginals(self):
        # the branch's phi, its table and its Newton steps read _unit_marginals
        branch = optimizer._ConcaveBranch(8.0, Z_REF)
        c = np.linspace(0.0, 1.0, 1001)
        phi, prime = _unit_marginals(c, 8.0, Z_REF)
        got_phi, got_prime = branch.marginals(c)
        assert np.array_equal(got_phi, phi) and np.array_equal(got_prime, prime)
        assert np.array_equal(branch.phi(c), phi)
        assert np.array_equal(branch._phi_table, _unit_marginals(branch._c_table, 8.0, Z_REF)[0])

    def test_concave_at_small_cluster_size(self):
        assert _inflection_point(0.8) > 1.0
        assert np.all(_unit_marginals(np.linspace(0.0, 1.0, 101), 0.8, Z_REF)[1] < 0.0)
