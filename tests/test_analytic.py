"""Analytic layer: special functions, Laplace transforms, coverage, offloading.

Expected values marked as frozen oracles were computed independently before
the tests were written: arbitrary-precision formula evaluation (30 digits)
for closed forms, plain Monte Carlo with a recorded seed for integrals, and
scipy's adaptive quadrature on the raw integrand as a second route for the
cluster Laplace transform (the implementation integrates a reformulated
exponent on hand-built panels, so adaptive quadrature is an independent
path).
"""

import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.interpolate import make_interp_spline
from scipy.stats import qmc

from brute_force import far_exponent_2d
from d2dcache import analytic
from d2dcache.analytic import (
    CoverageResult,
    NumericalError,
    QuadratureSpec,
    _caterer_means,
    _eval_table,
    _exponent_exact,
    _ExponentLattice,
    _exponents_exact,
    _gamma_pair,
    _poisson_k_max,
    _rician_pdf,
    compute_Z,
    coverage_content,
    laplace_exact,
    laplace_fn_exact,
    laplace_ppp_bound,
    offloading_closed_form_k1,
    offloading_gain,
    zeta_kernel,
)
from d2dcache.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_zipf_proportional,
)
from d2dcache.simulator import (
    _as_generator,
    _caterer_t,
    _far_field,
    default_sim_radius,
)

QUAD = QuadratureSpec()

# Frozen oracles (30-digit arbitrary-precision evaluation).
Z_REF = 16.791367041742974        # Z at the reference scenario; equals 1.6 pi^2 + 1
INV_Z_REF = 0.059554412545090684  # single-caterer bound coverage 1/Z
TOY_OFFLOAD_HALF = 0.50218155422881316  # c=0.5 everywhere, n_bar=8, Z = Z_REF

# Frozen Monte Carlo oracle for the SIR kernel averaged over a Rician
# distance: v=100 m, t_gamma=1e8 m^4, sigma=50 m, alpha=4; 4e6 draws with
# numpy default_rng(20260822) gave mean 0.449131 with s.e. 1.49e-4.
ZETA_MC_MEAN = 0.44913133619858453
ZETA_MC_BAND = 6.0e-4  # four standard errors

# Frozen values of the exact transform from the earlier implementation,
# which built a separate outer grid for every t_gamma (commit c060531),
# at the reference scenario. Laplace values at t_gamma = theta * (1e-3, 1,
# 1e3) for sigma = 50 and 100 m; there every truncation radius is the
# t-independent floor, so the shared outer grid must reproduce them exactly.
LAPLACE_FLOOR_FROZEN = {
    50.0: (0.9999500655516775, 0.9984230983458224, 0.9521950451071829),
    100.0: (0.9999500648076292, 0.9984223570135828, 0.9515228335347304),
}
# Exponents -ln L at t_gamma = 1e-2, 1e0, ..., 1e14 per path-loss exponent;
# the larger t_gamma reach beyond the floor, where the shared grid differs.
EXPONENT_T_GRID = 10.0 ** np.arange(-2, 15, 2)
EXPONENT_FROZEN = {
    2.5: (0.00010797023054540923, 0.0042927767269004494, 0.16533921002681423,
          5.195416057154476, 188.80019649554623, 7493.458343556485,
          298297.07704358187, 11875397.658472218, 472768073.22701806),
    3.0: (0.00011284312962445484, 0.002428957885485178, 0.051441484815364216,
          0.9085769459076635, 13.760361854282788, 282.49543581905823,
          6071.66766971552, 130795.5852838379, 2817890.9323602305),
    4.0: (0.000157903750470596, 0.0015781462721899226, 0.01569361109098493,
          0.14908012893091507, 1.09702376332427, 6.962473360369126,
          61.85223366058342, 610.0987403722037, 6092.5063769814005),
}


class TestGammaFunction:
    """The product Gamma(1 + 2/alpha) Gamma(1 - 2/alpha) behind the bound."""

    def test_matches_reference_values(self):
        # Gamma(3/2) Gamma(1/2) = pi/2; Gamma(5/3) Gamma(1/3) = (2 pi/3) / sin(pi/3)
        assert _gamma_pair(4.0) == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert _gamma_pair(3.0) == pytest.approx(
            2.0 * math.pi / 3.0 / math.sin(math.pi / 3.0), rel=1e-14)


class TestRicianPdf:
    def test_normalizes_to_one(self):
        # QUADPACK is the oracle here; the pdf itself has no closed integral
        for v in (0.1, 30.0, 200.0):
            total, err = integrate.quad(
                _rician_pdf, 0, np.inf, args=(v, 50.0), limit=200
            )
            assert total == pytest.approx(1.0, abs=max(1e-8, 4 * err))

    def test_vanishes_at_origin(self):
        assert _rician_pdf(0.0, 10.0, 50.0) == 0.0

    def test_large_offset_concentrates_near_v(self):
        # for v >> sigma the density approaches a Gaussian ridge at u = v
        u = np.linspace(900, 1100, 2001)
        pdf = _rician_pdf(u, 1000.0, 10.0)
        assert abs(u[np.argmax(pdf)] - 1000.0) < 5.0

    def test_vectorized(self):
        u = np.array([10.0, 50.0, 90.0])
        out = _rician_pdf(u, 40.0, 30.0)
        assert out.shape == (3,) and np.all(out > 0)


class TestZetaKernel:
    def test_bounded_in_unit_interval(self, ref_cfg):
        for v, tg in [(0.0, 1.0), (50.0, 1e4), (500.0, 1e10)]:
            z = zeta_kernel(v, tg, ref_cfg, QUAD)
            assert 0.0 < z < 1.0

    def test_saturates_for_large_threshold(self, ref_cfg):
        assert zeta_kernel(30.0, 1e16, ref_cfg, QUAD) > 0.999

    def test_vanishes_for_small_threshold(self, ref_cfg):
        assert zeta_kernel(30.0, 1e-6, ref_cfg, QUAD) < 1e-3

    def test_monte_carlo_oracle(self, ref_cfg):
        z = zeta_kernel(100.0, 1e8, ref_cfg, QUAD)
        assert z == pytest.approx(ZETA_MC_MEAN, abs=ZETA_MC_BAND)

    @pytest.mark.parametrize("t_gamma", [math.nan, -1.0])
    def test_nan_or_negative_threshold_rejected(self, ref_cfg, t_gamma):
        # NaN failed the quadrature check and raised NumericalError
        with pytest.raises(ValueError, match="t_gamma must be >= 0"):
            zeta_kernel(30.0, t_gamma, ref_cfg, QUAD)

    @pytest.mark.parametrize("t_gamma", [1e-3, 1.0, 1e4, 1e8])
    def test_array_equals_scalar_calls(self, ref_cfg, t_gamma):
        v = np.array([0.0, 10.0, 50.0, 120.0, 400.0, 2000.0, 1e4])
        z = zeta_kernel(v, t_gamma, ref_cfg, QUAD)
        assert isinstance(z, np.ndarray) and z.shape == v.shape
        assert np.array_equal(z, [zeta_kernel(float(x), t_gamma, ref_cfg, QUAD) for x in v])

    def test_zero_threshold_gives_zero_mass(self, ref_cfg):
        z = zeta_kernel(np.array([0.0, 30.0, 500.0]), 0.0, ref_cfg, QUAD)
        assert isinstance(z, np.ndarray) and np.array_equal(z, np.zeros(3))
        scalar = zeta_kernel(30.0, 0.0, ref_cfg, QUAD)
        assert scalar == 0.0 and type(scalar) is float


def _naive_laplace(t_gamma, cfg):
    """Second route: adaptive Gauss-Kronrod on the unrearranged double integral.

    scipy's quad_vec integrates vector-valued functions, so every t_gamma
    of the array shares one adaptive outer integral over v and one inner
    integral over u per v. The inner integrand is a Rician ridge of width
    ~sigma at u = v, so the inner window is centered there; the outer
    integrand has a slow v**-3 tail that the split at 2 km plus an open
    upper limit captures. Both integrals must report convergence.
    """
    t = np.asarray(t_gamma, dtype=float)

    def quad_vec(f, a, b, epsabs):
        value, _, info = integrate.quad_vec(f, a, b, epsabs=epsabs, epsrel=1e-10,
                                            norm="max", full_output=True)
        assert info.success, info.message
        return value

    def zeta(v):
        return quad_vec(
            lambda u: t / (u**cfg.alpha + t) * _rician_pdf(u, v, cfg.sigma),
            max(0.0, v - 12 * cfg.sigma), v + 12 * cfg.sigma, epsabs=1e-14,
        )

    def outer_integrand(v):
        return -np.expm1(-cfg.n_bar * zeta(v)) * v

    head = quad_vec(outer_integrand, 0, 2000, epsabs=0.0)
    tail = quad_vec(outer_integrand, 2000, np.inf, epsabs=0.0)
    return np.exp(-2.0 * math.pi * cfg.lambda_p * (head + tail))


class TestLaplaceTransforms:
    def test_monotone_decreasing(self, ref_cfg):
        grid = np.logspace(-2, 10, 25)
        vals = [laplace_exact(t, ref_cfg, QUAD) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_dual_route_agreement(self, ref_cfg):
        t = np.array([1e5, 1e6, 3e7])
        naive = _naive_laplace(t, ref_cfg)
        for tg, expected in zip(t, naive):
            assert laplace_exact(float(tg), ref_cfg, QUAD) == pytest.approx(expected, rel=1e-7)

    def test_ppp_bound_closed_form(self, ref_cfg):
        tg = 2.5e6
        expected = math.exp(
            -math.pi * ref_cfg.n_bar * ref_cfg.lambda_p * math.sqrt(tg)
            * math.gamma(1.5) * math.gamma(0.5)
        )
        assert laplace_ppp_bound(tg, ref_cfg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t_gamma", [math.nan, np.array([1.0, math.nan]), -1.0])
    def test_nan_or_negative_rejected(self, ref_cfg, t_gamma):
        # laplace_exact(nan) returned 1.0, and laplace_ppp_bound(nan) nan
        with pytest.raises(ValueError, match="t_gamma must be >= 0"):
            laplace_exact(t_gamma, ref_cfg, QUAD)
        with pytest.raises(ValueError, match="t_gamma must be >= 0"):
            laplace_ppp_bound(t_gamma, ref_cfg)

    def test_bound_below_exact(self, ref_cfg):
        for tg in np.logspace(-1, 9, 12):
            assert laplace_ppp_bound(tg, ref_cfg) <= laplace_exact(tg, ref_cfg, QUAD)

    def test_empirical_interference_oracle(self, ref_cfg):
        # independent interference sampler: parents in a disc, Gaussian
        # members, unit-mean exponential fading, distance**-alpha path loss
        rng = np.random.default_rng(1234)
        r_sim = 20.0 / math.sqrt(math.pi * ref_cfg.lambda_p) + 10 * ref_cfg.sigma
        n_rel = 4000
        n_par = rng.poisson(ref_cfg.lambda_p * math.pi * r_sim**2, n_rel)
        t_par = np.repeat(np.arange(n_rel), n_par)
        total_par = int(n_par.sum())
        radii = r_sim * np.sqrt(rng.random(total_par))
        ang = rng.uniform(0, 2 * math.pi, total_par)
        centers = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
        counts = rng.poisson(ref_cfg.n_bar, total_par)
        pos = np.repeat(centers, counts, axis=0) + rng.normal(
            0, ref_cfg.sigma, (int(counts.sum()), 2)
        )
        d_sq = (pos**2).sum(axis=1)
        g = rng.standard_exponential(d_sq.size)
        t_mem = np.repeat(t_par, counts)
        interference = np.bincount(
            t_mem, weights=g * d_sq ** (-ref_cfg.alpha / 2), minlength=n_rel
        )
        for tg in (1e6, 1e8):
            emp = np.exp(-tg * interference)
            sem = emp.std(ddof=1) / math.sqrt(n_rel)
            assert laplace_exact(tg, ref_cfg, QUAD) == pytest.approx(
                emp.mean(), abs=5 * sem + 1e-4
            )


def point_cluster_exponent(t_gamma, cfg):
    """The exact exponent's limit as sigma -> 0 at fixed t_gamma, where each
    member sits at its cluster's center:
    E0 = 2 pi lambda_p * integral over v of (1 - exp(-x)) v dv, with
    x = n_bar t / (t + v^alpha). It is a 1-D integral with no Rician
    density: the integral of x v, in closed form
    n_bar t^(2/alpha) (pi/alpha) / sin(2 pi/alpha), minus that of
    x - 1 + exp(-x), which decays like v^(1 - 2 alpha), by adaptive
    quadrature in u = v / t^(1/alpha)."""
    alpha, n_bar = cfg.alpha, cfg.n_bar
    mean = n_bar * t_gamma ** (2 / alpha) * (math.pi / alpha) / math.sin(2 * math.pi / alpha)

    def excess(u):
        x = n_bar / (1.0 + u**alpha)
        return (x + math.expm1(-x)) * u

    pieces = ((0.0, 1.0), (1.0, 4.0), (4.0, np.inf))
    rest = sum(integrate.quad(excess, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in pieces)
    return 2 * math.pi * cfg.lambda_p * (mean - t_gamma ** (2 / alpha) * rest)


class TestPointClusterLimit:
    """The exact exponent against its point-cluster limit, an independent
    closed form across alpha (point_cluster_exponent). Its gap to the limit
    is a series in (sigma / r_t)^2, r_t = t^(1/alpha), so Richardson's
    (4 E(sigma/2) - E(sigma)) / 3 cancels the sigma^2 term. The
    extrapolation's error estimate is the size of the term it cancelled at
    sigma/2, |limit - E(sigma/2)|; the tolerance adds the reported errors,
    propagated through the same weights. A Rician density scaled by
    1 + 1e-4 moves the limit by 6e-5 to 3e-4 of itself, 7 to 2500 times
    this tolerance; without it the gap stays under 0.004 of the tolerance."""

    @pytest.mark.parametrize("ratio", [100, 300, 1000])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("route", ["laplace_exact", "table"])
    def test_richardson_limit_matches_point_clusters(self, route, alpha, ratio):
        # t_gamma halfway between lattice nodes, where the table route
        # interpolates, with r_t near 60 m; sigma = r_t / ratio and half that
        j = round(8 * alpha * math.log10(60.0))
        t_gamma = 10.0 ** ((j + 0.5) / 8)
        r_t = t_gamma ** (1 / alpha)
        exponents, errors = [], []
        for sigma in (r_t / ratio, r_t / (2 * ratio)):
            cfg = NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=sigma, alpha=alpha,
                                theta=1.0)
            if route == "laplace_exact":
                value = laplace_exact(t_gamma, cfg, QUAD)
                errors.append(_exponent_exact(t_gamma, cfg, QUAD)[1])
            else:
                value = laplace_fn_exact(cfg, QUAD, (t_gamma, t_gamma))(t_gamma)
                errors.append(max(analytic._lattice(cfg, QUAD).table(t_gamma, t_gamma)[2]))
            exponents.append(-math.log(value))
        coarse, fine = exponents
        limit = (4 * fine - coarse) / 3
        tolerance = (errors[0] + 4 * errors[1]) / 3 + abs(limit - fine)
        assert abs(limit - point_cluster_exponent(t_gamma, cfg)) <= tolerance


class TestSharedOuterGrid:
    def test_array_matches_scalar_calls_bitwise(self, ref_cfg):
        t = np.concatenate([[0.0], np.logspace(-3, 12, 11)])
        batched = laplace_exact(t, ref_cfg, QUAD)
        assert batched.tolist() == [laplace_exact(float(x), ref_cfg, QUAD) for x in t]
        exponents, errors = _exponents_exact(t[1:], ref_cfg, QUAD)
        singles = [_exponent_exact(float(x), ref_cfg, QUAD) for x in t[1:]]
        assert list(zip(exponents.tolist(), errors.tolist())) == singles

    @pytest.mark.parametrize("sigma", sorted(LAPLACE_FLOOR_FROZEN))
    def test_floor_values_frozen_exactly(self, ref_cfg, sigma):
        cfg = ref_cfg.with_(sigma=sigma)
        got = laplace_exact(cfg.theta * np.array([1e-3, 1.0, 1e3]), cfg, QUAD)
        assert tuple(got.tolist()) == LAPLACE_FLOOR_FROZEN[sigma]

    @pytest.mark.parametrize("alpha", sorted(EXPONENT_FROZEN))
    def test_beyond_floor_within_reported_error(self, ref_cfg, alpha):
        cfg = ref_cfg.with_(alpha=alpha)
        exponents, errors = _exponents_exact(EXPONENT_T_GRID, cfg, QUAD)
        frozen = np.array(EXPONENT_FROZEN[alpha])
        assert np.all(np.abs(exponents - frozen) <= errors)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_far_exponent_matches_campbell_integral(self, ref_cfg, alpha):
        # clusters centered beyond r0, to first order in n_bar*zeta (which
        # is below 1e-6 here): 2 pi lambda n_bar * integral of the SIR kernel
        # k(u) times Q(u) u du, Q(u) the probability that a member at
        # distance u has its center beyond r0 (a noncentral chi-square
        # survival function); QUADPACK up to `upper`, a convergent series beyond
        cfg = ref_cfg.with_(alpha=alpha)
        r0, s2 = 400.0, cfg.sigma**2
        t_grid = np.array([0.1, 1.0])
        far, errors = _exponents_exact(t_grid, cfg, QUAD, v_inner=r0)
        upper = r0 + 12 * cfg.sigma
        for t, got, err in zip(t_grid, far, errors):
            def integrand(u):
                q = stats.ncx2.sf(r0**2 / s2, 2, u**2 / s2)
                return t / (u**alpha + t) * q * u

            head, _ = integrate.quad(integrand, 0.0, upper, points=[r0], limit=200,
                                     epsabs=0.0, epsrel=1e-12)
            x = t * upper**-alpha
            tail = sum((-x) ** n * t * upper ** (2 - alpha) / (alpha * (n + 1) - 2)
                       for n in range(8))
            expected = 2 * math.pi * cfg.lambda_p * cfg.n_bar * (head + tail)
            assert err <= 1e-6
            assert got == pytest.approx(expected, rel=1e-7)


class TestFarExponent:
    """The far-field exponent F (v_inner > 0), built from r0 outward with a
    one-dimensional near-disc term, against the two-dimensional near-disc
    quadrature it replaced (brute_force.far_exponent_2d)."""

    @staticmethod
    def radius(cfg, which):
        r0 = default_sim_radius(cfg)
        return {"sigma": cfg.sigma, "default": r0, "triple": 3.0 * r0}[which]

    def test_marcum_function_matches_ncx2(self):
        for b in np.linspace(1.0, 60.0, 60):
            a = np.linspace(0.0, b + 13.0, 1000)
            assert np.max(np.abs(analytic._marcum_q1(a, b)
                                 - stats.ncx2.sf(b**2, 2, a**2))) <= 1e-14

    @pytest.mark.parametrize("which", ["sigma", "default", "triple"])
    def test_near_disc_rows_match_ncx2(self, ref_cfg, which):
        r0 = self.radius(ref_cfg, which)

        def rows():
            return [row for _, _, row in analytic._OuterGrid(ref_cfg, QUAD, r0)._near]

        got = rows()
        with mock.patch.object(analytic, "_marcum_q1", lambda a, b: np.ones_like(a)):
            weights = rows()  # the Gauss weight times r of every node
        with mock.patch.object(analytic, "_marcum_q1",
                               lambda a, b: stats.ncx2.sf(b**2, 2, a**2)):
            reference = rows()
        for row, weight, ref in zip(got, weights, reference):
            assert np.all(np.abs(row - ref) <= 1e-14 * weight)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("which", ["sigma", "default", "triple"])
    def test_matches_two_dimensional_quadrature(self, ref_cfg, alpha, which):
        cfg = ref_cfg.with_(alpha=alpha)
        r0 = self.radius(cfg, which)
        t_grid = 10.0 ** np.arange(-8.0, 13.0)  # 20 decades
        far, errors = _exponents_exact(t_grid, cfg, QUAD, v_inner=r0)
        for t, got, err in zip(t_grid, far, errors):
            expected, expected_err = far_exponent_2d(t, cfg, QUAD, r0)
            # the reference subtracts the near mean from the closed-form
            # term, so it carries a few ulps of that term besides its estimate
            rounding = 4.0 * np.finfo(float).eps * analytic._exponent_ppp(t, cfg)
            assert abs(got - expected) <= err + expected_err + rounding, t

    def test_gauss_orders(self, ref_cfg):
        # fine and coarse orders: the exact route (16, 8), the far field's
        # 2-D correction (10, 8), inner u template included, and its 1-D
        # near-disc rows (16, 8)
        exact = analytic._OuterGrid(ref_cfg, QUAD)
        far = analytic._OuterGrid(ref_cfg, QUAD, default_sim_radius(ref_cfg))
        template_panels = analytic._U_TEMPLATE_EDGES.size - 1
        for grid, orders in ((exact, [16, 8]), (far, [10, 8])):
            assert [order for order, *_ in grid._rules] == orders
            assert [rows._u_alpha.shape[1] for *_, rows in grid._rules] == [
                template_panels * order for order in orders]
        assert exact._near is None
        assert [order for order, *_ in far._near] == [16, 8]

    def test_gauss_rules_computed_once_per_order(self, ref_cfg, monkeypatch):
        # every rule is numpy's own, read-only, and leggauss runs once per
        # order however many grids read it
        calls = []

        def counted(order):
            calls.append(order)
            return np.polynomial.legendre.leggauss(order)

        monkeypatch.setattr(analytic, "leggauss", counted)
        analytic._gauss_legendre.cache_clear()
        try:
            for v_inner in (0.0, default_sim_radius(ref_cfg), 0.0):
                analytic._OuterGrid(ref_cfg, QUAD, v_inner)
            assert sorted(calls) == sorted(set(calls)) and {8, 10, 16} <= set(calls)
            for order in set(calls):
                x, w = analytic._gauss_legendre(order)
                assert _hexes(x, w) == _hexes(*np.polynomial.legendre.leggauss(order))
                assert not (x.flags.writeable or w.flags.writeable)
        finally:
            analytic._gauss_legendre.cache_clear()

    @pytest.mark.parametrize("scenario", [{}, {"alpha": 3.0}, {"alpha": 2.5},
                                          {"sigma": 10.0, "n_bar": 20.0}],
                             ids=["reference", "alpha3", "alpha2.5", "sigma10-nbar20"])
    @pytest.mark.parametrize("which", ["default", "sigma"])
    def test_correction_order_within_reported_error(self, ref_cfg, monkeypatch, scenario,
                                                    which):
        # every lattice node over t = 1e-8..1e12 lies within its reported
        # error of the same node with the correction at fine order 16. F is
        # the leading term minus the correction, both of e_ppp's size at
        # large t, so the two sums round apart by a few ulps of e_ppp
        # (5.9 measured at alpha 2.5, t = 4.2e11)
        cfg = ref_cfg.with_(**scenario)
        r0 = self.radius(cfg, which)
        t_max = analytic._lattice_t(96)
        grid = analytic._OuterGrid(cfg, QUAD, r0, t_max)
        monkeypatch.setattr(analytic, "_ORDER_FAR_FINE", 16)
        reference = analytic._OuterGrid(cfg, QUAD, r0, t_max)
        for t in (analytic._lattice_t(j) for j in range(-64, 97)):
            (got, err), (expected, _) = grid.exponent(t), reference.exponent(t)
            rounding = 8.0 * np.finfo(float).eps * analytic._exponent_ppp(t, cfg)
            assert abs(got - expected) <= err + rounding, t

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_linear_at_small_t(self, ref_cfg, alpha):
        # at three times the default radius no far member comes near the
        # origin (Q_1(0, r0 / sigma) underflows) and t r0^-alpha < 1e-13, so
        # F is linear in t to far below 1e-12; the two-dimensional form is
        # off by factors of 1e3 to 1e11 here, its near mean cancelling the
        # closed-form term. (At the default radius F/t is not flat: far
        # members near the origin add a t^(2/alpha) term.)
        cfg = ref_cfg.with_(alpha=alpha)
        t_grid = 10.0 ** np.arange(-12.0, -5.9, 0.5)
        far, _ = _exponents_exact(t_grid, cfg, QUAD, v_inner=self.radius(cfg, "triple"))
        slope = far / t_grid
        assert np.max(np.abs(slope / slope[-1] - 1.0)) <= 1e-12


class TestExponentTable:
    """The quintic exponent table behind exact coverage (laplace_fn_exact)
    and the simulator's far field, against direct _exponents_exact."""

    T_RANGE = (1e-4, 1e9)  # 13 decades; the table pads each end

    # the far field's scenarios: the reference at three path losses, tight
    # dense clusters, and wide clusters of dense parents at alpha 6
    FAR_SCENARIOS = {
        "alpha2.5": {"alpha": 2.5},
        "alpha4": {},
        "alpha6": {"alpha": 6.0},
        "sigma10": {"sigma": 10.0, "n_bar": 20.0},
        "sigma200": {"sigma": 200.0, "lambda_p": 200e-6, "n_bar": 20.0, "alpha": 6.0},
    }

    def views(self, cfg):
        """(laplace view, far view, far-field radius, exact table nodes) over
        T_RANGE."""
        r0 = default_sim_radius(cfg)
        _, t_nodes, _ = _ExponentLattice(cfg, QUAD).table(*self.T_RANGE)
        laplace = laplace_fn_exact(cfg, QUAD, self.T_RANGE)
        far, _ = self.far_view(cfg, r0, self.T_RANGE)
        return laplace, far, r0, t_nodes

    @staticmethod
    def far_view(cfg, r0, t_range):
        """(far view, its own table's nodes) over t_range."""
        lattice = analytic._lattice(cfg, QUAD, r0)
        far = _far_field(np.array(t_range), lattice)
        _, t_nodes, _ = lattice.table(*t_range)
        return far, t_nodes

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_views_match_direct_transform_between_nodes(self, ref_cfg, alpha):
        cfg = ref_cfg.with_(alpha=alpha)
        laplace, far, r0, t_nodes = self.views(cfg)
        x = np.log(t_nodes)
        # a quarter, half and three quarters of the way through every interval
        t = np.exp((x[:-1, None] + np.diff(x)[:, None] * [0.25, 0.5, 0.75]).ravel())
        assert t.size >= 200 and t.max() / t.min() >= 1e12
        direct_e, _ = _exponents_exact(t, cfg, QUAD)
        direct_f, _ = _exponents_exact(t, cfg, QUAD, v_inner=r0)
        assert np.max(np.abs(laplace(t) - np.exp(-direct_e))) <= 1e-9
        assert np.max(np.abs(np.exp(-far(t)) - np.exp(-direct_f))) <= 1e-7

    @pytest.mark.parametrize("scenario", sorted(FAR_SCENARIOS))
    @pytest.mark.parametrize("radius", ["default", "sigma"])
    def test_far_view_matches_direct_exponent_between_nodes(self, ref_cfg, scenario, radius):
        cfg = ref_cfg.with_(**self.FAR_SCENARIOS[scenario])
        r0 = default_sim_radius(cfg) if radius == "default" else cfg.sigma
        t_range = self.T_RANGE
        if (scenario, radius) == ("sigma200", "sigma"):
            # nodes from 1e9 up report errors over _FAR_MAX_ERROR (the inner
            # u template misses the kernel's knee there), so the view
            # refuses that range
            t_range = (1e-4, 1e8)
        far, t_nodes = self.far_view(cfg, r0, t_range)
        # a quarter, half and three quarters of the way through every interval
        # of the far table's own nodes, its extra end nodes among them
        x = np.log(t_nodes)
        t = np.exp((x[:-1, None] + np.diff(x)[:, None] * [0.25, 0.5, 0.75]).ravel())
        direct_f, _ = _exponents_exact(t, cfg, QUAD, v_inner=r0)
        assert np.max(np.abs(np.exp(-far(t)) - np.exp(-direct_f))) <= 1e-7

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_views_reproduce_node_values(self, ref_cfg, alpha):
        cfg = ref_cfg.with_(alpha=alpha)
        laplace, _, r0, t_nodes = self.views(cfg)
        far, far_nodes = self.far_view(cfg, r0, self.T_RANGE)
        node_e, _ = _exponents_exact(t_nodes, cfg, QUAD)
        node_f, _ = _exponents_exact(far_nodes, cfg, QUAD, v_inner=r0)
        # rounding of the tabulated ln E moves L by E times as much, relatively;
        # beyond E = 700, L is subnormal or 0 and keeps fewer digits
        normal = node_e < 700.0
        lap, exact = laplace(t_nodes[normal]), np.exp(-node_e[normal])
        assert np.all(np.abs(lap / exact - 1.0) <= 1e-14 * (1.0 + node_e[normal]))
        assert far(far_nodes) == pytest.approx(node_f, rel=1e-12, abs=1e-15)

    def test_laplace_view_refuses_t_outside_table(self, ref_cfg):
        laplace, _, _, t_nodes = self.views(ref_cfg)
        laplace(t_nodes[[0, -1]])
        assert laplace(np.array([0.0, t_nodes[0]]))[0] == 1.0
        for t in (t_nodes[0] * 0.999, t_nodes[-1] * 1.001):
            with pytest.raises(ValueError):
                laplace(np.array([t]))
            with pytest.raises(ValueError):
                laplace(t)

    @pytest.mark.parametrize("t", [math.nan, -1.0, np.array([1.0, 0.0, math.nan]),
                                   np.array([-1.0, 1.0])])
    def test_laplace_view_refuses_nan_or_negative_t(self, ref_cfg, t):
        # it read both as t = 0 and returned 1.0
        laplace, _, _, _ = self.views(ref_cfg)
        with pytest.raises(ValueError, match="t_gamma must be >= 0"):
            laplace(t)
        assert laplace(0.0) == 1.0

    def test_laplace_non_increasing_inside_table(self, ref_cfg):
        laplace, _, _, t_nodes = self.views(ref_cfg)
        t = np.geomspace(t_nodes[0], t_nodes[-1], 20_001)
        assert np.all(np.diff(laplace(t)) <= 0.0)

    def test_far_view_refuses_t_outside_table(self, ref_cfg):
        far, t_nodes = self.far_view(ref_cfg, default_sim_radius(ref_cfg), self.T_RANGE)
        far(t_nodes[[0, -1]])
        for t in (t_nodes[0] * 0.999, t_nodes[-1] * 1.001):
            with pytest.raises(ValueError):
                far(np.array([t]))

    @pytest.mark.parametrize("value", [0.0, -1e-300])
    def test_far_view_refuses_non_positive_node(self, ref_cfg, monkeypatch, value):
        # ln F needs F > 0 at every node: t = 1 (lattice node 0) is patched
        exponent = analytic._OuterGrid.exponent

        def patched(grid, t, *args):
            got, error = exponent(grid, t, *args)
            return (value, error) if t == 1.0 else (got, error)

        monkeypatch.setattr(analytic._OuterGrid, "exponent", patched)
        with pytest.raises(NumericalError, match="non-positive") as raised:
            _far_field(np.array([1e-2, 1e4]),
                       analytic._lattice(ref_cfg, QUAD, default_sim_radius(ref_cfg)))
        assert raised.value.diagnostics == {"t_gamma": 1.0, "exponent": value}


class TestExponentLattice:
    """Node values held by lattice index serve any later window unchanged."""

    @staticmethod
    def snapshot(lattice, window):
        (x, coef), t_nodes, errors = lattice.table(*window)
        return dict(lattice._nodes), x, coef, t_nodes, errors

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("inner", ["none", "far"])
    def test_grown_in_two_steps_equals_one_batch(self, ref_cfg, alpha, inner):
        cfg = ref_cfg.with_(alpha=alpha)
        v_inner = 0.0 if inner == "none" else default_sim_radius(cfg)
        full = (1e-3, 1e6)
        grown = _ExponentLattice(cfg, QUAD, v_inner)
        grown.table(1.0, 1e3)
        grown.table(1e-3, 1e3)  # down
        grown = self.snapshot(grown, full)  # and up
        once = self.snapshot(_ExponentLattice(cfg, QUAD, v_inner), full)
        assert grown[0] == once[0]
        for a, b in zip(grown[1:], once[1:]):
            assert np.array_equal(a, b)
        # a node computed alone has its batched value too
        j, (exponent, error) = sorted(once[0].items())[len(once[0]) // 2]
        alone = _exponents_exact(np.array([analytic._lattice_t(j)]), cfg, QUAD, v_inner)
        assert (alone[0][0], alone[1][0]) == (exponent, error)

    def test_only_missing_nodes_computed(self, ref_cfg, monkeypatch):
        batches = []

        def counted(t_gamma, *args):
            batches.append(len(t_gamma))
            return _exponents_exact(t_gamma, *args)

        monkeypatch.setattr(analytic, "_exponents_exact", counted)
        lattice = _ExponentLattice(ref_cfg, QUAD)
        _, wide, _ = lattice.table(1e-2, 1e4)
        lattice.table(1.0, 10.0)
        _, above, _ = lattice.table(1.0, 1e5)
        assert batches == [wide.size, np.setdiff1d(above, wide).size]

    def test_memo_keyed_by_what_the_exponent_reads(self, ref_cfg):
        lattice = analytic._lattice(ref_cfg, QUAD)
        # neither the threshold nor the transmit power enters the exponent
        assert analytic._lattice(ref_cfg.with_(theta=4.0, gamma_d=3.0), QUAD) is lattice
        others = [analytic._lattice(ref_cfg.with_(**{name: value}), QUAD)
                  for name, value in (("lambda_p", 20e-6), ("n_bar", 4.0),
                                      ("sigma", 40.0), ("alpha", 3.0))]
        others += [analytic._lattice(ref_cfg, QuadratureSpec(rel_tol=1e-9)),
                   analytic._lattice(ref_cfg, QuadratureSpec(abs_tol=1e-13)),
                   analytic._lattice(ref_cfg, QuadratureSpec(v_max_sigma_mult=9.0)),
                   analytic._lattice(ref_cfg, QUAD, default_sim_radius(ref_cfg))]
        assert len({id(other) for other in [lattice, *others]}) == 9
        # nor do the QMC fields, which only the coverage estimator reads
        for name, value in (("qmc_seed", 1), ("mc_integration_samples", 1000),
                            ("k_max_tail_mass", 1e-6)):
            assert analytic._lattice(ref_cfg, QuadratureSpec(**{name: value})) is lattice
        # bounded, and an entry holds node values, not a quadrature grid
        assert analytic._lattices.cache_info().maxsize == 64
        lattice.table(1e-2, 1e4)
        assert set(vars(lattice)) == {"cfg", "quad", "v_inner", "_nodes"}

    def test_threads_share_one_lattice(self, ref_cfg):
        # more threads than cores, switching often, on overlapping windows of
        # the memo's lattice: two threads that lack a node may both compute
        # it, with one value, so every table equals that of a fresh lattice
        r0 = default_sim_radius(ref_cfg)
        windows = [(10.0**lo, 10.0 ** (lo + 3)) for lo in range(-4, 4)]
        expected = [_ExponentLattice(ref_cfg, QUAD, r0).table(*w) for w in windows]
        lattice = analytic._lattice(ref_cfg, QUAD, r0)
        todo = iter((np.random.default_rng(5).permutation(2 * len(windows))
                     % len(windows)).tolist())
        got = []

        def work():
            for i in todo:
                got.append((i, lattice.table(*windows[i])))

        # daemon threads, so that a deadlock fails the test, not the run
        threads = [threading.Thread(target=work, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(i for i, _ in got) == sorted(2 * list(range(len(windows))))
        for i, (table, t_nodes, errors) in got:
            expected_table, nodes, node_errors = expected[i]
            assert (_hexes(*table, t_nodes, errors)
                    == _hexes(*expected_table, nodes, node_errors))

    @pytest.mark.parametrize("inner", ["none", "far"])
    def test_grid_refuses_t_beyond_its_radius(self, ref_cfg, inner):
        # a grid built for t_max integrates every t up to it, on a prefix of
        # its panels, and refuses a t whose truncation radius lies further out
        v_inner = 0.0 if inner == "none" else default_sim_radius(ref_cfg)
        grid = analytic._OuterGrid(ref_cfg, QUAD, v_inner, 1e6)
        below = [analytic._lattice_t(j) for j in (-8, 0, 24, 48)]
        assert [grid.exponent(t) for t in below] == [
            analytic._OuterGrid(ref_cfg, QUAD, v_inner, t).exponent(t) for t in below]
        assert grid.truncation(1e12)[2] > grid.truncation(1e6)[2]
        with pytest.raises(ValueError, match="truncation radius beyond"):
            grid.exponent(1e12)

    @pytest.mark.parametrize("window", [(0.3, 0.3), (2e-3, 7e4), (1.0, 10.0)])
    def test_window_rounded_out_to_lattice(self, ref_cfg, window):
        lattice = _ExponentLattice(ref_cfg, QUAD)
        _, t_nodes, _ = lattice.table(*window)
        t_lo, t_hi = window[0] / analytic._TABLE_PAD, window[1] * analytic._TABLE_PAD
        assert t_nodes[0] <= t_lo and t_nodes[-1] >= t_hi
        j = np.round(8 * np.log10(t_nodes)).astype(int)
        assert np.array_equal(j, np.arange(j[0], j[-1] + 1))
        assert t_nodes.tolist() == [analytic._lattice_t(int(i)) for i in j]
        # at most two nodes beyond a geometric table over the padded window
        assert t_nodes.size <= max(8, math.ceil(8 * math.log10(t_hi / t_lo)) + 1) + 2
        assert sorted(lattice._nodes) == j.tolist()


class TestFarLatticeWindow:
    """A far-field table takes every other node of the exact table's
    lattice, and two more of its own at each end."""

    WINDOWS = [(0.3, 0.3), (2e-3, 7e4), (1.0, 10.0), (1e-4, 1e9), (1e-2, 1e12)]

    def test_even_nodes_and_at_most_half_plus_five(self, ref_cfg):
        exact_lattice = _ExponentLattice(ref_cfg, QUAD)
        far_lattice = analytic._lattice(ref_cfg, QUAD, default_sim_radius(ref_cfg))
        rng = np.random.default_rng(19)
        ends = np.sort(10.0 ** rng.uniform(-8.0, 12.0, (200, 2)), axis=1)
        # and the t range of 5000 requests with caterers at the reference
        # scenario
        caterers = _as_generator(1)
        t = _caterer_t(1 + caterers.poisson(ref_cfg.n_bar, 5000), ref_cfg, caterers)
        for t_lo, t_hi in [*self.WINDOWS, *ends.tolist(), (t.min(), t.max())]:
            exact = list(exact_lattice._window(t_lo, t_hi))
            far = list(far_lattice._window(t_lo, t_hi))
            assert all(j % 2 == 0 for j in far), (t_lo, t_hi)
            assert np.array_equal(np.diff(far), np.full(len(far) - 1, 2))
            assert 8 <= len(far) <= math.ceil(len(exact) / 2) + 5, (t_lo, t_hi)
            # the far table spans the exact one, and has two of its nodes
            # beyond each end of the padded range
            assert far[0] <= exact[0] and far[-1] >= exact[-1], (t_lo, t_hi)
            j_lo = math.floor(8 * math.log10(t_lo / analytic._TABLE_PAD))
            j_hi = math.ceil(8 * math.log10(t_hi * analytic._TABLE_PAD))
            assert far[2] <= j_lo and far[-3] >= j_hi, (t_lo, t_hi)

    @pytest.mark.parametrize("window", WINDOWS[:3])
    def test_table_and_lattice_hold_the_window(self, ref_cfg, monkeypatch, window):
        r0 = default_sim_radius(ref_cfg)
        lattice = analytic._lattice(ref_cfg, QUAD, r0)
        assert not lattice._nodes
        _, t_nodes, _ = lattice.table(*window)
        j = sorted(lattice._nodes)
        assert j == list(lattice._window(*window))
        assert t_nodes.tolist() == [analytic._lattice_t(i) for i in j]
        # the next table over the window computes nothing
        monkeypatch.setattr(analytic, "_exponents_exact", None)
        assert analytic._lattice(ref_cfg, QUAD, r0).table(*window)[1].tolist() == t_nodes.tolist()


def _hexes(*arrays):
    """Every float of the arrays in hex, for comparisons to the last bit."""
    return [[float(v).hex() for v in np.ravel(a)] for a in arrays]


class TestTableKernel:
    """_eval_table, the numpy kernel behind laplace_fn_exact and the far
    field: the Horner sum of the table's Taylor coefficients, which are
    those of scipy's not-a-knot quintic through the nodes."""

    @staticmethod
    def table_and_points(cfg, kind):
        """(lattice, table, points): random points, every node, and one ulp
        either side of each node inside the table."""
        v_inner = 0.0 if kind == "exact" else default_sim_radius(cfg)
        lattice = _ExponentLattice(cfg, QUAD, v_inner)
        table, _, _ = lattice.table(1e-4, 1e9)
        nodes = table[0]
        x = np.concatenate([
            np.random.default_rng(int(cfg.alpha * 10)).uniform(nodes[0], nodes[-1], 50_000),
            nodes,
            np.nextafter(nodes[1:], -np.inf),
            np.nextafter(nodes[:-1], np.inf),
        ])
        assert x.size > analytic._EVAL_SLICE
        return lattice, table, x

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["exact", "far"])
    def test_equals_horner_per_point_bit_for_bit(self, ref_cfg, alpha, kind):
        _, table, x = self.table_and_points(ref_cfg.with_(alpha=alpha), kind)
        nodes, coef = table
        h = analytic._LATTICE_STEP * (1 if kind == "exact" else 2)
        expected = []
        for point in x.tolist():
            i = min(int((point - nodes[0]) / h), nodes.size - 2)
            s, value = point - nodes[i], coef[-1, i]
            for m in range(coef.shape[0] - 2, -1, -1):
                value = value * s + coef[m, i]
            expected.append(value)
        assert _hexes(_eval_table(table, x, "test")) == _hexes(expected)
        in_place = x.copy()
        _eval_table(table, in_place, "test", out=in_place)
        assert _hexes(in_place) == _hexes(expected)
        lo, hi = nodes[0], nodes[-1]
        for outside in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan):
            with pytest.raises(ValueError, match="test table"):
                _eval_table(table, np.array([lo, outside, hi]), "test")

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["exact", "far"])
    def test_within_a_few_ulps_of_the_bspline(self, ref_cfg, alpha, kind):
        lattice, table, x = self.table_and_points(ref_cfg.with_(alpha=alpha), kind)
        nodes = table[0]
        log_e = np.log([lattice._nodes[j][0] for j in lattice._window(1e-4, 1e9)])
        expected = make_interp_spline(nodes, log_e, k=5)(x)
        # ulps of the table's largest |ln E|: where ln E crosses 0 the spline's
        # own rounding is of that size, not of the value's (at most 6 here)
        ulp = np.spacing(np.max(np.abs(log_e)))
        assert np.max(np.abs(_eval_table(table, x, "test") - expected)) <= 16 * ulp


class TestThreadMap:
    def test_results_and_first_failure_in_item_order(self, monkeypatch):
        monkeypatch.setattr(analytic, "_thread_count", lambda: 3)
        assert analytic._thread_map(lambda i: i * i, range(10)) == [i * i for i in range(10)]

        def fails_at_3_and_7(i):
            if i in (3, 7):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            analytic._thread_map(fails_at_3_and_7, range(10))
        assert info.value.args == (3,)

    def test_every_item_taken_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        monkeypatch.setattr(analytic, "_thread_count", lambda: 4)
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = analytic._thread_map(lambda i: taken.append(i) or -i, range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(2000))
        assert results == [-i for i in range(2000)]

    def test_nested_map_runs_on_its_caller(self, monkeypatch):
        monkeypatch.setattr(analytic, "_thread_count", lambda: 3)

        def inner_threads(_):
            inner = analytic._thread_map(lambda _: threading.get_ident(), range(4))
            return set(inner) == {threading.get_ident()}

        assert all(analytic._thread_map(inner_threads, range(3)))

    def test_thread_count_is_the_affinity_count_capped_per_map(self, monkeypatch):
        monkeypatch.setattr(analytic.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert analytic._thread_count() == 8
        assert analytic._threads(100) == analytic._MAX_THREADS
        assert analytic._threads(2) == 2


class TestThreadCount:
    """Every result is the same, to the last bit, at 1, 2 and 3 threads."""

    @staticmethod
    def at_each_count(monkeypatch, run):
        results = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            analytic._lattices.cache_clear()  # every count computes its own nodes
            results.append(run())
        return results

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    @pytest.mark.parametrize("c_m", [1.0, 0.3, 1e-11])
    def test_coverage_content(self, ref_cfg, monkeypatch, c_m, method):
        # 20 blocks: runs of 20, 10 + 10 and 6 + 7 + 7 of them
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 1000)
        quad = QuadratureSpec(mc_integration_samples=20_000)
        # every count runs its own QMC pass, not the memo's
        results = self.at_each_count(
            monkeypatch, lambda: _fresh_pass(lambda: coverage_content(c_m, ref_cfg, quad, method)))
        hexes = {(r.value.hex(), r.numerical_error.hex()) for r in results}
        assert len(hexes) == 1

    @pytest.mark.parametrize("inner", ["none", "far"])
    def test_lattice_table(self, ref_cfg, monkeypatch, inner):
        cfg = ref_cfg.with_(alpha=2.5)
        v_inner = 0.0 if inner == "none" else default_sim_radius(cfg)
        results = self.at_each_count(
            monkeypatch, lambda: _ExponentLattice(cfg, QUAD, v_inner).table(1e-3, 1e6))
        one = results[0]
        for other in results[1:]:
            assert _hexes(*other[0], *other[1:]) == _hexes(*one[0], *one[1:])


class TestComputeZ:
    def test_frozen_oracle(self, ref_cfg):
        assert compute_Z(ref_cfg) == pytest.approx(Z_REF, rel=1e-13)
        assert compute_Z(ref_cfg) == pytest.approx(1.6 * math.pi**2 + 1.0, rel=1e-13)

    def test_at_least_one(self):
        for sigma, lam, theta in [(1.0, 1e-7, 1e-3), (200.0, 1e-4, 100.0)]:
            cfg = NetworkConfig(lambda_p=lam, n_bar=2.0, sigma=sigma,
                                alpha=3.0, theta=theta)
            assert compute_Z(cfg) >= 1.0


class TestCoverage:
    def test_cooperation_helps(self, ref_cfg):
        fn = functools.partial(laplace_ppp_bound, cfg=ref_cfg)
        (one, two), _, _ = _caterer_means(2, ref_cfg, QUAD, fn)
        assert 0.0 < one < two < 1.0

    def test_single_caterer_matches_bound_coverage(self, ref_cfg):
        # with the PPP transform, the k=1 average has the closed form 1/Z
        fn = functools.partial(laplace_ppp_bound, cfg=ref_cfg)
        (got,), _, _ = _caterer_means(1, ref_cfg, QUAD, fn)
        assert got == pytest.approx(INV_Z_REF, abs=5e-7)

    def test_no_caching_means_no_coverage(self, ref_cfg):
        res = coverage_content(0.0, ref_cfg, QUAD, method="ppp-bound")
        assert res.value == 0.0

    def test_monotone_in_caching_probability(self, ref_cfg):
        vals = [
            coverage_content(c, ref_cfg, QUAD, method="ppp-bound").value
            for c in (0.2, 0.5, 1.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_bound_below_exact_off_reference(self):
        cfg = NetworkConfig(lambda_p=2e-5, n_bar=6.0, sigma=30.0, alpha=4.0,
                            theta=1.0)
        exact = coverage_content(1.0, cfg, QUAD, method="exact-tcp")
        bound = coverage_content(1.0, cfg, QUAD, method="ppp-bound")
        assert bound.value < exact.value
        assert exact.numerical_error < 1e-2 and bound.numerical_error < 1e-2

    def test_bad_method_rejected(self, ref_cfg):
        with pytest.raises(ValueError):
            coverage_content(0.5, ref_cfg, QUAD, method="guesswork")
        with pytest.raises(ValueError):
            coverage_content(1.5, ref_cfg, QUAD)

    def test_non_finite_transform_raises_with_block_and_k(self, ref_cfg, monkeypatch):
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 1000)
        quad = QuadratureSpec(mc_integration_samples=5001)  # blocks 0..5
        # the t_gamma of each block's last row and caterer, in block order
        monkeypatch.setattr(analytic, "_thread_count", lambda: 1)
        last = []
        _caterer_means(3, ref_cfg, quad, lambda t: (last.append(t[-1]), np.ones_like(t))[1])
        assert len(last) == 6

        def nan_in_blocks_1_and_4(t_gamma):
            out = np.ones_like(t_gamma)
            out[np.isin(t_gamma, [last[1], last[4]])] = np.nan
            return out

        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            with pytest.raises(NumericalError) as info:
                _caterer_means(3, ref_cfg, quad, nan_in_blocks_1_and_4)
            # the lowest bad block, whichever thread got to its block first
            assert info.value.diagnostics["block"] == 1
            assert info.value.diagnostics["rows"] == (1000, 2000)
            assert info.value.diagnostics["k"] == 3

    def test_result_type_validates(self):
        with pytest.raises(ValueError):
            CoverageResult(1.5, "exact-tcp", 0.0)
        with pytest.raises(ValueError):
            CoverageResult(0.5, "magic", 0.0)


def _whole_array_t_gamma(k_max, cfg, quad):
    """t_gamma of the QMC coverage estimator on one Sobol draw of all n rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        unit = qmc.Sobol(d=k_max, scramble=True, seed=quad.qmc_seed).random(
            quad.mc_integration_samples)
    h = 2.0 * cfg.sigma * np.sqrt(-np.log1p(-np.clip(unit, 1e-16, 1.0 - 1e-16)))
    return cfg.theta / np.cumsum(h ** (-cfg.alpha), axis=1)


def _fresh_pass(run):
    """run() on an empty caterer-means memo, checked to run one QMC pass of
    its own rather than read an earlier call's means."""
    analytic._caterer_tables.cache_clear()
    result = run()
    assert analytic._caterer_tables.cache_info().misses == 1
    return result


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _whole_array_coverage(c_m, cfg, quad, method):
    """The QMC coverage estimator evaluated on whole arrays: one Sobol draw
    of all n rows, one n x k_max transform, numpy's axis-0 means. Returns
    (value, numerical_error) as coverage_content computes them."""
    mean_k = c_m * cfg.n_bar
    k_max = _poisson_k_max(mean_k, quad.k_max_tail_mass)
    n = quad.mc_integration_samples
    t_gamma = _whole_array_t_gamma(k_max, cfg, quad)
    if method == "exact-tcp":
        fn = laplace_fn_exact(cfg, quad, (float(t_gamma.min()), float(t_gamma.max())))
    else:
        fn = functools.partial(laplace_ppp_bound, cfg=cfg)
    lap = fn(t_gamma.ravel()).reshape(t_gamma.shape)
    pmf = stats.poisson.pmf(np.arange(1, k_max + 1), mean_k)
    half = n // 2
    value_a = float(lap[:half].mean(axis=0) @ pmf)
    value_b = float(lap[half:].mean(axis=0) @ pmf)
    err = 0.5 * abs(value_a - value_b) + float(stats.poisson.sf(k_max, mean_k))
    return float(lap.mean(axis=0) @ pmf), err


class TestStreamedEstimator:
    """coverage_content streams its Sobol rows in blocks; the result must not
    depend on the block size, to the last bit."""

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    @pytest.mark.parametrize("c_m", [1.0, 0.3, 1e-11])
    def test_bit_identical_to_whole_array_estimator(self, ref_cfg, monkeypatch, c_m, method):
        # n // 2 = 2500 is no block edge at 7 or 1000 rows; 1e-11 gives
        # k_max = 1, where numpy's axis-0 mean is pairwise, not row by row
        quad = QuadratureSpec(mc_integration_samples=5001)
        value, err = _whole_array_coverage(c_m, ref_cfg, quad, method)
        if c_m == 1e-11:
            assert _poisson_k_max(c_m * ref_cfg.n_bar, quad.k_max_tail_mass) == 1
        for rows in (7, 1000, 5001, 8192):
            monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", rows)
            got = _fresh_pass(lambda: coverage_content(c_m, ref_cfg, quad, method))
            assert (got.value.hex(), got.numerical_error.hex()) == (value.hex(), err.hex())

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("k_max", [2, 7, 31])
    def test_window_is_the_whole_draws_min_and_max(self, ref_cfg, alpha, k_max):
        # found before any transform, from a few candidate rows
        cfg = ref_cfg.with_(alpha=alpha)
        for seed in range(4):
            quad = QuadratureSpec(mc_integration_samples=20_000, qmc_seed=seed)
            t_gamma = _whole_array_t_gamma(k_max, cfg, quad)
            t_lo, t_hi = analytic._t_window(k_max, cfg, quad)
            assert (t_lo.hex(), t_hi.hex()) == (t_gamma.min().hex(), t_gamma.max().hex())

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_failing_block_raises_without_holding_up_the_rest(self, ref_cfg, monkeypatch,
                                                              threads):
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 1000)
        quad = QuadratureSpec(mc_integration_samples=6000)  # blocks 0..5
        marks = []  # the t_gamma of each block's last row, in block order
        monkeypatch.setattr(analytic, "_thread_count", lambda: 1)
        _caterer_means(3, ref_cfg, quad, lambda t: (marks.append(t[-1]), np.ones_like(t))[1])
        monkeypatch.setattr(analytic, "_thread_count", lambda: threads)

        def fails_in_block_1(t_gamma):
            if marks[1] in t_gamma:
                raise ValueError("block 1")
            return np.ones_like(t_gamma)

        raised = []

        def run():
            try:
                _caterer_means(3, ref_cfg, quad, fails_in_block_1)
            except Exception as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the estimator hung after a failing block"
        assert [type(exc) for exc in raised] == [ValueError]
        assert raised[0].args == ("block 1",)

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    def test_draws_and_sums_in_block_order_under_contention(self, ref_cfg, monkeypatch,
                                                             method):
        # 715 blocks on more threads than cores, switching as often as the
        # interpreter allows: a block drawn or added out of order moves bits
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 7)
        quad = QuadratureSpec(mc_integration_samples=5001)
        fn = functools.partial(laplace_ppp_bound, cfg=ref_cfg) if method == "ppp-bound" else None
        monkeypatch.setattr(analytic, "_thread_count", lambda: 1)
        serial = _caterer_means(7, ref_cfg, quad, fn)
        monkeypatch.setattr(analytic, "_thread_count", lambda: 8)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: results.append(_caterer_means(7, ref_cfg, quad, fn)), daemon=True)
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "the estimator hung"
        assert _hexes(*results[0]) == _hexes(*serial)

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    def test_peak_memory_does_not_grow_with_n(self, ref_cfg, method):
        def call(n):
            _fresh_pass(lambda: coverage_content(
                1.0, ref_cfg, QuadratureSpec(mc_integration_samples=n), method))

        call(800_000)  # untraced: the imports, and every lattice node both calls read
        small = _traced_peak(lambda: call(200_000))
        large = _traced_peak(lambda: call(800_000))
        assert large <= small + 2 * 2**20
        assert max(small, large) < 20 * 2**20

    def test_cold_default_exact_call_peak(self, ref_cfg):
        coverage_content(1.0, ref_cfg, QuadratureSpec(mc_integration_samples=1000))  # imports
        analytic._lattices.cache_clear()  # the call computes its own lattice nodes
        cold = _traced_peak(lambda: _fresh_pass(lambda: coverage_content(1.0, ref_cfg, QUAD)))
        assert cold < 20 * 2**20

    def test_peak_memory_bound_holds_on_many_cpus(self, ref_cfg, monkeypatch):
        # every thread holds its own blocks; their number, not the CPU count,
        # must bound them
        monkeypatch.setattr(analytic, "_thread_count", lambda: 16)
        for method in ("exact-tcp", "ppp-bound"):
            self.test_peak_memory_does_not_grow_with_n(ref_cfg, method)
        self.test_cold_default_exact_call_peak(ref_cfg)


class TestCatererMemo:
    """coverage_content reads its per-k means from a process memo keyed by
    what the estimator reads; a hit returns the bits of a fresh pass."""

    QUAD = QuadratureSpec(mc_integration_samples=5001)

    @staticmethod
    def misses():
        return analytic._caterer_tables.cache_info().misses

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    def test_hit_equals_a_call_on_an_empty_memo(self, ref_cfg, method):
        first = coverage_content(0.3, ref_cfg, self.QUAD, method)
        hit = coverage_content(0.3, ref_cfg, self.QUAD, method)
        assert self.misses() == 1
        fresh = _fresh_pass(lambda: coverage_content(0.3, ref_cfg, self.QUAD, method))
        assert (_hexes(first.value, first.numerical_error)
                == _hexes(hit.value, hit.numerical_error)
                == _hexes(fresh.value, fresh.numerical_error))

    @pytest.mark.parametrize("method, network, quad", [
        ("ppp-bound", {"theta": 2.0}, {}),
        ("ppp-bound", {"sigma": 40.0}, {}),
        ("ppp-bound", {"lambda_p": 20e-6}, {}),
        ("ppp-bound", {"n_bar": 4.0}, {}),
        ("ppp-bound", {"alpha": 3.0}, {}),
        ("ppp-bound", {}, {"qmc_seed": 1}),
        ("ppp-bound", {}, {"mc_integration_samples": 5002}),
        ("exact-tcp", {}, {"rel_tol": 1e-9}),
        ("exact-tcp", {}, {"abs_tol": 1e-6}),
        ("exact-tcp", {}, {"v_max_sigma_mult": 9.0}),
    ])
    def test_each_key_field_misses(self, ref_cfg, method, network, quad):
        # at one k_max, so that only the named field differs
        base = analytic._caterer_table(3, ref_cfg, self.QUAD, method)
        other = analytic._caterer_table(
            3, ref_cfg.with_(**network), replace(self.QUAD, **quad), method)
        assert self.misses() == 2
        assert _hexes(*other) != _hexes(*base)

    def test_method_misses(self, ref_cfg):
        analytic._caterer_table(3, ref_cfg, self.QUAD, "ppp-bound")
        analytic._caterer_table(3, ref_cfg, self.QUAD, "exact-tcp")
        assert self.misses() == 2

    def test_what_the_estimator_does_not_read_hits(self, ref_cfg, monkeypatch):
        base = coverage_content(0.3, ref_cfg, self.QUAD, "exact-tcp")
        k_max = _poisson_k_max(0.3 * ref_cfg.n_bar, self.QUAD.k_max_tail_mass)
        # another c and another tail mass, each at the same k_max
        assert _poisson_k_max(0.29 * ref_cfg.n_bar, self.QUAD.k_max_tail_mass) == k_max
        assert _poisson_k_max(0.3 * ref_cfg.n_bar, 2e-9) == k_max
        again = [
            coverage_content(0.3, ref_cfg.with_(gamma_d=5.0), self.QUAD, "exact-tcp"),
            coverage_content(0.3, ref_cfg, replace(self.QUAD, k_max_tail_mass=2e-9),
                             "exact-tcp"),
            coverage_content(0.29, ref_cfg, self.QUAD, "exact-tcp"),
        ]
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 1000)
        monkeypatch.setattr(analytic, "_thread_count", lambda: 1)
        again.append(coverage_content(0.3, ref_cfg, self.QUAD, "exact-tcp"))
        # the bound reads none of the tolerances
        coverage_content(0.3, ref_cfg, self.QUAD, "ppp-bound")
        coverage_content(0.3, ref_cfg, replace(self.QUAD, rel_tol=1e-9), "ppp-bound")
        assert self.misses() == 2
        assert again[0] == again[1] == again[3] == base

    def test_numerical_error_is_not_kept(self, ref_cfg, monkeypatch):
        monkeypatch.setattr(analytic, "laplace_ppp_bound",
                            lambda t_gamma, cfg: np.full_like(t_gamma, np.nan))
        for _ in range(2):
            with pytest.raises(NumericalError):
                coverage_content(1.0, ref_cfg, self.QUAD, "ppp-bound")
        info = analytic._caterer_tables.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_arrays_are_read_only(self, ref_cfg):
        for array in analytic._caterer_table(3, ref_cfg, self.QUAD, "ppp-bound"):
            with pytest.raises(ValueError):
                array[0] = 0.5
        assert analytic._caterer_tables.cache_info().maxsize == 64

    def test_one_pass_per_distinct_k_max(self, ref_cfg, monkeypatch):
        library = ContentLibrary.from_zipf(100, 0.5, 5)
        policy = policy_zipf_proportional(library)
        passes = []

        def counted(k_max, *args):
            passes.append(k_max)
            return _caterer_means(k_max, *args)

        monkeypatch.setattr(analytic, "_caterer_means", counted)
        gain = offloading_gain(
            policy, library, lambda c: coverage_content(c, ref_cfg, self.QUAD))
        assert sorted(passes) == sorted(set(passes)) and len(passes) == 8
        assert len(np.unique(policy.probs)) == 100
        fresh = offloading_gain(
            policy, library,
            lambda c: _fresh_pass(lambda: coverage_content(c, ref_cfg, self.QUAD)))
        assert gain.hex() == fresh.hex()


class TestOffloading:
    def test_closed_form_frozen_toy(self, ref_cfg):
        lib = ContentLibrary.from_zipf(2, 0.0, 1)
        pol = CachingPolicy(np.array([0.5, 0.5]))
        got = offloading_closed_form_k1(pol, lib, ref_cfg)
        assert got == pytest.approx(TOY_OFFLOAD_HALF, rel=1e-12)

    def test_full_local_cache_offloads_everything(self, ref_cfg):
        lib = ContentLibrary.from_zipf(3, 0.7, 2)
        pol = CachingPolicy(np.array([1.0, 1.0, 0.0]))
        total_hit = lib.popularity[0] + lib.popularity[1]
        assert offloading_closed_form_k1(pol, lib, ref_cfg) == pytest.approx(
            total_hit, rel=1e-12
        )

    def test_generic_gain_matches_closed_form_under_k1_kernel(self, ref_cfg):
        # plugging the single-caterer coverage curve into the generic
        # accumulator must reproduce the closed form exactly
        Z = compute_Z(ref_cfg)
        n_bar = ref_cfg.n_bar

        def k1_coverage(c):
            return c * n_bar * math.exp(-c * n_bar) / Z

        lib = ContentLibrary.from_zipf(20, 0.9, 4)
        for pol in (
            CachingPolicy(np.full(20, 0.2)),
            CachingPolicy(np.linspace(0.39, 0.01, 20) / np.linspace(0.39, 0.01, 20).sum() * 4),
        ):
            direct = offloading_closed_form_k1(pol, lib, ref_cfg)
            generic = offloading_gain(pol, lib, k1_coverage)
            assert generic == pytest.approx(direct, rel=1e-12)

    def test_box_violation_rejected(self):
        # the policy refuses an out-of-box vector when it is built, so no
        # evaluator receives one
        with pytest.raises(ValueError, match=r"c_1 = 1\.4"):
            CachingPolicy(np.array([1.4, -0.2, -0.2]))

    def test_off_budget_vector_allowed(self, ref_cfg):
        # the evaluators do not check the budget, so baseline or
        # intermediate vectors that miss it can still be scored
        lib = ContentLibrary.from_zipf(4, 0.5, 2)
        partial = CachingPolicy(np.array([0.5, 0.5, 0.0, 0.0]))
        value = offloading_closed_form_k1(partial, lib, ref_cfg)
        assert 0.0 < value < 1.0


class TestPoissonHelpers:
    """The caterer-count helpers compute what scipy.stats.poisson does, bit
    for bit, from scipy.special."""

    MEANS = np.geomspace(1e-8, 40.0, 25)
    TAILS = np.geomspace(1e-12, 1e-3, 10)

    def test_k_max_matches_scipy_stats(self):
        for mean in self.MEANS:
            for tail_mass in self.TAILS:
                k = int(stats.poisson.isf(tail_mass, mean)) + 1
                while stats.poisson.sf(k, mean) >= tail_mass:
                    k += 1
                assert _poisson_k_max(mean, tail_mass) == k, (mean, tail_mass)
                assert analytic._poisson_isf(tail_mass, mean) == stats.poisson.isf(
                    tail_mass, mean), (mean, tail_mass)

    def test_isf_matches_scipy_stats_at_tail_values(self):
        # at q = P(K > j) itself, ceil(pdtrik) can land one above j, and
        # the step down by pdtr applies
        for mean in self.MEANS:
            for j in range(_poisson_k_max(mean, self.TAILS[0])):
                q = float(stats.poisson.sf(j, mean))
                if 0.0 < 1.0 - q < 1.0:
                    assert analytic._poisson_isf(q, mean) == stats.poisson.isf(q, mean), (
                        mean, j)

    def test_pmf_and_tail_match_scipy_stats(self):
        for mean in self.MEANS:
            k = np.arange(1, _poisson_k_max(mean, self.TAILS[0]) + 1)
            assert _hexes(analytic._poisson_pmf(k, mean)) == _hexes(stats.poisson.pmf(k, mean))
            assert _hexes([analytic._poisson_sf(int(j), mean) for j in k]) == _hexes(
                stats.poisson.sf(k, mean))

    @staticmethod
    def _loads(module, code):
        """Whether a fresh interpreter that imports d2dcache and runs code
        has loaded module."""
        src = str(Path(analytic.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = f"import sys, d2dcache; {code}; print({module!r} in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return run.stdout.strip().splitlines()[-1] == "True"

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats takes about half a second to import: only the QMC draw
        # of exact coverage loads it, when it runs
        assert not self._loads("scipy.stats", "pass")

    @pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.optimize"])
    def test_import_and_solve_leave_out_scipy_interpolate(self, module):
        # scipy.interpolate, which loads scipy.optimize, takes about 0.4 s to
        # import: only a spline table loads it, and solve builds none
        config = Path(__file__).resolve().parents[1] / "demos" / "config_example.yaml"
        assert not self._loads(module, "pass")
        assert not self._loads(module, f"d2dcache.main(['solve', '--config', {str(config)!r}])")

    def test_simulator_leaves_out_scipy_stats(self):
        # the far grid's Marcum function comes from scipy.special
        assert not self._loads(
            "scipy.stats",
            "from d2dcache.model import NetworkConfig; "
            "from d2dcache.simulator import estimate_coverage; "
            "estimate_coverage(1.0, NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=50.0, "
            "alpha=4.0, theta=1.0), 1000)")


class TestNumericsPlumbing:
    def test_quadrature_spec_validation(self):
        for kwargs in (
            {"rel_tol": 0.0}, {"rel_tol": math.inf}, {"abs_tol": math.nan},
            {"v_max_sigma_mult": math.inf}, {"k_max_tail_mass": 0.0},
            {"k_max_tail_mass": 1.0}, {"k_max_tail_mass": 2.0},
            {"k_max_tail_mass": 5e-17}, {"k_max_tail_mass": 1e-17},
            {"mc_integration_samples": 10}, {"mc_integration_samples": 2000.5},
            {"mc_integration_samples": 2000.0}, {"mc_integration_samples": True},
            {"qmc_seed": -1}, {"qmc_seed": 0.5}, {"qmc_seed": False},
        ):
            with pytest.raises(ValueError):
                QuadratureSpec(**kwargs)

    def test_tail_mass_at_machine_epsilon_accepted(self):
        # below it 1 - tail rounds to 1, where the Poisson quantile is NaN
        quad = QuadratureSpec(k_max_tail_mass=np.finfo(float).eps)
        assert _poisson_k_max(8.0, quad.k_max_tail_mass) > 8
        with pytest.raises(ValueError, match="k_max_tail_mass"):
            QuadratureSpec(k_max_tail_mass=np.finfo(float).eps / 2)

    def test_quadrature_spec_accepts_numpy_integers(self):
        spec = QuadratureSpec(mc_integration_samples=np.int64(4096), qmc_seed=np.int32(7))
        assert spec.mc_integration_samples == 4096 and spec.qmc_seed == 7

    def test_numerical_error_carries_diagnostics(self):
        err = NumericalError("went sideways", {"where": "outer"})
        assert err.diagnostics["where"] == "outer"
        assert isinstance(err, RuntimeError)
