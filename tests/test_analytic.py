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
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
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
    compute_Z,
    coverage_content,
    laplace_exact,
    laplace_fn_exact,
    laplace_ppp_bound,
    offloading_closed_form_k1,
    offloading_gain,
    rician_pdf,
    zeta_kernel,
)
from d2dcache.model import CachingPolicy, ContentLibrary, NetworkConfig
from d2dcache.simulator import _far_field, _far_lattice, default_sim_radius

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

    def test_pole_raises(self):
        # alpha = 2 puts Gamma(1 - 2/alpha) on its pole at 0
        with pytest.raises(ValueError, match="exceed 2"):
            _gamma_pair(2.0)
        with pytest.raises(ValueError, match="exceed 2"):
            _gamma_pair(1.0)


class TestRicianPdf:
    def test_normalizes_to_one(self):
        # QUADPACK is the oracle here; the pdf itself has no closed integral
        for v in (0.1, 30.0, 200.0):
            total, err = integrate.quad(
                rician_pdf, 0, np.inf, args=(v, 50.0), limit=200
            )
            assert total == pytest.approx(1.0, abs=max(1e-8, 4 * err))

    def test_vanishes_at_origin(self):
        assert rician_pdf(0.0, 10.0, 50.0) == 0.0

    def test_large_offset_concentrates_near_v(self):
        # for v >> sigma the density approaches a Gaussian ridge at u = v
        u = np.linspace(900, 1100, 2001)
        pdf = rician_pdf(u, 1000.0, 10.0)
        assert abs(u[np.argmax(pdf)] - 1000.0) < 5.0

    def test_vectorized(self):
        u = np.array([10.0, 50.0, 90.0])
        out = rician_pdf(u, 40.0, 30.0)
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
            lambda u: t / (u**cfg.alpha + t) * rician_pdf(u, v, cfg.sigma),
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
            assert [rows._s_nodes.size for *_, rows in grid._rules] == [
                template_panels * order for order in orders]
        assert exact._near is None
        assert [order for order, *_ in far._near] == [16, 8]

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
        grid = analytic._OuterGrid(cfg, QUAD, r0)
        monkeypatch.setattr(analytic, "_ORDER_FAR_FINE", 16)
        reference = analytic._OuterGrid(cfg, QUAD, r0)
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

    def views(self, cfg):
        """(laplace view, far view, far-field radius, table nodes) over T_RANGE."""
        r0 = default_sim_radius(cfg)
        _, t_nodes, _ = _ExponentLattice(cfg, QUAD).table(*self.T_RANGE)
        laplace = laplace_fn_exact(cfg, QUAD, self.T_RANGE)
        far = _far_field(np.array(self.T_RANGE), _far_lattice(cfg, r0))
        return laplace, far, r0, t_nodes

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

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_views_reproduce_node_values(self, ref_cfg, alpha):
        cfg = ref_cfg.with_(alpha=alpha)
        laplace, far, r0, t_nodes = self.views(cfg)
        node_e, _ = _exponents_exact(t_nodes, cfg, QUAD)
        node_f, _ = _exponents_exact(t_nodes, cfg, QUAD, v_inner=r0)
        # rounding of the tabulated ln E moves L by E times as much, relatively;
        # beyond E = 700, L is subnormal or 0 and keeps fewer digits
        normal = node_e < 700.0
        lap, exact = laplace(t_nodes[normal]), np.exp(-node_e[normal])
        assert np.all(np.abs(lap / exact - 1.0) <= 1e-14 * (1.0 + node_e[normal]))
        assert far(t_nodes) == pytest.approx(node_f, rel=1e-12, abs=1e-15)

    def test_laplace_view_refuses_t_outside_table(self, ref_cfg):
        laplace, _, _, t_nodes = self.views(ref_cfg)
        laplace(t_nodes[[0, -1]])
        assert laplace(np.array([0.0, t_nodes[0]]))[0] == 1.0
        for t in (t_nodes[0] * 0.999, t_nodes[-1] * 1.001):
            with pytest.raises(ValueError):
                laplace(np.array([t]))
            with pytest.raises(ValueError):
                laplace(t)

    def test_laplace_non_increasing_inside_table(self, ref_cfg):
        laplace, _, _, t_nodes = self.views(ref_cfg)
        t = np.geomspace(t_nodes[0], t_nodes[-1], 20_001)
        assert np.all(np.diff(laplace(t)) <= 0.0)

    def test_far_view_refuses_t_outside_table(self, ref_cfg):
        _, far, _, t_nodes = self.views(ref_cfg)
        far(t_nodes[[0, -1]])
        for t in (t_nodes[0] * 0.999, t_nodes[-1] * 1.001):
            with pytest.raises(ValueError):
                far(np.array([t]))


class TestExponentLattice:
    """Node values held by lattice index serve any later window unchanged."""

    @staticmethod
    def snapshot(lattice, window):
        spline, t_nodes, errors = lattice.table(*window)
        return dict(lattice._nodes), spline.x, spline.c, t_nodes, errors

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

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("inner", ["none", "far"])
    def test_grid_grown_in_steps_equals_one_batch(self, ref_cfg, alpha, inner):
        cfg = ref_cfg.with_(alpha=alpha)
        v_inner = 0.0 if inner == "none" else default_sim_radius(cfg)
        lattice = _ExponentLattice(cfg, QUAD, v_inner)
        held = []
        for t_hi in (1e3, 1e6, 1e9):  # each window reaches further out in v
            lattice.table(1e-3, t_hi)
            held.append(lattice._grid.edges.size)
        assert held[0] < held[1] < held[2]
        j = sorted(lattice._nodes)
        once = _exponents_exact(np.array([analytic._lattice_t(i) for i in j]), cfg, QUAD,
                                v_inner)
        grown = np.array([lattice._nodes[i] for i in j]).T
        assert _hexes(*grown) == _hexes(*once)

    def test_each_grid_row_built_once(self, ref_cfg, monkeypatch):
        built = {}
        block = analytic._ZetaRows.block

        def counted(zeta_rows, v):
            built[id(zeta_rows)] = built.get(id(zeta_rows), 0) + v.size
            return block(zeta_rows, v)

        monkeypatch.setattr(analytic._ZetaRows, "block", counted)
        lattice = _ExponentLattice(ref_cfg, QUAD, default_sim_radius(ref_cfg))
        for window in [(1.0, 10.0), (1e-2, 1e4), (1.0, 1e2), (1e-3, 1e7)]:
            lattice.table(*window)
        n_panels = lattice._grid.edges.size - 1
        rules = lattice._grid._rules
        assert n_panels > lattice._grid.base_edges.size - 1
        assert built == {id(zeta_rows): n_panels * order
                         for order, *_, zeta_rows in rules}
        assert [zeta_rows.rows for *_, zeta_rows in rules] == list(built.values())

    def test_threads_grow_one_grid_at_once(self, ref_cfg, monkeypatch):
        # more threads than cores, switching often: every row is built
        # once, and every node has the value of a serial batch
        cfg = ref_cfg.with_(alpha=2.5)
        r0 = default_sim_radius(cfg)
        t_gamma = [analytic._lattice_t(j) for j in range(-24, 72, 3)]
        serial = _exponents_exact(np.array(t_gamma), cfg, QUAD, r0)
        built, counting = {}, threading.Lock()
        block = analytic._ZetaRows.block

        def counted(zeta_rows, v):
            with counting:
                built[id(zeta_rows)] = built.get(id(zeta_rows), 0) + v.size
            return block(zeta_rows, v)

        monkeypatch.setattr(analytic._ZetaRows, "block", counted)
        grid = analytic._OuterGrid(cfg, QUAD, r0)
        extent = grid.extent(t_gamma)
        todo = iter(np.random.default_rng(3).permutation(len(t_gamma)).tolist())
        values = {}

        def work():
            for i in todo:
                # half the calls grow only as far as their own node needs
                values[i] = grid.exponent(np.float64(t_gamma[i]), extent * (i % 2))

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
        assert sorted(values) == list(range(len(t_gamma)))
        assert _hexes(*np.array([values[i] for i in range(len(t_gamma))]).T) == _hexes(*serial)
        assert built == {id(zeta_rows): zeta_rows.rows for *_, zeta_rows in grid._rules}
        assert grid.edges.size - 1 == grid.base_edges.size - 1 + extent

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


def _hexes(*arrays):
    """Every float of the arrays in hex, for comparisons to the last bit."""
    return [[float(v).hex() for v in np.ravel(a)] for a in arrays]


class TestTableKernel:
    """_eval_table, the numpy kernel behind laplace_fn_exact and the far
    field, against PPoly.__call__ to the last bit."""

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["exact", "far"])
    def test_equals_ppoly_bit_for_bit(self, ref_cfg, alpha, kind):
        cfg = ref_cfg.with_(alpha=alpha)
        if kind == "exact":
            table, _, _ = _ExponentLattice(cfg, QUAD).table(1e-4, 1e9, log=True)
        else:
            table, _, _ = _far_lattice(cfg, default_sim_radius(cfg)).table(1e-4, 1e9)
        bp = table.x
        lo, hi = bp[0], bp[-1]
        assert np.sum(bp == lo) == 6 and np.sum(bp == hi) == 6  # repeated end knots
        x = np.concatenate([
            np.random.default_rng(int(alpha * 10)).uniform(lo, hi, 50_000),
            bp,  # every breakpoint, the repeated end knots among them
            np.nextafter(bp[bp > lo], -np.inf),  # one ulp either side of each
            np.nextafter(bp[bp < hi], np.inf),
        ])
        assert x.size > analytic._EVAL_SLICE
        expected = table(x)
        assert _hexes(_eval_table(table, x, "test")) == _hexes(expected)
        in_place = x.copy()
        _eval_table(table, in_place, "test", out=in_place)
        assert _hexes(in_place) == _hexes(expected)
        for outside in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan):
            with pytest.raises(ValueError, match="test table"):
                _eval_table(table, np.array([lo, outside, hi]), "test")


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

    def test_pool_processes_share_the_cpus(self, monkeypatch):
        monkeypatch.setattr(analytic.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(analytic, "_cpu_share", 1)
        assert analytic._thread_count() == 8
        analytic._share_cpus(3)
        assert analytic._thread_count() == 2
        analytic._share_cpus(16)
        assert analytic._thread_count() == 1


class TestThreadCount:
    """Every result is the same, to the last bit, at 1, 2 and 3 threads."""

    @staticmethod
    def at_each_count(monkeypatch, run):
        results = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            results.append(run())
        return results

    @pytest.mark.parametrize("method", ["exact-tcp", "ppp-bound"])
    @pytest.mark.parametrize("c_m", [1.0, 0.3, 1e-11])
    def test_coverage_content(self, ref_cfg, monkeypatch, c_m, method):
        # 20 blocks: runs of 20, 10 + 10 and 6 + 7 + 7 of them
        monkeypatch.setattr(analytic, "_QMC_BLOCK_ROWS", 1000)
        quad = QuadratureSpec(mc_integration_samples=20_000)
        results = self.at_each_count(
            monkeypatch, lambda: coverage_content(c_m, ref_cfg, quad, method))
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
            assert (_hexes(other[0].x, other[0].c, *other[1:])
                    == _hexes(one[0].x, one[0].c, *one[1:]))


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


def _whole_array_coverage(c_m, cfg, quad, method):
    """The QMC coverage estimator evaluated on whole arrays: one Sobol draw
    of all n rows, one n x k_max transform, numpy's axis-0 means. Returns
    (value, numerical_error) as coverage_content computes them."""
    mean_k = c_m * cfg.n_bar
    k_max = _poisson_k_max(mean_k, quad.k_max_tail_mass)
    n = quad.mc_integration_samples
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        unit = qmc.Sobol(d=k_max, scramble=True, seed=quad.qmc_seed).random(n)
    h = 2.0 * cfg.sigma * np.sqrt(-np.log1p(-np.clip(unit, 1e-16, 1.0 - 1e-16)))
    t_gamma = cfg.theta / np.cumsum(h ** (-cfg.alpha), axis=1)
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
            got = coverage_content(c_m, ref_cfg, quad, method)
            assert (got.value.hex(), got.numerical_error.hex()) == (value.hex(), err.hex())

    def test_peak_memory_is_one_n_by_k_max_array(self, ref_cfg):
        quad = QuadratureSpec()
        k_max = _poisson_k_max(ref_cfg.n_bar, quad.k_max_tail_mass)
        tracemalloc.start()
        try:
            coverage_content(1.0, ref_cfg, quad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * quad.mc_integration_samples * k_max * 8

    def test_peak_memory_bound_holds_on_many_cpus(self, ref_cfg, monkeypatch):
        # every thread holds its own scratch; their number, not the CPU count,
        # must bound it
        monkeypatch.setattr(analytic, "_thread_count", lambda: 16)
        self.test_peak_memory_is_one_n_by_k_max_array(ref_cfg)


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

    def test_box_violation_rejected(self, ref_cfg):
        lib = ContentLibrary.from_zipf(3, 0.5, 1)
        bad = CachingPolicy(np.array([1.4, -0.2, -0.2]))
        with pytest.raises(ValueError):
            offloading_closed_form_k1(bad, lib, ref_cfg)

    def test_off_budget_vector_allowed(self, ref_cfg):
        # the evaluators check the box constraint only, so baseline or
        # intermediate vectors that miss the budget can still be scored
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

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats takes about half a second to import: only the QMC draw
        # and a far-field grid load it, when they run
        src = str(Path(analytic.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, d2dcache; print('scipy.stats' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "False"


class TestNumericsPlumbing:
    def test_quadrature_spec_validation(self):
        for kwargs in (
            {"rel_tol": 0.0}, {"rel_tol": math.inf}, {"abs_tol": math.nan},
            {"v_max_sigma_mult": math.inf}, {"k_max_tail_mass": 0.0},
            {"k_max_tail_mass": 1.0}, {"k_max_tail_mass": 2.0},
            {"mc_integration_samples": 10}, {"mc_integration_samples": 2000.5},
            {"mc_integration_samples": 2000.0}, {"mc_integration_samples": True},
            {"qmc_seed": -1}, {"qmc_seed": 0.5}, {"qmc_seed": False},
        ):
            with pytest.raises(ValueError):
                QuadratureSpec(**kwargs)

    def test_quadrature_spec_accepts_numpy_integers(self):
        spec = QuadratureSpec(mc_integration_samples=np.int64(4096), qmc_seed=np.int32(7))
        assert spec.mc_integration_samples == 4096 and spec.qmc_seed == 7

    def test_numerical_error_carries_diagnostics(self):
        err = NumericalError("went sideways", {"where": "outer"})
        assert err.diagnostics["where"] == "outer"
        assert isinstance(err, RuntimeError)
