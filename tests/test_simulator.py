"""Monte Carlo simulator: estimators, and the brute-force reference that
checks them (geometry sampling, cache attachment, request outcomes).

Distributional checks use wide bands (5+ standard errors) so they are
deterministic in practice at the pinned seeds; exact reproducibility checks
are bitwise.
"""

import math

import numpy as np
import pytest
from scipy import stats

from brute_force import (
    OUTCOME_CLUSTER_MISS,
    OUTCOME_D2D_SUCCESS,
    OUTCOME_LOCAL_HIT,
    OUTCOMES,
    attach_caches,
    sample_network,
    simulate_request,
)
from d2dcache import analytic, simulator
from d2dcache.analytic import (
    NumericalError,
    QuadratureSpec,
    coverage_content,
    offloading_closed_form_k1,
    offloading_gain,
)
from d2dcache.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_zipf_proportional,
)
from d2dcache.optimizer import solve_p1
from d2dcache.simulator import (
    MIN_TRIALS,
    _CHUNK,
    MonteCarloEstimate,
    _far_lattice,
    _run_coverage,
    default_sim_radius,
    estimate_coverage,
    estimate_offloading,
)


@pytest.fixture(scope="module")
def small_cfg():
    """Light window for fast sampling tests."""
    return NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=30.0, alpha=4.0,
                         theta=1.0)


def test_default_sim_radius_formula(ref_cfg):
    expected = 4.0 * ref_cfg.sigma + 2.0 / math.sqrt(math.pi * ref_cfg.lambda_p)
    assert default_sim_radius(ref_cfg) == pytest.approx(expected, rel=1e-12)


class TestSampleNetwork:
    def test_deterministic(self, small_cfg):
        a = sample_network(small_cfg, r_sim=800.0, seed=3)
        b = sample_network(small_cfg, r_sim=800.0, seed=3)
        assert np.array_equal(a.cluster_centers, b.cluster_centers)
        assert np.array_equal(a.member_positions, b.member_positions)
        assert np.array_equal(a.representative_members, b.representative_members)

    def test_seed_changes_draw(self, small_cfg):
        a = sample_network(small_cfg, r_sim=800.0, seed=3)
        b = sample_network(small_cfg, r_sim=800.0, seed=4)
        assert not np.array_equal(a.cluster_centers, b.cluster_centers)

    def test_rejects_bad_radius(self, small_cfg):
        with pytest.raises(ValueError):
            sample_network(small_cfg, r_sim=0.0)

    def test_parent_count_near_mean(self, ref_cfg):
        real = sample_network(ref_cfg, seed=0)
        mean = ref_cfg.lambda_p * math.pi * real.r_sim**2
        assert abs(real.cluster_centers.shape[0] - mean) < 6 * math.sqrt(mean)

    def test_members_follow_their_centers(self, small_cfg):
        real = sample_network(small_cfg, r_sim=3000.0, seed=1)
        offsets = real.member_positions - real.cluster_centers[real.member_cluster]
        sd = offsets.std(ddof=1)
        n = offsets.size
        assert abs(sd - small_cfg.sigma) < 6 * small_cfg.sigma / math.sqrt(2 * n)

    def test_member_count_mean(self, small_cfg):
        real = sample_network(small_cfg, r_sim=3000.0, seed=2)
        n_clusters = real.cluster_centers.shape[0]
        mean_members = real.member_positions.shape[0] / n_clusters
        band = 6 * math.sqrt(small_cfg.n_bar / n_clusters)
        assert abs(mean_members - small_cfg.n_bar) < band

    def test_representative_link_distances_rayleigh(self, small_cfg):
        # pairwise distances from the origin are Rayleigh(sqrt(2) sigma):
        # squared distances are exponential with mean 4 sigma^2
        d_sq = []
        for seed in range(400):
            real = sample_network(small_cfg, r_sim=50.0, seed=seed)
            d_sq.extend((real.representative_members**2).sum(axis=1))
        d_sq = np.array(d_sq)
        mean = 4.0 * small_cfg.sigma**2
        assert abs(d_sq.mean() - mean) < 6 * mean / math.sqrt(d_sq.size)


class TestAttachCaches:
    def test_shapes_and_determinism(self, small_cfg):
        real = sample_network(small_cfg, r_sim=100.0, seed=7)
        lib = ContentLibrary.from_zipf(6, 0.5, 2)
        pol = CachingPolicy(np.full(6, 2 / 6))
        a = attach_caches(real, pol, seed=11)
        b = attach_caches(real, pol, seed=11)
        n_rep = real.representative_members.shape[0]
        assert a.cache_flags.shape == (n_rep, 6)
        assert a.typical_cache.shape == (6,)
        assert np.array_equal(a.cache_flags, b.cache_flags)

    def test_cache_rate_matches_probability(self, small_cfg):
        # wide library so one realization carries thousands of flags
        n_files, m = 400, 120
        lib = ContentLibrary.from_zipf(n_files, 0.0, m)
        pol = CachingPolicy(np.full(n_files, m / n_files))
        flags = []
        for seed in range(40):
            real = sample_network(small_cfg, r_sim=50.0, seed=seed)
            if real.representative_members.shape[0]:
                flags.append(attach_caches(real, pol, seed=seed).cache_flags)
        rate = np.concatenate(flags).mean()
        n = sum(f.size for f in flags)
        assert abs(rate - 0.3) < 6 * math.sqrt(0.3 * 0.7 / n)


class TestSimulateRequest:
    def test_outcome_vocabulary(self, small_cfg):
        lib = ContentLibrary.from_zipf(4, 0.5, 2)
        pol = CachingPolicy(np.full(4, 0.5))
        real = attach_caches(sample_network(small_cfg, seed=1), pol, seed=1)
        out = simulate_request(real, pol, 0, small_cfg, seed=1)
        assert out in OUTCOMES

    def test_certain_local_hit(self, small_cfg):
        pol = CachingPolicy(np.array([1.0, 0.0]))
        real = attach_caches(sample_network(small_cfg, seed=2), pol, seed=2)
        for seed in range(5):
            assert simulate_request(real, pol, 0, small_cfg, seed) == OUTCOME_LOCAL_HIT

    def test_certain_cluster_miss(self, small_cfg):
        pol = CachingPolicy(np.array([0.0, 1.0]))
        real = attach_caches(sample_network(small_cfg, seed=3), pol, seed=3)
        for seed in range(5):
            assert (
                simulate_request(real, pol, 0, small_cfg, seed)
                == OUTCOME_CLUSTER_MISS
            )

    def test_file_index_validated(self, small_cfg):
        pol = CachingPolicy(np.array([0.5, 0.5]))
        real = sample_network(small_cfg, seed=4)
        with pytest.raises(ValueError):
            simulate_request(real, pol, 2, small_cfg)


class TestEstimateCoverage:
    def test_validates_inputs(self, ref_cfg):
        with pytest.raises(ValueError):
            estimate_coverage(1.2, ref_cfg, trials=2000)
        with pytest.raises(ValueError):
            estimate_coverage(0.5, ref_cfg, trials=MIN_TRIALS - 1)

    def test_bitwise_deterministic(self, ref_cfg):
        a = estimate_coverage(0.6, ref_cfg, trials=2000, seed=17)
        b = estimate_coverage(0.6, ref_cfg, trials=2000, seed=17)
        assert a.mean == b.mean and a.half_width_95 == b.half_width_95

    def test_power_scaling_invariant(self, ref_cfg):
        # the transmit power cancels inside the SIR, bit for bit
        base = estimate_coverage(0.7, ref_cfg, trials=2000, seed=23)
        for power in (0.1, 10.0):
            scaled = estimate_coverage(
                0.7, ref_cfg.with_(gamma_d=power), trials=2000, seed=23
            )
            assert scaled.mean == base.mean

    def test_zero_probability_never_covered(self, ref_cfg):
        est = estimate_coverage(0.0, ref_cfg, trials=2000, seed=5)
        assert est.mean == 0.0
        assert est.half_width_95 == 0.0

    def test_unbiased_at_slow_path_loss(self, ref_cfg):
        # alpha 2.5: interference decays slowly, so any truncation of the
        # far field shows; the old 2,284 m window read 0.268 here
        cfg = ref_cfg.with_(alpha=2.5)
        exact = coverage_content(1.0, cfg, QuadratureSpec()).value
        est = estimate_coverage(1.0, cfg, trials=60_000, seed=31)
        assert abs(est.mean - exact) <= 2 * est.half_width_95

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_split_radius_does_not_move_mean(self, ref_cfg, alpha):
        cfg = ref_cfg.with_(alpha=alpha)
        r0 = default_sim_radius(cfg)
        near = estimate_coverage(1.0, cfg, trials=20_000, seed=37)
        wide = estimate_coverage(1.0, cfg, trials=20_000, seed=37, r_sim=3 * r0)
        combined = math.hypot(near.half_width_95, wide.half_width_95)
        assert abs(near.mean - wide.mean) <= 3 * combined

    def test_brute_force_window_agrees(self, ref_cfg):
        # independent reference: explicit window, per-trial fading draws and
        # the SIR indicator, conditioned on the device not holding the file
        c, trials = 0.5, 3000
        r_window = 20.0 / math.sqrt(math.pi * ref_cfg.lambda_p) + 10.0 * ref_cfg.sigma
        pol = CachingPolicy(np.array([c]))
        outcomes = [
            simulate_request(sample_network(ref_cfg, r_window, seed=[1, i]), pol, 0,
                             ref_cfg, seed=[2, i])
            for i in range(trials)
        ]
        served = np.array([o == OUTCOME_D2D_SUCCESS for o in outcomes
                           if o != OUTCOME_LOCAL_HIT])
        brute = served.mean()
        brute_hw = 1.96 * math.sqrt(brute * (1.0 - brute) / served.size)
        est = estimate_coverage(c, ref_cfg, trials=20_000, seed=41)
        combined = math.hypot(brute_hw, est.half_width_95)
        assert abs(brute - est.mean) <= 3 * combined

    def test_caterer_count_poisson_thinned(self, small_cfg):
        # member counts are Poisson(n_bar) and caches are Bernoulli(c)
        # thins, so the caterer count must be Poisson(c n_bar); chi-square
        # at the 1% level with tail pooling
        c, trials = 0.5, 20_000
        _, k = _run_coverage(np.full(trials, c), small_cfg, 30.0, seed=29)
        mean = c * small_cfg.n_bar
        k_max = int(stats.poisson.isf(1e-4, mean))
        observed = np.bincount(np.minimum(k, k_max), minlength=k_max + 1)
        expected = stats.poisson.pmf(np.arange(k_max + 1), mean)
        expected[-1] += stats.poisson.sf(k_max, mean)
        result = stats.chisquare(observed, expected * trials)
        assert result.pvalue > 0.01


class TestEstimateOffloading:
    def test_stratified_above_single_caterer_bound(self, ref_cfg):
        lib = ContentLibrary.from_zipf(10, 0.8, 3)
        pol = CachingPolicy(3 * lib.popularity / lib.popularity.sum())
        est = estimate_offloading(pol, lib, ref_cfg, trials=4000, seed=7)
        assert est.trials == 4000
        bound = offloading_closed_form_k1(pol, lib, ref_cfg)
        assert est.mean >= bound - est.half_width_95

    def test_matches_exact_gain(self, ref_cfg):
        # entries at 0 and 1 are known outcomes; the two interior ones are
        # simulated. Two members per cluster on average leave 30% and 45% of
        # their clusters without a caterer, so the caterer count's law shows.
        cfg = ref_cfg.with_(n_bar=2.0)
        lib = ContentLibrary.from_zipf(6, 0.8, 2)
        pol = CachingPolicy(np.array([1.0, 0.6, 0.4, 0.0, 0.0, 0.0]))
        exact = offloading_gain(
            pol, lib, lambda c: coverage_content(c, cfg, QuadratureSpec()))
        trials = 8000
        est = estimate_offloading(pol, lib, cfg, trials=trials, seed=13)
        assert est.trials == trials
        assert abs(est.mean - exact) <= 2 * est.half_width_95

    def test_deterministic_policy_is_exact(self, ref_cfg):
        lib = ContentLibrary.from_zipf(6, 0.9, 2)
        pol = policy_cpf(lib)
        est = estimate_offloading(pol, lib, ref_cfg, trials=2000, seed=3)
        assert est.trials == 2000
        assert est.mean == pytest.approx(
            float(lib.popularity[:2].sum()), rel=1e-12
        )
        assert est.half_width_95 == 0.0

    def test_few_requests_to_simulate_still_bounded_below(self, ref_cfg):
        # trials * W is 5 here; five simulated requests once drew coverage
        # values all near 0, a half-width of 4e-14 and a mean 2.4e-4 below
        # the single-caterer lower bound
        lib = ContentLibrary.from_zipf(100, 1.5, 5)
        pol = solve_p1(lib, ref_cfg).policy
        c, q = pol.probs, lib.popularity
        assert round(1000 * float(q @ ((1 - c) * -np.expm1(-c * ref_cfg.n_bar)))) == 5
        est = estimate_offloading(pol, lib, ref_cfg, trials=1000, seed=6000025)
        bound = offloading_closed_form_k1(pol, lib, ref_cfg)
        assert est.trials == 1000
        assert est.mean >= bound - 2 * est.half_width_95

    def test_shared_lattice_matches_fresh_call(self, ref_cfg):
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        lattice = _far_lattice(ref_cfg, default_sim_radius(ref_cfg))
        first = policy_zipf_proportional(lib)
        second = solve_p1(lib, ref_cfg).policy
        estimate_offloading(first, lib, ref_cfg, trials=2000, seed=5, _lattice=lattice)
        filled = dict(lattice._nodes)
        shared = estimate_offloading(second, lib, ref_cfg, trials=2000, seed=9,
                                     _lattice=lattice)
        assert filled and lattice._nodes.items() >= filled.items()
        assert shared == estimate_offloading(second, lib, ref_cfg, trials=2000, seed=9)

    def test_lattice_for_other_network_rejected(self, ref_cfg):
        lib = ContentLibrary.from_zipf(6, 0.9, 2)
        pol = policy_cpf(lib)
        r0 = default_sim_radius(ref_cfg)
        for cfg, radius in ((ref_cfg.with_(sigma=40.0), r0), (ref_cfg, 0.9 * r0)):
            with pytest.raises(ValueError, match="lattice"):
                estimate_offloading(pol, lib, ref_cfg, trials=2000,
                                    _lattice=_far_lattice(cfg, radius))
        with pytest.raises(ValueError, match="lattice"):
            estimate_offloading(pol, lib, ref_cfg, trials=2000, r_sim=2 * r0,
                                _lattice=_far_lattice(ref_cfg, r0))

    def test_infeasible_policy_rejected(self, ref_cfg):
        lib = ContentLibrary.from_zipf(4, 0.5, 2)
        with pytest.raises(ValueError):
            estimate_offloading(
                CachingPolicy(np.full(4, 0.9)), lib, ref_cfg, trials=2000
            )


class TestMonteCarloEstimate:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(mean=1.2, half_width_95=0.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            MonteCarloEstimate(mean=0.5, half_width_95=0.0, trials=0, seed=0)


def test_realization_is_frozen(small_cfg):
    real = sample_network(small_cfg, seed=1)
    with pytest.raises(Exception):
        real.r_sim = 10.0


class TestNearFieldStreams:
    """Each near-field chunk draws from its own SFC64 stream, keyed by one
    draw of the call's generator and the chunk's index."""

    # _run_coverage(C, small_cfg, 30.0, seed=29) caterer counts, computed
    # when the near field still drew from the call's own generator: the
    # caterers come first from that generator, as they did then
    FROZEN_K_SUM = 4365
    FROZEN_K_COUNTS = [230, 264, 231, 208, 194, 182, 88, 57, 26, 12, 5, 1, 1, 1]
    FROZEN_K_AT_1018 = [5, 7, 1, 5, 2, 2, 2, 0, 0, 4, 5, 1]

    def test_caterer_counts_frozen(self, small_cfg):
        c = np.full(1500, 0.5)
        c[::3] = 0.1
        _, k = _run_coverage(c, small_cfg, 30.0, seed=29)
        assert int(k.sum()) == self.FROZEN_K_SUM
        assert np.bincount(k).tolist() == self.FROZEN_K_COUNTS
        assert k[1018:1030].tolist() == self.FROZEN_K_AT_1018

    def test_chunk_unchanged_when_later_trials_dropped(self, ref_cfg, monkeypatch):
        sums = []
        near = simulator._near_exponents

        def recorded(t, cfg, r0, key, index):
            sums.append((index, near(t, cfg, r0, key, index)))
            return sums[-1][1]

        monkeypatch.setattr(simulator, "_near_exponents", recorded)
        t = simulator._draw_caterers(np.full(3 * _CHUNK + 100, 1.0), ref_cfg,
                                     simulator._as_generator(4))[0]
        r0 = default_sim_radius(ref_cfg)
        runs = []
        for trials in (t.size, 2 * _CHUNK):
            sums.clear()
            simulator._conditional_coverage(t[:trials], _far_lattice(ref_cfg, r0), ref_cfg, r0,
                                            simulator._as_generator(5))
            runs.append(dict(sums))
        assert sorted(runs[0]) == [0, 1, 2, 3] and sorted(runs[1]) == [0, 1]
        for index in (0, 1):
            assert _hexes(runs[1][index]) == _hexes(runs[0][index])


def _hexes(values):
    return [float(v).hex() for v in values]


class TestThreadCount:
    """Estimates are the same, to the last bit, at 1, 2 and 3 threads: the
    near-field chunks and the far-field nodes share the threads in any
    interleaving."""

    @staticmethod
    def at_each_count(monkeypatch, run):
        results = set()
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            est = run()
            results.add((est.mean.hex(), est.half_width_95.hex()))
        assert len(results) == 1
        return results.pop()

    @pytest.mark.parametrize("c_m", [1.0, 0.3, 0.0])
    def test_estimate_coverage(self, ref_cfg, monkeypatch, c_m):
        # 20 near-field chunks, spread over the threads beside the far nodes
        cfg = ref_cfg.with_(alpha=2.5)
        mean, half_width = self.at_each_count(
            monkeypatch, lambda: estimate_coverage(c_m, cfg, trials=20_000, seed=11))
        if c_m == 0.0:  # no trial is served
            assert (mean, half_width) == ((0.0).hex(), (0.0).hex())

    def test_estimate_offloading(self, ref_cfg, monkeypatch):
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        pol = policy_zipf_proportional(lib)
        c, q = pol.probs, lib.popularity
        trials = 3000  # simulates more than one near-field chunk of requests
        assert trials * float(q @ ((1 - c) * -np.expm1(-c * ref_cfg.n_bar))) > _CHUNK
        self.at_each_count(
            monkeypatch, lambda: estimate_offloading(pol, lib, ref_cfg, trials=trials, seed=5))

    def test_offload_sequence_sharing_one_lattice(self, ref_cfg, monkeypatch):
        # as offload-vs-beta runs them at the benchmark's library: every call
        # reads one far-field lattice and computes, beside its near field,
        # the nodes it lacks, growing the lattice's grid as it goes. The
        # first call, at beta 1, needs one tail panel fewer than a later one.
        calls = []
        for beta in (1.0, 0.5, 1.0):
            lib = ContentLibrary.from_zipf(100, beta, 5)
            for pol in (solve_p1(lib, ref_cfg).policy, policy_zipf_proportional(lib),
                        policy_cpf(lib)):
                calls.append((pol, lib))

        def run(lattice=None):
            results, held = [], []
            for seed, (pol, lib) in enumerate(calls):
                est = estimate_offloading(pol, lib, ref_cfg, trials=1000, seed=seed,
                                          _lattice=lattice)
                results.append((est.mean.hex(), est.half_width_95.hex()))
                held.append((len(lattice._nodes), lattice._grid.edges.size) if lattice else 0)
            return results, held

        shared = set()
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            results, held = run(_far_lattice(ref_cfg, default_sim_radius(ref_cfg)))
            # later calls added nodes, and grew the grid
            assert held[0][0] < held[-1][0] and held[0][1] < held[-1][1]
            shared.add(tuple(results))
        assert len(shared) == 1
        # each call with a lattice of its own gives the same bits
        assert tuple(run()[0]) == shared.pop()

    def test_failing_node_raises_and_is_not_kept(self, ref_cfg, monkeypatch):
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        pol = policy_zipf_proportional(lib)

        def offload(lattice):
            return estimate_offloading(pol, lib, ref_cfg, trials=3000, seed=5,
                                       _lattice=lattice)

        window = _far_lattice(ref_cfg, default_sim_radius(ref_cfg))
        offload(window)
        j_first, j_second = sorted(window._nodes)[2:10:7]
        exponent = analytic._OuterGrid.exponent
        bad = {analytic._lattice_t(j): j for j in (j_first, j_second)}

        def failing(grid, t, *args):
            if t in bad:
                raise NumericalError("injected", diagnostics={"t_gamma": t})
            return exponent(grid, t, *args)

        monkeypatch.setattr(analytic._OuterGrid, "exponent", failing)
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            lattice = _far_lattice(ref_cfg, default_sim_radius(ref_cfg))
            with pytest.raises(NumericalError) as raised:
                offload(lattice)
            # the first failing node in lattice order, with its diagnostics
            assert raised.value.diagnostics == {"t_gamma": analytic._lattice_t(j_first)}
            assert not set(bad.values()) & set(lattice._nodes)

    def test_failed_growth_leaves_the_grid_as_it_was(self, ref_cfg, monkeypatch):
        # the far-field grid's second row block (its coarse rows) fails once:
        # the call raises, the grid holds whole panels only, and the lattice
        # then serves a call as a fresh one would
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        pol = policy_zipf_proportional(lib)
        block = analytic._ZetaRows.block
        blocks = []

        def flaky(zeta_rows, v):
            blocks.extend([v.size] if v.size else [])  # a new grid's empty rows
            if len(blocks) == 2:
                raise RuntimeError("injected")
            return block(zeta_rows, v)

        def offload(lattice):
            est = estimate_offloading(pol, lib, ref_cfg, trials=3000, seed=5, _lattice=lattice)
            return est.mean.hex(), est.half_width_95.hex()

        fresh = offload(None)
        monkeypatch.setattr(analytic._ZetaRows, "block", flaky)
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            blocks.clear()
            lattice = _far_lattice(ref_cfg, default_sim_radius(ref_cfg))
            with pytest.raises(RuntimeError, match="injected"):
                offload(lattice)
            # the map's later nodes grew the grid again, whole
            grid = lattice._grid
            assert [zeta_rows.rows for *_, zeta_rows in grid._rules] == [
                (grid.edges.size - 1) * order for order, *_ in grid._rules]
            assert not lattice._nodes
            assert offload(lattice) == fresh
