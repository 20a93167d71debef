"""Monte Carlo simulator: estimators, and the brute-force reference that
checks them (geometry sampling, cache attachment, request outcomes).

Distributional checks use wide bands (5+ standard errors) so they are
deterministic in practice at the pinned seeds; exact reproducibility checks
are bitwise.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    compute_Z,
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
    validate_policy,
)
from d2dcache.optimizer import solve_p1
from d2dcache.simulator import (
    MIN_TRIALS,
    _CHUNK,
    MonteCarloEstimate,
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

    def test_caterer_count_zero_truncated_poisson(self, small_cfg, monkeypatch):
        # member counts are Poisson(n_bar) and caches are Bernoulli(c)
        # thins, so the caterer count is Poisson(c n_bar); only requests
        # with a caterer are simulated, so their counts must follow it
        # given k >= 1. Chi-square at the 1% level with tail pooling
        c, trials = 0.5, 20_000
        drawn = []
        caterer_t = simulator._caterer_t

        def recorded(k, cfg, rng):
            drawn.append(k.copy())
            return caterer_t(k, cfg, rng)

        monkeypatch.setattr(simulator, "_caterer_t", recorded)
        estimate_coverage(c, small_cfg, trials=trials, seed=29, r_sim=30.0)
        k = np.concatenate(drawn)
        mean = c * small_cfg.n_bar
        assert k.min() >= 1
        assert k.size == round(trials * -math.expm1(-mean))
        k_max = int(stats.poisson.isf(1e-4, mean))
        observed = np.bincount(np.minimum(k, k_max), minlength=k_max + 1)[1:]
        expected = stats.poisson.pmf(np.arange(1, k_max + 1), mean)
        expected[-1] += stats.poisson.sf(k_max, mean)
        expected /= stats.poisson.sf(0, mean)
        result = stats.chisquare(observed, expected * k.size)
        assert result.pvalue > 0.01

    def test_few_caterers_matches_exact(self):
        # two members per cluster and c = 0.2 leave 67% of the clusters
        # without a caterer: those requests are scored 0 exactly, not drawn
        cfg = NetworkConfig(lambda_p=40e-6, n_bar=2.0, sigma=50.0, alpha=4.0,
                            theta=1.0)
        exact = coverage_content(0.2, cfg, QuadratureSpec()).value
        est = estimate_coverage(0.2, cfg, trials=20_000, seed=43)
        assert est.trials == 20_000
        assert abs(est.mean - exact) <= 2 * est.half_width_95


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
        # a call that reads the nodes of an earlier call equals the same call
        # on an empty memo, bit for bit
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        first = policy_zipf_proportional(lib)
        second = solve_p1(lib, ref_cfg).policy
        estimate_offloading(first, lib, ref_cfg, trials=2000, seed=5)
        lattice = far_lattice(ref_cfg)
        filled = dict(lattice._nodes)
        shared = estimate_offloading(second, lib, ref_cfg, trials=2000, seed=9)
        assert filled and lattice._nodes.items() >= filled.items()
        analytic._lattices.cache_clear()
        assert shared == estimate_offloading(second, lib, ref_cfg, trials=2000, seed=9)

    # estimate_offloading(policy_zipf_proportional(Zipf(20, 0.8, 3)), ref_cfg,
    # trials=3000): (mean, half-width) in float hex, recorded before
    # estimate_coverage shared its sampler; the draws must not have moved
    FROZEN_HEX = {
        5: ("0x1.7b0b43b40431ap-2", "0x1.1113d07c5416fp-7"),
        2024: ("0x1.730ff7776eb76p-2", "0x1.068a816a23ce2p-7"),
    }

    @pytest.mark.parametrize("seed", sorted(FROZEN_HEX))
    def test_stream_frozen(self, ref_cfg, seed):
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        est = estimate_offloading(policy_zipf_proportional(lib), lib, ref_cfg,
                                  trials=3000, seed=seed)
        assert (est.mean.hex(), est.half_width_95.hex()) == self.FROZEN_HEX[seed]

    def test_infeasible_policy_rejected(self, ref_cfg):
        lib = ContentLibrary.from_zipf(4, 0.5, 2)
        with pytest.raises(ValueError):
            estimate_offloading(
                CachingPolicy(np.full(4, 0.9)), lib, ref_cfg, trials=2000
            )


def _on_budget(w, budget):
    """clip(w + t, 0, 1) at the shift t, found by bisection to the last
    ulp, at which the entries sum to budget."""
    lo, hi = -1.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.clip(w + mid, 0.0, 1.0).sum() < budget:
            lo = mid
        else:
            hi = mid
    return np.clip(w + hi, 0.0, 1.0)


@st.composite
def _feasible_vectors(draw):
    """(library, c) with c in [0, 1]^N on the library's budget."""
    n_files = draw(st.integers(2, 12))
    budget = draw(st.integers(1, n_files - 1))
    lib = ContentLibrary.from_zipf(n_files, draw(st.floats(0.0, 2.0)), budget)
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=n_files, max_size=n_files))
    return lib, _on_budget(np.array(w), budget)


class TestPolicyBox:
    """A caching policy is a vector of probabilities: every one on budget
    is accepted by each evaluator, and one ulp outside [0, 1] is refused
    when the policy is built."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_feasible_vectors())
    def test_feasible_vector_accepted_everywhere(self, ref_cfg, instance):
        lib, c = instance
        policy = CachingPolicy(c)
        assert validate_policy(policy, lib) == []
        assert 0.0 <= offloading_closed_form_k1(policy, lib, ref_cfg) <= 1.0
        n_bar, z = ref_cfg.n_bar, compute_Z(ref_cfg)

        def k1_coverage(ci):
            return ci * n_bar * math.exp(-ci * n_bar) / z

        assert 0.0 <= offloading_gain(policy, lib, k1_coverage) <= 1.0
        est = estimate_offloading(policy, lib, ref_cfg, trials=1000, seed=1)
        assert est.half_width_95 >= 0.0 and 0.0 <= est.mean <= 1.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_feasible_vectors(), st.data())
    def test_one_ulp_outside_refused(self, instance, data):
        _, c = instance
        m = data.draw(st.integers(0, c.size - 1))
        c[m] = np.nextafter(1.0, 2.0) if data.draw(st.booleans()) else np.nextafter(0.0, -1.0)
        with pytest.raises(ValueError, match=re.escape(f"got c_{m + 1} = {float(c[m])!r}")):
            CachingPolicy(c)


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

    def test_chunk_unchanged_when_later_trials_dropped(self, ref_cfg, monkeypatch):
        sums = []
        near = simulator._near_exponents

        def recorded(t, cfg, r0, key, index):
            sums.append((index, near(t, cfg, r0, key, index)))
            return sums[-1][1]

        monkeypatch.setattr(simulator, "_near_exponents", recorded)
        t = simulator._caterer_t(np.full(3 * _CHUNK + 100, 2), ref_cfg,
                                 simulator._as_generator(4))
        r0 = default_sim_radius(ref_cfg)
        runs = []
        for trials in (t.size, 2 * _CHUNK):
            sums.clear()
            simulator._conditional_coverage(t[:trials], ref_cfg, r0, simulator._as_generator(5))
            runs.append(dict(sums))
        assert sorted(runs[0]) == [0, 1, 2, 3] and sorted(runs[1]) == [0, 1]
        for index in (0, 1):
            assert _hexes(runs[1][index]) == _hexes(runs[0][index])


def far_lattice(cfg):
    """The process's far-field lattice of cfg at the default split radius."""
    return analytic._lattice(cfg, QuadratureSpec(), default_sim_radius(cfg))


def _hexes(values):
    return [float(v).hex() for v in values]


class TestThreadCount:
    """Estimates are the same, to the last bit, at 1, 2 and 3 threads: the
    far-field table and the near-field chunks share the threads in any
    interleaving."""

    @staticmethod
    def at_each_count(monkeypatch, run):
        results = set()
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            analytic._lattices.cache_clear()  # every count computes its own nodes
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
        # reads the process's far-field lattice and adds the nodes it lacks
        calls = []
        for beta in (1.0, 0.5, 1.0):
            lib = ContentLibrary.from_zipf(100, beta, 5)
            for pol in (solve_p1(lib, ref_cfg).policy, policy_zipf_proportional(lib),
                        policy_cpf(lib)):
                calls.append((pol, lib))

        def run(fresh):
            results, held = [], []
            for seed, (pol, lib) in enumerate(calls):
                if fresh:
                    analytic._lattices.cache_clear()
                est = estimate_offloading(pol, lib, ref_cfg, trials=1000, seed=seed)
                results.append((est.mean.hex(), est.half_width_95.hex()))
                held.append(len(far_lattice(ref_cfg)._nodes))
            return results, held

        shared = set()
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            analytic._lattices.cache_clear()
            results, held = run(fresh=False)
            assert held[0] < held[-1]  # later calls added nodes
            shared.add(tuple(results))
        assert len(shared) == 1
        # each call on an empty memo gives the same bits
        assert tuple(run(fresh=True)[0]) == shared.pop()

    def test_failing_node_raises_and_is_not_kept(self, ref_cfg, monkeypatch):
        lib = ContentLibrary.from_zipf(20, 0.8, 3)
        pol = policy_zipf_proportional(lib)

        def offload():
            return estimate_offloading(pol, lib, ref_cfg, trials=3000, seed=5)

        offload()
        lattice = far_lattice(ref_cfg)
        j_first, j_second = sorted(lattice._nodes)[2:10:7]
        exponent = analytic._OuterGrid.exponent
        bad = {analytic._lattice_t(j): j for j in (j_first, j_second)}

        def failing(grid, t, *args):
            if t in bad:
                raise NumericalError("injected", diagnostics={"t_gamma": t})
            return exponent(grid, t, *args)

        monkeypatch.setattr(analytic._OuterGrid, "exponent", failing)
        for threads in (1, 2, 3):
            monkeypatch.setattr(analytic, "_thread_count", lambda: threads)
            analytic._lattices.cache_clear()
            with pytest.raises(NumericalError) as raised:
                offload()
            # the first failing node in lattice order, with its diagnostics
            assert raised.value.diagnostics == {"t_gamma": analytic._lattice_t(j_first)}
            # the memo's lattice keeps none of the failed batch's nodes
            assert not far_lattice(ref_cfg)._nodes
