"""Domain types: configuration, popularity, policies, and their constraints."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import yaml

from d2dcache.cli import load_config
from d2dcache.model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
    require_valid_policy,
    validate_policy,
    zipf_popularity,
)

# Frozen oracles, arbitrary-precision evaluation at 30 digits.
ZIPF_SUM_100_05 = 18.589603824784153  # sum of k**-0.5 for k = 1..100
Q1_100_05 = 0.053793507888897204      # leading Zipf probability, N=100 beta=0.5


def load_network(tmp_path, text):
    """The NetworkConfig that a config file of text loads to."""
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return load_config(str(path)).network


class TestNetworkConfig:
    # theta is the one threshold; a config file's rate threshold rho loads
    # as theta = 2**rho - 1, so the rho cases load a config

    def test_theta_canonical_from_rho(self, tmp_path):
        cfg = load_network(tmp_path, "network: {rho: 2}\n")
        assert cfg.theta == 3.0 and type(cfg.theta) is float
        assert not hasattr(cfg, "rho")
        assert load_network(tmp_path, "network: {rho: 2 bps/hz}\n") == cfg
        assert load_network(tmp_path, "network: {theta: 3}\n") == cfg

    def test_consistent_pair_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="network takes theta or rho, not both"):
            load_network(tmp_path, "network: {theta: 3, rho: 2}\n")

    def test_inconsistent_pair_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="network takes theta or rho, not both"):
            load_network(tmp_path, "network: {theta: 3, rho: 1}\n")

    def test_threshold_required(self):
        with pytest.raises(ValueError, match="theta"):
            NetworkConfig(lambda_p=1e-5, n_bar=4, sigma=10, alpha=4)

    @pytest.mark.parametrize("field,value", [
        ("lambda_p", 0.0), ("lambda_p", -1.0), ("n_bar", 0.0),
        ("sigma", -5.0), ("gamma_d", 0.0), ("alpha", 2.0), ("alpha", 1.5),
        ("alpha", math.inf), ("alpha", math.nan), ("theta", math.inf),
        ("theta", math.nan),
    ])
    def test_bad_parameters_rejected(self, field, value):
        kwargs = dict(lambda_p=1e-5, n_bar=4.0, sigma=10.0, alpha=4.0, theta=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize("thresholds", [
        dict(rho=math.inf), dict(rho=math.nan), dict(rho=2000.0),
        dict(theta=math.inf, rho=math.inf), dict(theta=1.0, rho=2000.0),
    ])
    def test_non_finite_rate_threshold_rejected(self, tmp_path, thresholds):
        # 2**rho - 1 is infinite (or overflows) for each of these
        with pytest.raises(ValueError, match="network setting 'rho' must be a rate"):
            load_network(tmp_path, yaml.safe_dump({"network": thresholds}))

    def test_immutable(self, ref_cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref_cfg.sigma = 1.0

    # with_ replaces fields and re-runs the checks; with one threshold
    # there is nothing left for it to derive

    def test_with_rederives_rho(self, ref_cfg):
        changed = ref_cfg.with_(theta=3, sigma=20.0)
        assert changed == NetworkConfig(ref_cfg.lambda_p, ref_cfg.n_bar, 20.0,
                                        ref_cfg.alpha, ref_cfg.gamma_d, 3.0)
        assert type(changed.theta) is float
        assert math.log2(1.0 + changed.theta) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ValueError, match="theta"):
            ref_cfg.with_(theta=0.0)

    def test_with_rederives_theta(self, ref_cfg, tmp_path):
        with pytest.raises(TypeError, match="rho"):
            ref_cfg.with_(rho=1.0)
        loaded = load_network(tmp_path, "network: {rho: 0.5}\n")
        assert loaded.theta == pytest.approx(2.0**0.5 - 1.0, rel=1e-12)
        assert loaded.with_(sigma=20.0).theta == loaded.theta


class TestZipfPopularity:
    def test_uniform_at_beta_zero(self):
        q = zipf_popularity(10, 0.0)
        assert np.allclose(q, 0.1, atol=1e-15)

    def test_leading_probability_oracle(self):
        q = zipf_popularity(100, 0.5)
        assert q[0] == pytest.approx(Q1_100_05, rel=1e-13)
        assert q[0] == pytest.approx(1.0 / ZIPF_SUM_100_05, rel=1e-13)

    def test_normalization_tight(self):
        for n, beta in [(1, 0.0), (100, 0.5), (1000, 1.2), (50, 2.0)]:
            assert abs(zipf_popularity(n, beta).sum() - 1.0) < 1e-12

    def test_non_increasing(self):
        q = zipf_popularity(200, 0.7)
        assert np.all(np.diff(q) <= 0)

    def test_read_only(self):
        q = zipf_popularity(5, 0.5)
        with pytest.raises(ValueError):
            q[0] = 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 0.5)
        with pytest.raises(ValueError):
            zipf_popularity(10, -0.1)


class TestContentLibrary:
    def test_from_zipf_populates(self):
        lib = ContentLibrary.from_zipf(100, 0.5, 5)
        assert lib.n_files == 100 and lib.cache_size == 5
        assert lib.popularity[0] == pytest.approx(Q1_100_05, rel=1e-13)

    def test_explicit_popularity_checked(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ContentLibrary(3, 0.0, 1, popularity=np.array([0.5, 0.4, 0.3]))
        with pytest.raises(ValueError, match="non-increasing"):
            ContentLibrary(3, 0.0, 1, popularity=np.array([0.2, 0.5, 0.3]))
        with pytest.raises(ValueError, match="shape"):
            ContentLibrary(3, 0.0, 1, popularity=np.array([0.5, 0.5]))

    def test_cache_size_bounds(self):
        with pytest.raises(ValueError):
            ContentLibrary.from_zipf(5, 0.5, 0)
        with pytest.raises(ValueError):
            ContentLibrary.from_zipf(5, 0.5, 5)  # budget must leave a miss

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        # a NaN beta gave an all-NaN popularity vector
        with pytest.raises(ValueError, match="beta must be a finite number"):
            ContentLibrary.from_zipf(5, beta, 2)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            zipf_popularity(5, beta)


class TestCachingPolicy:
    def test_read_only_and_len(self):
        pol = CachingPolicy(np.array([0.5, 0.5]))
        assert len(pol) == 2
        with pytest.raises(ValueError):
            pol.probs[0] = 1.0

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            CachingPolicy(np.array([]))
        with pytest.raises(ValueError):
            CachingPolicy(np.array([[0.5], [0.5]]))
        with pytest.raises(ValueError):
            CachingPolicy(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("head, entry", [
        ([1 + 5e-13, 1 - 5e-13], "c_1 = 1.0000000000005"),
        ([-5e-13, 1.0, 1 + 5e-13], "c_1 = -5e-13"),
    ])
    def test_refuses_a_vector_just_outside_the_box(self, head, entry):
        # validate_policy let both through (a 1e-12 tolerance); the first
        # then failed inside numpy's sampler, and the second gave the
        # simulated offloading a negative half-width
        with pytest.raises(ValueError, match=re.escape(entry)):
            CachingPolicy(np.array(head + [0.0] * (10 - len(head))))

    @pytest.mark.parametrize("value", [-5e-13, 1 + 5e-13])
    @pytest.mark.parametrize("position", range(4))
    def test_refuses_an_entry_outside_the_box_in_any_position(self, value, position):
        c = np.full(4, 0.5)
        c[position] = value
        with pytest.raises(ValueError, match=re.escape(f"c_{position + 1} = {value!r}")):
            CachingPolicy(c)


class TestValidatePolicy:
    def test_feasible_policy_clean(self):
        lib = ContentLibrary.from_zipf(4, 0.5, 2)
        assert validate_policy(CachingPolicy(np.full(4, 0.5)), lib) == []

    def test_box_violations_reported(self):
        # the box is the policy's own: such a vector is refused when built,
        # so validate_policy never sees it
        with pytest.raises(ValueError, match=r"probs must lie in \[0, 1\], got c_1 = 1\.2"):
            CachingPolicy(np.array([1.2, -0.1, -0.1]))

    def test_budget_violation_reported(self):
        lib = ContentLibrary.from_zipf(3, 0.0, 2)
        bad = CachingPolicy(np.array([0.5, 0.5, 0.5]))
        assert any("budget" in v for v in validate_policy(bad, lib))

    def test_length_mismatch_raises(self):
        lib = ContentLibrary.from_zipf(3, 0.0, 1)
        with pytest.raises(ValueError, match="length"):
            validate_policy(CachingPolicy(np.array([1.0])), lib)

    def test_require_valid_policy_raises(self):
        lib = ContentLibrary.from_zipf(3, 0.0, 2)
        with pytest.raises(ValueError, match="infeasible"):
            require_valid_policy(CachingPolicy(np.array([1.0, 1.0, 1.0])), lib)


class TestBaselinePolicies:
    def test_cpf_caches_top_files(self):
        lib = ContentLibrary.from_zipf(6, 1.0, 2)
        assert np.array_equal(policy_cpf(lib).probs, [1, 1, 0, 0, 0, 0])

    def test_cpf_budget_nearly_full(self):
        lib = ContentLibrary.from_zipf(4, 0.5, 3)
        assert np.array_equal(policy_cpf(lib).probs, [1, 1, 1, 0])

    def test_uniform_policy(self):
        lib = ContentLibrary.from_zipf(10, 1.5, 5)
        assert np.allclose(policy_uniform(lib).probs, 0.5)

    def test_zipf_proportional_uniform_at_beta_zero(self):
        lib = ContentLibrary.from_zipf(10, 0.0, 5)
        assert np.allclose(policy_zipf_proportional(lib).probs, 0.5, atol=1e-15)

    def test_zipf_proportional_unclipped_case(self):
        # M * q_1 < 1, so no clipping: the head entry is exactly M * q_1
        lib = ContentLibrary.from_zipf(100, 0.5, 5)
        pol = policy_zipf_proportional(lib)
        assert pol.probs[0] == pytest.approx(5 * Q1_100_05, rel=1e-12)
        assert np.allclose(pol.probs, 5 * lib.popularity, rtol=1e-12)

    def test_zipf_proportional_redistributes(self):
        # steep popularity: head files pin at 1, the tail keeps the rest
        lib = ContentLibrary.from_zipf(3, 20.0, 2)
        c = policy_zipf_proportional(lib).probs
        assert c[0] == 1.0
        assert c[1] > 0.99 and c[2] < 0.01
        assert math.isclose(c.sum(), 2.0, abs_tol=1e-9)

    def test_zipf_proportional_zero_popularity_tail(self):
        lib = ContentLibrary(n_files=6, beta=0.0, cache_size=4,
                             popularity=np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = policy_zipf_proportional(lib).probs
        assert c.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("n,beta,m", [
        (10, 0.0, 5), (100, 0.5, 5), (20, 1.3, 7), (5, 3.0, 3), (50, 2.5, 10),
    ])
    def test_all_baselines_feasible(self, n, beta, m):
        lib = ContentLibrary.from_zipf(n, beta, m)
        for build in (policy_cpf, policy_uniform, policy_zipf_proportional):
            assert validate_policy(build(lib), lib) == []

    def test_zipf_proportional_order_matches_popularity(self):
        lib = ContentLibrary.from_zipf(30, 1.1, 4)
        c = policy_zipf_proportional(lib).probs
        assert np.all(np.diff(c) <= 1e-15)
