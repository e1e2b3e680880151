import numpy as np
import pytest

from cvprivacy import (
    InsufficientStatistics,
    NoAcceptedSamples,
    ProtocolConfig,
    advantage_distillation,
    run_simulation,
    sample_postselected_bits,
    single_mode_thermal,
    slope_check,
    symmetric_state,
    tensor,
)
from cvprivacy.simulate import _ad_block_stats

REFERENCE = symmetric_state(2.0, 1.2, 1.2)
# eps_B at (lam=2, c=1.2), X0=1, from the odds ratio exp(-1.875)
EPS_REF = np.exp(-1.875) / (1.0 + np.exp(-1.875))


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(x0=1.0, delta=2.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n_samples=10)
    with pytest.raises(ValueError):
        ProtocolConfig(n_rounds=0)


def test_determinism_bit_identical():
    cfg = ProtocolConfig(x0=1.0, delta=0.05, n_samples=500_000, seed=123, n_rounds=2)
    a = run_simulation(sample_postselected_bits(REFERENCE, cfg), cfg)
    b = run_simulation(sample_postselected_bits(REFERENCE, cfg), cfg)
    assert a.accepted_pairs == b.accepted_pairs
    assert a.eps_b_hat == b.eps_b_hat
    assert a.eps_bn_hat == b.eps_bn_hat
    assert a.ad_yield == b.ad_yield


def test_product_state_error_rate_is_half():
    state = tensor(single_mode_thermal(2.0), single_mode_thermal(2.0))
    cfg = ProtocolConfig(x0=1.0, delta=0.1, n_samples=2_000_000, seed=5)
    stage = sample_postselected_bits(state, cfg)
    assert abs(stage.eps_b_hat - 0.5) < 3 * stage.eps_b_se


def test_reference_state_error_rate():
    cfg = ProtocolConfig(x0=1.0, delta=0.01, n_samples=10_000_000, seed=42)
    stage = sample_postselected_bits(REFERENCE, cfg)
    assert abs(stage.eps_b_hat - EPS_REF) < 3 * stage.eps_b_se


def test_error_rate_decreases_with_correlation():
    cfg = ProtocolConfig(x0=1.0, delta=0.05, n_samples=4_000_000, seed=8)
    weak = sample_postselected_bits(symmetric_state(2.0, 0.8, 0.8), cfg)
    strong = sample_postselected_bits(symmetric_state(2.0, 1.6, 1.6), cfg)
    assert strong.eps_b_hat < weak.eps_b_hat


def test_window_shrink_converges_to_analytic_value():
    tight = ProtocolConfig(x0=1.0, delta=0.005, n_samples=20_000_000, seed=21)
    wide = ProtocolConfig(x0=1.0, delta=0.1, n_samples=20_000_000, seed=21)
    eps_tight = sample_postselected_bits(REFERENCE, tight)
    eps_wide = sample_postselected_bits(REFERENCE, wide)
    assert abs(eps_tight.eps_b_hat - EPS_REF) < abs(
        eps_wide.eps_b_hat - EPS_REF
    ) + 3 * eps_tight.eps_b_se


def test_no_accepted_samples_raises():
    cfg = ProtocolConfig(x0=9.0, delta=0.001, n_samples=10_000, seed=1)
    with pytest.raises(NoAcceptedSamples):
        sample_postselected_bits(REFERENCE, cfg)


def test_ad_error_free_streams():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=9_000).astype(bool)
    dist_a, dist_b, ad_yield = advantage_distillation(bits, bits, 3, rng)
    assert ad_yield == 1.0
    assert dist_a.shape[0] == 3_000
    assert np.array_equal(dist_a, dist_b)


def test_ad_single_round_is_identity_rate():
    rng = np.random.default_rng(4)
    bits_a = rng.integers(0, 2, size=200_000).astype(bool)
    flips = rng.random(200_000) < 0.2
    bits_b = bits_a ^ flips
    dist_a, dist_b, ad_yield = advantage_distillation(bits_a, bits_b, 1, rng)
    assert ad_yield == 1.0
    eps_1 = np.mean(dist_a != dist_b)
    assert abs(eps_1 - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 200_000)


@pytest.mark.parametrize("n_rounds", [2, 3, 4])
def test_ad_iid_flips_match_binomial_analysis(n_rounds):
    # oracle: for i.i.d. flips at rate eps the distilled error is
    # eps^N / (eps^N + (1 - eps)^N)
    eps = 0.25
    rng = np.random.default_rng(40 + n_rounds)
    n = 1_200_000
    bits_a = rng.integers(0, 2, size=n).astype(bool)
    bits_b = bits_a ^ (rng.random(n) < eps)
    dist_a, dist_b, ad_yield = advantage_distillation(bits_a, bits_b, n_rounds, rng)
    expected = eps ** n_rounds / (eps ** n_rounds + (1 - eps) ** n_rounds)
    got = np.mean(dist_a != dist_b)
    se = np.sqrt(expected * (1 - expected) / dist_a.shape[0])
    assert abs(got - expected) < 3 * se + 1e-4
    expected_yield = eps ** n_rounds + (1 - eps) ** n_rounds
    assert abs(ad_yield - expected_yield) < 0.01


def test_ad_distillation_reduces_error():
    cfg = ProtocolConfig(x0=1.0, delta=0.1, n_samples=8_000_000, seed=9, n_rounds=2)
    result = run_simulation(sample_postselected_bits(REFERENCE, cfg), cfg)
    assert result.ad_yield <= 1.0
    assert result.eps_bn_hat <= result.eps_b_hat


def test_slope_check_reference_state():
    cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=8_000_000, seed=13)
    fit = slope_check(sample_postselected_bits(REFERENCE, cfg), cfg, range(1, 5))
    assert abs(fit.slope - (-1.875)) < 0.08


def test_slope_check_product_state_flat():
    state = tensor(single_mode_thermal(2.0), single_mode_thermal(2.0))
    cfg = ProtocolConfig(x0=1.0, delta=0.1, n_samples=2_000_000, seed=14)
    fit = slope_check(sample_postselected_bits(state, cfg), cfg, range(1, 4))
    # eps stays 1/2: log eps_BN is constant up to noise
    assert abs(fit.slope) < 0.05


def test_slope_invariant_under_window_width():
    n_range = range(1, 4)
    fits = []
    for delta, seed in ((0.005, 31), (0.02, 32)):
        cfg = ProtocolConfig(x0=1.0, delta=delta, n_samples=20_000_000, seed=seed)
        fits.append(slope_check(sample_postselected_bits(REFERENCE, cfg), cfg, n_range))
    gap = abs(fits[0].slope - fits[1].slope)
    assert gap < 3 * (fits[0].stderr + fits[1].stderr) + 0.05


def test_slope_check_insufficient_statistics():
    cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=1_000_000, seed=15)
    with pytest.raises(InsufficientStatistics):
        slope_check(
            sample_postselected_bits(REFERENCE, cfg), cfg, range(6, 9), max_blocks_per_n=1_000
        )


def test_slope_check_far_block_lengths_are_flagged():
    # eps^N falls below 1e-306 past N ~ 345 and underflows to 0 past N ~ 365;
    # those budgets are capped, drawn and flagged, not divided out
    cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=2_000_000, seed=16)
    stage = sample_postselected_bits(REFERENCE, cfg)
    fit = slope_check(stage, cfg, range(1, 401))
    assert len(fit.points) == 400
    assert abs(fit.slope - (-1.875)) < 0.2
    for p in fit.points:
        if stage.eps_b_hat ** p.n_rounds * 2_000_000_000 < 150:
            assert p.blocks == 2_000_000_000
            assert not p.sufficient
    assert not any(p.sufficient for p in fit.points[20:])


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("n_rounds", [1, 4, 8])
def test_aggregate_block_counts_match_multinomial(eps, n_rounds):
    n_blocks = 10_000_000
    accepted, errors = _ad_block_stats(eps, n_rounds, n_blocks, seed=77, lane_index=n_rounds)
    p_err = eps ** n_rounds
    p_acc = p_err + (1.0 - eps) ** n_rounds
    q = p_err / p_acc
    assert abs(accepted - n_blocks * p_acc) <= 6 * np.sqrt(n_blocks * p_acc * (1 - p_acc))
    assert abs(errors - accepted * q) <= 6 * np.sqrt(accepted * q * (1 - q))
    again = _ad_block_stats(eps, n_rounds, n_blocks, seed=77, lane_index=n_rounds)
    assert again == (accepted, errors)


def test_aggregate_block_counts_at_the_block_cap():
    accepted, errors = _ad_block_stats(0.13, 8, 2_000_000_000, seed=1, lane_index=8)
    assert 0 <= errors <= accepted <= 2_000_000_000
