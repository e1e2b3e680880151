import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from cvprivacy import (
    BipartiteSplit,
    GaussianState,
    InsufficientStatistics,
    NoAcceptedSamples,
    ProtocolConfig,
    advantage_distillation,
    reorder_modes,
    run_simulation,
    sample_postselected_bits,
    single_mode_thermal,
    slope_check,
    symmetric_state,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)
from cvprivacy import simulate
from cvprivacy.simulate import _block_outcomes, _box_probabilities, _stream
from cvprivacy.states import GaussianDensity, _resolve_x_coords, quadrature_density

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


def _bit_level_pass(boxes, n_raw, n_rounds, rng):
    """Reference stage and pass: draw the window counts, build the bits, distill.

    Returns (accepted pairs, error pairs, distilled blocks, distilled
    errors) from bit arrays built out of one multinomial over the window
    boxes and the reject cell, passed through ``advantage_distillation``.
    """
    counts = rng.multinomial(n_raw, [*boxes, 1.0 - boxes.sum()])[:4]
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    bits_a = np.repeat(signs[:, 0] < 0, counts)
    bits_b = np.repeat(signs[:, 1] < 0, counts)
    dist_a, dist_b, _ = advantage_distillation(bits_a, bits_b, n_rounds, rng)
    n_err = int(np.count_nonzero(dist_a != dist_b))
    return counts.sum(), counts[1] + counts[2], dist_a.shape[0], n_err


def test_counts_only_pass_has_the_law_of_the_bit_level_pass(monkeypatch):
    # the stage's (accepted, error pairs, distilled blocks, distilled
    # errors) against bit arrays shuffled into blocks, over independent
    # seeds: means within 4 SE of each other, and the correlation of
    # error pairs with distilled errors (about 0.2 here) within 4 SE; both
    # paths start from the same box probabilities, computed once
    cfg = dict(x0=1.0, delta=0.05, n_samples=2_000_000, n_rounds=3)
    boxes = _box_probabilities(quadrature_density(REFERENCE, (0, 2)), 1.0, 0.05)
    monkeypatch.setattr(simulate, "_box_probabilities", lambda *a: boxes)
    reps = 1_000
    new, old = [], []
    for seed in range(1, reps + 1):
        c = ProtocolConfig(seed=seed, **cfg)
        stage = sample_postselected_bits(REFERENCE, c)
        result = run_simulation(stage, c)
        new.append((stage.accepted_pairs, stage.error_pairs,
                    result.distilled_blocks, result.distilled_errors))
        old.append(_bit_level_pass(boxes, cfg["n_samples"], 3, np.random.default_rng(seed)))
    new, old = np.array(new, dtype=float), np.array(old, dtype=float)
    gap = np.abs(new.mean(axis=0) - old.mean(axis=0))
    se = np.sqrt((new.var(axis=0) + old.var(axis=0)) / reps)
    assert np.all(gap <= 4 * se), (new.mean(axis=0), old.mean(axis=0), se)
    r_new = np.corrcoef(new[:, 1], new[:, 3])[0, 1]
    r_old = np.corrcoef(old[:, 1], old[:, 3])[0, 1]
    assert r_old > 0.15
    assert abs(r_new - r_old) <= 4 * math.sqrt(2.0) * (1 - r_old**2) / math.sqrt(reps)


def test_stage_counts_are_consistent():
    cfg = ProtocolConfig(x0=1.0, delta=0.2, n_samples=1_000_000, seed=6, n_rounds=4)
    stage = sample_postselected_bits(REFERENCE, cfg)
    counts = stage.block_counts
    assert counts.shape == (5,) and not counts.flags.writeable
    assert counts.sum() == stage.accepted_pairs // 4
    block_errors = int(counts @ np.arange(5))
    assert block_errors <= stage.error_pairs <= block_errors + stage.accepted_pairs % 4
    assert stage.eps_b_hat == stage.error_pairs / stage.accepted_pairs
    result = run_simulation(stage, cfg)
    assert result.distilled_blocks == counts[0] + counts[4]
    assert result.distilled_errors == counts[4]
    assert result.ad_yield == result.distilled_blocks / counts.sum()


def test_pass_needs_the_stage_of_its_block_length():
    cfg = ProtocolConfig(x0=1.0, delta=0.2, n_samples=100_000, seed=6, n_rounds=4)
    stage = sample_postselected_bits(REFERENCE, cfg)
    with pytest.raises(ValueError, match="blocks of 4"):
        run_simulation(stage, ProtocolConfig(x0=1.0, delta=0.2, n_samples=100_000, seed=6))


def test_fewer_accepted_pairs_than_one_block():
    cfg = ProtocolConfig(x0=1.0, delta=0.05, n_samples=10_000, seed=2, n_rounds=1_000)
    stage = sample_postselected_bits(REFERENCE, cfg)
    assert 0 < stage.accepted_pairs < cfg.n_rounds
    assert stage.block_counts.sum() == 0
    with pytest.raises(InsufficientStatistics):
        run_simulation(stage, cfg)


def test_wide_window_pass_does_not_grow_with_accepted_pairs():
    # 10^8 raw draws, of which ~7.8e7 land in the window: the stage and the
    # pass are counts, so neither time nor memory follows the accepted pairs
    state = two_mode_squeezed(0.5)
    cfg = ProtocolConfig(x0=1.0, delta=0.9, n_samples=100_000_000, seed=1, n_rounds=3)
    run_simulation(sample_postselected_bits(state, cfg), cfg)
    start = time.perf_counter()
    stage = sample_postselected_bits(state, cfg)
    result = run_simulation(stage, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    tracemalloc.start()
    try:
        run_simulation(sample_postselected_bits(state, cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    n, p = cfg.n_samples, stage.window_probability
    assert p > 0.75
    assert abs(stage.accepted_pairs - n * p) <= 6 * math.sqrt(n * p * (1 - p))
    eps = stage.eps_b_hat
    p_acc = eps**3 + (1 - eps) ** 3
    blocks = stage.accepted_pairs // 3
    assert abs(result.distilled_blocks - blocks * p_acc) <= 6 * math.sqrt(blocks * p_acc)


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
    # those budgets are capped, drawn and flagged, not divided out; 10^8 raw
    # draws put the 0.2 slope bound beyond 6 standard errors of eps_b_hat
    cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=100_000_000, seed=16)
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
    counts = _block_outcomes(eps, n_rounds, n_blocks, _stream(77, 1, n_rounds))
    assert counts.shape == (n_rounds + 1,) and counts.sum() == n_blocks
    pmf = np.array([math.comb(n_rounds, j) * eps**j * (1 - eps) ** (n_rounds - j)
                    for j in range(n_rounds + 1)])
    assert np.all(np.abs(counts - n_blocks * pmf) <= 6 * np.sqrt(n_blocks * pmf * (1 - pmf)))
    accepted, errors = counts[0] + counts[-1], counts[-1]
    p_err = eps ** n_rounds
    p_acc = p_err + (1.0 - eps) ** n_rounds
    q = p_err / p_acc
    assert abs(accepted - n_blocks * p_acc) <= 6 * np.sqrt(n_blocks * p_acc * (1 - p_acc))
    assert abs(errors - accepted * q) <= 6 * np.sqrt(accepted * q * (1 - q))
    again = _block_outcomes(eps, n_rounds, n_blocks, _stream(77, 1, n_rounds))
    assert np.array_equal(again, counts)


def test_stream_state_equals_jumped_philox():
    for seed in (0, 7, 12345, 2**31 - 2, 2**63 + 5):
        for lane in (0, 1):
            for index in range(34):
                got = _stream(seed, lane, index).bit_generator.state
                want = np.random.Philox(key=seed + (lane << 64)).jumped(index).state
                assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
                assert np.array_equal(got["state"]["key"], want["state"]["key"])
                assert np.array_equal(got["buffer"], want["buffer"])
                for field in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
                    assert got[field] == want[field]


def test_aggregate_block_counts_at_the_block_cap():
    counts = _block_outcomes(0.13, 8, 2_000_000_000, _stream(1, 1, 8))
    assert np.all(counts >= 0) and counts.sum() == 2_000_000_000


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_block_outcomes_of_certain_pairs(eps):
    counts = _block_outcomes(eps, 5, 1_000, _stream(2, 1, 5))
    assert counts[5 if eps else 0] == 1_000 and counts.sum() == 1_000


# -- the aggregate window draw against independent references ---------------

# the symmetric pair on modes 0 and 2 with vacuum on mode 1; split 2+1
# measures the X quadratures of modes 0 and 2, coordinates (0, 4)
PAIR_2_1 = reorder_modes(tensor(symmetric_state(2.0, 1.3, 1.3), vacuum_state(1)), [0, 2, 1])
ORACLE_STATES = {
    "reference": (REFERENCE, None),
    "product": (tensor(single_mode_thermal(2.0), single_mode_thermal(2.0)), None),
    "split_2_1": (PAIR_2_1, _resolve_x_coords(PAIR_2_1, BipartiteSplit(2, 1))),
    "displaced": (GaussianState(REFERENCE.cov, (0.3, 0.0, -0.2, 0.0)), None),
}


def _rejection_counts(state, cfg, coords=None, chunk=1 << 20):
    """Reference sampler: draw every raw pair and count those in the window.

    Returns (accepted pairs, pairs whose signs differ) over ``cfg.n_samples``
    draws of the measured X quadratures, in chunks from one generator.
    """
    density = quadrature_density(state, _resolve_x_coords(state, coords=coords))
    L = np.linalg.cholesky(density.cov)
    rng = np.random.default_rng(cfg.seed)
    accepted = errors = 0
    remaining = cfg.n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        xy = rng.standard_normal((m, 2)) @ L.T + density.mean
        kept = xy[np.all(np.abs(np.abs(xy) - cfg.x0) <= cfg.delta, axis=1)]
        accepted += kept.shape[0]
        errors += int(np.count_nonzero((kept[:, 0] < 0) != (kept[:, 1] < 0)))
        remaining -= m
    return accepted, errors


def _quad_box_probabilities(density, x0, delta):
    """Reference: each window box by adaptive quadrature over Alice's interval.

    Boxes in the order (+, +), (+, -), (-, +), (-, -) of the signs of
    (X_A, X_B); Bob's conditional law given X_A comes from the Cholesky
    factor of the density's covariance, as in the sampler.
    """
    (l11, _), (l21, l22) = np.linalg.cholesky(density.cov)
    slope = l21 / l11
    m_a, m_b = density.mean
    out = []
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        a_lo, a_hi = sa * x0 - delta, sa * x0 + delta
        b_lo, b_hi = sb * x0 - delta, sb * x0 + delta

        def integrand(x):
            mu = m_b + slope * (x - m_a)
            lo, hi = (b_lo - mu) / l22, (b_hi - mu) / l22
            bob = ndtr(-lo) - ndtr(-hi) if lo > 0 else ndtr(hi) - ndtr(lo)
            return math.exp(-0.5 * ((x - m_a) / l11) ** 2) / (l11 * math.sqrt(2 * math.pi)) * bob

        # Bob's terms bend where his conditional mean crosses an edge
        points = []
        if slope != 0.0:
            bend = 8.0 * l22 / abs(slope)
            for edge in (b_lo, b_hi):
                crossing = m_a + (edge - m_b) / slope
                points += [crossing - bend, crossing, crossing + bend]
        points = [x for x in points if a_lo < x < a_hi] or None
        value, _ = integrate.quad(
            integrand, a_lo, a_hi, points=points, epsabs=0.0, epsrel=1e-13, limit=500
        )
        out.append(value)
    return np.array(out)


def _tms_density(r, mean):
    """Measured X pair of a (displaced) two-mode squeezed state, any r."""
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cov = np.array([[ch, sh], [sh, ch]]) / 2.0
    return GaussianDensity(mean=np.array(mean, dtype=float), cov=cov)


@pytest.mark.parametrize("name", sorted(ORACLE_STATES))
def test_window_counts_match_rejection_oracle(name):
    state, coords = ORACLE_STATES[name]
    n, seeds = 200_000, range(1, 21)
    acc = err = ref_acc = ref_err = 0
    for seed in seeds:
        cfg = ProtocolConfig(x0=1.0, delta=0.2, n_samples=n, seed=seed)
        stage = sample_postselected_bits(state, cfg, coords)
        p = stage.window_probability
        assert abs(stage.accepted_pairs - n * p) <= 6 * math.sqrt(n * p * (1 - p))
        n_err = stage.error_pairs
        assert stage.eps_b_hat == n_err / stage.accepted_pairs
        acc, err = acc + stage.accepted_pairs, err + n_err
        a, e = _rejection_counts(state, cfg, coords)
        ref_acc, ref_err = ref_acc + a, ref_err + e
    total = n * len(seeds)
    count_se = math.sqrt(total * p * (1 - p))
    assert abs(acc - total * p) <= 6 * count_se
    assert abs(ref_acc - total * p) <= 6 * count_se
    assert abs(acc - ref_acc) <= 6 * math.sqrt(2.0) * count_se
    density = quadrature_density(state, _resolve_x_coords(state, coords=coords))
    boxes = _box_probabilities(density, 1.0, 0.2)
    eps_window = (boxes[1] + boxes[2]) / boxes.sum()
    eps, ref_eps = err / acc, ref_err / ref_acc
    se = math.sqrt(eps_window * (1 - eps_window) / acc)
    ref_se = math.sqrt(eps_window * (1 - eps_window) / ref_acc)
    assert abs(eps - eps_window) <= 6 * se
    assert abs(ref_eps - eps_window) <= 6 * ref_se
    assert abs(eps - ref_eps) <= 6 * math.hypot(se, ref_se)


@pytest.mark.parametrize("r", np.linspace(0.0, 6.0, 7))
def test_box_probabilities_match_adaptive_quadrature(r):
    # strongly correlated pairs: past r ~ 3 Bob's conditional width is far
    # below the window, so each box's integrand has kinks inside Alice's
    # interval; r >= 4 is reached through the density alone, since
    # two_mode_squeezed(4.0) does not pass is_physical
    for delta in (0.01, 0.1, 0.5, 0.9):
        for mean in ((0.0, 0.0), (0.3, -0.2), (-1.0, 0.7)):
            density = _tms_density(r, mean)
            got = _box_probabilities(density, 1.0, delta)
            ref = _quad_box_probabilities(density, 1.0, delta)
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            assert np.all(np.abs(got - ref) <= 1e-12 * ref.sum()), (delta, mean, got, ref)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_box_probabilities_match_adaptive_quadrature_squeezed_alice(r):
    # Alice's X squeezed well below the window width: her density is a
    # narrow peak inside her interval, anywhere from its centre to its edge
    a, b = np.exp(-2.0 * r) / 2.0, 0.5
    for rho in (0.0, 0.5):
        cov = np.array([[a, rho * math.sqrt(a * b)], [rho * math.sqrt(a * b), b]])
        for m_a in (0.0, 0.3, 1.0, 1.5):
            density = GaussianDensity(mean=np.array([m_a, -0.2]), cov=cov)
            got = _box_probabilities(density, 1.0, 0.9)
            ref = _quad_box_probabilities(density, 1.0, 0.9)
            assert np.all(np.abs(got - ref) <= 1e-12 * ref.sum()), (rho, m_a, got, ref)


def test_box_probabilities_far_in_the_tail():
    # the window of test_no_accepted_samples_raises: a positive mass too
    # small for 10^4 draws, kept to full relative precision
    density = quadrature_density(REFERENCE, (0, 2))
    got = _box_probabilities(density, 9.0, 0.001)
    ref = _quad_box_probabilities(density, 9.0, 0.001)
    assert 0.0 < got.sum() < 1e-20
    assert np.all(np.abs(got - ref) <= 1e-12 * ref.sum())


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 3.75])
def test_two_mode_squeezed_wide_window(r):
    cfg = ProtocolConfig(x0=1.0, delta=0.9, n_samples=10_000_000, seed=3)
    stage = sample_postselected_bits(two_mode_squeezed(r), cfg)
    n, p = cfg.n_samples, stage.window_probability
    assert 0.0 < p < 1.0
    assert abs(stage.accepted_pairs - n * p) <= 6 * math.sqrt(n * p * (1 - p))
    assert 0.0 <= stage.eps_b_hat < 0.5


def test_window_holding_all_the_mass():
    # X-squeezed vacua displaced to (+1, -1): every draw falls in the (+, -)
    # box, so the box sum rounds to 1 and the reject cell is clamped at 0
    squeezed = np.diag([np.exp(-4.0), np.exp(4.0)])
    state = GaussianState(np.kron(np.eye(2), squeezed), (1.0, 0.0, -1.0, 0.0))
    cfg = ProtocolConfig(x0=1.0, delta=0.9, n_samples=1_000_000, seed=2)
    stage = sample_postselected_bits(state, cfg)
    assert stage.window_probability == pytest.approx(1.0, abs=1e-12)
    assert stage.accepted_pairs == cfg.n_samples
    assert stage.eps_b_hat == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_unusable_box_probabilities_raise(monkeypatch, bad):
    monkeypatch.setattr(
        simulate, "_box_probabilities", lambda *a: np.array([bad, 0.0, 0.0, 0.0])
    )
    with pytest.raises(NoAcceptedSamples):
        sample_postselected_bits(REFERENCE, ProtocolConfig(seed=1))


def test_sampling_cost_does_not_grow_with_raw_draws():
    cfg = ProtocolConfig(x0=1.0, delta=0.001, n_samples=10**12, seed=5)
    start = time.perf_counter()
    stage = sample_postselected_bits(REFERENCE, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    n, p = cfg.n_samples, stage.window_probability
    assert abs(stage.accepted_pairs - n * p) <= 6 * math.sqrt(n * p * (1 - p))
    assert abs(stage.eps_b_hat - EPS_REF) <= 6 * stage.eps_b_se


def test_readme_example_reports_its_statistics():
    cfg = ProtocolConfig(x0=1.0, delta=0.01, n_samples=10_000_000, seed=1, n_rounds=4)
    doc = run_simulation(sample_postselected_bits(REFERENCE, cfg), cfg).to_dict()
    assert doc["n_raw"] == cfg.n_samples
    # a 0.02 x 0.02 box carries (2 delta)^2 times the density at its centre,
    # to O(delta^2); the density at (+-1, +-1) from the probability covariance
    prec = np.linalg.inv(REFERENCE.cov[np.ix_([0, 2], [0, 2])] / 2.0)
    peak = math.sqrt(np.linalg.det(prec)) / (2.0 * math.pi)
    centres = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    midpoint = sum(
        (2 * cfg.delta) ** 2 * peak * math.exp(-0.5 * np.array(c) @ prec @ np.array(c))
        for c in centres
    )
    assert doc["window_probability"] == pytest.approx(midpoint, rel=1e-3)
    n, p = cfg.n_samples, doc["window_probability"]
    assert abs(doc["accepted_pairs"] - n * p) <= 6 * math.sqrt(n * p * (1 - p))
    blocks = doc["accepted_pairs"] // cfg.n_rounds
    assert doc["distilled_blocks"] == round(doc["ad_yield"] * blocks)
    assert doc["eps_bn_hat"] == doc["distilled_errors"] / doc["distilled_blocks"]
    # ~140 distilled blocks at an i.i.d. error of ~4e-4 cannot resolve it
    assert doc["distilled_errors"] < simulate.THIN_ERRORS
    assert doc["thin"] is True

    product = tensor(single_mode_thermal(2.0), single_mode_thermal(2.0))
    cfg = ProtocolConfig(x0=1.0, delta=0.1, n_samples=2_000_000, seed=1, n_rounds=2)
    doc = run_simulation(sample_postselected_bits(product, cfg), cfg).to_dict()
    assert doc["distilled_errors"] >= simulate.THIN_ERRORS
    assert doc["thin"] is False
