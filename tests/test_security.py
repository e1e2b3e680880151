import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import cvprivacy
from cvprivacy import (
    BipartiteSplit,
    analyze_state,
    collective_condition,
    eps_b,
    eps_ratio,
    eps_ratio_exponent,
    eve_conditional_state,
    eve_fidelity,
    eve_fidelity_exponent,
    gaussian_fidelity_equal_cov,
    general_key_condition,
    homodyne_x,
    individual_condition,
    is_nppt,
    key_rate_estimate,
    purify,
    random_physical_state,
    single_mode_thermal,
    symmetric_collective_boundary,
    symmetric_state,
    symplectic_eigenvalues,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)
from cvprivacy.security import _exponents
from families import pt_boundary_margin, random_aligned_state, random_protocol_state

RNG = np.random.default_rng(777)
SPLIT_11 = BipartiteSplit(1, 1)


# -- purification ------------------------------------------------------------


def test_purify_pure_input_decouples_eve():
    pur = purify(two_mode_squeezed(0.6))
    assert np.max(np.abs(pur.coupling)) < 1e-7


def test_purify_invariants_on_reference_state():
    state = symmetric_state(2.0, 1.2, 1.2)
    pur = purify(state)
    assert np.max(np.abs(symplectic_eigenvalues(pur.joint.cov) - 1.0)) < 1e-6
    np.testing.assert_array_equal(pur.system_cov, state.cov)
    lhs = state.cov - pur.coupling @ np.linalg.inv(pur.eve_cov) @ pur.coupling.T
    sigma = np.zeros((4, 4))
    sigma[0, 1] = sigma[2, 3] = 1.0
    sigma[1, 0] = sigma[3, 2] = -1.0
    rhs = sigma @ np.linalg.inv(state.cov) @ sigma.T
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_purify_thermal_state():
    pur = purify(single_mode_thermal(2.0))
    assert pur.joint.n_modes == 2
    np.testing.assert_allclose(
        symplectic_eigenvalues(pur.joint.cov), [1.0, 1.0], atol=1e-9
    )


def test_purify_random_states_reduce_correctly():
    for _ in range(25):
        state = random_physical_state(RNG, 2)
        pur = purify(state)
        np.testing.assert_array_equal(pur.system_cov, state.cov)
        assert np.max(np.abs(symplectic_eigenvalues(pur.joint.cov) - 1.0)) < 1e-6


def test_purify_strongly_mixed_states():
    # strong mixing: cond(gamma) reaches ~1e11 in this draw
    rng = np.random.default_rng(0)
    for i in range(300):
        state = random_physical_state(rng, 2 + i % 3, mixing=1.0)
        np.testing.assert_array_equal(purify(state).system_cov, state.cov)


@pytest.mark.parametrize("r", [2.0, 3.75, 4.0])
def test_purify_condition_fidelity_chain_on_strong_squeezing(r):
    state = two_mode_squeezed(r)
    pur = purify(state)
    assert np.max(np.abs(symplectic_eigenvalues(pur.joint.cov) - 1.0)) < 1e-9
    cond = eve_conditional_state(pur, 1.0)
    chain = gaussian_fidelity_equal_cov(cond.cov, cond.disp_plus, cond.disp_minus)
    closed = np.exp(-eve_fidelity_exponent(state))
    assert abs(chain - closed) <= 1e-9 * closed


# -- Eve's conditional state ---------------------------------------------------


def test_eve_conditional_pure_input_has_zero_displacement():
    cond = eve_conditional_state(purify(two_mode_squeezed(0.5)), x0=1.0)
    np.testing.assert_allclose(cond.disp_plus, np.zeros(4), atol=1e-7)


def test_eve_conditional_matches_homodyne_oracle():
    # conditioning Eve through the generic homodyne update must agree
    state = symmetric_state(2.0, 1.2, 1.2)
    pur = purify(state)
    cond = eve_conditional_state(pur, x0=1.0)
    outcome = homodyne_x(pur.joint, [0, 1], results=[1.0, 1.0])
    np.testing.assert_allclose(outcome.post_state.cov, cond.cov, atol=1e-9)
    np.testing.assert_allclose(outcome.post_state.disp, cond.disp_plus, atol=1e-9)


def test_eve_conditional_scales_linearly_in_x0():
    pur = purify(symmetric_state(2.0, 1.2, 0.9))
    one = eve_conditional_state(pur, x0=1.0)
    two = eve_conditional_state(pur, x0=2.0)
    np.testing.assert_allclose(two.disp_plus, 2.0 * one.disp_plus, atol=1e-12)
    np.testing.assert_array_equal(two.cov, one.cov)
    np.testing.assert_allclose(one.disp_minus, -one.disp_plus)


# -- fidelity ------------------------------------------------------------------


def test_fidelity_equal_cov_trivial_and_thermal():
    assert gaussian_fidelity_equal_cov(np.eye(2), np.zeros(2), np.zeros(2)) == 1.0
    d = np.array([0.8, 0.0])
    got = gaussian_fidelity_equal_cov(np.eye(2), d, -d)
    assert got == pytest.approx(np.exp(-0.64))
    d = np.array([1.0, 0.0])
    got = gaussian_fidelity_equal_cov(np.diag([2.0, 2.0]), d, -d)
    assert got == pytest.approx(np.exp(-0.5))


def test_fidelity_equal_cov_rejects_mismatched_displacements():
    with pytest.raises(ValueError):
        gaussian_fidelity_equal_cov(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_eve_fidelity_symmetric_reduction():
    # closed form on the family: exp(-2 X0^2 ((lam - c) - 1/(lam + c)))
    for lam, c in ((2.0, 1.2), (2.5, 1.8), (1.5, 0.4)):
        state = symmetric_state(lam, c, c)
        for x0 in (0.5, 1.0, 2.0):
            expected = np.exp(-2 * x0 ** 2 * ((lam - c) - 1.0 / (lam + c)))
            assert eve_fidelity(state, x0) == pytest.approx(expected, rel=1e-12)


def test_eve_fidelity_reference_value():
    state = symmetric_state(2.0, 1.2, 1.2)
    assert eve_fidelity(state, 1.0) == pytest.approx(np.exp(-0.975), rel=1e-12)


def test_eve_fidelity_pure_product_state():
    state = tensor(vacuum_state(1), vacuum_state(1))
    assert eve_fidelity(state, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_eve_fidelity_matches_conditional_chain():
    # certifies the closed form against the purify -> condition -> overlap
    # composition on random two-mode states
    for _ in range(200):
        state = random_physical_state(RNG, 2, nu_max=2.2, mixing=0.35)
        pur = purify(state)
        cond = eve_conditional_state(pur, x0=1.0)
        chain = gaussian_fidelity_equal_cov(cond.cov, cond.disp_plus, cond.disp_minus)
        assert abs(chain - eve_fidelity(state, 1.0)) < 1e-9


# -- error ratio ---------------------------------------------------------------


def test_eps_ratio_product_state():
    state = tensor(single_mode_thermal(1.5), single_mode_thermal(1.5))
    assert eps_ratio(state, 1.0) == pytest.approx(1.0)
    assert eps_b(state, 1.0) == pytest.approx(0.5)


def test_eps_ratio_reference_value():
    state = symmetric_state(2.0, 1.2, 1.2)
    assert eps_ratio_exponent(state) == pytest.approx(4 * 1.2 / (4 - 1.44))
    assert eps_ratio(state, 1.0) == pytest.approx(np.exp(-1.875), rel=1e-12)
    assert eps_b(state, 1.0) == pytest.approx(0.13296, abs=5e-6)


def test_eps_ratio_monotone_in_correlation():
    lam = 2.0
    values = [eps_ratio(symmetric_state(lam, c, c), 1.0) for c in (0.4, 0.8, 1.2, 1.6)]
    assert all(a > b for a, b in zip(values, values[1:]))


# -- security conditions -------------------------------------------------------


def test_individual_condition_examples():
    assert individual_condition(symmetric_state(2.0, 1.2, 1.2))
    assert not individual_condition(symmetric_state(2.0, 0.9, 0.9))
    # exact boundary lam - c = 1 fails safe
    assert not individual_condition(symmetric_state(2.0, 1.0, 1.0))


def test_collective_condition_examples():
    assert not collective_condition(symmetric_state(2.0, 1.2, 1.2))
    assert collective_condition(symmetric_state(2.0, 1.3, 1.3))
    assert not collective_condition(symmetric_state(2.0, 0.9, 0.9))


def test_general_key_condition_examples():
    assert not general_key_condition(vacuum_state(2), SPLIT_11)
    assert general_key_condition(symmetric_state(2.0, 1.2, 1.2), SPLIT_11)
    assert not general_key_condition(symmetric_state(2.0, 0.9, 0.9), SPLIT_11)


def test_general_key_condition_matches_individual_on_two_modes():
    for _ in range(300):
        state = random_aligned_state(RNG)
        if pt_boundary_margin(state, SPLIT_11) < 1e-9:
            continue
        assert general_key_condition(state, SPLIT_11) == individual_condition(state)


def test_general_key_condition_matches_nppt_on_protocol_family():
    for _ in range(300):
        state = random_protocol_state(RNG)
        if pt_boundary_margin(state, SPLIT_11) < 1e-9:
            continue
        assert general_key_condition(state, SPLIT_11) == is_nppt(state, SPLIT_11)


# -- exponent bundles and the rate proxy ----------------------------------------


def test_fidelity_exponent_vanishes_on_pure_product_state():
    state = tensor(vacuum_state(1), vacuum_state(1))
    assert eve_fidelity_exponent(state) == pytest.approx(0.0, abs=1e-12)


def test_key_rate_estimate_signs():
    collective = symmetric_state(2.0, 1.3, 1.3)
    for n in (6, 10, 16):
        assert key_rate_estimate(collective, n_rounds=n) > 0
    separable = symmetric_state(2.0, 0.9, 0.9)
    for n in range(1, 12):
        assert key_rate_estimate(separable, n_rounds=n) <= 0
    # individually secure but not collectively: negative for large blocks
    middle = symmetric_state(2.0, 1.2, 1.2)
    assert key_rate_estimate(middle, n_rounds=12) < 0


def test_key_rate_estimate_vanishes_at_collective_boundary():
    lam = 2.0
    c_star = symmetric_collective_boundary(lam)
    state = symmetric_state(lam, c_star, c_star)
    values = [abs(key_rate_estimate(state, n_rounds=n)) for n in (4, 8, 12)]
    assert values[2] < values[1] < values[0]
    assert values[2] < 1e-4


# -- reports and invariants -----------------------------------------------------


def test_report_examples():
    rep = analyze_state(symmetric_state(2.0, 1.2, 1.2))
    assert not rep.ppt and rep.individual_secure and not rep.collective_secure
    rep = analyze_state(symmetric_state(2.0, 1.3, 1.3))
    assert rep.collective_secure and rep.individual_secure
    rep = analyze_state(vacuum_state(2))
    assert rep.ppt and not rep.individual_secure and not rep.collective_secure


@pytest.mark.parametrize(
    "state, split",
    [
        (symmetric_state(2.0, 1.3, 1.3), SPLIT_11),
        (tensor(symmetric_state(2.0, 1.3, 1.3), vacuum_state(1)), BipartiteSplit(1, 2)),
    ],
)
def test_report_makes_two_uncertainty_checks(monkeypatch, state, split):
    # one uncertainty check of gamma for physicality, one of its partial
    # transpose, and no symplectic spectrum
    checks, spectra = [], []
    real_check = cvprivacy.symplectic._uncertainty_ok
    real_spectrum = cvprivacy.symplectic_eigenvalues
    for name, module in list(sys.modules.items()):
        if not name.startswith("cvprivacy."):
            continue
        if hasattr(module, "_uncertainty_ok"):
            monkeypatch.setattr(
                module, "_uncertainty_ok", lambda C: checks.append(C) or real_check(C)
            )
        if hasattr(module, "symplectic_eigenvalues"):
            monkeypatch.setattr(
                module,
                "symplectic_eigenvalues",
                lambda C: spectra.append(C) or real_spectrum(C),
            )
    analyze_state(state, split)
    assert (len(checks), len(spectra)) == (2, 0)


def test_report_nesting_invariants_on_random_states():
    for _ in range(200):
        rep = analyze_state(random_aligned_state(RNG))
        if rep.individual_secure:
            assert not rep.ppt
        if rep.collective_secure:
            assert rep.individual_secure


def test_report_exponent_sign_convention():
    rep = analyze_state(symmetric_state(2.0, 1.2, 1.2))
    assert rep.eps_ratio_exponent == pytest.approx(-1.875)
    assert rep.fidelity_exponent == pytest.approx(-0.975)


def test_x0_invariance_of_verdicts():
    # verdicts are exponent comparisons; evaluating the exponential forms
    # at several X0 and comparing them in log space must agree verbatim
    for _ in range(100):
        state = random_protocol_state(RNG)
        k_b = eps_ratio_exponent(state)
        k_f = eve_fidelity_exponent(state)
        reference = individual_condition(state)
        for x0 in (0.1, 1.0, 10.0):
            log_ratio = -(x0 ** 2) * k_b
            log_fid = -(x0 ** 2) * k_f
            assert (log_ratio < log_fid - 1e-10 * x0 ** 2) == reference


def test_collective_monotone_in_entanglement():
    lam = 2.0
    was_secure = False
    for c in np.linspace(0.2, np.sqrt(lam ** 2 - 1) - 1e-6, 120):
        secure = collective_condition(symmetric_state(lam, c, c))
        if was_secure:
            assert secure
        was_secure = secure
    assert was_secure


def test_symmetric_collective_boundary_location():
    c_star = symmetric_collective_boundary(2.0)
    assert 1.2 < c_star < 1.3
    residual = abs(c_star / (2.0 - c_star) - (4.0 - c_star ** 2 - 1.0))
    assert residual < 1e-10


def _exponent_gap_root(lam):
    """Bracketed root of the library's own k_B - 2 k_F on c_x = c_p = c."""

    def gap(c):
        k_b, k_f = _exponents(symmetric_state(lam, c, c), (0, 2))
        return k_b - 2.0 * k_f

    lo = lam - 1.0 + 1e-9
    hi = np.sqrt(lam ** 2 - 1.0) - 1e-9
    return brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16)


def test_collective_boundary_matches_exponent_root():
    lams = np.linspace(1.01, 50.0, 400)
    worst = max(
        abs(symmetric_collective_boundary(lam) / _exponent_gap_root(lam) - 1.0) for lam in lams
    )
    assert worst < 1e-11


def test_entanglement_curve_equalizes_exponents():
    # k_B = k_F on c = lam - 1: the entanglement curve is the individual bound
    for lam in np.linspace(1.1, 10.0, 50):
        k_b, k_f = _exponents(symmetric_state(lam, lam - 1.0, lam - 1.0), (0, 2))
        assert abs(k_b - k_f) <= 1e-9 * k_b


@pytest.mark.parametrize("lam", [1.0 + 1e-12, 1.0 + 1e-9, 1e8, 1e10, 1e160])
def test_collective_boundary_at_extreme_lam(lam):
    c_star = symmetric_collective_boundary(lam)
    assert np.isfinite(c_star)
    # sqrt(lam^2 - 1) without forming lam^2
    assert lam - 1.0 <= c_star <= np.sqrt(lam - 1.0) * np.sqrt(lam + 1.0)


@pytest.mark.parametrize("lam", [1e3, 1e6])
def test_collective_boundary_large_lam_asymptote(lam):
    # (lam - c)^2 (lam + c) = lam gives lam - c -> 1/sqrt(2)
    assert abs((lam - symmetric_collective_boundary(lam)) - 1.0 / np.sqrt(2.0)) < 2.0 / lam


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 1.0, 0.5, -3.0])
def test_collective_boundary_rejects_invalid_lam(lam):
    with pytest.raises(ValueError):
        symmetric_collective_boundary(lam)
