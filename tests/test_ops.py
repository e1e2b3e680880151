import numpy as np
import pytest

from cvprivacy import (
    DimensionMismatch,
    GaussianChannel,
    GaussianState,
    NotSymplectic,
    Unphysical,
    apply_channel,
    apply_symplectic,
    attenuator_channel,
    beamsplitter_matrix,
    direct_sum,
    homodyne_x,
    is_physical,
    purity,
    quadrature_density,
    random_physical_state,
    rotation_matrix,
    single_mode_thermal,
    squeeze_matrix,
    symmetric_state,
    symplectic_eigenvalues,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)
from families import reorder_modes

RNG = np.random.default_rng(314)


def test_apply_symplectic_identity():
    state = symmetric_state(2.0, 1.2, 1.2)
    out = apply_symplectic(np.eye(4), np.zeros(4), state)
    np.testing.assert_array_equal(out.cov, state.cov)
    np.testing.assert_array_equal(out.disp, state.disp)


def test_apply_symplectic_sign_flip_leaves_symmetric_state_invariant():
    state = symmetric_state(2.0, 1.2, 0.8)
    out = apply_symplectic(-np.eye(4), None, state)
    np.testing.assert_allclose(out.cov, state.cov, atol=1e-12)
    np.testing.assert_allclose(out.disp, state.disp, atol=1e-12)


def test_apply_symplectic_squeezer_on_vacuum():
    out = apply_symplectic(squeeze_matrix(1.7), None, vacuum_state(1))
    np.testing.assert_allclose(out.cov, np.diag([1.7 ** 2, 1.7 ** -2]), atol=1e-12)
    assert purity(out) == pytest.approx(1.0)


def test_apply_symplectic_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        apply_symplectic(2.0 * np.eye(2), None, vacuum_state(1))


def test_apply_symplectic_preserves_symplectic_spectrum():
    S = direct_sum(squeeze_matrix(1.3), rotation_matrix(0.7))
    S = beamsplitter_matrix(0.4) @ S
    for _ in range(20):
        state = random_physical_state(RNG, 2)
        out = apply_symplectic(S, None, state)
        np.testing.assert_allclose(
            symplectic_eigenvalues(out.cov),
            symplectic_eigenvalues(state.cov),
            atol=1e-9,
        )


def test_identity_channel_fixes_vacuum():
    out = apply_channel(attenuator_channel(1.0), vacuum_state(1))
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(out.disp, np.zeros(2), atol=1e-12)


def test_identity_channel_converges_to_identity_map():
    # EPR-limit construction: behavior validated against apply_symplectic
    # with S = I on a generic mixed state
    state = single_mode_thermal(1.8)
    reference = apply_symplectic(np.eye(2), None, state)
    out = apply_channel(attenuator_channel(1.0, epr_squeeze=9.0), state)
    np.testing.assert_allclose(out.cov, reference.cov, atol=1e-6)


def test_attenuator_fixes_vacuum_and_attenuates_thermal():
    channel = attenuator_channel(0.4)
    np.testing.assert_allclose(
        apply_channel(channel, vacuum_state(1)).cov, np.eye(2), atol=1e-9
    )
    # ideal-map convergence is O(exp(-4 r)) in the construction squeezing
    out = apply_channel(attenuator_channel(0.4, epr_squeeze=8.0), single_mode_thermal(3.0))
    np.testing.assert_allclose(out.cov, (0.4 * 3.0 + 0.6) * np.eye(2), atol=1e-5)


def test_channel_rejects_unphysical_cm():
    with pytest.raises(Unphysical):
        GaussianChannel(0.5 * np.eye(4), np.zeros(4), n_in=1, n_out=1)


def test_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_channel(attenuator_channel(1.0), vacuum_state(2))


def test_random_channel_output_is_physical():
    for _ in range(500):
        chan_state = random_physical_state(RNG, 2, nu_max=2.0, mixing=0.3)
        channel = GaussianChannel(chan_state.cov, chan_state.disp, n_in=1, n_out=1)
        state = random_physical_state(RNG, 1)
        assert is_physical(apply_channel(channel, state))


def test_homodyne_product_state_leaves_partner_unchanged():
    state = tensor(single_mode_thermal(1.5), single_mode_thermal(2.5))
    out = homodyne_x(state, [0], results=[0.9])
    np.testing.assert_allclose(out.post_state.cov, np.diag([2.5, 2.5]), atol=1e-12)
    np.testing.assert_allclose(out.post_state.disp, np.zeros(2), atol=1e-12)


def test_homodyne_symmetric_state_conditioning():
    lam, c = 2.0, 1.2
    state = symmetric_state(lam, c, c)
    x = 0.63

    out = homodyne_x(state, [0], results=[x])
    np.testing.assert_allclose(
        out.post_state.cov, np.diag([lam - c * c / lam, lam]), atol=1e-12
    )
    np.testing.assert_allclose(out.post_state.disp, [c * x / lam, 0.0], atol=1e-12)


def test_homodyne_post_covariance_independent_of_results():
    state = symmetric_state(2.0, 1.2, 0.9)
    covs = [
        homodyne_x(state, [0], results=[x]).post_state.cov for x in (-2.0, 0.0, 1.5)
    ]
    assert np.array_equal(covs[0], covs[1])
    assert np.array_equal(covs[1], covs[2])


def test_homodyne_handles_nonzero_displacement():
    # conditioning must reproduce the textbook Gaussian update around the mean
    cov = symmetric_state(2.0, 1.2, 0.9).cov
    disp = np.array([0.4, -0.1, 0.2, 0.7])
    state_shifted = homodyne_x(
        type(vacuum_state(1))(cov, disp), [0], results=[1.0]
    )
    gx = cov[0, 0]
    cross = cov[0, [2, 3]]
    expected_mean = disp[[2, 3]] + cross / gx * (1.0 - disp[0])
    np.testing.assert_allclose(state_shifted.post_state.disp, expected_mean, atol=1e-12)


def test_homodyne_commutes_with_reordering_unmeasured_modes():
    state = tensor(symmetric_state(2.0, 1.2, 1.2), single_mode_thermal(1.5))
    direct = homodyne_x(state, [0], results=[0.5]).post_state
    swapped = reorder_modes(state, [0, 2, 1])
    other = homodyne_x(swapped, [0], results=[0.5]).post_state
    np.testing.assert_allclose(
        reorder_modes(other, [1, 0]).cov, direct.cov, atol=1e-12
    )


def test_homodyne_sampling_path_is_reproducible():
    state = symmetric_state(2.0, 1.2, 1.2)
    a = homodyne_x(state, [0], rng=np.random.default_rng(11))
    b = homodyne_x(state, [0], rng=np.random.default_rng(11))
    np.testing.assert_array_equal(a.measured_values, b.measured_values)
    with pytest.raises(ValueError):
        homodyne_x(state, [0])


def test_homodyne_monte_carlo_conditional_variance():
    lam, c = 2.0, 1.2
    state = symmetric_state(lam, c, c)
    post = homodyne_x(state, [0], results=[1.0]).post_state
    density = quadrature_density(state, [0, 2])
    rng = np.random.default_rng(17)
    samples = density.sample(rng, 4_000_000)
    window = np.abs(samples[:, 0] - 1.0) < 0.01
    conditional = samples[window, 1]
    expected_var = post.cov[0, 0] / 2.0
    se = expected_var * np.sqrt(2.0 / conditional.size)
    assert abs(np.var(conditional) - expected_var) < 3 * se + 1e-4


def test_homodyne_output_physical_on_random_states():
    for _ in range(100):
        state = random_physical_state(RNG, 3)
        out = homodyne_x(state, [1], results=[0.3])
        assert is_physical(out.post_state)


def _precision_route(state, measured, results):
    """Homodyne update from the precision matrix P of the measured X and kept
    coordinates: B' = (P_rr)^{-1}, d' = d_r - (P_rr)^{-1} P_rx (results - d_x)."""
    x_ix = [2 * m for m in measured]
    rest_ix = [2 * m + q for m in range(state.n_modes) if m not in measured for q in (0, 1)]
    joint = state.cov[np.ix_(x_ix + rest_ix, x_ix + rest_ix)]
    P = np.linalg.inv(joint)
    k = len(x_ix)
    post_cov = np.linalg.inv(P[k:, k:])
    post_disp = state.disp[rest_ix] - post_cov @ P[k:, :k] @ (results - state.disp[x_ix])
    return post_cov, post_disp, np.linalg.cond(joint)


def _homodyne_cases():
    rng = np.random.default_rng(2105)
    for i in range(40):
        n = 3 + i % 2
        base = random_physical_state(rng, n)
        state = GaussianState(base.cov, rng.normal(size=2 * n))
        measured = sorted(rng.choice(n, size=1 + i % (n - 1), replace=False).tolist())
        yield state, measured, rng.normal(size=len(measured))
    # the measured X block has cond ~2.4e10: a relative rank cut at 1e-10
    # would discard its small direction
    squeezed = tensor(two_mode_squeezed(6.0), vacuum_state(1))
    S = direct_sum(np.eye(2), beamsplitter_matrix(1e-3))
    yield apply_symplectic(S, None, squeezed), [0, 1], np.array([0.7, -0.4])


def test_homodyne_matches_precision_matrix_route():
    # The solve's relative forward error is of order cond(K) eps, K the
    # measured X block.  The reference inverts the joint block, whose
    # condition number bounds cond(K) from above (K is a principal block),
    # and its own error is of order cond(joint) eps; that sets the tolerance,
    # relative to the largest entry of each output.
    eps = np.finfo(float).eps
    for state, measured, results in _homodyne_cases():
        post = homodyne_x(state, measured, results=results).post_state
        ref_cov, ref_disp, cond = _precision_route(state, measured, results)
        tol = 4.0 * cond * eps
        assert np.max(np.abs(post.cov - ref_cov)) <= tol * np.max(np.abs(ref_cov))
        assert np.max(np.abs(post.disp - ref_disp)) <= tol * np.max(np.abs(ref_disp))
    # the last case is the ill-conditioned one
    assert np.linalg.cond(state.cov[np.ix_([0, 2], [0, 2])]) > 1e10


def test_homodyne_rejects_unphysical_state():
    with pytest.raises(Unphysical):
        homodyne_x(GaussianState(np.zeros((4, 4))), [0], results=[0.0])


def test_tensor_vacuum():
    out = tensor(vacuum_state(1), vacuum_state(1))
    np.testing.assert_array_equal(out.cov, np.eye(4))


def test_reorder_identity_and_inverse():
    state = tensor(symmetric_state(2.0, 1.2, 1.2), single_mode_thermal(1.5))
    same = reorder_modes(state, [0, 1, 2])
    np.testing.assert_array_equal(same.cov, state.cov)
    perm = [2, 0, 1]
    inverse = [perm.index(i) for i in range(3)]
    back = reorder_modes(reorder_modes(state, perm), inverse)
    np.testing.assert_array_equal(back.cov, state.cov)
    np.testing.assert_array_equal(back.disp, state.disp)


def test_reorder_rejects_bad_permutation():
    with pytest.raises(DimensionMismatch):
        reorder_modes(vacuum_state(2), [0, 0])
