import json

import numpy as np
import pytest

from cvprivacy import (
    UNDECIDED,
    BipartiteSplit,
    GaussianState,
    StateSchemaError,
    SymmetricStateParams,
    Unphysical,
    is_nppt,
    is_physical,
    is_separable,
    make_symmetric_state,
    partial_transpose,
    ppt_criterion_min_eig,
    purity,
    quadrature_density,
    random_physical_state,
    single_mode_thermal,
    state_from_json,
    state_to_json,
    symmetric_state,
    symplectic_eigenvalues,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)

RNG = np.random.default_rng(99)
SPLIT_11 = BipartiteSplit(1, 1)


def test_make_symmetric_state_vacuum():
    state = make_symmetric_state(SymmetricStateParams(1.0, 0.0, 0.0))
    np.testing.assert_array_equal(state.cov, np.eye(4))
    np.testing.assert_array_equal(state.disp, np.zeros(4))


def test_make_symmetric_state_blocks():
    params = SymmetricStateParams(2.0, 1.2, 1.2)
    assert params.physicality_margin() == pytest.approx(4 - 1.44 - 1 - 0)
    state = make_symmetric_state(params)
    np.testing.assert_allclose(state.cov[:2, :2], 2.0 * np.eye(2))
    np.testing.assert_allclose(state.cov[2:, 2:], 2.0 * np.eye(2))
    np.testing.assert_allclose(state.cov[:2, 2:], np.diag([1.2, -1.2]))


def test_make_symmetric_state_rejects_unphysical():
    # margin is 1 - 0 - 1 = 0 against lam*(c_x - c_p) = 1
    with pytest.raises(Unphysical):
        make_symmetric_state(SymmetricStateParams(1.0, 1.0, 0.0))


def test_symmetric_params_ordering_validation():
    with pytest.raises(ValueError):
        SymmetricStateParams(2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SymmetricStateParams(2.0, 0.5, -0.1)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(np.eye(2), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_entries(bad):
    cov = np.eye(4)
    cov[1, 1] = bad
    with pytest.raises(ValueError, match="covariance"):
        GaussianState(cov)
    with pytest.raises(ValueError, match="displacement"):
        GaussianState(np.eye(4), [0.0, bad, 0.0, 0.0])


def test_state_immutability():
    state = vacuum_state(1)
    with pytest.raises(ValueError):
        state.cov[0, 0] = 5.0


def test_is_physical_basics():
    assert is_physical(vacuum_state(2))
    assert not is_physical(GaussianState(0.5 * np.eye(2)))


@pytest.mark.parametrize("r", [4.0, 6.0, 8.0])
def test_is_physical_accepts_strongly_squeezed_pure_states(r):
    # nu_min = 1 exactly, while a computed nu errs by about eps |gamma|^2,
    # past TAU_PSD from r = 4 on
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    cov = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    assert is_physical(GaussianState(cov))


def test_is_physical_matches_family_inequality():
    # the physical region of the symmetric family is bounded by the
    # inequality lam^2 - c^2 - 1 >= 0 at c_x = c_p = c
    for lam in np.linspace(1.1, 4.0, 7):
        for c in np.linspace(0.0, np.sqrt(lam ** 2 - 1) * 1.1, 9):
            cov = np.zeros((4, 4))
            cov[0, 0] = cov[1, 1] = cov[2, 2] = cov[3, 3] = lam
            cov[0, 2] = cov[2, 0] = c
            cov[1, 3] = cov[3, 1] = -c
            margin = lam ** 2 - c ** 2 - 1.0
            if abs(margin) < 1e-9:
                continue
            assert is_physical(GaussianState(cov)) == (margin > 0)


def test_purity_examples():
    assert purity(vacuum_state(1)) == pytest.approx(1.0)
    assert purity(single_mode_thermal(2.0)) == pytest.approx(0.5)
    for r in (0.2, 0.7, 1.3):
        assert purity(two_mode_squeezed(r)) == pytest.approx(1.0, abs=1e-9)


def test_purity_requires_physical():
    with pytest.raises(Unphysical):
        purity(GaussianState(0.5 * np.eye(2)))


def test_purity_one_iff_spectrum_ones():
    for _ in range(10):
        state = random_physical_state(RNG, 2)
        p = purity(state)
        assert 0.0 < p <= 1.0 + 1e-12
        spectrum = symplectic_eigenvalues(state.cov)
        assert (p > 1.0 - 1e-9) == np.all(np.abs(spectrum - 1) < 1e-6)


def test_partial_transpose_product_state_stays_physical():
    state = tensor(single_mode_thermal(1.5), single_mode_thermal(2.5))
    assert is_physical(partial_transpose(state, SPLIT_11))


def test_partial_transpose_entanglement_examples():
    pt = partial_transpose(symmetric_state(2.0, 1.2, 1.2), SPLIT_11)
    assert symplectic_eigenvalues(pt.cov).min() == pytest.approx(0.8, abs=1e-9)
    pt = partial_transpose(symmetric_state(2.0, 0.9, 0.9), SPLIT_11)
    assert symplectic_eigenvalues(pt.cov).min() == pytest.approx(1.1, abs=1e-9)


def test_partial_transpose_is_involution():
    state = GaussianState(
        random_physical_state(RNG, 2).cov, RNG.normal(size=4)
    )
    twice = partial_transpose(partial_transpose(state, SPLIT_11), SPLIT_11)
    np.testing.assert_array_equal(twice.cov, state.cov)
    np.testing.assert_array_equal(twice.disp, state.disp)


def test_is_nppt_examples():
    assert not is_nppt(vacuum_state(2), SPLIT_11)
    assert is_nppt(symmetric_state(2.0, 1.2, 1.2), SPLIT_11)
    assert not is_nppt(symmetric_state(2.0, 0.9, 0.9), SPLIT_11)


def test_is_nppt_matches_family_condition():
    # on the symmetric family the verdict reduces to lam - c < 1
    for lam in np.linspace(1.2, 4.0, 8):
        c_max = np.sqrt(lam ** 2 - 1.0)
        for c in np.linspace(0.0, c_max * 0.999, 9):
            if abs(lam - c - 1.0) < 1e-6:
                continue
            state = symmetric_state(lam, c, c)
            assert is_nppt(state, SPLIT_11) == (lam - c < 1.0)


def test_is_nppt_agrees_with_inverse_criterion():
    # dual route: gamma - sigma~ gamma^{-1} sigma~^T gains a negative
    # eigenvalue exactly when the partial transpose is unphysical
    for _ in range(200):
        state = random_physical_state(RNG, 2)
        gap = ppt_criterion_min_eig(state, SPLIT_11)
        if abs(gap) < 1e-8:
            continue
        assert is_nppt(state, SPLIT_11) == (gap < 0)


def test_is_separable_verdicts():
    assert is_separable(symmetric_state(2.0, 0.9, 0.9), SPLIT_11) is True
    assert is_separable(symmetric_state(2.0, 1.2, 1.2), SPLIT_11) is False
    # PPT on a 2x2 split is necessary only: verdict stays undecided
    state = tensor(
        symmetric_state(2.0, 0.9, 0.9), symmetric_state(1.5, 0.3, 0.3)
    )
    verdict = is_separable(state, BipartiteSplit(2, 2))
    assert verdict is UNDECIDED


def test_separable_one_by_n_split_uses_ppt():
    state = tensor(symmetric_state(2.0, 0.9, 0.9), single_mode_thermal(1.3))
    assert is_separable(state, BipartiteSplit(1, 2)) is True


def test_undecided_refuses_boolean_coercion():
    with pytest.raises(TypeError):
        bool(UNDECIDED)


def test_quadrature_density_vacuum():
    density = quadrature_density(vacuum_state(1), [0])
    assert density.mean[0] == 0.0
    assert density.cov[0, 0] == pytest.approx(0.5)


def test_quadrature_density_symmetric_state():
    state = symmetric_state(2.0, 1.2, 0.9)
    density = quadrature_density(state, [0, 2])
    np.testing.assert_allclose(density.cov, np.array([[2.0, 1.2], [1.2, 2.0]]) / 2)


def test_quadrature_density_product_state():
    state = tensor(single_mode_thermal(1.5), single_mode_thermal(2.0))
    density = quadrature_density(state, [0, 2])
    assert density.cov[0, 1] == 0.0


def test_quadrature_density_monte_carlo_moments():
    state = symmetric_state(2.0, 1.2, 1.2)
    density = quadrature_density(state, [0, 2])
    rng = np.random.default_rng(5)
    samples = density.sample(rng, 1_000_000)
    emp = np.cov(samples.T, bias=True)
    # second-moment standard error ~ sqrt(2/n) per unit variance
    se = np.sqrt(2.0 / samples.shape[0]) * np.max(np.abs(density.cov))
    assert np.max(np.abs(emp - density.cov)) < 3 * se + 3e-3


def test_json_round_trip():
    state = GaussianState(symmetric_state(2.0, 1.2, 0.7).cov, [0.1, 0.0, -0.2, 0.3])
    again = state_from_json(state_to_json(state))
    np.testing.assert_array_equal(again.cov, state.cov)
    np.testing.assert_array_equal(again.disp, state.disp)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("[]", "top level"),
        ("{}", "missing required key 'n_modes'"),
        ('{"n_modes": 0, "cov": [], "disp": []}', "n_modes"),
        ('{"n_modes": 1, "cov": [[1, 0]], "disp": [0, 0]}', "cov: expected 2 rows"),
        ('{"n_modes": 1, "cov": [[1, 0], [0]], "disp": [0, 0]}', "cov[1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, "x"]], "disp": [0, 0]}', "cov[1][1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, 1]], "disp": [0]}', "disp"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, 1]], "disp": [0, true]}', "disp[1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, NaN]], "disp": [0, 0]}', "cov[1][1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, 1]], "disp": [0, -Infinity]}', "disp[1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, 1e400]], "disp": [0, 0]}', "cov[1][1]"),
        ('{"n_modes": 1, "cov": [[1, 0], [0, 1' + "0" * 400 + ']], "disp": [0, 0]}', "cov[1][1]"),
    ],
)
def test_json_schema_errors_are_position_specific(doc, fragment):
    with pytest.raises(StateSchemaError) as err:
        state_from_json(doc)
    assert fragment in str(err.value)


def test_json_rejects_asymmetric_cov():
    doc = json.dumps(
        {"n_modes": 1, "cov": [[1.0, 0.5], [0.0, 1.0]], "disp": [0.0, 0.0]}
    )
    with pytest.raises(StateSchemaError):
        state_from_json(doc)


def test_random_physical_state_is_physical():
    for _ in range(20):
        assert is_physical(random_physical_state(RNG, int(RNG.integers(1, 4))))


def test_random_physical_state_strong_mixing():
    # large squeezing must trip neither the symmetry check nor the
    # uncertainty check; 16 of these draws have cond(gamma) >= 1e12
    rng = np.random.default_rng(0)
    for i in range(300):
        assert is_physical(random_physical_state(rng, 2 + i % 3, mixing=2.0))
