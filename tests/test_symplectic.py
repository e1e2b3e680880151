import numpy as np
import pytest

from cvprivacy import (
    ComplexSpectrum,
    NotPositiveDefinite,
    is_symplectic,
    psd_sqrt_of_similar,
    random_physical_state,
    symmetric_state,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from cvprivacy.symplectic import TAU_LIN

RNG = np.random.default_rng(2024)


def test_symplectic_form_single_mode():
    np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_form_direct_sum():
    sigma = symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_array_equal(sigma, expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_squares_to_minus_identity(n):
    sigma = symplectic_form(n)
    np.testing.assert_array_equal(sigma @ sigma, -np.eye(2 * n))
    np.testing.assert_array_equal(sigma, -sigma.T)


def test_symplectic_eigenvalues_vacuum():
    np.testing.assert_allclose(symplectic_eigenvalues(np.eye(2)), [1.0])


def test_symplectic_eigenvalues_squeezed_thermal():
    # oracle: generic complex eigensolver on i sigma C
    C = np.diag([4.0, 1.0])
    oracle = np.abs(np.linalg.eigvals(1j * symplectic_form(1) @ C).real)
    np.testing.assert_allclose(symplectic_eigenvalues(C), [2.0], atol=1e-12)
    np.testing.assert_allclose(sorted(oracle), [2.0, 2.0], atol=1e-12)


def test_symplectic_eigenvalues_symmetric_state():
    state = symmetric_state(2.0, 1.2, 1.2)
    w = np.linalg.eigvals(1j * symplectic_form(2) @ state.cov)
    oracle = np.sort(np.abs(w.real))[::-1][::2]
    got = symplectic_eigenvalues(state.cov)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    np.testing.assert_allclose(got, [1.6, 1.6], atol=1e-12)


def test_symplectic_eigenvalues_pairing_property():
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        C = random_physical_state(RNG, n).cov
        vals = symplectic_eigenvalues(C)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 1e-12)
        w = np.linalg.eigvals(1j * symplectic_form(n) @ C).real
        paired = np.sort(np.abs(w))
        np.testing.assert_allclose(paired[::2], paired[1::2], atol=1e-9)


def test_symplectic_eigenvalues_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))


def test_williamson_identity():
    dec = williamson(np.eye(4))
    np.testing.assert_allclose(dec.spectrum, [1.0, 1.0], atol=1e-12)
    assert is_symplectic(dec.S)
    np.testing.assert_allclose(dec.S @ dec.S.T, np.eye(4), atol=1e-9)


def test_williamson_squeezed_thermal_witness():
    C = np.diag([4.0, 1.0])
    dec = williamson(C)
    np.testing.assert_allclose(dec.spectrum, [2.0], atol=1e-12)
    # the decomposition is defined by its two invariants; the explicit
    # witness diag(1/sqrt2, sqrt2) satisfies them too
    sigma = symplectic_form(1)
    for S in (dec.S, np.diag([2 ** -0.5, 2 ** 0.5])):
        np.testing.assert_allclose(S @ sigma @ S.T, sigma, atol=TAU_LIN)
        np.testing.assert_allclose(S @ C @ S.T, 2.0 * np.eye(2), atol=TAU_LIN)


def test_williamson_random_invariants_and_roundtrip():
    for _ in range(30):
        n = int(RNG.integers(1, 4))
        C = random_physical_state(RNG, n).cov
        dec = williamson(C)
        sigma = symplectic_form(n)
        assert np.max(np.abs(dec.S @ sigma @ dec.S.T - sigma)) < TAU_LIN
        assert np.max(np.abs(dec.S @ C @ dec.S.T - dec.normal_form())) < TAU_LIN
        np.testing.assert_allclose(
            dec.spectrum, symplectic_eigenvalues(C), atol=TAU_LIN
        )
        S_inv = np.linalg.inv(dec.S)
        np.testing.assert_allclose(
            S_inv @ dec.normal_form() @ S_inv.T, C, atol=1e-8
        )


def test_psd_sqrt_trivial_cases():
    np.testing.assert_allclose(psd_sqrt_of_similar(np.zeros((2, 2))), np.zeros((2, 2)))
    np.testing.assert_allclose(
        psd_sqrt_of_similar(np.diag([3.0, 3.0])), np.diag([np.sqrt(3)] * 2), atol=1e-12
    )


def test_psd_sqrt_purification_kernel():
    cov = symmetric_state(2.0, 1.2, 1.2).cov
    sigma = symplectic_form(2)
    M = -(sigma @ cov) @ (sigma @ cov) - np.eye(4)
    R = psd_sqrt_of_similar(M)
    np.testing.assert_allclose(R @ R, M, atol=1e-9)


def test_psd_sqrt_idempotent_contract():
    cov = symmetric_state(1.7, 1.0, 0.6).cov
    sigma = symplectic_form(2)
    M = -(sigma @ cov) @ (sigma @ cov) - np.eye(4)
    R = psd_sqrt_of_similar(M)
    R2 = psd_sqrt_of_similar(R @ R)
    np.testing.assert_allclose(R2 @ R2, M, atol=1e-9)


def test_psd_sqrt_rejects_complex_spectrum():
    with pytest.raises(ComplexSpectrum):
        psd_sqrt_of_similar(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ComplexSpectrum):
        psd_sqrt_of_similar(np.diag([-1.0, 2.0]))
