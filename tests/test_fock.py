import numpy as np
import pytest
import scipy.linalg

from cvprivacy import (
    FockState,
    GaussianState,
    NumericalFailure,
    TailTooHeavy,
    Unphysical,
    fock_moments,
    gaussian_to_fock,
    single_mode_thermal,
    two_mode_squeezed,
    uhlmann_fidelity,
    vacuum_state,
    williamson,
)
from cvprivacy.fock import _factor, _parity, _unitary_block

RNG = np.random.default_rng(606)


def random_mild_cov(rng):
    nu = 1.05 + rng.random() * 0.95
    s = np.exp((rng.random() - 0.5) * 0.4)
    phi = rng.random() * np.pi
    R = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    return R @ np.diag([nu * s * s, nu / (s * s)]) @ R.T


def passive_symplectic(rng, n):
    """Orthogonal symplectic matrix from a random unitary (interleaved order)."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.block([[u.real, -u.imag], [u.imag, u.real]])
    order = np.empty(2 * n, dtype=int)
    order[0::2] = np.arange(n)
    order[1::2] = np.arange(n) + n
    return o[np.ix_(order, order)]


def bloch_messiah_cov(rng, n, r_max, nu_lo, nu_hi):
    """Covariance O1 Z O2 D O2^T Z O1^T with squeezers r in [0, r_max)."""
    o1, o2 = passive_symplectic(rng, n), passive_symplectic(rng, n)
    r = rng.random(n) * r_max
    z = np.diag(np.exp(np.repeat(r, 2) * np.tile([-1.0, 1.0], n)))
    s = o1 @ z @ o2
    nu = nu_lo + rng.random(n) * (nu_hi - nu_lo)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (cov + cov.T)


def expm_density_matrix(nu, r, theta, disp, cutoff):
    """Oracle for one mode: rho = U rho_th U^dag with U = D(alpha) R(theta) S(r),
    each factor the matrix exponential of its dense generator on cutoff + 40
    levels; the product is sliced to the kept block, and rho renormalised.

    U^dag R U = M R + d with M = R_theta diag(e^-r, e^r), so the state's
    covariance is nu M M^T (see ``expm_covariance``)."""
    levels = cutoff + 40
    a = np.diag(np.sqrt(np.arange(1, levels)), k=1)
    alpha = (disp[0] + 1j * disp[1]) / np.sqrt(2)
    U = (
        scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)
        @ scipy.linalg.expm(-1j * theta * (a.T @ a))
        @ scipy.linalg.expm(0.5 * r * (a @ a - a.T @ a.T))
    )[:cutoff, :cutoff]
    q = (nu - 1.0) / (nu + 1.0)
    rho = (U * ((1.0 - q) * q ** np.arange(cutoff))) @ U.conj().T
    return rho / np.trace(rho).real


def expm_covariance(nu, r, theta):
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    M = rot @ np.diag([np.exp(-r), np.exp(r)])
    return nu * M @ M.T


def qubit_measurement_grid(dim, n_theta=40, n_phi=20):
    grid = []
    for theta in np.linspace(0.0, np.pi / 2, n_theta):
        for phi in np.linspace(0.0, np.pi, n_phi):
            U = np.eye(dim, dtype=complex)
            U[0, 0] = np.cos(theta)
            U[0, 1] = -np.sin(theta)
            U[1, 0] = np.sin(theta) * np.exp(1j * phi)
            U[1, 1] = np.cos(theta) * np.exp(1j * phi)
            grid.append(U)
    return grid


def minimal_discrimination_overlap(r0, r1, measurement_grid):
    """Smallest Bhattacharyya overlap sum_i sqrt(p0_i p1_i) over the
    projective measurements whose bases are the columns of each grid
    unitary; bounded below by the Uhlmann fidelity."""
    best = np.inf
    for U in measurement_grid:
        p0 = np.clip(np.einsum("ij,jk,ki->i", U.conj().T, r0.rho, U).real, 0.0, None)
        p1 = np.clip(np.einsum("ij,jk,ki->i", U.conj().T, r1.rho, U).real, 0.0, None)
        best = min(best, float(np.sqrt(p0 * p1).sum()))
    return best


def test_vacuum_is_ground_projector():
    fk = gaussian_to_fock(vacuum_state(1), 20)
    expected = np.zeros((20, 20))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(fk.rho.real, expected, atol=1e-12)
    assert fk.tail_mass < 1e-12


def test_coherent_state_photon_number():
    alpha = 0.7
    state = GaussianState(np.eye(2), [np.sqrt(2) * alpha, 0.0])
    fk = gaussian_to_fock(state, 30)
    number = np.diag(np.arange(30.0))
    mean_n = float(np.trace(fk.rho @ number).real)
    assert mean_n == pytest.approx(alpha ** 2, abs=1e-9)


def test_thermal_state_geometric_distribution():
    fk = gaussian_to_fock(single_mode_thermal(2.0), 40)
    # nbar = (nu - 1)/2 = 1/2: p_n = (2/3) (1/3)^n
    probs = np.diag(fk.rho).real
    n = np.arange(8)
    np.testing.assert_allclose(probs[:8], (2 / 3) * (1 / 3) ** n, atol=1e-10)
    number = np.diag(np.arange(40.0))
    assert float(np.trace(fk.rho @ number).real) == pytest.approx(0.5, abs=1e-10)


def test_moment_round_trip_single_mode():
    for _ in range(6):
        cov = random_mild_cov(RNG)
        disp = RNG.normal(size=2)
        disp *= min(1.0, 1.0 / np.linalg.norm(disp))
        fk = gaussian_to_fock(GaussianState(cov, disp), 40)
        d, g = fock_moments(fk)
        scale = 1.0 + fk.tail_mass * 1e6
        assert np.max(np.abs(d - disp)) < 1e-6 * scale
        assert np.max(np.abs(g - cov)) < 1e-6 * scale


def test_moment_round_trip_two_modes():
    state = two_mode_squeezed(0.35)
    fk = gaussian_to_fock(state, 16)
    d, g = fock_moments(fk)
    assert np.max(np.abs(d)) < 1e-8
    assert np.max(np.abs(g - state.cov)) < 1e-6


def test_tail_too_heavy_raises():
    with pytest.raises(TailTooHeavy):
        gaussian_to_fock(single_mode_thermal(6.0), 12)


def test_rejects_unphysical_state():
    with pytest.raises(Unphysical):
        gaussian_to_fock(GaussianState(0.5 * np.eye(2)), 20)


def test_uhlmann_identical_states():
    fk = gaussian_to_fock(single_mode_thermal(1.7), 30)
    assert uhlmann_fidelity(fk, fk) == pytest.approx(1.0, abs=1e-12)


def test_uhlmann_orthogonal_fock_states():
    dim = 10
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho1 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    rho1[1, 1] = 1.0
    f0 = FockState(rho=rho0, n_modes=1, cutoff=dim, tail_mass=0.0)
    f1 = FockState(rho=rho1, n_modes=1, cutoff=dim, tail_mass=0.0)
    assert uhlmann_fidelity(f0, f1) == pytest.approx(0.0, abs=1e-12)


def test_uhlmann_displaced_thermal_pair_matches_closed_form():
    cov = np.diag([2.0, 2.0])
    plus = gaussian_to_fock(GaussianState(cov, [1.0, 0.0]), 40)
    minus = gaussian_to_fock(GaussianState(cov, [-1.0, 0.0]), 40)
    got = uhlmann_fidelity(plus, minus)
    assert abs(got - np.exp(-0.5)) < 1e-3


def test_uhlmann_symmetric_in_arguments():
    a = gaussian_to_fock(GaussianState(random_mild_cov(RNG), [0.3, -0.2]), 35)
    b = gaussian_to_fock(GaussianState(random_mild_cov(RNG), [-0.1, 0.4]), 35)
    assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-12


def test_uhlmann_rejects_corrupt_density_matrix():
    dim = 6
    bad = FockState(rho=-np.eye(dim, dtype=complex), n_modes=1, cutoff=dim, tail_mass=0.0)
    good = gaussian_to_fock(vacuum_state(1), dim)
    with pytest.raises(NumericalFailure):
        uhlmann_fidelity(bad, good)


def test_fock_state_rejects_non_finite_density_matrix():
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FockState(rho=rho, n_modes=1, cutoff=4, tail_mass=0.0)


def test_coherent_overlap_matches_displacement_formula():
    # |<alpha|-alpha>| = exp(-2 alpha^2) = exp(-d^2) at d = sqrt(2) alpha
    d = 0.9
    plus = gaussian_to_fock(GaussianState(np.eye(2), [d, 0.0]), 40)
    minus = gaussian_to_fock(GaussianState(np.eye(2), [-d, 0.0]), 40)
    assert uhlmann_fidelity(plus, minus) == pytest.approx(np.exp(-d * d), abs=1e-7)


def test_minimal_discrimination_bounded_below_by_fidelity():
    plus = gaussian_to_fock(GaussianState(np.eye(2), [0.5, 0.0]), 16)
    minus = gaussian_to_fock(GaussianState(np.eye(2), [-0.5, 0.0]), 16)
    fidelity = uhlmann_fidelity(plus, minus)
    grid = qubit_measurement_grid(16)
    overlap = minimal_discrimination_overlap(plus, minus, grid)
    assert overlap >= fidelity - 1e-9
    assert overlap - fidelity < 1e-2


def test_fidelity_certification_sample():
    # desk-scale version of the certification suite
    for _ in range(5):
        cov = random_mild_cov(RNG)
        d = RNG.normal(size=2)
        d *= min(1.0, 1.0 / np.linalg.norm(d))
        plus = gaussian_to_fock(GaussianState(cov, d), 40)
        minus = gaussian_to_fock(GaussianState(cov, -d), 40)
        closed = np.exp(-d @ np.linalg.solve(cov, d))
        assert abs(uhlmann_fidelity(plus, minus) - closed) < 1e-3


def test_cutoff_convergence():
    cov = random_mild_cov(np.random.default_rng(1))
    d = np.array([0.6, -0.3])
    values = []
    for cutoff in (40, 60):
        plus = gaussian_to_fock(GaussianState(cov, d), cutoff)
        minus = gaussian_to_fock(GaussianState(cov, -d), cutoff)
        values.append(uhlmann_fidelity(plus, minus))
    assert abs(values[1] - values[0]) < 1e-5


@pytest.mark.parametrize(
    "nu, r, theta, disp, cutoff",
    [
        (1.0, 0.0, 0.0, [0.0, 0.0], 12),
        (1.0, 0.2, 0.4, [0.3, -0.5], 40),
        (1.6, 0.0, 0.0, [0.0, 0.0], 40),
        (1.3, -0.15, 1.1, [0.6, 0.2], 40),
        (1.8, 0.1, 2.5, [-0.4, 0.7], 60),
        (1.2, 0.25, 0.3, [0.9, -0.1], 30),
    ],
)
def test_density_matrix_matches_expm_oracle(nu, r, theta, disp, cutoff):
    disp = np.array(disp)
    state = GaussianState(expm_covariance(nu, r, theta), disp)
    got = gaussian_to_fock(state, cutoff).rho
    expected = expm_density_matrix(nu, r, theta, disp, cutoff)
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("r, cutoff", [(0.3, 8), (0.8, 23)])
def test_tail_mass_is_the_exact_truncation_loss(r, cutoff):
    # the pure two-mode squeezed state keeps sum_(n < c) tanh(r)^2n / cosh(r)^2
    # = 1 - tanh(r)^2c; at r = 0.8 and cutoff 23 that is 6.6e-9 < TAU_TAIL
    fk = gaussian_to_fock(two_mode_squeezed(r), cutoff)
    assert fk.tail_mass == pytest.approx(np.tanh(r) ** (2 * cutoff), rel=1e-6)


def test_product_state_is_kronecker_product_in_mode_order():
    cov_a = np.array([[1.8, 0.3], [0.3, 0.9]])
    cov_b = np.diag([1.2, 1.4])
    d_a, d_b = np.array([0.4, -0.2]), np.array([-0.1, 0.3])
    cov = np.zeros((4, 4))
    cov[:2, :2], cov[2:, 2:] = cov_a, cov_b
    cutoff = 20
    joint = gaussian_to_fock(GaussianState(cov, np.concatenate([d_a, d_b])), cutoff)
    rho_a = gaussian_to_fock(GaussianState(cov_a, d_a), cutoff).rho
    rho_b = gaussian_to_fock(GaussianState(cov_b, d_b), cutoff).rho
    np.testing.assert_allclose(joint.rho, np.kron(rho_a, rho_b), rtol=0, atol=1e-12)
    # the two orders differ, so the comparison above pins which mode is left
    assert np.max(np.abs(np.kron(rho_b, rho_a) - np.kron(rho_a, rho_b))) > 1e-3


@pytest.fixture(scope="module")
def two_mode_pairs():
    """Two mild two-mode Bloch-Messiah displaced pairs at cutoff 20, with
    their closed-form fidelity exp(-d^T gamma^-1 d)."""
    rng = np.random.default_rng(2005)
    pairs = []
    for _ in range(2):
        cov = bloch_messiah_cov(rng, 2, 0.12, 1.05, 1.35)
        d = rng.normal(size=4)
        d *= 0.5 * rng.uniform(0.3, 1.0) / np.linalg.norm(d)
        plus = gaussian_to_fock(GaussianState(cov, d), 20)
        minus = gaussian_to_fock(GaussianState(cov, -d), 20)
        pairs.append((plus, minus, np.exp(-d @ np.linalg.solve(cov, d))))
    return pairs


def test_fidelity_certification_two_modes(two_mode_pairs):
    for plus, minus, closed in two_mode_pairs:
        assert abs(uhlmann_fidelity(plus, minus) - closed) < 1e-3
        assert max(plus.tail_mass, minus.tail_mass) < 1e-8


def test_uhlmann_two_modes_to_rounding(two_mode_pairs):
    for plus, minus, closed in two_mode_pairs:
        forward = uhlmann_fidelity(plus, minus)
        assert abs(uhlmann_fidelity(plus, plus) - 1.0) <= 1e-12
        assert abs(uhlmann_fidelity(minus, minus) - 1.0) <= 1e-12
        assert abs(forward - uhlmann_fidelity(minus, plus)) <= 1e-12
        assert abs(forward - closed) <= 1e-12


def test_stored_eigendecomposition_rebuilds_rho(two_mode_pairs):
    one_mode = gaussian_to_fock(GaussianState(random_mild_cov(RNG), [0.5, -0.4]), 40)
    for fk in [one_mode] + [fk for plus, minus, _ in two_mode_pairs for fk in (plus, minus)]:
        w, V = fk.eigen
        assert w.min() >= 0.0
        assert abs(np.trace((V * w) @ V.conj().T).real - 1.0) <= 1e-14
        assert np.max(np.abs((V * w) @ V.conj().T - fk.rho)) <= 1e-14


def test_fidelity_from_bare_rho_matches_stored_eigenbasis(two_mode_pairs):
    def bare(fk):
        return FockState(rho=fk.rho, n_modes=fk.n_modes, cutoff=fk.cutoff, tail_mass=fk.tail_mass)

    for plus, minus, _ in two_mode_pairs:
        assert abs(uhlmann_fidelity(bare(plus), bare(minus)) - uhlmann_fidelity(plus, minus)) <= 1e-12


def product_and_svd_fidelity(a, b, floor):
    """The nuclear norm of diag(sqrt(w0)) V0^dag V1 diag(sqrt(w1)) over the
    weights above ``floor``: one product and one SVD, for any pair."""
    (w0, V0), (w1, V1) = a.eigen, b.eigen
    k0, k1 = w0 > floor, w1 > floor
    M = V0[:, k0].conj().T @ V1[:, k1]
    M *= np.sqrt(w0[k0])[:, None]
    M *= np.sqrt(w1[k1])
    return float(np.linalg.svd(M, compute_uv=False).sum())


def test_truncated_fidelity_within_bound_of_full_svd(two_mode_pairs):
    eps = np.finfo(float).eps
    state = GaussianState(random_mild_cov(np.random.default_rng(7)), [0.6, -0.3])
    pairs = [(gaussian_to_fock(state, c), gaussian_to_fock(mirror(state), c)) for c in (40, 60)]
    pairs += [(plus, minus) for plus, minus, _ in two_mode_pairs]
    for plus, minus in pairs:
        if plus.n_modes == 2:
            # weights and Fock levels are dropped, or the comparison shows nothing
            w, V = plus.eigen
            assert (w <= eps**2).any()
            assert (np.square(np.abs(V)) @ w <= eps).any()
        # M^dag has the singular values of M, and the mirror Pi F has the
        # Gram matrix F^dag F of F, so two SVDs give the full value of all four
        cross = product_and_svd_fidelity(plus, minus, floor=-np.inf)
        own = product_and_svd_fidelity(plus, plus, floor=-np.inf)
        for a, b, full in ((plus, minus, cross), (minus, plus, cross), (plus, plus, own), (minus, minus, own)):
            assert abs(full - uhlmann_fidelity(a, b)) <= 2 * len(a.eigen[0]) * eps


def test_near_mirror_takes_the_general_route(two_mode_pairs):
    # one ulp off a mirrored or identical factor is an unrelated pair, and
    # gets the product-and-SVD result to the bit
    plus, minus, _ = two_mode_pairs[0]
    for partner in (minus, plus):
        w, V = partner.eigen
        near = V.copy()
        near[0, 0] = np.nextafter(near[0, 0].real, np.inf) + 1j * near[0, 0].imag
        other = FockState(n_modes=2, cutoff=20, tail_mass=partner.tail_mass, eigen=(w, near))
        general = product_and_svd_fidelity(plus, other, floor=np.finfo(float).eps ** 2)
        assert uhlmann_fidelity(plus, other) == general


def test_density_matrix_built_on_first_read():
    one_mode = GaussianState(random_mild_cov(RNG), [0.2, 0.1])
    two_mode = GaussianState(bloch_messiah_cov(RNG, 2, 0.12, 1.05, 1.35), [0.1, 0.0, -0.2, 0.1])
    for fk in (gaussian_to_fock(one_mode, 40), gaussian_to_fock(two_mode, 20)):
        assert "rho" not in vars(fk)
        uhlmann_fidelity(fk, fk)
        assert "rho" not in vars(fk)
        rho = fk.rho
        assert fk.rho is rho
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) <= 1e-14


def test_fock_state_from_rho_keeps_that_matrix():
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    fk = FockState(rho=rho, n_modes=1, cutoff=4, tail_mass=0.0)
    assert fk.rho is rho
    np.testing.assert_allclose(np.sort(fk.eigen[0]), [0.0, 0.2, 0.3, 0.5], atol=1e-15)
    with pytest.raises(ValueError, match="rho or its eigenpairs"):
        FockState(n_modes=1, cutoff=4, tail_mass=0.0)


@pytest.mark.parametrize("cutoff", [0, -3, 2.5, "20", True])
def test_rejects_cutoff_that_is_not_a_positive_integer(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        gaussian_to_fock(vacuum_state(1), cutoff)


def test_accepts_numpy_integer_cutoff():
    fk = gaussian_to_fock(vacuum_state(1), np.int64(8))
    assert fk.rho.shape == (8, 8)


# -- a displaced pair shares one factor -------------------------------------------


def mirror_cases():
    """Seeded (state, cutoff) pairs, one and two modes, either leading sign."""
    rng = np.random.default_rng(2024)
    cases = []
    for sign in (1.0, -1.0):
        d = rng.normal(size=2)
        d *= sign * np.sign(d[0]) * 0.8 / np.linalg.norm(d)
        cases.append((GaussianState(random_mild_cov(rng), d), 40))
        d = rng.normal(size=4)
        d *= sign * np.sign(d[0]) * 0.4 / np.linalg.norm(d)
        cases.append((GaussianState(bloch_messiah_cov(rng, 2, 0.12, 1.05, 1.35), d), 20))
    return cases


MIRROR_CASES = mirror_cases()


def mirror(state):
    return GaussianState(state.cov, -state.disp)


def direct_factor(state, cutoff):
    """The state's own factor, past the cache and its sign normalisation."""
    tail, w, V = _factor.__wrapped__(
        state.n_modes, cutoff, state.cov.tobytes(), state.disp.tobytes()
    )
    return FockState(n_modes=state.n_modes, cutoff=cutoff, tail_mass=tail, eigen=(w, V))


@pytest.mark.parametrize("state, cutoff", MIRROR_CASES)
def test_hamiltonian_of_the_mirror_is_its_parity_image(state, cutoff):
    # the quadratic Hamiltonian of the mirror is Pi H Pi, so its Gaussian
    # unitary is Pi U Pi: the block <m|U|n> the factor is built from, filled
    # directly for -d, is the parity image of the one for d
    M = np.linalg.inv(williamson(state.cov).S)
    parity = _parity(state.n_modes, cutoff)
    plus = _unitary_block(M, state.disp, cutoff)
    minus = _unitary_block(M, -state.disp, cutoff)
    assert np.array_equal(minus, parity[:, None] * plus * parity)
    # the identity is not empty: the block has entries of both parities
    assert np.count_nonzero((parity[:, None] * parity < 0) & (np.abs(plus) > 1e-3)) > 0


@pytest.mark.parametrize("state, cutoff", MIRROR_CASES)
def test_mirrored_partner_matches_a_direct_solve(state, cutoff):
    gaussian_to_fock(single_mode_thermal(1.3), 30)
    plus = gaussian_to_fock(state, cutoff)
    hits = _factor.cache_info().hits
    minus = gaussian_to_fock(mirror(state), cutoff)
    assert _factor.cache_info().hits == hits + 1
    # whichever of the two has a negative leading entry is the parity image
    assert np.array_equal(plus.eigen[0], minus.eigen[0])
    for fk, s in ((plus, state), (minus, mirror(state))):
        direct = direct_factor(s, cutoff)
        assert fk.tail_mass == direct.tail_mass
        assert np.max(np.abs(fk.rho - direct.rho)) <= 1e-13
    fid = uhlmann_fidelity(plus, minus)
    direct = uhlmann_fidelity(direct_factor(state, cutoff), direct_factor(mirror(state), cutoff))
    assert abs(fid - direct) <= 1e-12
    closed = np.exp(-state.disp @ np.linalg.solve(state.cov, state.disp))
    assert abs(fid - closed) < 1e-3


def test_no_stale_solve_is_served():
    state, cutoff = MIRROR_CASES[0]
    cov = state.cov.copy()
    cov[0, 0] = np.nextafter(cov[0, 0], np.inf)
    for other, other_cutoff in ((GaussianState(cov, state.disp), cutoff), (state, cutoff + 1)):
        _factor.cache_clear()
        fresh = gaussian_to_fock(other, other_cutoff).eigen
        gaussian_to_fock(state, cutoff)
        served = gaussian_to_fock(other, other_cutoff).eigen
        assert all(np.array_equal(a, b) for a, b in zip(served, fresh))
    assert _factor.cache_info().maxsize == 1


@pytest.mark.parametrize(
    "disp",
    [
        [0.0, 0.0],
        [-0.0, -0.0],
        [0.0, 0.4],
        [0.0, -0.4],
        [-0.0, 0.4],
        [0.5, -0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, 0.3, -0.2],
        [0.0, -0.0, -0.3, 0.2],
    ],
)
def test_zero_entries_give_correct_pairs(disp):
    disp = np.array(disp)
    n = len(disp) // 2
    cutoff = {1: 40, 2: 16}[n]
    cov = random_mild_cov(np.random.default_rng(3)) if n == 1 else two_mode_squeezed(0.2).cov
    state = GaussianState(cov, disp)
    plus = gaussian_to_fock(state, cutoff)
    hits = _factor.cache_info().hits
    minus = gaussian_to_fock(mirror(state), cutoff)
    assert _factor.cache_info().hits == hits + 1
    for fk, s in ((plus, state), (minus, mirror(state))):
        assert np.max(np.abs(fk.rho - direct_factor(s, cutoff).rho)) <= 1e-13
    closed = np.exp(-disp @ np.linalg.solve(cov, disp))
    assert abs(uhlmann_fidelity(plus, minus) - closed) < 1e-6


def test_eigenpairs_are_read_only():
    state, cutoff = MIRROR_CASES[0]
    for fk in (gaussian_to_fock(state, cutoff), gaussian_to_fock(mirror(state), cutoff)):
        for array in fk.eigen:
            with pytest.raises(ValueError):
                array[0] = 0.0
