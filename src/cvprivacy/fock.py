"""Truncated Fock-space oracle for validating Gaussian closed forms.

Builds explicit density matrices for one- and two-mode Gaussian states and
computes overlaps numerically, providing a route to fidelity values that
never touches the covariance-matrix formulas it certifies.  Conventions:
X = (a + a^dag)/sqrt(2), P = i(a^dag - a)/sqrt(2), so the vacuum
covariance is the identity and <X^2>_vac = 1/2.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalFailure, TailTooHeavy, Unphysical
from .states import GaussianState, is_physical
from .symplectic import williamson

TAU_TAIL = 1e-8

DEFAULT_CUTOFF = {1: 40, 2: 20}

# Symplectic eigenvalues are clamped this far above 1 so the thermal
# inverse temperature stays finite for pure states.
_NU_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class FockState:
    """Density matrix in the truncated number basis.

    ``tail_mass`` estimates the probability weight lost to truncation,
    from the exact partition function of the generating quadratic form.
    ``eigen`` is the pair (w, V) of weights and a unitary with
    rho = V diag(w) V^dag.  ``gaussian_to_fock`` fills it from the
    eigendecomposition of the Hamiltonian it already computes; a state
    built from ``rho`` alone gets it from one Hermitian eigendecomposition.
    """

    rho: np.ndarray
    n_modes: int
    cutoff: int
    tail_mass: float
    eigen: tuple = None

    def __post_init__(self):
        if self.eigen is None:
            if not np.isfinite(self.rho).all():
                raise ValueError("density matrix has a non-finite entry")
            object.__setattr__(self, "eigen", np.linalg.eigh(self.rho))


def quadrature_operators(n_modes: int, cutoff: int):
    """Truncated (X_1, P_1, ..., X_n, P_n) operators as dense matrices."""
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    x = (a + a.T) / np.sqrt(2)
    p = 1j * (a.T - a) / np.sqrt(2)
    eye = np.eye(cutoff)
    ops = []
    for mode in range(n_modes):
        for quad in (x, p):
            factors = [eye] * n_modes
            factors[mode] = quad
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            ops.append(out)
    return ops


def _hamiltonian(G: np.ndarray, disp: np.ndarray, cutoff: int) -> np.ndarray:
    """Kept block of (1/2) (R - d)^T G (R - d) on ``cutoff`` levels per mode.

    The four terms within a mode are summed into one single-mode factor,
    and the terms (k, l) and (l, k) across two modes into one Kronecker
    product; the first mode is leftmost, with the identity on every mode a
    factor does not act on.
    """
    n = len(disp) // 2
    # q[k] = R_k - d_k on the padded levels of mode k // 2
    x, p = quadrature_operators(1, cutoff + 2)
    q = [(x, p)[k % 2] - disp[k] * np.eye(cutoff + 2) for k in range(2 * n)]
    eye = np.eye(cutoff)
    local = []
    for mode in range(n):
        block = np.zeros((cutoff, cutoff), dtype=complex)
        for k in (2 * mode, 2 * mode + 1):
            for l in (2 * mode, 2 * mode + 1):
                if G[k, l] != 0.0:
                    block += 0.5 * G[k, l] * (q[k] @ q[l])[:cutoff, :cutoff]
        local.append(block)
    if n == 1:
        return local[0]
    H = np.kron(local[0], eye)
    H += np.kron(eye, local[1])
    for k in (0, 1):
        for l in (2, 3):
            g = 0.5 * (G[k, l] + G[l, k])
            if g != 0.0:
                H += np.kron(g * q[k][:cutoff, :cutoff], q[l][:cutoff, :cutoff])
    return H


def gaussian_to_fock(state: GaussianState, cutoff: int = None) -> FockState:
    """Convert a one- or two-mode Gaussian state to a truncated density matrix.

    The state is realized as exp(-(1/2) (R - d)^T G (R - d)) / Z, with G
    assembled from the Williamson decomposition of the covariance matrix.
    Padding is per mode: a same-mode product is built two levels above the
    cutoff and then sliced, so its matrix elements are exact on the kept
    block, and a product across two modes is the Kronecker product of the
    sliced single-mode factors.  The eigendecomposition of the kept block
    gives both rho and the ``eigen`` pair the fidelity uses.

    Raises
    ------
    ValueError
        If the state has more than two modes or the cutoff is not a
        positive integer.
    Unphysical
        If the covariance matrix is not physical.
    TailTooHeavy
        If the truncation leaks more than TAU_TAIL of probability mass.
    """
    if state.n_modes not in (1, 2):
        raise ValueError("the Fock oracle supports one- and two-mode states only")
    if not is_physical(state):
        raise Unphysical("state violates the uncertainty bound")
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF[state.n_modes]
    if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Integral) or cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    n = state.n_modes

    decomp = williamson(state.cov)
    nu = np.maximum(decomp.spectrum, 1.0 + _NU_FLOOR)
    beta = np.log((nu + 1.0) / (nu - 1.0))
    G = decomp.S.T @ np.diag(np.repeat(beta, 2)) @ decomp.S

    H = _hamiltonian(G, state.disp, cutoff)
    H += H.conj().T
    H *= 0.5

    ground_energy = 0.5 * float(beta.sum())
    energies, V = np.linalg.eigh(H)
    del H
    weights = np.exp(-(energies - ground_energy))
    rho = (V * weights) @ V.conj().T
    z_exact = float(np.prod(1.0 / (1.0 - np.exp(-beta))))
    trace = float(np.trace(rho).real)
    tail = max(0.0, 1.0 - trace / z_exact)
    if tail >= TAU_TAIL:
        raise TailTooHeavy(
            f"tail mass {tail:.3e} at cutoff {cutoff}; increase the cutoff"
        )
    rho /= trace
    rho += rho.conj().T
    rho *= 0.5
    weights /= trace
    return FockState(rho=rho, n_modes=n, cutoff=cutoff, tail_mass=tail, eigen=(weights, V))


def fock_moments(fock: FockState):
    """First and second moments (d, gamma) recomputed from the density matrix.

    gamma uses the anticommutator convention, matching the covariance
    matrices this package carries.
    """
    R = quadrature_operators(fock.n_modes, fock.cutoff)
    k2 = 2 * fock.n_modes
    rho = fock.rho
    # tr(rho O) = sum_ij rho_ij O_ji
    d = np.array([float(np.sum(rho * R[k].T).real) for k in range(k2)])
    dim = rho.shape[0]
    centered = [R[k] - d[k] * np.eye(dim) for k in range(k2)]
    rho_centered = [rho @ c for c in centered]
    gamma = np.empty((k2, k2))
    for k in range(k2):
        for l in range(k, k2):
            # tr(rho {A_k, A_l}) = 2 Re tr(rho A_k A_l) for Hermitian rho, A_k, A_l
            second = np.sum(rho_centered[k] * centered[l].T)
            gamma[k, l] = gamma[l, k] = 2.0 * float(second.real)
    return d, gamma


def uhlmann_fidelity(r0: FockState, r1: FockState) -> float:
    """tr|sqrt(r0) sqrt(r1)|, from the stored eigendecompositions.

    With rho_i = V_i diag(w_i) V_i^dag, the fidelity is the sum of the
    singular values of diag(sqrt(w0)) V0^dag V1 diag(sqrt(w1)): one matrix
    product and one SVD without vectors, and no square root of a matrix.
    """
    if r0.cutoff != r1.cutoff or r0.n_modes != r1.n_modes:
        raise ValueError("states must share cutoff and mode count")
    (w0, V0), (w1, V1) = r0.eigen, r1.eigen
    for w in (w0, w1):
        if w.min() < -1e-10:
            raise NumericalFailure(f"negative eigenvalue {w.min():.3e} in density matrix")
    M = V0.conj().T @ V1
    M *= np.sqrt(np.clip(w0, 0.0, None))[:, None]
    M *= np.sqrt(np.clip(w1, 0.0, None))
    return float(np.linalg.svd(M, compute_uv=False).sum())
