"""Real symplectic linear algebra kernels.

All matrices are dense 2n x 2n float64 arrays in the interleaved mode
ordering (X1, P1, ..., Xn, Pn).  The symplectic form is the direct sum of
n blocks [[0, 1], [-1, 0]] in that ordering, and every routine here sticks
to that single convention.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import ComplexSpectrum, NotPositiveDefinite

# Identity-check tolerance and positive-definiteness margin.  Double
# precision with headroom at the small dimensions (2n <= ~20) this package
# targets.
TAU_LIN = 1e-9
TAU_PSD = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for ``n_modes`` modes.

    Parameters
    ----------
    n_modes : int
        Number of canonical mode pairs, at least 1.

    Returns
    -------
    ndarray
        Antisymmetric matrix, the direct sum of n blocks [[0, 1], [-1, 0]].
    """
    return _symplectic_form(n_modes).copy()


@functools.cache
def _symplectic_form(n_modes: int) -> np.ndarray:
    # built once per mode count: every spectrum and exponent evaluation
    # needs it, and building it costs more than the copy handed out
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    sigma = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        sigma[2 * i, 2 * i + 1] = 1.0
        sigma[2 * i + 1, 2 * i] = -1.0
    sigma.setflags(write=False)
    return sigma


def momentum_flip(n_modes: int) -> np.ndarray:
    """Diagonal matrix D(1, -1, 1, -1, ...) flipping the sign of every P."""
    return np.diag(np.tile([1.0, -1.0], n_modes))


def is_symplectic(S: np.ndarray) -> bool:
    """Check S sigma S^T = sigma within ``TAU_LIN`` (max-abs entrywise)."""
    n = S.shape[0] // 2
    sigma = symplectic_form(n)
    return bool(np.max(np.abs(S @ sigma @ S.T - sigma)) <= TAU_LIN)


def _uncertainty_ok(C: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack satisfies the uncertainty bound.

    The bound is C + i sigma >= 0 in Hermitian form.  ``C`` has shape
    (..., 2n, 2n); a single matrix is a stack of one.  LAPACK runs the same
    routine on every matrix of a stack as on a lone matrix, so a stacked
    verdict equals the one-matrix verdict.

    The smallest eigenvalue may fall below zero by the band
    max(TAU_PSD, 64 eps max|C|): the eigensolver's error grows like
    eps |C|, and the absolute floor keeps boundary states of small
    matrices.  Matrices inside the band pass, which makes ties fail safe
    toward "physical" and, on a partial transpose, toward "PPT".
    """
    w = np.linalg.eigvalsh(C + 1j * _symplectic_form(C.shape[-1] // 2))
    band = np.maximum(TAU_PSD, 64 * np.finfo(float).eps * np.abs(C).max(axis=(-2, -1)))
    return w[..., 0] >= -band


def _williamson_kernel(C: np.ndarray):
    """Symplectic spectrum and normal-form basis of a positive-definite C.

    With R = C^{1/2}, the matrix i R sigma R is Hermitian with eigenvalues
    +/- nu.  An eigenvector z of -nu splits as z = (o1 + i o2) / sqrt(2)
    into orthonormal real vectors with R sigma R o1 = -nu o2 and
    R sigma R o2 = nu o1, so the pairs (o1, o2) form a real orthogonal O
    with O^T R sigma R O = diag(nu) sigma.  Eigenvectors of a repeated nu
    stay orthonormal in this split, since the conjugate of the -nu
    eigenspace is the +nu eigenspace.

    Returns
    -------
    tuple
        ``(nu, O, R, R_inv)``: the symplectic eigenvalues in non-increasing
        order, O, C^{1/2} and C^{-1/2}.

    Raises
    ------
    ValueError
        If C is not a symmetric 2n x 2n matrix.
    NotPositiveDefinite
        If the smallest eigenvalue of C is below TAU_PSD.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] % 2 != 0:
        raise ValueError(f"expected a square 2n x 2n matrix, got shape {C.shape}")
    if np.max(np.abs(C - C.T)) > TAU_LIN:
        raise ValueError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(0.5 * (C + C.T))
    if w[0] < TAU_PSD:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[0]:.3e} below margin {TAU_PSD:.1e}"
        )
    n = w.shape[0] // 2
    R = (V * np.sqrt(w)) @ V.T
    R_inv = (V / np.sqrt(w)) @ V.T
    vals, Z = np.linalg.eigh(1j * R @ _symplectic_form(n) @ R)
    O = np.empty((2 * n, 2 * n))
    O[:, 0::2] = np.sqrt(2.0) * Z[:, :n].real
    O[:, 1::2] = np.sqrt(2.0) * Z[:, :n].imag
    return -vals[:n], O, R, R_inv


def symplectic_eigenvalues(C: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite matrix.

    The values are the eigenvalues +/- nu of the Hermitian i R sigma R with
    R = C^{1/2}, one representative per pair.  They carry an error of
    about eps |C|^2, so physicality and PPT verdicts do not read them: those
    test C + i sigma >= 0 directly.

    Parameters
    ----------
    C : ndarray
        Symmetric positive-definite 2n x 2n matrix.

    Returns
    -------
    ndarray
        The n symplectic eigenvalues in non-increasing order.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue of C is below the margin.
    """
    return _williamson_kernel(C)[0]


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Symplectic congruence bringing a positive-definite matrix to normal form.

    Attributes
    ----------
    S : ndarray
        Symplectic matrix with ``S C S^T = diag(spectrum repeated pairwise)``.
    spectrum : ndarray
        Symplectic eigenvalues in non-increasing order.
    """

    S: np.ndarray
    spectrum: np.ndarray

    def normal_form(self) -> np.ndarray:
        """The diagonal matrix ``S C S^T`` this decomposition certifies."""
        return np.diag(np.repeat(self.spectrum, 2))


def williamson(C: np.ndarray) -> WilliamsonDecomposition:
    """Compute a Williamson decomposition of a positive-definite matrix.

    S = D^{1/2} O^T C^{-1/2}, with D the spectrum repeated pairwise and O
    the real orthogonal basis in which C^{1/2} sigma C^{1/2} takes the
    normal form D sigma (both from one Hermitian eigenproblem).  Any S
    satisfying the two congruence invariants is an equally valid witness.

    Parameters
    ----------
    C : ndarray
        Symmetric positive-definite 2n x 2n matrix.

    Returns
    -------
    WilliamsonDecomposition

    Raises
    ------
    NotPositiveDefinite
    """
    nu, O, _, R_inv = _williamson_kernel(C)
    S = (np.sqrt(np.repeat(nu, 2))[:, None] * O.T) @ R_inv
    return WilliamsonDecomposition(S=S, spectrum=nu)


def psd_sqrt_of_similar(M: np.ndarray) -> np.ndarray:
    """Principal square root of a diagonalizable matrix with spectrum >= 0.

    The input need not be symmetric, only similar to a nonnegative diagonal
    matrix.  Eigenvalues in [-TAU_PSD, 0) are clamped to zero.

    Raises
    ------
    ComplexSpectrum
        If any eigenvalue has imaginary part above TAU_PSD, or real part
        below -TAU_PSD (either way the square root would leave the reals).
    """
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eig(M)
    scale = max(1.0, np.max(np.abs(w)))
    if np.max(np.abs(w.imag)) > TAU_PSD * scale:
        raise ComplexSpectrum(
            f"eigenvalue imaginary part up to {np.max(np.abs(w.imag)):.3e}"
        )
    wr = w.real
    if wr.min() < -TAU_PSD * scale:
        raise ComplexSpectrum(f"negative eigenvalue {wr.min():.3e}")
    wr = np.clip(wr, 0.0, None)
    R = V @ np.diag(np.sqrt(wr).astype(complex)) @ np.linalg.inv(V)
    return R.real
