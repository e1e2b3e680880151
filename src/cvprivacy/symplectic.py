"""Real symplectic linear algebra kernels.

All matrices are dense 2n x 2n float64 arrays in the interleaved mode
ordering (X1, P1, ..., Xn, Pn).  The symplectic form is the direct sum of
n blocks [[0, 1], [-1, 0]] in that ordering, and every routine here sticks
to that single convention.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .exceptions import ComplexSpectrum, NotPositiveDefinite, SingularBlock

# Identity-check tolerance, positive-definiteness margin, and relative
# rank cut for pseudo-inverses.  Double precision with headroom at the
# small dimensions (2n <= ~20) this package targets.
TAU_LIN = 1e-9
TAU_PSD = 1e-10
TAU_RANK = 1e-10


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


def x_projector(n_modes: int) -> np.ndarray:
    """Diagonal projector D(1, 0, 1, 0, ...) onto the X coordinates."""
    return np.diag(np.tile([1.0, 0.0], n_modes))


def is_symplectic(S: np.ndarray, tol: float = TAU_LIN) -> bool:
    """Check S sigma S^T = sigma within ``tol`` (max-abs entrywise)."""
    n = S.shape[0] // 2
    sigma = symplectic_form(n)
    return bool(np.max(np.abs(S @ sigma @ S.T - sigma)) <= tol)


def _spd_eigh(C: np.ndarray, tol: float = TAU_PSD):
    """eigh of each symmetrized matrix of a stack, and which clear the margin.

    ``C`` has shape (..., 2n, 2n); a single matrix is a stack of one.  LAPACK
    runs the same routine on every matrix of a stack as on a lone matrix, so
    a stacked result equals the one-matrix result bit for bit.

    Returns
    -------
    tuple
        ``(w, V, ok)``: ascending eigenvalues, eigenvectors, and a boolean
        array, False where the smallest eigenvalue is below ``tol``.
    """
    w, V = np.linalg.eigh(0.5 * (C + C.swapaxes(-1, -2)))
    return w, V, ~(w.min(axis=-1) < tol)


def _check_spd(C: np.ndarray, tol: float = TAU_PSD) -> np.ndarray:
    """Validate symmetry and positive definiteness; return eigh pair."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] % 2 != 0:
        raise ValueError(f"expected a square 2n x 2n matrix, got shape {C.shape}")
    if np.max(np.abs(C - C.T)) > TAU_LIN:
        raise ValueError("matrix is not symmetric within tolerance")
    w, V, ok = _spd_eigh(C, tol)
    if not ok:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w.min():.3e} below margin {tol:.1e}"
        )
    return w, V


def _spectra(C: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a stack (..., 2n, 2n) that passed ``_spd_eigh``.

    Moduli of the eigenvalues of ``i sigma C``, one per +/- pair, in
    non-increasing order along the last axis.
    """
    w = np.linalg.eigvals(1j * symplectic_form(C.shape[-1] // 2) @ C)
    return np.sort(np.abs(w.real), axis=-1)[..., ::-1][..., ::2]


def _below_vacuum(spectra: np.ndarray):
    """Whether the smallest symplectic eigenvalue of each spectrum of a stack
    falls below the vacuum level 1 by more than TAU_PSD."""
    return spectra.min(axis=-1) < 1.0 - TAU_PSD


def symplectic_eigenvalues(C: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite matrix.

    The values are the moduli of the eigenvalues of ``i sigma C``, which
    occur in +/- pairs; one representative per pair is returned.

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
    _check_spd(C)
    return _spectra(C).copy()


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

    Constructs S from the real Schur form of C^{-1/2} sigma C^{-1/2}; any S
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
    w, V = _check_spd(C)
    n = C.shape[0] // 2
    C_inv_half = (V / np.sqrt(w)) @ V.T
    sigma = symplectic_form(n)
    W = C_inv_half @ sigma @ C_inv_half
    W = 0.5 * (W - W.T)
    T, O = schur(W, output="real")

    # Each 2x2 Schur block of the antisymmetric W is [[0, b], [-b, 0]] with
    # b = 1/lambda; flip column pairs so b > 0, then sort pairs by lambda.
    lam = np.empty(n)
    for i in range(n):
        b = T[2 * i, 2 * i + 1]
        if b < 0:
            O[:, [2 * i, 2 * i + 1]] = O[:, [2 * i + 1, 2 * i]]
            b = -b
        lam[i] = 1.0 / b
    order = np.argsort(-lam)
    col_perm = np.empty(2 * n, dtype=int)
    col_perm[0::2] = 2 * order
    col_perm[1::2] = 2 * order + 1
    O = O[:, col_perm]
    lam = lam[order]

    D_half = np.repeat(np.sqrt(lam), 2)
    S = (D_half[:, None] * O.T) @ C_inv_half
    return WilliamsonDecomposition(S=S, spectrum=lam)


def block_inverse(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Blocks of the inverse of the partitioned matrix [[A, C], [C^T, B]].

    Parameters
    ----------
    A, B : ndarray
        Square diagonal blocks.
    C : ndarray
        Off-diagonal block coupling the two.

    Returns
    -------
    tuple of ndarray
        ``(top_left, top_right, bottom_left, bottom_right)`` blocks of the
        inverse, via the Schur-complement formula.

    Raises
    ------
    SingularBlock
        If A, B, or a required Schur complement is singular.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    try:
        B_inv = np.linalg.inv(B)
        A_inv = np.linalg.inv(A)
        schur_A = A - C @ B_inv @ C.T
        schur_B = B - C.T @ A_inv @ C
        top_left = np.linalg.inv(schur_A)
        bottom_right = np.linalg.inv(schur_B)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock(str(exc)) from exc
    top_right = -A_inv @ C @ bottom_right
    bottom_left = -bottom_right @ C.T @ A_inv
    return top_left, top_right, bottom_left, bottom_right


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues below ``TAU_RANK`` (relative to the largest modulus) are
    treated as exact zeros, so the result inverts M on its numerical range.
    """
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > TAU_LIN:
        raise ValueError("pseudo_inverse expects a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    scale = np.max(np.abs(w)) if w.size else 0.0
    inv_w = np.zeros_like(w)
    if scale > 0.0:
        keep = np.abs(w) > TAU_RANK * scale
        inv_w[keep] = 1.0 / w[keep]
    return (V * inv_w) @ V.T


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
