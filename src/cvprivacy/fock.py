"""Truncated Fock-space oracle for validating Gaussian closed forms.

Represents one- and two-mode Gaussian states in the truncated number basis,
by a factor of their density matrices, and computes overlaps numerically,
providing a route to fidelity values that never touches the
covariance-matrix formulas it certifies.  Conventions:
X = (a + a^dag)/sqrt(2), P = i(a^dag - a)/sqrt(2), so the vacuum
covariance is the identity and <X^2>_vac = 1/2.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalFailure, TailTooHeavy, Unphysical
from .states import GaussianState, is_physical
from .symplectic import williamson

TAU_TAIL = 1e-8

DEFAULT_CUTOFF = {1: 40, 2: 20}


@dataclass(frozen=True, eq=False, init=False)
class FockState:
    """A state in the truncated number basis, held as a factor of rho.

    ``eigen`` is the pair (w, V) of weights and a matrix with
    rho = V diag(w) V^dag; it is the state's data.  From ``gaussian_to_fock``
    it is the thermal weights and the truncated block <m|U|n> of the
    state's Gaussian unitary, not unitary but with columns of norm at most
    1; a state built from ``rho`` alone gets its eigenpairs.  ``rho``
    itself is built from (w, V), made exactly Hermitian, on its first read
    and cached (a state built from ``rho`` keeps that matrix).
    ``tail_mass`` is the probability weight lost to truncation, exact up to
    rounding.  The arrays of an ``eigen`` from ``gaussian_to_fock`` are
    read-only: the conversion keeps its last factor, and a displaced pair
    shares its weights.
    """

    n_modes: int
    cutoff: int
    tail_mass: float
    eigen: tuple

    def __init__(self, rho=None, *, n_modes, cutoff, tail_mass, eigen=None):
        if eigen is None:
            if rho is None:
                raise ValueError("a FockState needs rho or its eigenpairs")
            if not np.isfinite(rho).all():
                raise ValueError("density matrix has a non-finite entry")
            eigen = np.linalg.eigh(rho)
        if rho is not None:
            # seeds the cache of the ``rho`` property below
            object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "tail_mass", tail_mass)
        object.__setattr__(self, "eigen", eigen)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """Density matrix V diag(w) V^dag, built on first read."""
        w, V = self.eigen
        rho = (V * w) @ V.conj().T
        rho += rho.conj().T
        rho *= 0.5
        return rho


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


def gaussian_to_fock(state: GaussianState, cutoff: int = None) -> FockState:
    """Convert a one- or two-mode Gaussian state to a truncated density matrix.

    With gamma = M diag(nu, nu) M^T its Williamson form, the state is
    U rho_th U^dag, with thermal weights w_n = prod_k (1 - q_k) q_k^(n_k),
    q = (nu - 1)/(nu + 1), and U^dag R U = M R + d.  The returned state's
    data is (w, V), V the exact block <m|U|n> over the kept levels; its
    density matrix is built only if read.  The trace (w, V) misses,
    1 - sum_n w_n ||V e_n||^2, is the ``tail_mass``; w is then renormalised
    so that tr rho = 1.

    The state with displacement -d has the unitary Pi U Pi, with Pi the
    photon-number parity (-1)^(n_1 + ... + n_k), so its factor is
    (w, Pi V).  The last factor is kept, and converting the mirrored
    partner of the state just converted reuses it: the two states share
    their weights, and the arrays of ``eigen`` are read-only.  The
    physicality and cutoff checks run on every call.

    Raises
    ------
    ValueError
        If the state has more than two modes or the cutoff is not a
        positive integer.
    Unphysical
        If the covariance matrix is not physical.
    TailTooHeavy
        If the truncation loses TAU_TAIL of probability mass or more, or
        the computed loss is NaN.
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

    # d and -d share one key: the sign that makes the first nonzero entry
    # positive, and + 0.0 to turn -0.0 into 0.0
    disp = state.disp
    nonzero = np.flatnonzero(disp)
    mirrored = nonzero.size > 0 and disp[nonzero[0]] < 0.0
    key = (-disp if mirrored else disp) + 0.0
    tail, weights, V = _factor(n, int(cutoff), state.cov.tobytes(), key.tobytes())
    if mirrored:
        V = V * _parity(n, cutoff)[:, None]
        V.flags.writeable = False
    return FockState(n_modes=n, cutoff=cutoff, tail_mass=tail, eigen=(weights, V))


def _parity(n_modes: int, cutoff: int) -> np.ndarray:
    """(-1)^(n_1 + ... + n_k) on the truncated basis, first mode leftmost."""
    levels = np.indices((cutoff,) * n_modes).sum(axis=0).ravel()
    return np.where(levels % 2, -1.0, 1.0)


@functools.lru_cache(maxsize=1)
def _factor(n: int, cutoff: int, cov_bytes: bytes, disp_bytes: bytes):
    """(tail mass, weights, V) of the state with these moments, read-only.

    Holds the last factor only: its one reuse is the mirrored partner of a
    displaced pair, converted right after it.  A ``TailTooHeavy`` raised
    here is not cached.
    """
    cov = np.frombuffer(cov_bytes).reshape(2 * n, 2 * n)
    disp = np.frombuffer(disp_bytes)
    decomp = williamson(cov)
    # a pure mode has q = 0: only its level 0 weighs
    nu = np.maximum(decomp.spectrum, 1.0)
    q = (nu - 1.0) / (nu + 1.0)
    thermal = [(1.0 - qk) * qk ** np.arange(cutoff) for qk in q]
    weights = functools.reduce(np.multiply.outer, thermal).ravel()
    V = _unitary_block(np.linalg.inv(decomp.S), disp, cutoff)
    total = float(np.square(np.abs(V)).sum(axis=0) @ weights)
    tail = 1.0 - total
    if not tail < TAU_TAIL:  # a NaN is refused too
        raise TailTooHeavy(f"tail mass {tail:.3e} at cutoff {cutoff}; increase the cutoff")
    weights /= total
    weights.flags.writeable = False
    V.flags.writeable = False
    return tail, weights, V


def _unitary_block(M: np.ndarray, disp: np.ndarray, cutoff: int) -> np.ndarray:
    """<m|U|n> below ``cutoff`` levels per mode, first mode leftmost, for
    the Gaussian unitary U with U^dag R U = M R + d.

    With T mapping R to (a; a^dag), T M T^-1 = [[W, V], [conj(V), conj(W)]]
    and g = (d_x + i d_p)/sqrt(2), the generating function
    sum_k G_k z^k / sqrt(k!) of G = <m|U|n> in z = (conj(alpha), beta) is
    C exp(z^T A z / 2 + b^T z) (Miatto & Quesada, Quantum 4, 366 (2020)):

        A = [[V conj(W)^-1, W - V conj(W)^-1 conj(V)],
             [conj(W)^-1,   -conj(W)^-1 conj(V)]],
        b = (g - V conj(W)^-1 conj(g), -conj(W)^-1 conj(g)),
        C = det((M M^T + 1)/2)^(-1/4) exp(-d^T (M M^T + 1)^-1 d / 2),

    C up to a global phase that rho does not see.  Differentiating gives
    sqrt(k_i + 1) G_(k + e_i) = b_i G_k + sum_j A_ij sqrt(k_j) G_(k - e_j),
    which fills the 2n-index tensor one axis at a time, last axis first:
    while axis i is filled, it leads, the complete axes after it trail, and
    those before it stay at level 0.  Level k sits at position k + 1 of a
    zero-padded tensor, so G_(k - e_j) is a plain slice.
    """
    n = len(disp) // 2
    k2 = 2 * n
    T = np.vstack([np.kron(np.eye(n), [1.0, 1j]), np.kron(np.eye(n), [1.0, -1j])]) * np.sqrt(0.5)
    W, V = np.split((T @ M @ T.conj().T)[:n], 2, axis=1)
    W_inv = np.linalg.inv(W.conj())
    VW = V @ W_inv
    g = (disp[0::2] + 1j * disp[1::2]) * np.sqrt(0.5)
    A = np.block([[VW, W - VW @ V.conj()], [W_inv, -W_inv @ V.conj()]])
    b = np.concatenate([g - VW @ g.conj(), -W_inv @ g.conj()])
    K = M @ M.T + np.eye(k2)
    C = np.linalg.det(0.5 * K) ** -0.25 * np.exp(-0.5 * disp @ np.linalg.solve(K, disp))

    padded = np.zeros((cutoff + 1,) * k2, dtype=complex)
    root = np.sqrt(np.arange(cutoff + 1))
    # the last axis, with every other one at level 0, in scalars
    line = padded[(1,) * (k2 - 1)]
    line[1] = cur = complex(C)
    prev, b_i, a_ii = 0j, complex(b[-1]), complex(A[-1, -1])
    for k in range(cutoff - 1):
        prev, cur = cur, (b_i * cur + a_ii * root[k] * prev) / root[k + 1]
        line[k + 2] = cur
    for i in reversed(range(k2 - 1)):
        view = padded[(1,) * i]
        full = (slice(None),) + (slice(1, None),) * (k2 - i - 1)
        body = view[full]
        lowered = []
        for j in range(i + 1, k2):
            # G_(k - e_j) and A_ij sqrt(k_j), along axis j of a slice
            at = full[: j - i] + (slice(0, cutoff),) + full[j - i + 1 :]
            lowered.append((view[at], A[i, j] * root[:-1].reshape((-1,) + (1,) * (k2 - j - 1))))
        for k in range(cutoff - 1):
            out = body[k + 2]
            np.multiply(body[k + 1], b[i], out=out)
            out += (A[i, i] * root[k]) * body[k]
            for low, scale in lowered:
                out += scale * low[k + 1]
            out /= root[k + 1]
    return padded[(slice(1, None),) * k2].reshape(cutoff**n, cutoff**n)


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
    """tr|sqrt(r0) sqrt(r1)|, from the stored factors.

    With rho_i = F_i F_i^dag, F_i = V_i diag(sqrt(w_i)), the fidelity is
    the nuclear norm of M = F0^dag F1, and no square root of a matrix is
    taken.  Only the columns of F_i whose weight exceeds eps^2 (eps the
    float64 machine epsilon) are formed; each dropped row or column of M
    has norm at most its sqrt(w) (the columns of V have norm at most 1).

    A mirrored pair, equal weights with V1 equal to V0 or to Pi V0 (Pi the
    photon-number parity), is recognised by comparing the factors by value;
    every displaced pair and every self-pair from ``gaussian_to_fock`` is
    one.  Its M = F^dag P F, P = 1 or Pi, is Hermitian.  The Fock levels
    (rows of F) whose population rho_mm is at most eps are dropped: each
    removes the term P_mm f_m^dag f_m of norm rho_mm from M.  With
    F_kept^dag = Q R (one QR, R at most as large as the kept levels), M has
    the nonzero eigenvalues of R P R^dag, and the fidelity is the sum of
    their magnitudes.  Dropping rows can move the nuclear norm either way, so

        |F_full - F| <= 2 sum_dropped sqrt(w) + sum_dropped rho_mm.

    Any other pair, among them the eigenpairs of states built from a bare
    rho, takes the sum of the singular values of M: one matrix product and
    one SVD without vectors.  Dropping columns there can only lower the
    nuclear norm, so

        0 <= F_full - F <= sum_dropped sqrt(w0) + sum_dropped sqrt(w1) <= 2 n eps

    with n weights per state, the size of the SVD's own rounding.
    """
    if r0.cutoff != r1.cutoff or r0.n_modes != r1.n_modes:
        raise ValueError("states must share cutoff and mode count")
    (w0, V0), (w1, V1) = r0.eigen, r1.eigen
    for w in (w0, w1):
        if w.min() < -1e-10:
            raise NumericalFailure(f"negative eigenvalue {w.min():.3e} in density matrix")
    eps = np.finfo(float).eps
    k0, k1 = w0 > eps**2, w1 > eps**2
    sign = _mirror_sign(r0, r1)
    if sign is not None:
        F = V0[:, k0] * np.sqrt(w0[k0])
        # rho_mm, the squared norm of row m of F
        populated = (F.real**2 + F.imag**2).sum(axis=1) > eps
        R = np.linalg.qr(F[populated].conj().T, mode="r")
        return float(np.abs(np.linalg.eigvalsh((R * sign[populated]) @ R.conj().T)).sum())
    M = V0[:, k0].conj().T @ V1[:, k1]
    M *= np.sqrt(w0[k0])[:, None]
    M *= np.sqrt(w1[k1])
    return float(np.linalg.svd(M, compute_uv=False).sum())


def _mirror_sign(r0: FockState, r1: FockState):
    """The diagonal of P, all ones or the parity Pi, if the factors of the
    two states are (w, V) and (w, P V) by value; None otherwise."""
    (w0, V0), (w1, V1) = r0.eigen, r1.eigen
    if not np.array_equal(w0, w1):
        return None
    parity = _parity(r0.n_modes, r0.cutoff)
    if len(V0) != len(parity):
        return None
    if np.array_equal(parity[:, None] * V0, V1):
        return parity
    if np.array_equal(V0, V1):
        return np.ones_like(parity)
    return None
