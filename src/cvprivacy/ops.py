"""Transformations of Gaussian states.

Covers affine symplectic unitaries, general Gaussian completely positive
maps parameterized by a (covariance, displacement) pair, homodyne
conditioning on X quadratures, and tensor products.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotSymplectic, SingularKernel, Unphysical
from .states import GaussianState, _require_physical, quadrature_density
from .symplectic import _uncertainty_ok, is_symplectic

# Largest relative condition number 1/TAU_RANK accepted for the kernel
# G2~ + gamma of a channel application.  A channel and a state from outside
# input can make it nearly singular, and a solve reports only exact
# singularity.
TAU_RANK = 1e-10


def _condition(B, C, K, v):
    """Gaussian conditioning: (B - C^T K^{-1} C, C^T K^{-1} v).

    K is the covariance of the conditioned coordinates, C their cross block
    with the kept ones, B the kept block and v the observed offset.  Both
    terms come from one solve of K against [C | v].  Homodyne conditioning,
    channel application and ``security.eve_conditional_state`` all use it.
    """
    solved = np.linalg.solve(K, np.column_stack([C, v]))
    return B - C.T @ solved[:, :-1], C.T @ solved[:, -1]


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Gaussian CP map defined by a physical covariance matrix and displacement.

    ``gamma`` lives on output modes followed by dual-input modes, with
    blocks (Gamma_1, Gamma_12, Gamma_2) in that partition; ``delta`` is the
    matching displacement (Delta_1, Delta_2).  Complete positivity is
    equivalent to ``gamma`` being a physical covariance matrix.
    """

    gamma: np.ndarray
    delta: np.ndarray
    n_in: int
    n_out: int

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)
        delta = np.array(self.delta, dtype=float).reshape(-1)
        dim = 2 * (self.n_in + self.n_out)
        if gamma.shape != (dim, dim):
            raise DimensionMismatch(
                f"gamma shape {gamma.shape} does not match n_in={self.n_in}, n_out={self.n_out}"
            )
        if delta.shape[0] != dim:
            raise DimensionMismatch(f"delta length {delta.shape[0]} != {dim}")
        if not _uncertainty_ok(gamma):
            raise Unphysical("channel covariance matrix is not physical (map not CP)")
        gamma.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)


def attenuator_channel(eta: float, epr_squeeze: float = 5.0) -> GaussianChannel:
    """Single-mode pure attenuator of transmissivity ``eta``.

    Built from the two-mode-squeezed construction: loss applied to one arm
    of a strongly squeezed pair (parameter ``epr_squeeze``) yields the Choi
    covariance of the attenuation map.  Vacuum is a fixed point for any
    squeezing, and the map converges to the ideal attenuator as the
    squeezing grows.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    lam = np.cosh(2 * epr_squeeze)
    c = np.sinh(2 * epr_squeeze)
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = eta * lam + 1.0 - eta
    g[2, 2] = g[3, 3] = lam
    g[0, 2] = g[2, 0] = np.sqrt(eta) * c
    g[1, 3] = g[3, 1] = -np.sqrt(eta) * c
    return GaussianChannel(g, np.zeros(4), n_in=1, n_out=1)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Apply a Gaussian CP map to a state.

    Implements gamma' = G1~ - G12~ (G2~ + gamma)^{-1} G12~^T and
    d' = D1 + G12~ (G2~ + gamma)^{-1} (D2 + d), where the tilde conjugates
    the dual-input block by the momentum flip.

    Raises
    ------
    DimensionMismatch
        If the state's mode count differs from the channel input.
    SingularKernel
        If G2~ + gamma is singular beyond the rank tolerance.
    """
    if state.n_modes != channel.n_in:
        raise DimensionMismatch(
            f"channel expects {channel.n_in} input modes, state has {state.n_modes}"
        )
    n_out = channel.n_out
    flip = np.concatenate([np.ones(2 * n_out), np.tile([1.0, -1.0], channel.n_in)])
    g_tilde = channel.gamma * np.outer(flip, flip)
    k = 2 * n_out
    G12 = g_tilde[:k, k:]
    kernel = g_tilde[k:, k:] + state.cov
    if np.linalg.cond(kernel) > 1.0 / TAU_RANK:
        raise SingularKernel("G2~ + gamma is singular within the rank tolerance")
    cov, shift = _condition(g_tilde[:k, :k], G12.T, kernel, channel.delta[k:] + state.disp)
    return GaussianState(0.5 * (cov + cov.T), channel.delta[:k] + shift)


def apply_symplectic(S: np.ndarray, T: np.ndarray, state: GaussianState) -> GaussianState:
    """Affine symplectic transformation: cov -> S cov S^T, disp -> S disp + T."""
    S = np.asarray(S, dtype=float)
    if S.shape != (2 * state.n_modes, 2 * state.n_modes):
        raise DimensionMismatch(f"S shape {S.shape} does not match state")
    if not is_symplectic(S):
        raise NotSymplectic("S does not preserve the symplectic form")
    T = np.zeros(2 * state.n_modes) if T is None else np.asarray(T, dtype=float)
    cov = S @ state.cov @ S.T
    return GaussianState(0.5 * (cov + cov.T), S @ state.disp + T)


@dataclass(frozen=True, eq=False)
class HomodyneOutcome:
    """Measured X values together with the conditioned remaining state."""

    measured_values: np.ndarray
    post_state: GaussianState


def homodyne_x(
    state: GaussianState,
    measured_modes,
    results=None,
    rng: np.random.Generator = None,
) -> HomodyneOutcome:
    """Measure the X quadrature of the given modes, conditioning the rest.

    The post-measurement covariance is B' = B - C^T K^{-1} C with K the
    covariance of the measured X coordinates and C their cross block with
    the remaining modes; it does not depend on the measured values.  The
    conditional displacement is d_B + C^T K^{-1} (results - d_x), d_x the
    input mean of the measured X coordinates.  The measured momenta do not
    enter.  K is a principal block of a physical covariance matrix, so it
    is positive definite.

    Parameters
    ----------
    state : GaussianState
    measured_modes : sequence of int
        Modes whose X quadrature is measured.
    results : sequence of float, optional
        Absolute measured X values, one per measured mode.  When omitted,
        values are drawn from the marginal quadrature density (``rng``
        required).
    rng : numpy.random.Generator, optional

    Returns
    -------
    HomodyneOutcome

    Raises
    ------
    Unphysical
        If the state violates the uncertainty bound.
    """
    _require_physical(state)
    measured = list(measured_modes)
    if not measured:
        raise ValueError("measured_modes must be nonempty")
    if len(set(measured)) != len(measured):
        raise ValueError("measured_modes must be distinct")
    if any(m < 0 or m >= state.n_modes for m in measured):
        raise ValueError(f"mode index out of range for {state.n_modes} modes")
    remaining = [m for m in range(state.n_modes) if m not in set(measured)]
    if not remaining:
        raise ValueError("at least one mode must remain unmeasured")

    x_coords = [2 * m for m in measured]
    rest_ix = np.array([2 * m + q for m in remaining for q in (0, 1)])
    if results is None:
        if rng is None:
            raise ValueError("rng is required when sampling measurement results")
        results = quadrature_density(state, x_coords).sample(rng, 1)[0]
    results = np.asarray(results, dtype=float).reshape(-1)
    if results.shape[0] != len(measured):
        raise ValueError(f"expected {len(measured)} results, got {results.shape[0]}")

    post_cov, shift = _condition(
        state.cov[np.ix_(rest_ix, rest_ix)],
        state.cov[np.ix_(x_coords, rest_ix)],
        state.cov[np.ix_(x_coords, x_coords)],
        results - state.disp[x_coords],
    )
    return HomodyneOutcome(
        measured_values=results,
        post_state=GaussianState(0.5 * (post_cov + post_cov.T), state.disp[rest_ix] + shift),
    )


def tensor(s1: GaussianState, s2: GaussianState) -> GaussianState:
    """Tensor product: direct sum of covariances, concatenated displacements."""
    return GaussianState(
        direct_sum(s1.cov, s2.cov), np.concatenate([s1.disp, s2.disp])
    )


# ---------------------------------------------------------------------------
# Common symplectic building blocks
# ---------------------------------------------------------------------------


def squeeze_matrix(s: float) -> np.ndarray:
    """Single-mode squeezer diag(s, 1/s)."""
    if s <= 0:
        raise ValueError("squeeze factor must be positive")
    return np.diag([s, 1.0 / s])


def rotation_matrix(phi: float) -> np.ndarray:
    """Single-mode phase rotation by ``phi``."""
    return np.array(
        [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]
    )


def beamsplitter_matrix(theta: float) -> np.ndarray:
    """Two-mode beamsplitter mixing X with X and P with P by angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = out[2, 2] = out[3, 3] = c
    out[0, 2] = out[1, 3] = s
    out[2, 0] = out[3, 1] = -s
    return out


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """Direct sum of symplectic blocks acting on consecutive modes."""
    blocks = [np.atleast_2d(b) for b in blocks]
    rows, cols = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out
