"""Random-state generators shared across the test modules.

The security-condition tests sample from the protocol's working family:
symmetric two-mode states (equal local blocks, x/p-aligned correlations),
optionally extended by an uncorrelated extra mode on Bob's side.  The key
condition evaluated at fixed measured coordinates matches the NPPT verdict
exactly on this family, which is the form the protocol's normalization
step produces; for states outside it (rotated or asymmetrically squeezed)
the measured X correlations no longer carry the entanglement and the
match provably fails.
"""

import numpy as np

from cvprivacy import (
    BipartiteSplit,
    DimensionMismatch,
    GaussianState,
    apply_symplectic,
    direct_sum,
    is_physical,
    partial_transpose,
    random_physical_state,
    rotation_matrix,
    squeeze_matrix,
    symplectic_eigenvalues,
    tensor,
    two_mode_squeezed,
)
from cvprivacy.states import _symmetric_stack


def random_protocol_state(rng: np.random.Generator, lam_max: float = 4.0) -> GaussianState:
    """Random member of the symmetric two-mode family: a uniform draw over
    the (lam, c_x, c_p) wedge with c_x >= c_p >= 0, rejecting unphysical
    draws."""
    while True:
        lam = 1.0 + rng.random() * (lam_max - 1.0)
        c_p = rng.random() * np.sqrt(lam * lam - 1.0)
        c_hi = (lam * lam - 1.0 + lam * c_p) / (lam + c_p)
        c_x = c_p + rng.random() * (c_hi - c_p)
        state = GaussianState(_symmetric_stack(lam, c_x, c_p))
        if is_physical(state):
            return state


def random_aligned_state(rng: np.random.Generator, lam_max: float = 4.0) -> GaussianState:
    """Symmetric family extended to signed p-correlations.

    Builds A = B = lam I with cross block diag(c_x, q) for c_x >= 0 and q
    of either sign, rejecting unphysical draws.
    """
    while True:
        lam = 1.0 + rng.random() * (lam_max - 1.0)
        bound = np.sqrt(lam * lam - 1.0)
        c_x = rng.random() * bound
        q = (2.0 * rng.random() - 1.0) * bound
        cov = np.zeros((4, 4))
        cov[0, 0] = cov[1, 1] = cov[2, 2] = cov[3, 3] = lam
        cov[0, 2] = cov[2, 0] = c_x
        cov[1, 3] = cov[3, 1] = q
        state = GaussianState(cov)
        if is_physical(state):
            return state


def random_extra_mode(rng: np.random.Generator) -> GaussianState:
    """Random single-mode squeezed thermal state."""
    nu = 1.0 + rng.random() * 1.5
    s = np.exp((rng.random() - 0.5) * 0.8)
    phi = rng.random() * np.pi
    R = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    return GaussianState(R @ np.diag([nu * s * s, nu / (s * s)]) @ R.T)


def random_one_by_two_state(rng: np.random.Generator) -> GaussianState:
    """Protocol family member on (A, B1) with an uncorrelated mode B2."""
    core = random_aligned_state(rng)
    return tensor(core, random_extra_mode(rng))


def pt_boundary_margin(state: GaussianState, split: BipartiteSplit) -> float:
    """Distance of the partially transposed symplectic floor from 1."""
    pt = partial_transpose(state, split)
    return float(abs(symplectic_eigenvalues(pt.cov).min() - 1.0))


def anticorrelated_tms(r: float) -> GaussianState:
    """Two-mode squeezed state with Bob's mode rotated by pi: the X
    correlation is -sinh(2r), so Bob's error odds grow like exp(4 sinh(2r) X0^2)."""
    return apply_symplectic(
        direct_sum(np.eye(2), rotation_matrix(np.pi)), None, two_mode_squeezed(r)
    )


def reorder_modes(state: GaussianState, permutation) -> GaussianState:
    """Permute modes: new mode j is old mode ``permutation[j]``."""
    perm = list(permutation)
    if sorted(perm) != list(range(state.n_modes)):
        raise DimensionMismatch(
            f"permutation {perm} is not a rearrangement of {state.n_modes} modes"
        )
    ix = np.array([2 * m + q for m in perm for q in (0, 1)])
    return GaussianState(state.cov[np.ix_(ix, ix)], state.disp[ix])


def locally_squeezed_states(seed: int, trials: int):
    """Yield (trial, state, split) for ``trials`` seeded local images.

    Each trial is a random 2-4 mode state (``random_physical_state`` at
    mixing 0.6) split nA + nB, moved by a product of one symplectic per
    mode: with probability 1/2 a single-mode squeeze e^r, r uniform in
    [-8, 8], after a rotation by 0, pi or a uniform angle.  The strongest
    squeezings leave physical states whose covariance is singular to
    working precision.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, n))
        state = random_physical_state(rng, n, mixing=0.6)
        blocks = []
        for _ in range(n):
            r = rng.uniform(-8, 8) if rng.random() < 0.5 else 0
            phi = rng.choice([0, np.pi, rng.uniform(0, 2 * np.pi)])
            blocks.append(rotation_matrix(phi) @ squeeze_matrix(np.exp(r)))
        image = apply_symplectic(direct_sum(*blocks), None, state)
        yield trial, image, BipartiteSplit(n_a, n - n_a)
