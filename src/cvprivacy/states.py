"""Gaussian state data model and entanglement verdicts.

A Gaussian state is carried by its covariance matrix and displacement
vector in the interleaved ordering (X1, P1, ..., Xn, Pn).  The covariance
convention is gamma_kl = tr(rho {R_k - d_k, R_l - d_l}_+), so the vacuum
covariance is the identity and the probability covariance of quadrature
outcomes is gamma / 2.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import StateSchemaError, Unphysical
from .symplectic import TAU_LIN, TAU_PSD, _uncertainty_ok, symplectic_form


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable (covariance, displacement) pair describing a Gaussian state.

    Attributes
    ----------
    cov : ndarray
        Symmetric 2n x 2n covariance matrix (vacuum = identity).
    disp : ndarray
        Length-2n displacement vector of first moments.
    """

    cov: np.ndarray
    disp: np.ndarray = None

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0:
            raise ValueError(f"covariance must be square 2n x 2n, got {cov.shape}")
        if not np.isfinite(cov).all():
            raise ValueError("covariance matrix has a non-finite entry")
        if np.max(np.abs(cov - cov.T)) > TAU_LIN:
            raise ValueError("covariance matrix is not symmetric within tolerance")
        disp = self.disp
        if disp is None:
            disp = np.zeros(cov.shape[0])
        disp = np.array(disp, dtype=float).reshape(-1)
        if disp.shape[0] != cov.shape[0]:
            raise ValueError(
                f"displacement length {disp.shape[0]} does not match 2n = {cov.shape[0]}"
            )
        if not np.isfinite(disp).all():
            raise ValueError("displacement vector has a non-finite entry")
        cov.setflags(write=False)
        disp.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "disp", disp)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


@dataclass(frozen=True)
class BipartiteSplit:
    """Mode partition with Alice's ``n_a`` modes first, Bob's ``n_b`` after."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError("both sides of a split need at least one mode")

    @property
    def n_modes(self) -> int:
        return self.n_a + self.n_b


@dataclass(frozen=True)
class SymmetricStateParams:
    """Parameters (lam, c_x, c_p) of the symmetric two-mode family.

    Both local covariance blocks equal lam * I and the cross block is
    diag(c_x, -c_p), with c_x >= c_p >= 0.
    """

    lam: float
    c_x: float
    c_p: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not (self.c_x >= self.c_p >= 0):
            raise ValueError("parameters must satisfy c_x >= c_p >= 0")

    def physicality_margin(self) -> float:
        """lam^2 - c_x*c_p - 1 - lam*(c_x - c_p); physical iff >= 0."""
        return _symmetric_margin(self.lam, self.c_x, self.c_p)


def _symmetric_margin(lam, c_x, c_p):
    """The symmetric family's positivity margin, for floats or 1-D arrays.

    lam^2 is Python's float power element by element: numpy's square rounds
    differently from it in the last bit on about one input in a thousand,
    and the margin is compared against a band of width TAU_PSD.
    """
    lam_sq = np.array([v ** 2 for v in lam.tolist()]) if np.ndim(lam) else lam ** 2
    return lam_sq - c_x * c_p - 1.0 - lam * (c_x - c_p)


def _symmetric_stack(lam, c_x, c_p):
    """Covariance matrices of the symmetric family, elementwise.

    Parameters are floats (one 4 x 4 matrix) or equal-length 1-D arrays (a
    stack of shape (N, 4, 4)).

    Returns
    -------
    tuple
        ``(cov, margin, ok)``: the matrices, the positivity margins, and
        False where a margin falls below -TAU_PSD, which makes the
        parameters unphysical.
    """
    margin = _symmetric_margin(lam, c_x, c_p)
    cov = np.zeros(np.shape(lam) + (4, 4))
    cov[..., 0, 0] = cov[..., 1, 1] = cov[..., 2, 2] = cov[..., 3, 3] = lam
    cov[..., 0, 2] = cov[..., 2, 0] = c_x
    cov[..., 1, 3] = cov[..., 3, 1] = -c_p
    return cov, margin, np.logical_not(margin < -TAU_PSD)


class _Undecided:
    """Third separability verdict; refuses silent coercion to bool."""

    def __bool__(self):
        raise TypeError("UNDECIDED verdict cannot be used as a boolean")

    def __repr__(self):
        return "UNDECIDED"


UNDECIDED = _Undecided()


def vacuum_state(n_modes: int) -> GaussianState:
    """The n-mode vacuum: identity covariance, zero displacement."""
    return GaussianState(np.eye(2 * n_modes))


def single_mode_thermal(nu: float) -> GaussianState:
    """Thermal state with symplectic eigenvalue nu (= 2 nbar + 1)."""
    if nu < 1.0:
        raise Unphysical(f"thermal parameter nu = {nu} below vacuum level 1")
    return GaussianState(np.diag([nu, nu]))


def two_mode_squeezed(r: float) -> GaussianState:
    """Pure two-mode squeezed state with squeezing parameter r."""
    params = SymmetricStateParams(np.cosh(2 * r), np.sinh(2 * r), np.sinh(2 * r))
    return make_symmetric_state(params)


def make_symmetric_state(params: SymmetricStateParams) -> GaussianState:
    """Build the symmetric two-mode state of the working family.

    Parameters
    ----------
    params : SymmetricStateParams

    Returns
    -------
    GaussianState
        Two-mode zero-displacement state with local blocks lam * I and
        cross block diag(c_x, -c_p).

    Raises
    ------
    Unphysical
        If the family's positivity condition fails.
    """
    cov, margin, ok = _symmetric_stack(params.lam, params.c_x, params.c_p)
    if not ok:
        raise Unphysical(
            f"symmetric parameters {params} violate positivity by {-margin:.3e}"
        )
    return GaussianState(cov)


def symmetric_state(lam: float, c_x: float, c_p: float) -> GaussianState:
    """Shorthand for ``make_symmetric_state(SymmetricStateParams(...))``."""
    return make_symmetric_state(SymmetricStateParams(lam, c_x, c_p))


def is_physical(state: GaussianState) -> bool:
    """True iff gamma + i sigma >= 0, the uncertainty bound.

    Checked in Hermitian form: the smallest eigenvalue of gamma + i sigma
    may fall below zero by the band max(TAU_PSD, 64 eps max|gamma|), which
    covers the eigensolver's error at any squeezing.  Boundary states count
    as physical.
    """
    return bool(_uncertainty_ok(state.cov))


def _require_physical(state: GaussianState):
    if not is_physical(state):
        raise Unphysical("state violates the uncertainty bound")


def purity(state: GaussianState) -> float:
    """tr(rho^2) = det(cov)^{-1/2}; equals 1 iff the state is pure."""
    _require_physical(state)
    return float(np.linalg.det(state.cov) ** -0.5)


def _check_split(state: GaussianState, split: BipartiteSplit):
    if split.n_modes != state.n_modes:
        raise ValueError(
            f"split {split.n_a}+{split.n_b} does not match {state.n_modes} modes"
        )


def _resolve_x_coords(state: GaussianState, split: BipartiteSplit = None, coords=None):
    """The two measured X coordinates, one per side, validated for ``state``.

    ``coords`` defaults to the X quadrature of the first mode on each side
    of ``split`` (a 1+rest split when no split is given).
    """
    if split is not None:
        _check_split(state, split)
    if coords is None:
        coords = (0, 2 * (split.n_a if split is not None else 1))
    coords = tuple(int(c) for c in coords)
    if len(coords) != 2:
        raise ValueError("exactly one measured X coordinate per side is expected")
    for c in coords:
        if c < 0 or c >= 2 * state.n_modes:
            raise ValueError(f"coordinate {c} out of range for {state.n_modes} modes")
        if c % 2 != 0:
            raise ValueError(f"coordinate {c} is not an X quadrature")
    if coords[0] == coords[1]:
        raise ValueError("the two measured coordinates must differ")
    return coords


def partial_transpose(state: GaussianState, split: BipartiteSplit) -> GaussianState:
    """Partial transposition on Bob's side at the covariance level.

    Flips the sign of Bob's momenta in covariance and displacement.  The
    result is a valid matrix pair but may be unphysical; that is the point
    of the NPPT test.
    """
    _check_split(state, split)
    flip = _bob_momentum_flip(split)
    cov = state.cov * np.outer(flip, flip)
    return GaussianState(cov, state.disp * flip)


def _bob_momentum_flip(split: BipartiteSplit) -> np.ndarray:
    """Signs (1, 1, ..., 1, -1, ...) that flip every momentum on Bob's side."""
    flip = np.ones(2 * split.n_modes)
    flip[2 * split.n_a + 1::2] = -1.0
    return flip


def is_nppt(state: GaussianState, split: BipartiteSplit) -> bool:
    """True iff the partial transpose violates the uncertainty bound.

    The partial transpose is tested as gamma~ + i sigma >= 0 with the band
    of ``is_physical``; boundary states inside the band are classified
    PPT, failing safe toward "unentangled".
    """
    _require_physical(state)
    _check_split(state, split)
    return bool(_nppt_stack(state.cov, split))


def _nppt_stack(covs: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """``is_nppt`` for each physical covariance matrix of a stack (..., 2n, 2n)."""
    flip = _bob_momentum_flip(split)
    return ~_uncertainty_ok(covs * np.outer(flip, flip))


def ppt_criterion_min_eig(state: GaussianState, split: BipartiteSplit) -> float:
    """Minimum eigenvalue of gamma - sigma~ gamma^{-1} sigma~^T.

    Independent route to the NPPT verdict, with sigma~ the symplectic form
    conjugated by Bob's momentum flip: the state is NPPT exactly when this
    is negative.  ``is_nppt`` reads its verdict from the Hermitian
    gamma~ + i sigma instead, so near zero (within its uncertainty band of
    max(TAU_PSD, 64 eps max|gamma|)) the two routes may round apart.
    """
    _require_physical(state)
    _check_split(state, split)
    flip = _bob_momentum_flip(split)
    sigma_t = symplectic_form(state.n_modes) * np.outer(flip, flip)
    witness = state.cov - sigma_t @ np.linalg.inv(state.cov) @ sigma_t.T
    return float(np.linalg.eigvalsh(0.5 * (witness + witness.T)).min())


def is_separable(state: GaussianState, split: BipartiteSplit):
    """Separability verdict: bool for 1xN / Nx1 splits, UNDECIDED otherwise.

    PPT is necessary and sufficient for separability only when one side
    has a single mode; for larger splits a PPT state may still be
    entangled, so the verdict is the UNDECIDED sentinel.
    """
    nppt = is_nppt(state, split)
    if nppt:
        return False
    if split.n_a == 1 or split.n_b == 1:
        return True
    return UNDECIDED


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Marginal probability density of a subset of quadratures.

    ``cov`` is the probability covariance (one half of the corresponding
    covariance-matrix block).
    """

    mean: np.ndarray
    cov: np.ndarray

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` points, shape (size, k)."""
        L = np.linalg.cholesky(self.cov)
        return rng.standard_normal((size, self.mean.shape[0])) @ L.T + self.mean


def quadrature_density(state: GaussianState, coords) -> GaussianDensity:
    """Marginal density of the selected canonical coordinates.

    Parameters
    ----------
    state : GaussianState
    coords : sequence of int
        Indices into the canonical coordinate vector (X1, P1, ...).

    Returns
    -------
    GaussianDensity
        Mean = displacement restricted to ``coords``; probability
        covariance = restricted covariance block / 2.
    """
    _require_physical(state)
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate indices must be distinct")
    if any(c < 0 or c >= 2 * state.n_modes for c in coords):
        raise ValueError(f"coordinate index out of range for {state.n_modes} modes")
    idx = np.asarray(coords, dtype=int)
    return GaussianDensity(
        mean=state.disp[idx].copy(),
        cov=state.cov[np.ix_(idx, idx)] / 2.0,
    )


def random_physical_state(
    rng: np.random.Generator,
    n_modes: int,
    nu_max: float = 2.5,
    mixing: float = 0.4,
) -> GaussianState:
    """Random physical state: thermal core conjugated by a random symplectic.

    ``mixing`` scales the generator of the random symplectic; moderate
    values keep squeezing desk-sized.
    """
    from scipy.linalg import expm

    H = rng.normal(size=(2 * n_modes, 2 * n_modes)) * mixing
    S = expm(symplectic_form(n_modes) @ (H + H.T))
    nu = 1.0 + rng.random(n_modes) * (nu_max - 1.0)
    D = np.diag(np.repeat(nu, 2))
    cov = S @ D @ S.T
    # rounding leaves S D S^T asymmetric by more than the absolute
    # symmetry tolerance once the squeezing makes its entries large
    return GaussianState(0.5 * (cov + cov.T))


# ---------------------------------------------------------------------------
# JSON interchange: {"n_modes": int, "cov": [[...]], "disp": [...]}
# ---------------------------------------------------------------------------


def state_to_json(state: GaussianState) -> str:
    """Serialize a state to the canonical JSON document."""
    return json.dumps(
        {
            "n_modes": state.n_modes,
            "cov": state.cov.tolist(),
            "disp": state.disp.tolist(),
        }
    )


def state_from_json(text: str) -> GaussianState:
    """Parse the canonical JSON document, with position-specific errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateSchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateSchemaError("top level: expected an object")
    for key in ("n_modes", "cov", "disp"):
        if key not in doc:
            raise StateSchemaError(f"top level: missing required key '{key}'")
    n = doc["n_modes"]
    if not isinstance(n, int) or n < 1:
        raise StateSchemaError(f"n_modes: expected a positive integer, got {n!r}")
    cov = doc["cov"]
    if not isinstance(cov, list) or len(cov) != 2 * n:
        raise StateSchemaError(f"cov: expected {2 * n} rows, got {_length(cov)}")
    for i, row in enumerate(cov):
        if not isinstance(row, list) or len(row) != 2 * n:
            raise StateSchemaError(f"cov[{i}]: expected {2 * n} numbers, got {_length(row)}")
        for j, entry in enumerate(row):
            if not _is_finite_number(entry):
                raise StateSchemaError(f"cov[{i}][{j}]: expected a finite number, got {entry!r}")
    disp = doc["disp"]
    if not isinstance(disp, list) or len(disp) != 2 * n:
        raise StateSchemaError(f"disp: expected {2 * n} numbers, got {_length(disp)}")
    for j, entry in enumerate(disp):
        if not _is_finite_number(entry):
            raise StateSchemaError(f"disp[{j}]: expected a finite number, got {entry!r}")
    try:
        return GaussianState(np.array(cov, dtype=float), np.array(disp, dtype=float))
    except ValueError as exc:
        raise StateSchemaError(f"cov: {exc}") from exc


def _is_finite_number(entry) -> bool:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        return False
    try:
        return math.isfinite(entry)
    except OverflowError:  # an int past the float range
        return False


def _length(obj) -> str:
    return str(len(obj)) if isinstance(obj, list) else f"type {type(obj).__name__}"
