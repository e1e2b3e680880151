"""Secret-key security analysis for the homodyne post-selection protocol.

The protocol measures one X quadrature on each side, keeps outcomes near
+/- X0, binarizes by sign, and distills with repetition blocks.  Security
reduces to comparing two exponential rates in X0^2: the rate at which
Bob's error odds fall versus the rate at which the eavesdropper's
conditional states stay indistinguishable.  Every boolean verdict here is
computed at the exponent level, so it is structurally independent of X0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import Unphysical
from .states import (
    BipartiteSplit,
    GaussianState,
    _nppt_stack,
    _require_physical,
    _resolve_x_coords,
    is_nppt,
)
from .symplectic import _uncertainty_ok, _williamson_kernel, momentum_flip, symplectic_form

# Exponent comparisons treat differences within this band as ties and fail
# safe toward "insecure"; matches the PPT boundary band in spirit.
EXPONENT_MARGIN = 1e-10


# ---------------------------------------------------------------------------
# Purification and Eve's conditional states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure joint extension of a system state, with Eve mirroring its modes.

    Attributes
    ----------
    joint : GaussianState
        Pure state on (system, Eve) with Eve holding as many modes as the
        system.
    n_system : int
        Number of system modes (the leading block of ``joint``).
    """

    joint: GaussianState
    n_system: int

    @property
    def system_cov(self) -> np.ndarray:
        k = 2 * self.n_system
        return self.joint.cov[:k, :k]

    @property
    def coupling(self) -> np.ndarray:
        """Cross block F between system and Eve."""
        k = 2 * self.n_system
        return self.joint.cov[:k, k:]

    @property
    def eve_cov(self) -> np.ndarray:
        k = 2 * self.n_system
        return self.joint.cov[k:, k:]


def purify(state: GaussianState) -> Purification:
    """Standard purification with Eve's covariance a momentum-flipped copy.

    With the Williamson form gamma = T D T^T (T = S^{-1}, D the symplectic
    spectrum repeated pairwise), the coupling block is
    F = T sigma (D^2 - 1)^{1/2} T^T theta and Eve's block is
    theta gamma theta.  This F equals sigma [-(sigma gamma)^2 - 1]^{1/2} theta
    with the principal root, taken without a non-symmetric eigenproblem.
    The joint covariance is then pure and reduces exactly to the input on
    the system block.
    """
    _require_physical(state)
    n = state.n_modes
    sigma = symplectic_form(n)
    theta = momentum_flip(n)
    nu, O, R, _ = _williamson_kernel(state.cov)
    d = np.repeat(nu, 2)
    # S^{-1} for S = D^{1/2} O^T R^{-1}, formed without an inverse; a pure
    # mode's nu may round below 1, and its coupling is then zero
    T = (R @ O) / np.sqrt(d)
    F = T @ sigma @ (np.sqrt(np.maximum(d * d - 1.0, 0.0))[:, None] * T.T) @ theta
    eve_cov = theta @ state.cov @ theta
    # assembled without re-symmetrizing so the system block is preserved
    # bit-exactly
    joint_cov = np.block([[state.cov, F], [F.T, eve_cov]])
    joint_disp = np.concatenate([state.disp, np.zeros(2 * n)])
    return Purification(joint=GaussianState(joint_cov, joint_disp), n_system=n)


@dataclass(frozen=True, eq=False)
class ConditionalEveState:
    """Eve's state after the honest parties both observe +X0.

    The -X0 branch has the same covariance and opposite displacement.
    """

    cov: np.ndarray
    disp_plus: np.ndarray

    @property
    def disp_minus(self) -> np.ndarray:
        return -self.disp_plus


def eve_conditional_state(
    purification: Purification,
    x0: float,
    measured_x_coords=None,
) -> ConditionalEveState:
    """Condition Eve on both measured X quadratures reading +x0.

    Applies the homodyne update to the pure joint state: Eve's covariance
    loses F^T beta F and her displacement becomes F^T beta v, where beta
    embeds the inverse of the measured-X covariance block and v carries x0
    at the measured coordinates.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    n = purification.n_system
    sys_cov = purification.system_cov
    ix = np.asarray(_resolve_x_coords(GaussianState(sys_cov), coords=measured_x_coords))
    gamma_x = sys_cov[np.ix_(ix, ix)]
    beta = np.zeros((2 * n, 2 * n))
    beta[np.ix_(ix, ix)] = np.linalg.inv(gamma_x)
    v = np.zeros(2 * n)
    v[ix] = x0
    F = purification.coupling
    cov = purification.eve_cov - F.T @ beta @ F
    return ConditionalEveState(
        cov=0.5 * (cov + cov.T),
        disp_plus=F.T @ beta @ v,
    )


def gaussian_fidelity_equal_cov(
    gamma: np.ndarray, d_plus: np.ndarray, d_minus: np.ndarray
) -> float:
    """Uhlmann fidelity of two Gaussian states with equal covariance and
    opposite displacements: exp(-d^T gamma^{-1} d)."""
    d_plus = np.asarray(d_plus, dtype=float)
    d_minus = np.asarray(d_minus, dtype=float)
    if np.max(np.abs(d_plus + d_minus)) > 1e-9 * max(1.0, np.max(np.abs(d_plus))):
        raise ValueError("displacements must be opposite: d_minus = -d_plus")
    _require_physical(GaussianState(gamma))
    return float(np.exp(-d_plus @ np.linalg.solve(gamma, d_plus)))


# ---------------------------------------------------------------------------
# Exponents: all comparisons happen on coefficients of X0^2
# ---------------------------------------------------------------------------


def _exponent_stack(covs: np.ndarray, coords):
    """(k_B, k_F, ok) for a stack (N, 2n, 2n) of physical covariance matrices.

    k_B and k_F come from the measured blocks of gamma and
    sigma gamma^{-1} sigma^T.  ``ok`` is False where the measured X block is
    not positive definite; the exponents are given for the other matrices,
    in order.  Only those are inverted, since one singular matrix would
    make ``np.linalg.inv`` fail for the whole stack.  The caller has
    resolved ``coords``.
    """
    ix = np.asarray(coords)
    gx = covs[:, ix[:, None], ix]
    det = gx[:, 0, 0] * gx[:, 1, 1] - gx[:, 0, 1] * gx[:, 0, 1]
    ok = det > 0
    if not ok.all():
        covs, gx, det = covs[ok], gx[ok], det[ok]
    sigma = symplectic_form(covs.shape[-1] // 2)
    Gx = (sigma @ np.linalg.inv(covs) @ sigma.T)[:, ix[:, None], ix]
    u = np.ones(2)
    k_f = u @ (np.linalg.inv(Gx) - np.linalg.inv(gx)) @ u
    return 4.0 * gx[:, 0, 1] / det, k_f, ok


def _exponents(state: GaussianState, coords):
    """(k_B, k_F) of one state: a stack of one through ``_exponent_stack``.

    Every exponent and verdict below reads from this pair.
    """
    k_b, k_f, ok = _exponent_stack(state.cov[None], coords)
    if not ok[0]:
        raise Unphysical("measured-X covariance block is not positive definite")
    return float(k_b[0]), float(k_f[0])


def _individual_gap(k_b, k_f):
    """Error odds fall strictly faster than Eve's fidelity (elementwise)."""
    return k_b - k_f > EXPONENT_MARGIN


def _collective_gap(k_b, k_f):
    """Error odds fall strictly faster than the squared fidelity (elementwise)."""
    return k_b - 2.0 * k_f > EXPONENT_MARGIN


def _verdicts(nppt, k_b, k_f):
    """(individual, collective) report verdicts, elementwise.

    Conjoined so that individual implies NPPT and collective implies
    individual even under boundary noise.
    """
    individual = _individual_gap(k_b, k_f) & nppt
    collective = _collective_gap(k_b, k_f) & individual
    return individual, collective


def _checked_exponents(state: GaussianState, measured_x_coords=None, split=None):
    """One physicality check, then (k_B, k_F) on the resolved coordinates."""
    _require_physical(state)
    return _exponents(state, _resolve_x_coords(state, split, measured_x_coords))


def eps_ratio_exponent(state: GaussianState, measured_x_coords=None) -> float:
    """Coefficient k_B with eps_B / (1 - eps_B) = exp(-k_B X0^2).

    For the measured-X covariance block [[a, b], [b, c]] this is
    4 b / (a c - b^2).
    """
    return _checked_exponents(state, measured_x_coords)[0]


def eps_ratio(state: GaussianState, x0: float, measured_x_coords=None) -> float:
    """Bob's error odds eps_B / (1 - eps_B) after post-selection at +/- x0."""
    return float(np.exp(-(x0 ** 2) * eps_ratio_exponent(state, measured_x_coords)))


def eps_b(state: GaussianState, x0: float, measured_x_coords=None) -> float:
    """Bob's error probability, recovered from the odds ratio."""
    r = eps_ratio(state, x0, measured_x_coords)
    return r / (1.0 + r)


def eve_fidelity_exponent(state: GaussianState, measured_x_coords=None) -> float:
    """Coefficient k_F with Eve fidelity = exp(-k_F X0^2).

    Evaluates u^T ((sigma gamma^{-1} sigma^T)_x^{-1} - gamma_x^{-1}) u with
    u = (1, 1), the projections taken on the two measured X coordinates.
    Nonnegative for every physical state.
    """
    return _checked_exponents(state, measured_x_coords)[1]


def eve_fidelity(state: GaussianState, x0: float, measured_x_coords=None) -> float:
    """Uhlmann fidelity of Eve's two conditional states, closed form.

    Equals ``gaussian_fidelity_equal_cov`` applied to the output of
    ``eve_conditional_state`` on the purification of ``state``.
    """
    return float(np.exp(-(x0 ** 2) * eve_fidelity_exponent(state, measured_x_coords)))


def individual_condition(state: GaussianState, measured_x_coords=None) -> bool:
    """Key distillable against individual attacks: error odds fall strictly
    faster than Eve's fidelity, compared at the exponent level."""
    return bool(_individual_gap(*_checked_exponents(state, measured_x_coords)))


def collective_condition(state: GaussianState, measured_x_coords=None) -> bool:
    """Key distillable against collective attacks: error odds fall strictly
    faster than the squared fidelity."""
    return bool(_collective_gap(*_checked_exponents(state, measured_x_coords)))


def general_key_condition(
    state: GaussianState, split: BipartiteSplit, measured_x_coords=None
) -> bool:
    """Key condition for an n+m mode state, one measured X per side.

    The condition (d + f - 2e)/(df - e^2) - (a + c + 2b)/(ac - b^2) < 0,
    with (a, b, c) from the measured block of gamma and (d, e, f) from the
    same block of sigma gamma^{-1} sigma^T, is k_F - k_B < 0: the
    individual condition on the X quadratures of the first mode on each
    side of ``split``.  On the protocol's working family this verdict
    coincides with the NPPT verdict.
    """
    return bool(_individual_gap(*_checked_exponents(state, measured_x_coords, split)))


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def key_rate_estimate(
    state: GaussianState,
    measured_x_coords=None,
    n_rounds: int = 1,
    x0: float = 1.0,
) -> float:
    """Heuristic lower-bound proxy for the one-way key rate after N rounds.

    ESTIMATE ONLY: Bob's mutual information term 1 - h2(eps_BN) minus an
    Eve-entropy term h2((1 - fid^N) / 2) modeling her two nearly pure
    conditional block states with overlap fid^N.  The sign reproduces the
    collective security verdict for large N; the magnitude is not a proven
    bound.
    """
    return _key_rate(*_checked_exponents(state, measured_x_coords), n_rounds, x0)


def _key_rate(k_b: float, k_f: float, n_rounds: int, x0: float) -> float:
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    r_n = math.exp(-n_rounds * k_b * x0 ** 2)
    eps_bn = r_n / (1.0 + r_n)
    overlap_n = math.exp(-n_rounds * k_f * x0 ** 2)
    eve_entropy = _binary_entropy((1.0 - overlap_n) / 2.0)
    return (1.0 - _binary_entropy(eps_bn)) - eve_entropy


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecurityReport:
    """Full verdict bundle for one state.

    Exponents are logs per unit X0^2 (negative for useful states); the
    boolean verdicts never depend on X0.  ``individual_secure`` implies
    NPPT and ``collective_secure`` implies ``individual_secure`` by
    construction.
    """

    eps_ratio_exponent: float
    fidelity_exponent: float
    ppt: bool
    individual_secure: bool
    collective_secure: bool
    key_rate_estimate: float
    n_rounds: int
    estimate_note: str = (
        "ESTIMATE: heuristic exponent-level proxy, not a proven bound"
    )

    def to_dict(self) -> dict:
        return {
            "eps_ratio_exponent": self.eps_ratio_exponent,
            "fidelity_exponent": self.fidelity_exponent,
            "ppt": self.ppt,
            "nppt": not self.ppt,
            "individual_secure": self.individual_secure,
            "collective_secure": self.collective_secure,
            "key_rate_estimate": self.key_rate_estimate,
            "n_rounds": self.n_rounds,
            "estimate_note": self.estimate_note,
        }


def analyze_state(
    state: GaussianState,
    split: BipartiteSplit = None,
    measured_x_coords=None,
    n_rounds: int = 5,
) -> SecurityReport:
    """Assemble the security report for a bipartite state.

    Boundary states fail safe: a state inside the PPT tie-break band is
    reported PPT and insecure, and the security verdicts are conjoined
    with the PPT verdict so the report's nesting invariants hold even
    under boundary noise.
    """
    if split is None:
        if state.n_modes != 2:
            raise ValueError("split is required for states with more than 2 modes")
        split = BipartiteSplit(1, 1)
    # is_nppt holds the one physicality check of this call
    nppt = is_nppt(state, split)
    k_b, k_f = _exponents(state, _resolve_x_coords(state, split, measured_x_coords))
    individual, collective = _verdicts(nppt, k_b, k_f)
    return SecurityReport(
        eps_ratio_exponent=-k_b,
        fidelity_exponent=-k_f,
        ppt=not nppt,
        individual_secure=individual,
        collective_secure=collective,
        key_rate_estimate=_key_rate(k_b, k_f, n_rounds, 1.0),
        n_rounds=n_rounds,
    )


def _report_stack(covs: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """The verdicts of ``analyze_state`` for each matrix of a stack (N, 2n, 2n).

    Returns an (N, 4) boolean array with columns physical, nppt, individual
    and collective.  A matrix on which ``analyze_state`` raises Unphysical
    is a row of False.
    """
    coords = _resolve_x_coords(GaussianState(np.eye(covs.shape[-1])), split)
    flags = np.zeros((len(covs), 4), dtype=bool)
    rows = np.flatnonzero(_uncertainty_ok(covs))
    nppt = _nppt_stack(covs[rows], split)
    k_b, k_f, ok = _exponent_stack(covs[rows], coords)
    rows, nppt = rows[ok], nppt[ok]
    flags[rows, 0] = True
    flags[rows, 1] = nppt
    flags[rows, 2], flags[rows, 3] = _verdicts(nppt, k_b, k_f)
    return flags


def symmetric_collective_boundary(lam: float) -> float:
    """Collective-security boundary c*(lam) on the symmetric family c_x = c_p.

    On c_x = c_p = c the exponents are k_B = 4c / (lam^2 - c^2) and
    k_F = 2(lam - c) - 2 / (lam + c), so k_B = 2 k_F exactly where
    (lam - c)^2 (lam + c) = lam.  The left side falls strictly between the
    entanglement boundary c = lam - 1 and the physical boundary
    c = sqrt(lam^2 - 1), so the cubic has one root there, and c* is that
    closed-form root.  Writing c = lam - 1 + t, it solves
    w (1 - 4t + 2t^2) = t (1 + t - t^2) / lam with w = (lam - 1) / lam,
    whose terms neither overflow nor cancel for any finite lam > 1; Newton's
    method from t = 0, the entanglement boundary, reaches rounding in at
    most seven steps.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 1.0):
        raise ValueError("lam must be finite and exceed 1")
    w = (lam - 1.0) / lam
    t = 0.0
    for _ in range(50):
        gap = w * (1.0 - 4.0 * t + 2.0 * t * t) - t * (1.0 + t - t * t) / lam
        slope = -4.0 * w * (1.0 - t) - (1.0 + 2.0 * t - 3.0 * t * t) / lam
        step = gap / slope
        t -= step
        if abs(step) <= 2.2e-16 * t:
            break
    return (lam - 1.0) + t
