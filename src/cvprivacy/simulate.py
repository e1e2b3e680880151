"""Monte Carlo simulation of the measure / post-select / distill pipeline.

Quadrature pairs are drawn from the state's marginal density, kept when
both magnitudes land within a window around X0, binarized by sign, and
fed through repetition-block advantage distillation.  One sampling stage
feeds both the single distillation pass and the slope fit.  All randomness
comes from counter-based Philox streams keyed on the run seed: one stream
for the stage (its window counts and its distillation pass) and one per
block length of the slope fit, so results are bit-reproducible for a
given configuration.

The stage is drawn as counts; no pair is materialised.  A raw draw lands
in one of the four window boxes (+-x0 +- delta) x (+-x0 +- delta) or is
rejected, and a kept pair's bits depend only on its box.  The box
probabilities are one-dimensional integrals over Alice's interval,
computed by piecewise Gauss-Legendre quadrature.  The accepted count is
then one binomial draw over the window probability, and each accepted
pair is an error (its signs differ) independently with the window's error
rate e = p_error_boxes / p_window.

The distillation pass groups the accepted pairs into blocks of N by a
uniform permutation.  Bob's decoded symbols are Alice's block bit flipped
at each error pair, so a block's outcome depends only on its number of
errors j, which over i.i.d. pairs is Bin(N, e): the block is accepted
when j is 0 or N, and is a distilled error when j is N.  So the per-block error
counts over the full blocks are one multinomial draw over the Bin(N, e)
pmf, the pairs left over after the last full block add a Bin(n mod N, e)
error count, and together they have exactly the joint law of shuffling
and counting the pairs one by one.  The slope fit draws each block length
from the same law, so the cost of the stage, the pass and the fit is
O(N), whatever the number of raw or accepted pairs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientStatistics, NoAcceptedSamples
from .states import GaussianDensity, GaussianState, _resolve_x_coords, quadrature_density

# Stream-lane offsets keep the stage and the slope fit's draws on disjoint
# Philox keys for one seed.
_LANE_SAMPLING = 0
_LANE_AD = 1

# A distillation pass with fewer distilled errors than this cannot resolve
# its error rate; SimulationResult.to_dict flags it as thin.
THIN_ERRORS = 10

# The window boxes as (sign of X_A, sign of X_B), in _box_probabilities order.
_BOX_SIGNS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])

# Box quadrature, over Alice's interval in units of her standard deviation.
# Bob's edge terms Phi(b - beta z) bend within _KINK_HALF_WIDTH / |beta| of
# each edge crossing and are flat to rounding outside it (Phi(-8) ~ 6e-16),
# so a piece ends at each crossing and at both ends of its bend.  Alice's
# density is split at _PHI_BREAKS, so that no piece near her mean spans more
# than a few of her standard deviations.  The interval ends are graded
# geometrically, which resolves a box whose mass sits in a steep tail at one
# end.
_GL_NODES = 32
_KINK_HALF_WIDTH = 8.0
_PHI_BREAKS = (-6.0, -3.0, 0.0, 3.0, 6.0)
_END_GRADING = 8.0 ** -np.arange(1, 7)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for the sampling and distillation stages."""

    x0: float = 1.0
    delta: float = 0.01
    n_rounds: int = 1
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.delta >= self.x0:
            raise ValueError("delta must be smaller than x0")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.n_samples < 1_000:
            raise ValueError("n_samples must be >= 1000")


@dataclass(frozen=True, eq=False)
class PostSelectedBits:
    """Counts of the measurement stage and of its distillation pass.

    ``window_probability`` is the analytic probability that one raw draw
    lands in the window.  ``error_pairs`` of the ``accepted_pairs`` have
    differing bits.  ``block_counts[j]`` is the number of full blocks of
    the pass, of ``len(block_counts) - 1`` pairs each, that hold j error
    pairs; the pairs left over after the last full block are counted in
    ``error_pairs`` only.
    """

    n_raw: int
    accepted_pairs: int
    error_pairs: int
    block_counts: np.ndarray
    eps_b_hat: float
    eps_b_se: float
    window_probability: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical protocol statistics for one configuration."""

    accepted_pairs: int
    n_raw: int
    window_probability: float
    eps_b_hat: float
    eps_b_se: float
    distilled_blocks: int
    distilled_errors: int
    eps_bn_hat: float
    eps_bn_se: float
    ad_yield: float
    n_rounds: int
    config: ProtocolConfig

    def to_dict(self) -> dict:
        """JSON-ready summary; ``thin`` is set below THIN_ERRORS distilled errors.

        With no distilled block, ``eps_bn_hat`` and ``eps_bn_se`` are None
        (JSON null), since strict JSON has no NaN.
        """
        return {
            "accepted_pairs": self.accepted_pairs,
            "n_raw": self.n_raw,
            "window_probability": self.window_probability,
            "eps_b_hat": self.eps_b_hat,
            "eps_b_se": self.eps_b_se,
            "distilled_blocks": self.distilled_blocks,
            "distilled_errors": self.distilled_errors,
            "eps_bn_hat": self.eps_bn_hat if self.distilled_blocks else None,
            "eps_bn_se": self.eps_bn_se if self.distilled_blocks else None,
            "thin": self.distilled_errors < THIN_ERRORS,
            "ad_yield": self.ad_yield,
            "n_rounds": self.n_rounds,
            "x0": self.config.x0,
            "delta": self.config.delta,
            "n_samples": self.config.n_samples,
            "seed": self.config.seed,
        }


def _stream(seed: int, lane: int, index: int) -> np.random.Generator:
    """Deterministic Philox stream for (seed, lane, index).

    The state of Philox(key=seed + (lane << 64)).jumped(index), set
    directly: a jump advances the 256-bit counter by index << 128.
    """
    return np.random.Generator(np.random.Philox(key=seed + (lane << 64), counter=index << 128))


@functools.cache
def _gauss_legendre():
    """The fixed Gauss-Legendre rule, built on first use."""
    t, w = np.polynomial.legendre.leggauss(_GL_NODES)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _box_probabilities(density: GaussianDensity, x0: float, delta: float) -> np.ndarray:
    """Probability that one draw lands in each window box, in _BOX_SIGNS order.

    With L the Cholesky factor of the density's covariance, X_A = m_A + L11 z
    for a standard normal z, and given z, X_B is normal with mean
    m_B + L21 z and width L22.  A box's probability is therefore the
    integral over Alice's interval, in z, of
    phi(z) [Phi(b_hi - beta z) - Phi(b_lo - beta z)], with Bob's edges b
    standardized by L22 and beta = L21 / L22.  Each integral is summed over
    pieces of a fixed Gauss-Legendre rule (see _KINK_HALF_WIDTH).
    """
    from scipy.special import ndtr

    (l11, _), (l21, l22) = np.linalg.cholesky(density.cov)
    beta = l21 / l22
    starts, ends, edges = [], [], []
    for sa, sb in _BOX_SIGNS:
        p = (sa * x0 - delta - density.mean[0]) / l11
        q = (sa * x0 + delta - density.mean[0]) / l11
        b_lo = (sb * x0 - delta - density.mean[1]) / l22
        b_hi = (sb * x0 + delta - density.mean[1]) / l22
        cuts = [*_PHI_BREAKS, *(p + (q - p) * _END_GRADING), *(q - (q - p) * _END_GRADING)]
        if beta != 0.0:
            bend = _KINK_HALF_WIDTH / abs(beta)
            for crossing in (b_lo / beta, b_hi / beta):
                cuts += [crossing - bend, crossing, crossing + bend]
        cuts = np.array(cuts)
        knots = np.unique(np.concatenate(([p, q], cuts[(cuts > p) & (cuts < q)])))
        starts.append(knots[:-1])
        ends.append(knots[1:])
        edges.append((b_lo, b_hi))
    n_pieces = [piece.size for piece in starts]
    a, b = np.concatenate(starts), np.concatenate(ends)
    b_lo, b_hi = np.repeat(np.array(edges), n_pieces, axis=0).T
    t, w = _gauss_legendre()
    half = ((b - a) / 2.0)[:, None]
    z = (a + b)[:, None] / 2.0 + half * t
    lo = b_lo[:, None] - beta * z
    hi = b_hi[:, None] - beta * z
    # difference of upper tails when both edges sit above the mean, so a
    # box far in Bob's upper tail keeps its relative precision:
    # s = -1 gives ndtr(-lo) - ndtr(-hi), s = 1 gives ndtr(hi) - ndtr(lo)
    s = np.where(lo > 0.0, -1.0, 1.0)
    bob = s * (ndtr(s * hi) - ndtr(s * lo))
    pieces = np.sum(half * w * np.exp(-0.5 * z * z) * bob, axis=1)
    box = np.repeat(np.arange(len(_BOX_SIGNS)), n_pieces)
    return np.bincount(box, pieces, minlength=len(_BOX_SIGNS)) / math.sqrt(2.0 * math.pi)


def _block_outcomes(eps: float, n_rounds: int, n_blocks: int, rng: np.random.Generator):
    """Error counts of ``n_blocks`` blocks of ``n_rounds`` i.i.d. pairs.

    Returns ``counts`` with ``counts[j]`` the number of blocks holding j
    error pairs, j = 0..n_rounds: one multinomial draw over the
    Bin(n_rounds, eps) pmf.  The pmf comes from its logarithm, so no
    power of eps underflows before the product does.
    """
    from scipy.special import gammaln, xlog1py, xlogy

    j = np.arange(n_rounds + 1)
    log_pmf = (
        gammaln(n_rounds + 1.0)
        - gammaln(j + 1.0)
        - gammaln(n_rounds - j + 1.0)
        + xlogy(j, eps)
        + xlog1py(n_rounds - j, -eps)
    )
    pmf = np.exp(log_pmf)
    return rng.multinomial(n_blocks, pmf / pmf.sum())


def sample_postselected_bits(
    state: GaussianState, cfg: ProtocolConfig, measured_x_coords=None
) -> PostSelectedBits:
    """Run the measurement and post-selection stage and its distillation pass.

    Draws ``cfg.n_samples`` (X_A, X_B) pairs from the marginal density of
    the two measured X quadratures, keeps draws with | |X_i| - x0 | <= delta
    on both sides, binarizes positive to 0, negative to 1, and groups the
    kept pairs into blocks of ``cfg.n_rounds`` for the distillation pass.
    All of it is drawn as counts from the exact box probabilities (see the
    module docstring): the accepted pairs, then the pass's per-block error
    counts, then the errors among the pairs left over.  The draw costs the
    same for any ``cfg.n_samples`` and any number of accepted pairs.
    ``measured_x_coords`` resolves as in the security analysis: by default
    the X quadratures of modes 0 and 1.

    Raises
    ------
    NoAcceptedSamples
        If the window has no probability or accepts nothing.
    """
    density = quadrature_density(state, _resolve_x_coords(state, coords=measured_x_coords))
    boxes = _box_probabilities(density, cfg.x0, cfg.delta)
    p_window = float(np.sum(boxes))
    if not (np.all(np.isfinite(boxes)) and p_window > 0.0):
        raise NoAcceptedSamples(
            f"window x0={cfg.x0}, delta={cfg.delta} has probability {p_window}"
        )
    if p_window > 1.0:
        # rounding when the boxes hold all the mass: rescale so that the
        # window probability is 1
        boxes, p_window = boxes / p_window, 1.0
    rng = _stream(cfg.seed, _LANE_SAMPLING, 0)
    n_acc = int(rng.binomial(cfg.n_samples, p_window))
    if n_acc == 0:
        raise NoAcceptedSamples(
            f"no samples accepted in window x0={cfg.x0}, delta={cfg.delta}"
        )
    eps_window = float(np.sum(boxes[_BOX_SIGNS[:, 0] != _BOX_SIGNS[:, 1]])) / p_window
    n_blocks, n_left = divmod(n_acc, cfg.n_rounds)
    block_counts = _block_outcomes(eps_window, cfg.n_rounds, n_blocks, rng)
    block_counts.setflags(write=False)
    n_err = int(block_counts @ np.arange(cfg.n_rounds + 1))
    n_err += int(rng.binomial(n_left, eps_window))
    eps_hat = n_err / n_acc
    se = math.sqrt(max(eps_hat * (1.0 - eps_hat), 1.0 / n_acc) / n_acc)
    return PostSelectedBits(
        n_raw=cfg.n_samples,
        accepted_pairs=n_acc,
        error_pairs=n_err,
        block_counts=block_counts,
        eps_b_hat=eps_hat,
        eps_b_se=se,
        window_probability=p_window,
    )


def advantage_distillation(
    bits_a: np.ndarray, bits_b: np.ndarray, n_rounds: int, rng: np.random.Generator
):
    """Repetition-block advantage distillation over two bit streams.

    Indices are randomly grouped into blocks of ``n_rounds``.  Per block,
    Alice draws a random bit c and announces the vector making each of her
    symbols XOR to c; Bob accepts only when his decoded symbols all agree.
    Used symbols are discarded either way.  The protocol pipeline draws
    this pass's counts from their exact law instead (see the module
    docstring); this bit-level pass is its reference.

    Returns
    -------
    tuple
        (distilled_a, distilled_b, ad_yield): accepted blocks' bits for
        both parties and the acceptance fraction.
    """
    bits_a = np.asarray(bits_a, dtype=bool)
    bits_b = np.asarray(bits_b, dtype=bool)
    if bits_a.shape != bits_b.shape:
        raise ValueError("bit streams must have equal length")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    n_blocks = bits_a.shape[0] // n_rounds
    if n_blocks == 0:
        raise ValueError("streams shorter than one block")
    order = rng.permutation(bits_a.shape[0])[: n_blocks * n_rounds]
    a = bits_a[order].reshape(n_blocks, n_rounds)
    b = bits_b[order].reshape(n_blocks, n_rounds)
    c = rng.integers(0, 2, size=n_blocks, dtype=np.uint8).astype(bool)
    announced = a ^ c[:, None]
    decoded = b ^ announced
    accept = np.all(decoded == decoded[:, :1], axis=1)
    distilled_a = c[accept]
    distilled_b = decoded[accept, 0]
    return distilled_a, distilled_b, float(accept.mean())


def run_simulation(stage: PostSelectedBits, cfg: ProtocolConfig) -> SimulationResult:
    """The advantage-distillation pass of the measurement stage, as statistics.

    ``stage`` is the result of ``sample_postselected_bits`` for ``cfg``,
    whose block counts are the pass over its pairs in blocks of
    ``cfg.n_rounds``.

    Raises
    ------
    InsufficientStatistics
        If the accepted pairs do not fill one block.
    """
    counts = stage.block_counts
    if counts.size != cfg.n_rounds + 1:
        raise ValueError(
            f"stage drawn for blocks of {counts.size - 1} pairs, not {cfg.n_rounds}"
        )
    n_blocks = int(counts.sum())
    if n_blocks == 0:
        raise InsufficientStatistics(
            f"{stage.accepted_pairs} accepted pairs do not fill one block of {cfg.n_rounds}"
        )
    n_err = int(counts[-1])
    n_dist = int(counts[0]) + n_err
    if n_dist == 0:
        eps_bn = float("nan")
        se_bn = float("nan")
    else:
        eps_bn = n_err / n_dist
        se_bn = math.sqrt(max(eps_bn * (1.0 - eps_bn), 1.0 / n_dist) / n_dist)
    return SimulationResult(
        accepted_pairs=stage.accepted_pairs,
        n_raw=stage.n_raw,
        window_probability=stage.window_probability,
        eps_b_hat=stage.eps_b_hat,
        eps_b_se=stage.eps_b_se,
        distilled_blocks=n_dist,
        distilled_errors=n_err,
        eps_bn_hat=eps_bn,
        eps_bn_se=se_bn,
        ad_yield=n_dist / n_blocks,
        n_rounds=cfg.n_rounds,
        config=cfg,
    )


@dataclass(frozen=True)
class SlopePoint:
    """Distillation statistics for one block length."""

    n_rounds: int
    blocks: int
    accepted: int
    errors: int
    eps_bn_hat: float
    sufficient: bool


@dataclass(frozen=True, eq=False)
class SlopeFit:
    """Least-squares fit of log eps_BN against N."""

    slope: float
    stderr: float
    intercept: float
    points: tuple
    eps_b_hat: float

    def to_csv(self) -> str:
        """Rows of (N, eps_BN, standard error), one block length per line."""
        lines = ["n_rounds,eps_bn_hat,se"]
        for p in self.points:
            se = p.eps_bn_hat / math.sqrt(p.errors) if p.errors else float("nan")
            lines.append(f"{p.n_rounds},{p.eps_bn_hat:.8e},{se:.3e}")
        return "\n".join(lines) + "\n"


def slope_check(
    stage: PostSelectedBits,
    cfg: ProtocolConfig,
    n_range=range(1, 9),
    target_errors: int = 150,
    max_blocks_per_n: int = 2_000_000_000,
) -> SlopeFit:
    """Fit the decay rate of the distilled error across block lengths.

    ``stage`` is the result of ``sample_postselected_bits`` for ``cfg``;
    its error-rate estimate drives the distillation error process, whose
    blocks are drawn from the same law as the stage's pass
    (``_block_outcomes``) at each block length, with enough blocks for
    ``target_errors`` expected errors, and log eps_BN is fitted against N
    by least squares.  A block length whose budget would exceed
    ``max_blocks_per_n`` blocks is simulated with that many, flagged
    insufficient and excluded from the fit: the cap bounds the statistics
    behind a point, not the runtime, which is the same for every budget.

    Raises
    ------
    InsufficientStatistics
        If fewer than two block lengths reach the error target.
    """
    eps = stage.eps_b_hat
    if eps <= 0.0 or eps >= 1.0:
        raise InsufficientStatistics("degenerate error-rate estimate")
    points = []
    for n in n_range:
        expected_rate = eps ** n
        # compared before dividing: once eps^n is tiny, target_errors / eps^n
        # is too large for ceil, and once it underflows to 0 it divides by zero
        capped = expected_rate * max_blocks_per_n < target_errors
        n_blocks = (
            max_blocks_per_n
            if capped
            else min(max_blocks_per_n, math.ceil(target_errors / expected_rate))
        )
        counts = _block_outcomes(eps, n, n_blocks, _stream(cfg.seed, _LANE_AD, n))
        errors = int(counts[-1])
        accepted = int(counts[0]) + errors
        sufficient = not capped and errors >= 100 and accepted > errors
        eps_bn = errors / accepted if accepted else float("nan")
        points.append(
            SlopePoint(
                n_rounds=n,
                blocks=n_blocks,
                accepted=accepted,
                errors=errors,
                eps_bn_hat=eps_bn,
                sufficient=sufficient,
            )
        )
    usable = [p for p in points if p.sufficient]
    if len(usable) < 2:
        raise InsufficientStatistics(
            f"only {len(usable)} block lengths reached {target_errors} errors"
        )
    xs = np.array([p.n_rounds for p in usable], dtype=float)
    ys = np.log([p.eps_bn_hat for p in usable])
    A = np.vstack([np.ones_like(xs), xs]).T
    coef, residuals, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    dof = max(1, len(usable) - 2)
    rss = float(residuals[0]) if residuals.size else float(
        np.sum((ys - A @ coef) ** 2)
    )
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = math.sqrt(rss / dof / sxx) if sxx > 0 else float("inf")
    return SlopeFit(
        slope=slope,
        stderr=stderr,
        intercept=intercept,
        points=tuple(points),
        eps_b_hat=eps,
    )
