"""Monte Carlo simulation of the measure / post-select / distill pipeline.

Quadrature pairs are drawn from the state's marginal density, kept when
both magnitudes land within a window around X0, binarized by sign, and
fed through repetition-block advantage distillation.  One sampling stage
feeds both the single distillation pass and the slope fit.  All randomness
comes from counter-based Philox streams keyed on the run seed: one stream
per fixed-size chunk of raw draws, one for the distillation pass and one
per block length of the slope fit, so results are bit-reproducible for a
given configuration.

The slope fit draws each block length's counts in aggregate.  Over an
i.i.d. error process a block is rejected, accepted correct or accepted in
error with probabilities 1 - p_acc, (1 - eps)^N and eps^N, where
p_acc = eps^N + (1 - eps)^N; the counts over n blocks are multinomial, so
a binomial for the accepted blocks followed by a binomial for the errors
among them has exactly the distribution of counting block by block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientStatistics, NoAcceptedSamples
from .states import GaussianState, _resolve_x_coords, quadrature_density

CHUNK = 1 << 20

# Stream-lane offsets keep the sampling and distillation draws on disjoint
# Philox keys for one seed.
_LANE_SAMPLING = 0
_LANE_AD = 1


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
    """Accepted bit pairs from the measurement stage, with error stats."""

    bits_a: np.ndarray
    bits_b: np.ndarray
    n_raw: int
    accepted_pairs: int
    eps_b_hat: float
    eps_b_se: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical protocol statistics for one configuration."""

    accepted_pairs: int
    eps_b_hat: float
    eps_b_se: float
    eps_bn_hat: float
    eps_bn_se: float
    ad_yield: float
    n_rounds: int
    config: ProtocolConfig

    def to_dict(self) -> dict:
        return {
            "accepted_pairs": self.accepted_pairs,
            "eps_b_hat": self.eps_b_hat,
            "eps_b_se": self.eps_b_se,
            "eps_bn_hat": self.eps_bn_hat,
            "eps_bn_se": self.eps_bn_se,
            "ad_yield": self.ad_yield,
            "n_rounds": self.n_rounds,
            "x0": self.config.x0,
            "delta": self.config.delta,
            "n_samples": self.config.n_samples,
            "seed": self.config.seed,
        }


def _stream(seed: int, lane: int, index: int) -> np.random.Generator:
    """Deterministic Philox stream for (seed, lane, chunk index)."""
    return np.random.Generator(np.random.Philox(key=seed + (lane << 64)).jumped(index))


def sample_postselected_bits(
    state: GaussianState, cfg: ProtocolConfig, measured_x_coords=None
) -> PostSelectedBits:
    """Run the measurement and post-selection stage.

    Draws (X_A, X_B) pairs from the marginal density of the two measured X
    quadratures, keeps draws with | |X_i| - x0 | <= delta on both sides,
    and binarizes positive to 0, negative to 1.  ``measured_x_coords``
    resolves as in the security analysis: by default the X quadratures of
    modes 0 and 1.

    Raises
    ------
    NoAcceptedSamples
        If the window accepts nothing.
    """
    density = quadrature_density(state, _resolve_x_coords(state, coords=measured_x_coords))
    L = np.linalg.cholesky(density.cov)
    bits_a_parts, bits_b_parts = [], []
    remaining = cfg.n_samples
    chunk_idx = 0
    while remaining > 0:
        m = min(CHUNK, remaining)
        rng = _stream(cfg.seed, _LANE_SAMPLING, chunk_idx)
        xy = rng.standard_normal((m, 2)) @ L.T + density.mean
        keep = (np.abs(np.abs(xy[:, 0]) - cfg.x0) <= cfg.delta) & (
            np.abs(np.abs(xy[:, 1]) - cfg.x0) <= cfg.delta
        )
        kept = xy[keep]
        bits_a_parts.append(kept[:, 0] < 0)
        bits_b_parts.append(kept[:, 1] < 0)
        remaining -= m
        chunk_idx += 1
    bits_a = np.concatenate(bits_a_parts)
    bits_b = np.concatenate(bits_b_parts)
    n_acc = bits_a.shape[0]
    if n_acc == 0:
        raise NoAcceptedSamples(
            f"no samples accepted in window x0={cfg.x0}, delta={cfg.delta}"
        )
    eps_hat = float(np.mean(bits_a != bits_b))
    se = math.sqrt(max(eps_hat * (1.0 - eps_hat), 1.0 / n_acc) / n_acc)
    return PostSelectedBits(
        bits_a=bits_a,
        bits_b=bits_b,
        n_raw=cfg.n_samples,
        accepted_pairs=n_acc,
        eps_b_hat=eps_hat,
        eps_b_se=se,
    )


def advantage_distillation(
    bits_a: np.ndarray, bits_b: np.ndarray, n_rounds: int, rng: np.random.Generator
):
    """Repetition-block advantage distillation over two bit streams.

    Indices are randomly grouped into blocks of ``n_rounds``.  Per block,
    Alice draws a random bit c and announces the vector making each of her
    symbols XOR to c; Bob accepts only when his decoded symbols all agree.
    Used symbols are discarded either way.

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
    """One advantage-distillation pass over the measurement stage's bits.

    ``stage`` is the result of ``sample_postselected_bits`` for ``cfg``;
    the pass groups its bits into blocks of ``cfg.n_rounds``.
    """
    rng = _stream(cfg.seed, _LANE_AD, 0)
    dist_a, dist_b, ad_yield = advantage_distillation(
        stage.bits_a, stage.bits_b, cfg.n_rounds, rng
    )
    n_dist = dist_a.shape[0]
    if n_dist == 0:
        eps_bn = float("nan")
        se_bn = float("nan")
    else:
        eps_bn = float(np.mean(dist_a != dist_b))
        se_bn = math.sqrt(max(eps_bn * (1.0 - eps_bn), 1.0 / n_dist) / n_dist)
    return SimulationResult(
        accepted_pairs=stage.accepted_pairs,
        eps_b_hat=stage.eps_b_hat,
        eps_b_se=stage.eps_b_se,
        eps_bn_hat=eps_bn,
        eps_bn_se=se_bn,
        ad_yield=float(ad_yield),
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

    def confidence_interval(self, z: float = 1.96):
        return (self.slope - z * self.stderr, self.slope + z * self.stderr)

    def to_csv(self) -> str:
        """Rows of (N, eps_BN, standard error), one block length per line."""
        lines = ["n_rounds,eps_bn_hat,se"]
        for p in self.points:
            se = p.eps_bn_hat / math.sqrt(p.errors) if p.errors else float("nan")
            lines.append(f"{p.n_rounds},{p.eps_bn_hat:.8e},{se:.3e}")
        return "\n".join(lines) + "\n"


def _ad_block_stats(
    eps: float, n_rounds: int, n_blocks: int, seed: int, lane_index: int
):
    """Simulate distillation blocks over an i.i.d. error process.

    Bob's decoded symbols are c XOR e_i, so a block's outcome depends only
    on its error count: accepted when the count is 0 or n_rounds, a
    distilled error when it is n_rounds.  The blocks' outcomes are
    multinomial, so the accepted count is one binomial draw with
    p_acc = eps^N + (1 - eps)^N and the error count one binomial draw over
    the accepted blocks with eps^N / p_acc, both from the single stream
    (seed, distillation lane, lane_index).
    """
    p_err = eps ** n_rounds
    p_acc = p_err + (1.0 - eps) ** n_rounds
    if p_acc == 0.0:
        return 0, 0
    rng = _stream(seed, _LANE_AD, lane_index)
    accepted = int(rng.binomial(n_blocks, p_acc))
    errors = int(rng.binomial(accepted, p_err / p_acc))
    return accepted, errors


def slope_check(
    stage: PostSelectedBits,
    cfg: ProtocolConfig,
    n_range=range(1, 9),
    target_errors: int = 150,
    max_blocks_per_n: int = 2_000_000_000,
) -> SlopeFit:
    """Fit the decay rate of the distilled error across block lengths.

    ``stage`` is the result of ``sample_postselected_bits`` for ``cfg``;
    its error-rate estimate drives the distillation error process, which
    is simulated at each block length with enough blocks for
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
        accepted, errors = _ad_block_stats(eps, n, n_blocks, cfg.seed, lane_index=n)
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
