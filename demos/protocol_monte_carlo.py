"""Monte Carlo run of the post-selection protocol and distillation scaling.

Run:  python3 demos/protocol_monte_carlo.py
"""

import numpy as np

from cvprivacy import (
    ProtocolConfig,
    eps_b,
    run_simulation,
    sample_postselected_bits,
    slope_check,
    symmetric_state,
)

state = symmetric_state(2.0, 1.2, 1.2)
analytic = eps_b(state, 1.0)
print(f"reference state lam=2, c=1.2; analytic error rate {analytic:.5f}")

print("\n== Windowed post-selection ==")
cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=5_000_000, seed=11)
stage = sample_postselected_bits(state, cfg)
print(f"{cfg.n_samples:,} raw draws, window |x - X0| <= {cfg.delta}")
print(f"accepted pairs: {stage.accepted_pairs:,}")
print(f"empirical eps_B = {stage.eps_b_hat:.5f} +- {stage.eps_b_se:.5f}")

print("\n== One advantage-distillation pass (N = 3) ==")
cfg3 = ProtocolConfig(x0=1.0, delta=0.05, n_samples=5_000_000, seed=12, n_rounds=3)
stage3 = sample_postselected_bits(state, cfg3)
result = run_simulation(stage3, cfg3)
print(f"{result.distilled_blocks:,} of {stage3.accepted_pairs // 3:,} blocks kept "
      f"(yield {result.ad_yield:.3f}), distilled error "
      f"{result.eps_bn_hat:.5f} +- {result.eps_bn_se:.5f}")
eps3 = stage3.eps_b_hat
exact = eps3 ** 3 / (eps3 ** 3 + (1 - eps3) ** 3)
print(f"i.i.d. prediction from this stage's eps_B = {eps3:.5f}: "
      f"eps^3/(eps^3 + (1-eps)^3) = {exact:.5f}")

print("\n== Error decay rate across block lengths ==")
slope_cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=20_000_000, seed=13)
fit = slope_check(sample_postselected_bits(state, slope_cfg), slope_cfg, range(1, 6))
ratio = analytic / (1 - analytic)
print(f"{'N':>3} {'eps_BN':>12} {'blocks':>12}")
for p in fit.points:
    print(f"{p.n_rounds:3d} {p.eps_bn_hat:12.3e} {p.blocks:12,}")
print(f"\nfitted slope of log eps_BN: {fit.slope:.4f} +- {fit.stderr:.4f}")
print(f"log odds ratio log(eps/(1-eps)) = {np.log(ratio):.4f}")
