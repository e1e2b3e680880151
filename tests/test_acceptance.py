"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summaries alongside the verdicts.
"""

import time

import numpy as np

from cvprivacy import (
    BipartiteSplit,
    GaussianState,
    ProtocolConfig,
    analyze_state,
    eps_ratio,
    eve_conditional_state,
    eve_fidelity,
    gaussian_fidelity_equal_cov,
    gaussian_to_fock,
    general_key_condition,
    is_nppt,
    purify,
    random_physical_state,
    run_simulation,
    sample_postselected_bits,
    slope_check,
    symmetric_collective_boundary,
    symmetric_state,
    symplectic_form,
    uhlmann_fidelity,
)
from cvprivacy.cli import SweepSpec, render_sweep
from cvprivacy.security import EXPONENT_MARGIN
from cvprivacy.simulate import _box_probabilities
from cvprivacy.states import quadrature_density
from families import (
    pt_boundary_margin,
    random_aligned_state,
    random_one_by_two_state,
)

GRID_LAMBDAS = np.linspace(1.0, 4.0, 200)
GRID_CS = np.linspace(0.0, 3.9, 200)


def _classify_grid():
    """(lam, c, physical, nppt, individual, collective) per cell of the sweep CSV."""
    lines = render_sweep(SweepSpec((1.0, 4.0, 200), (0.0, 3.9, 200))).splitlines()[1:]
    cells = [(float(lam), float(c)) for lam in GRID_LAMBDAS for c in GRID_CS]
    assert len(lines) == len(cells)
    return [
        cell + tuple(flag == "1" for flag in line.split(",")[2:])
        for cell, line in zip(cells, lines)
    ]


def test_criterion_1_region_diagram():
    """200x200 sweep reproduces the analytic boundary curves with nesting."""
    start = time.time()
    rows = _classify_grid()
    spacing = float(GRID_CS[1] - GRID_CS[0])

    boundary_cache = {}
    nesting_violations = 0
    curve_violations = 0
    for lam, c, phys, nppt, ind, coll in rows:
        if not (coll <= ind <= nppt <= phys):
            nesting_violations += 1
        c_phys = np.sqrt(max(lam * lam - 1.0, 0.0))
        if abs(c - c_phys) > spacing and phys != (c < c_phys):
            curve_violations += 1
        c_ent = lam - 1.0
        expected_nppt = phys and c > c_ent
        if abs(c - c_ent) > spacing and abs(c - c_phys) > spacing and nppt != expected_nppt:
            curve_violations += 1
        # the entanglement curve doubles as the individual-security bound
        if abs(c - c_ent) > spacing and ind != nppt:
            curve_violations += 1
        if phys and lam > 1.0 + 1e-9:
            if lam not in boundary_cache:
                boundary_cache[lam] = symmetric_collective_boundary(lam)
            c_coll = boundary_cache[lam]
            if abs(c - c_coll) > spacing and abs(c - c_phys) > spacing:
                if coll != (c > c_coll):
                    curve_violations += 1
    elapsed = time.time() - start

    assert nesting_violations == 0
    assert curve_violations == 0
    assert elapsed < 60.0
    print(
        f"\nCRITERION 1 PASS: 200x200 sweep, curves within one spacing "
        f"({spacing:.4f}), 0 nesting violations, {elapsed:.1f}s"
    )


def test_criterion_2_key_condition_equals_nppt():
    """Key condition agrees with NPPT on 2000 1x1 and 500 1x2 states."""
    rng = np.random.default_rng(20240917)
    start = time.time()
    split_11 = BipartiteSplit(1, 1)
    split_12 = BipartiteSplit(1, 2)
    checked_11 = disagreements = 0
    while checked_11 < 2000:
        state = random_aligned_state(rng)
        if pt_boundary_margin(state, split_11) <= 1e-10:
            continue
        checked_11 += 1
        if general_key_condition(state, split_11) != is_nppt(state, split_11):
            disagreements += 1
    checked_12 = 0
    while checked_12 < 500:
        state = random_one_by_two_state(rng)
        if pt_boundary_margin(state, split_12) <= 1e-10:
            continue
        checked_12 += 1
        if general_key_condition(state, split_12) != is_nppt(state, split_12):
            disagreements += 1
    elapsed = time.time() - start

    assert disagreements == 0
    assert elapsed < 30.0
    print(
        f"\nCRITERION 2 PASS: {checked_11} 1x1 + {checked_12} 1x2 states, "
        f"0 disagreements, {elapsed:.1f}s"
    )


def _certification_states(rng, count=20):
    states = []
    while len(states) < count:
        nu = 1.05 + rng.random() * 0.95
        s = np.exp((rng.random() - 0.5) * 0.4)
        phi = rng.random() * np.pi
        R = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        cov = R @ np.diag([nu * s * s, nu / (s * s)]) @ R.T
        d = rng.normal(size=2)
        norm = np.linalg.norm(d)
        if norm > 1.0:
            d /= norm * (1.0 + rng.random())
        states.append((cov, d))
    return states


def test_criterion_3_fock_fidelity_certification():
    """Truncated-Fock Uhlmann fidelity certifies the displacement formula."""
    rng = np.random.default_rng(7701)
    worst = 0.0
    worst_shift = 0.0
    for cov, d in _certification_states(rng, 20):
        closed = float(np.exp(-d @ np.linalg.solve(cov, d)))
        values = {}
        for cutoff in (40, 60):
            plus = gaussian_to_fock(GaussianState(cov, d), cutoff)
            minus = gaussian_to_fock(GaussianState(cov, -d), cutoff)
            values[cutoff] = uhlmann_fidelity(plus, minus)
        worst = max(worst, abs(values[40] - closed))
        worst_shift = max(worst_shift, abs(values[60] - values[40]))

    assert worst < 1e-3
    assert worst_shift < 1e-5
    print(
        f"\nCRITERION 3 PASS: 20 states, |fock - closed| <= {worst:.2e} < 1e-3, "
        f"cutoff 40->60 shift <= {worst_shift:.2e} < 1e-5"
    )


def test_criterion_4_derivation_chain():
    """Closed-form fidelity equals the purify/condition/overlap composition."""
    rng = np.random.default_rng(31337)
    sigma = symplectic_form(2)
    worst_chain = 0.0
    worst_identity = 0.0
    for _ in range(500):
        state = random_physical_state(rng, 2, nu_max=2.2, mixing=0.35)
        pur = purify(state)
        cond = eve_conditional_state(pur, x0=1.0)
        chain = gaussian_fidelity_equal_cov(cond.cov, cond.disp_plus, cond.disp_minus)
        closed = eve_fidelity(state, 1.0)
        worst_chain = max(worst_chain, abs(chain - closed))
        lhs = state.cov - pur.coupling @ np.linalg.solve(pur.eve_cov, pur.coupling.T)
        rhs = sigma @ np.linalg.solve(state.cov, sigma.T)
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))))

    assert worst_chain < 1e-9
    assert worst_identity < 1e-9
    print(
        f"\nCRITERION 4 PASS: 500 states, chain residual <= {worst_chain:.2e}, "
        f"purification identity residual <= {worst_identity:.2e}"
    )


def test_criterion_5_monte_carlo():
    """Empirical error rate, single-pass distilled error at each N and
    distillation slope match the closed forms."""
    start = time.time()
    state = symmetric_state(2.0, 1.2, 1.2)
    ratio = np.exp(-1.875)
    eps_analytic = ratio / (1.0 + ratio)

    cfg = ProtocolConfig(x0=1.0, delta=0.01, n_samples=10_000_000, seed=42)
    stage = sample_postselected_bits(state, cfg)
    eps_error = abs(stage.eps_b_hat - eps_analytic)
    assert eps_error < 3 * stage.eps_b_se

    slope_cfg = ProtocolConfig(x0=1.0, delta=0.02, n_samples=60_000_000, seed=4242)
    fit = slope_check(sample_postselected_bits(state, slope_cfg), slope_cfg, range(1, 9))
    slope_target = -1.875
    slope_rel_error = abs(fit.slope - slope_target) / abs(slope_target)

    # the whole pipeline at each N: the single distillation pass's eps_BN
    # against the i.i.d. value at the window's own error rate, from the
    # quadrature; 10^14 raw draws leave ~500 distilled errors at N = 8.  One
    # seed per N: stages on one seed share their accepted count, so their
    # deviations would move together
    boxes = _box_probabilities(quadrature_density(state, (0, 2)), 1.0, 0.02)
    e = (boxes[1] + boxes[2]) / boxes.sum()
    worst_pass = 0.0
    for n in range(1, 9):
        pass_cfg = ProtocolConfig(
            x0=1.0, delta=0.02, n_samples=10**14, seed=4242 + n, n_rounds=n
        )
        result = run_simulation(sample_postselected_bits(state, pass_cfg), pass_cfg)
        p_n = e**n / (e**n + (1.0 - e) ** n)
        pass_se = np.sqrt(p_n * (1.0 - p_n) / result.distilled_blocks)
        worst_pass = max(worst_pass, abs(result.eps_bn_hat - p_n) / pass_se)
    elapsed = time.time() - start

    assert all(p.sufficient for p in fit.points)
    assert slope_rel_error < 0.05
    assert worst_pass < 3.0
    assert elapsed < 120.0
    print(
        f"\nCRITERION 5 PASS: eps_hat={stage.eps_b_hat:.5f} vs {eps_analytic:.5f} "
        f"({eps_error / stage.eps_b_se:.2f} SE), slope={fit.slope:.4f} vs -1.875 "
        f"({slope_rel_error * 100:.2f}%), single-pass eps_BN within "
        f"{worst_pass:.2f} SE of the window's i.i.d. value at N = 1..8, {elapsed:.0f}s"
    )


def test_criterion_6_x0_invariance():
    """Finite-X0 odds and fidelities reproduce the report's exponents and
    verdicts for X0 in {0.1, 1, 10}."""
    rng = np.random.default_rng(606060)
    split = BipartiteSplit(1, 1)
    worst = 0.0
    compared = skipped = 0
    for _ in range(200):
        state = random_aligned_state(rng)
        rep = analyze_state(state, split)
        k_b, k_f = -rep.eps_ratio_exponent, -rep.fidelity_exponent
        nppt = not rep.ppt
        tie = min(abs(k_b - k_f), abs(k_b - 2.0 * k_f)) <= EXPONENT_MARGIN
        for x0 in (0.1, 1.0, 10.0):
            # exp(-k x0^2) underflows past k x0^2 = 700
            if tie or max(abs(k_b), abs(k_f)) * x0 ** 2 > 700.0:
                skipped += 1
                continue
            ratio = eps_ratio(state, x0)
            fid = eve_fidelity(state, x0)
            for k, value in ((k_b, ratio), (k_f, fid)):
                worst = max(worst, abs(-np.log(value) / x0 ** 2 - k) / abs(k))
            assert (nppt and ratio < fid) == rep.individual_secure
            assert (nppt and ratio < fid ** 2) == rep.collective_secure
            compared += 1

    assert worst < 1e-9
    assert compared > 400
    print(
        f"\nCRITERION 6 PASS: {compared} (state, X0) pairs, exponents recovered "
        f"to {worst:.1e} relative, finite-X0 verdicts equal the report's; "
        f"{skipped} skipped (tie band or underflow)"
    )


def test_criterion_7_collective_boundary():
    """The closed-form root locates the collective boundary at lam = 2, and
    the report's collective verdict flips across it."""
    c_star = symmetric_collective_boundary(2.0)
    assert 1.2 < c_star < 1.3
    residual = abs(c_star / (2.0 - c_star) - (4.0 - c_star ** 2 - 1.0))
    assert residual < 1e-10

    for lam in (1.05, 1.5, 2.0, 3.0, 4.0, 50.0):
        c = symmetric_collective_boundary(lam)
        below = analyze_state(symmetric_state(lam, c * (1 - 1e-6), c * (1 - 1e-6)))
        above = analyze_state(symmetric_state(lam, c * (1 + 1e-6), c * (1 + 1e-6)))
        assert not below.collective_secure and above.collective_secure

    rep_12 = analyze_state(symmetric_state(2.0, 1.2, 1.2))
    rep_13 = analyze_state(symmetric_state(2.0, 1.3, 1.3))
    assert rep_12.individual_secure and not rep_12.collective_secure
    assert rep_13.collective_secure
    print(
        f"\nCRITERION 7 PASS: c* = {c_star:.6f} in (1.2, 1.3), "
        f"residual {residual:.2e} < 1e-10, verdicts at c=1.2/1.3 as required, "
        f"collective verdict flips within 1e-6 of c* at six lam"
    )
