"""Stacked kernels against their batch-of-one public callers, bit for bit."""

import numpy as np
import pytest

from cvprivacy import (
    BipartiteSplit,
    GaussianState,
    analyze_state,
    eps_ratio_exponent,
    eve_fidelity_exponent,
    is_nppt,
    is_physical,
    random_physical_state,
    symplectic_eigenvalues,
)
from cvprivacy.cli import SweepSpec, sweep_rows
from cvprivacy.security import _exponent_stack, _report_stack, _verdicts
from cvprivacy.states import _nppt_stack, _symmetric_stack
from cvprivacy.symplectic import TAU_PSD, _uncertainty_ok

DRAWS = 300
# (lam, c) where lam ** 2 (Python's float power) and lam * lam (numpy's
# square) put the margin lam^2 - c^2 - 1 on opposite sides of -TAU_PSD
MARGIN_EDGE = ((1.9654647564767265, 1.692055468668837), (3.0331497321359175, 2.8635637408055348))


def _stacks():
    """{n_modes: covariance stack} from DRAWS random 2-4 mode states, each
    stack ending in one unphysical member (half a physical covariance)."""
    rng = np.random.default_rng(2005)
    states = [random_physical_state(rng, 2 + i % 3) for i in range(DRAWS)]
    out = {}
    for n in (2, 3, 4):
        covs = [s.cov for s in states if s.n_modes == n]
        out[n] = np.array(covs + [0.5 * covs[0]])
    return out


STACKS = _stacks()


@pytest.mark.parametrize("n", sorted(STACKS))
def test_stacked_uncertainty_checks_are_bit_equal_to_one_state(n):
    covs = STACKS[n]
    physical = _uncertainty_ok(covs)
    assert physical[:-1].all() and not physical[-1]
    # the unphysical member is positive definite: the bound, not the
    # sign of gamma, rejects it
    assert np.linalg.eigvalsh(covs[-1]).min() > 0.0
    for cov, phys in zip(covs, physical):
        assert phys == _uncertainty_ok(cov) == is_physical(GaussianState(cov))
        assert phys == (symplectic_eigenvalues(cov).min() >= 1.0 - 1e-9)
    # the unphysical member leaves its neighbours' verdicts unchanged
    assert np.array_equal(_uncertainty_ok(covs[:-1]), physical[:-1])


@pytest.mark.parametrize("n", sorted(STACKS))
def test_stacked_verdicts_and_exponents_are_bit_equal_to_one_state(n):
    covs = STACKS[n]
    for n_a in range(1, n):
        split = BipartiteSplit(n_a, n - n_a)
        coords = (0, 2 * n_a)
        phys = covs[:-1]
        k_b, k_f, ok = _exponent_stack(phys, coords)
        assert ok.all()
        nppt = _nppt_stack(phys, split)
        flags = _report_stack(covs, split)
        assert not flags[-1].any()
        assert np.array_equal(flags[:-1], _report_stack(phys, split))
        for i, cov in enumerate(phys):
            state = GaussianState(cov)
            assert k_b[i] == eps_ratio_exponent(state, coords)
            assert k_f[i] == eve_fidelity_exponent(state, coords)
            assert nppt[i] == is_nppt(state, split)
            rep = analyze_state(state, split)
            assert (-k_b[i], -k_f[i]) == (rep.eps_ratio_exponent, rep.fidelity_exponent)
            assert tuple(flags[i]) == (
                True, not rep.ppt, rep.individual_secure, rep.collective_secure
            )


def test_stacked_margin_is_the_scalar_margin_bit_for_bit():
    rng = np.random.default_rng(7)
    lam = np.concatenate([rng.uniform(0.0, 5.0, 2000), [e[0] for e in MARGIN_EDGE]])
    c = np.concatenate([rng.uniform(0.0, 5.0, 2000), [e[1] for e in MARGIN_EDGE]])
    _, margin, ok = _symmetric_stack(lam, c, c)
    scalar = [x ** 2 - y * y - 1.0 - x * (y - y) for x, y in zip(lam.tolist(), c.tolist())]
    assert margin.tolist() == scalar
    assert ok.tolist() == [m >= -TAU_PSD for m in scalar]
    assert ok[-2:].tolist() == [True, False]
    for (x, y), physical in zip(MARGIN_EDGE, "10"):
        first = next(sweep_rows(SweepSpec((x, x + 1.0, 2), (y, y + 1.0, 2))))
        assert first.split(",")[2] == physical


def test_exponent_stack_inverts_only_matrices_that_pass():
    good = STACKS[2][0]
    # measured X block [[1, 1], [1, 1]]: singular, and so is the matrix
    bad = np.eye(4)
    bad[0, 2] = bad[2, 0] = 1.0
    k_b, k_f, ok = _exponent_stack(np.array([bad, good, bad]), (0, 2))
    assert ok.tolist() == [False, True, False]
    state = GaussianState(good)
    assert (k_b[0], k_f[0]) == (eps_ratio_exponent(state), eve_fidelity_exponent(state))


def test_verdicts_nest_under_boundary_noise():
    # exponent gaps that alone would pass, on a PPT and an NPPT state
    individual, collective = _verdicts(np.array([False, True]), np.full(2, 2.0), np.zeros(2))
    assert individual.tolist() == [False, True]
    assert collective.tolist() == [False, True]
    assert _verdicts(True, 1.0, 0.6) == (True, False)
    assert _verdicts(False, 1.0, 0.0) == (False, False)
