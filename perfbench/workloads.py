"""The four workloads: seeded inputs, one timed library call per item, and
output checks against the independent references in ``oracles``.

Every workload runs a fixed list of items per round, so each round does
the same work and a failing item fails in every round.  Only names
exported by ``cvprivacy`` and ``cvprivacy.cli.main`` are called, always
looked up on the module at call time so that the tracer can wrap them.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Outcomes beyond this many standard errors fail a statistical check; a
# false alarm has odds below 1e-7 per check.
Z_MAX = 6.0


def plausible_count(observed, trials, p):
    """Whether a binomial count is within Z_MAX standard errors of trials * p.

    Z_MAX^2 extra counts keep the test valid for small expected counts,
    where the normal approximation understates the tail.
    """
    mean = trials * p
    return abs(observed - mean) <= Z_MAX * math.sqrt(mean * (1.0 - p)) + Z_MAX ** 2


@dataclass(frozen=True, eq=False)
class Item:
    """One timed call.

    ``expect`` names an exception the call must raise.  ``kept`` marks an
    input the library is known to get wrong: a wrong output on it counts
    as failed, like a raised error, instead of failing the run's checks.
    """

    label: str
    args: tuple
    expect: str = None
    kept: bool = False


class Workload:
    """Inputs from a seed, items per round, and checks of each output."""

    round_items = ()
    warmup_items = ()

    def run(self, item):
        raise NotImplementedError

    def problems(self, item, output):
        """Descriptions of every way the output disagrees with the oracles."""
        raise NotImplementedError

    def judge(self, item, output, error):
        """(status, message): ok, failed (the call raised) or wrong."""
        if error is not None:
            if item.expect is not None and type(error).__name__ == item.expect:
                return OK, ""
            return FAILED, f"{item.label}: {type(error).__name__}: {error}"
        if item.expect is not None:
            return WRONG, f"{item.label}: expected {item.expect}, got a result"
        found = self.problems(item, output)
        if not found:
            return OK, ""
        return (FAILED if item.kept else WRONG), f"{item.label}: {found[0]}"


def _cli(cv, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cv.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# region_sweep: the security-region diagram through `cvprivacy sweep`
# ---------------------------------------------------------------------------

# (lam_lo, lam_hi, c_lo, c_hi): the whole diagram and zooms on each boundary.
SWEEP_WINDOWS = (
    (1.0, 4.0, 0.0, 3.9),  # whole diagram
    (1.05, 1.8, 0.0, 1.5),  # low lambda, separable corner
    (2.0, 2.5, 1.6, 2.4),  # physical boundary c = sqrt(lam^2 - 1)
    (1.5, 3.0, 0.3, 2.2),  # entanglement boundary c = lam - 1
    (1.8, 2.4, 0.9, 1.8),  # collective boundary near lam = 2
)
# Copies of each window per round.  Windows differ in cost (unphysical
# cells are cheap), so an odd number of grids per round puts the median
# item inside one window's copies instead of in the gap between two.
SWEEP_COPIES = 3
SWEEP_STEPS = 10
# Cells whose margin to a region boundary is within this band are not
# checked against the closed form; CSV values carry 12 significant digits.
SWEEP_BAND = 1e-8


class RegionSweep(Workload):
    def __init__(self, cv, seed, workdir):
        self.cv = cv
        rng = np.random.default_rng(seed)
        items = []
        for k, (l_lo, l_hi, c_lo, c_hi) in enumerate(SWEEP_WINDOWS * SWEEP_COPIES):
            j = rng.uniform(0.0, 0.03, size=4)
            lam = (l_lo + j[0] * (l_hi - l_lo), l_hi - j[1] * (l_hi - l_lo))
            c = (c_lo + j[2] * (c_hi - c_lo), c_hi - j[3] * (c_hi - c_lo))
            grid = (
                f"{lam[0]:.17g}:{lam[1]:.17g}:{SWEEP_STEPS},"
                f"{c[0]:.17g}:{c[1]:.17g}:{SWEEP_STEPS}"
            )
            cells = np.array(
                [(x, y) for x in np.linspace(*lam, SWEEP_STEPS)
                 for y in np.linspace(*c, SWEEP_STEPS)]
            )
            items.append(Item(f"sweep[{k}]", (grid, cells)))
        self.round_items = items
        self.warmup_items = items[:1]
        self._require_all_regions(np.concatenate([it.args[1] for it in items]))

    @staticmethod
    def _require_all_regions(cells):
        phys, nppt, ind, coll = oracles.symmetric_margins(cells[:, 0], cells[:, 1])
        with np.errstate(invalid="ignore"):
            regions = {
                "unphysical": phys < 0,
                "separable": (phys > 0) & (nppt < 0),
                "individual-only": (phys > 0) & (nppt > 0) & (ind > 0) & (coll < 0),
                "collective": (phys > 0) & (nppt > 0) & (coll > 0),
            }
        empty = [name for name, mask in regions.items() if not mask.any()]
        if empty:
            raise RuntimeError(f"sweep grids miss the regions {empty}")

    def run(self, item):
        return _cli(self.cv, ["sweep", "--grid", item.args[0]])

    def problems(self, item, output):
        code, text = output
        cells = item.args[1]
        if code != 0:
            return [f"exit code {code}"]
        lines = text.splitlines()
        if not lines or lines[0] != "lambda,c,physical,nppt,individual,collective":
            return ["missing CSV header"]
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        if rows.shape != (len(cells), 6):
            return [f"CSV has shape {rows.shape}, expected {(len(cells), 6)}"]
        if not np.allclose(rows[:, :2], cells, rtol=1e-11, atol=1e-12):
            return ["grid coordinates differ from the requested grid"]
        verdicts = rows[:, 2:]
        if not np.isin(verdicts, (0.0, 1.0)).all():
            return ["verdicts are not 0/1"]
        found = []
        if np.any(np.diff(verdicts[:, ::-1], axis=1) < 0):
            found.append("verdicts are not nested")
        # Verdict k is the conjunction of margins 0..k being positive: it is
        # known false once one margin is clearly negative, known true once
        # all are clearly positive.
        margins = oracles.symmetric_margins(rows[:, 0], rows[:, 1])
        known_false = np.zeros(len(rows), dtype=bool)
        all_positive = np.ones(len(rows), dtype=bool)
        names = ("physical", "nppt", "individual", "collective")
        with np.errstate(invalid="ignore"):
            for col, (name, margin) in enumerate(zip(names, margins)):
                known_false |= margin < -SWEEP_BAND
                all_positive &= margin > SWEEP_BAND
                decided = known_false | all_positive
                bad = decided & (verdicts[:, col].astype(bool) != (all_positive & ~known_false))
                if bad.any():
                    i = int(np.argmax(bad))
                    found.append(
                        f"{name} verdict {int(verdicts[i, col])} at "
                        f"lam={rows[i, 0]:.6g}, c={rows[i, 1]:.6g} contradicts the closed form"
                    )
        return found


# ---------------------------------------------------------------------------
# state_analysis: analyze_state plus purify -> condition -> fidelity
# ---------------------------------------------------------------------------

ANALYSIS_SEEDED = 200
ANALYSIS_UNPHYSICAL_EVERY = 10
# Squeezing up to r = 1.5 (13 dB) and thermal values up to 2.5: no seeded
# input of 30 seeds x 200 made the library raise at these sizes.
ANALYSIS_R_MAX = 1.5
ANALYSIS_NU_MAX = 2.5
# Kept inputs, the same for every seed.  The pure two-mode squeezed ladder
# ends at r = 4, which `is_physical` rejects (nu_min - 1 = -3.5e-10 against
# the absolute 1e-10 band).  The strongly squeezed draws are those of the
# fixed stream below on which `purify` raises ComplexSpectrum.
KEPT_TMS_R = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
KEPT_SQUEEZED_SEED = 2005
KEPT_SQUEEZED_R_MAX = 4.0
KEPT_SQUEEZED_DRAWS = (25, 221, 278)

NU_BAND = 1e-8  # tie band around symplectic eigenvalue 1
EXPONENT_BAND = 1e-8  # tie band for exponent comparisons, relative to max(1, k_B)
PURITY_TOL = 1e-6  # the library's own oracle tolerance for purification purity
CHAIN_RTOL = 1e-9  # purify/condition/fidelity chain against exp(-k_F x0^2)


def passive_symplectic(rng, n):
    """Orthogonal symplectic matrix from a random unitary (interleaved order)."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.block([[u.real, -u.imag], [u.imag, u.real]])
    order = np.empty(2 * n, dtype=int)
    order[0::2] = np.arange(n)
    order[1::2] = np.arange(n) + n
    return o[np.ix_(order, order)]


def bloch_messiah_cov(rng, n, r_max, nu_lo, nu_hi):
    """Covariance O1 Z O2 D O2^T Z O1^T with squeezers r in [0, r_max)."""
    o1, o2 = passive_symplectic(rng, n), passive_symplectic(rng, n)
    r = rng.random(n) * r_max
    z = np.diag(np.exp(np.repeat(r, 2) * np.tile([-1.0, 1.0], n)))
    s = o1 @ z @ o2
    nu = nu_lo + rng.random(n) * (nu_hi - nu_lo)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (cov + cov.T)


def tms_cov(r):
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return np.array(
        [[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]], dtype=float
    )


class StateAnalysis(Workload):
    def __init__(self, cv, seed, workdir):
        self.cv = cv
        rng = np.random.default_rng(seed)
        items = []
        for i in range(ANALYSIS_SEEDED):
            # mode counts and splits cycle, so every seed has the same mix
            n = 2 + i % 3
            n_a = 1 + (i // 3) % (n - 1)
            x0 = float(rng.uniform(0.3, 1.5))
            cov = bloch_messiah_cov(rng, n, ANALYSIS_R_MAX, 1.0, ANALYSIS_NU_MAX)
            expect = None
            if i % ANALYSIS_UNPHYSICAL_EVERY == 0:
                nu_min = oracles.symplectic_spectrum(cov)[0]
                cov = cov * (rng.uniform(0.7, 0.95) / nu_min)
                expect = "Unphysical"
            items.append(self._item(f"seeded[{i}]", cov, n_a, x0, expect))
        for r in KEPT_TMS_R:
            items.append(self._item(f"tms[r={r}]", tms_cov(r), 1, 1.0, kept=True))
        fixed = np.random.default_rng(KEPT_SQUEEZED_SEED)
        for i in range(max(KEPT_SQUEEZED_DRAWS) + 1):
            cov = bloch_messiah_cov(fixed, 2, KEPT_SQUEEZED_R_MAX, 1.0, ANALYSIS_NU_MAX)
            if i in KEPT_SQUEEZED_DRAWS:
                items.append(self._item(f"squeezed[{i}]", cov, 1, 1.0, kept=True))
        self.round_items = items
        self.warmup_items = items[:4]

    def _item(self, label, cov, n_a, x0, expect=None, kept=False):
        n = cov.shape[0] // 2
        state = self.cv.GaussianState(cov)
        split = self.cv.BipartiteSplit(n_a, n - n_a)
        return Item(label, (state, split, x0, cov, n_a), expect, kept)

    def run(self, item):
        cv = self.cv
        state, split, x0 = item.args[:3]
        report = cv.analyze_state(state, split)
        pur = cv.purify(state)
        cond = cv.eve_conditional_state(pur, x0, (0, 2 * split.n_a))
        fid = cv.gaussian_fidelity_equal_cov(cond.cov, cond.disp_plus, cond.disp_minus)
        return report, pur, fid

    def problems(self, item, output):
        report, pur, fid = output
        _, _, x0, cov, n_a = item.args
        found = []
        if oracles.symplectic_spectrum(cov)[0] < 1.0 - NU_BAND:
            found.append("unphysical input was accepted")
        nu_pt = oracles.symplectic_spectrum(oracles.partial_transpose_cov(cov, n_a))[0]
        nppt = None
        if abs(nu_pt - 1.0) > NU_BAND:
            nppt = nu_pt < 1.0
            if report.ppt == nppt:
                found.append(f"ppt={report.ppt} but min PT eigenvalue is {nu_pt:.6g}")
        if report.collective_secure and not report.individual_secure:
            found.append("collective without individual security")
        if report.individual_secure and report.ppt:
            found.append("individual security without NPPT")
        k_b, k_f = oracles.exponents(cov, (0, 2 * n_a))
        scale = max(1.0, abs(k_b))
        if abs(report.eps_ratio_exponent + k_b) > 1e-9 * scale:
            found.append(f"eps_ratio_exponent {report.eps_ratio_exponent} != -{k_b}")
        if abs(report.fidelity_exponent + k_f) > 1e-9 * max(1.0, abs(k_f)):
            found.append(f"fidelity_exponent {report.fidelity_exponent} != -{k_f}")
        for name, gap, verdict in (
            ("individual", k_b - k_f, report.individual_secure),
            ("collective", k_b - 2.0 * k_f, report.collective_secure),
        ):
            if nppt is not None and abs(gap) > EXPONENT_BAND * scale:
                if verdict != (nppt and gap > 0):
                    found.append(f"{name}={verdict} but exponent gap is {gap:.6g}")
        joint = np.asarray(pur.joint.cov)
        k = cov.shape[0]
        if joint.shape != (2 * k, 2 * k):
            return found + [f"purification has shape {joint.shape}"]
        if np.max(np.abs(joint[:k, :k] - cov)) > 1e-12 * np.max(np.abs(cov)):
            found.append("purification does not reduce to the input")
        impurity = float(np.max(np.abs(oracles.symplectic_spectrum(joint) - 1.0)))
        if impurity > PURITY_TOL:
            found.append(f"purification impure by {impurity:.3g}")
        closed = math.exp(-k_f * x0 * x0)
        if abs(fid - closed) > CHAIN_RTOL * closed:
            found.append(f"fidelity chain {fid!r} != exp(-k_F x0^2) = {closed!r}")
        return found


# ---------------------------------------------------------------------------
# protocol_mc: `cvprivacy simulate --slope-csv` on symmetric-family states
# ---------------------------------------------------------------------------

MC_X0 = 1.0
MC_DELTA = 0.5
MC_SAMPLES = 500_000
# Distillation rounds per state, two states each.  Each state's window
# error rate is set so that its longest block length needs about
# MC_TOP_BLOCKS blocks, so the states differ in eps_B but cost about the
# same, and distillation outweighs the two sampling passes.
MC_ROUNDS = (4, 4, 5, 5, 6, 6, 7, 7, 8, 8)
MC_TOP_BLOCKS = 2e6
MC_TARGET_ERRORS = 150  # errors per block length aimed at by slope_check


def symmetric_gx(lam, c):
    return np.array([[lam, c], [c, lam]])


class ProtocolMC(Workload):
    def __init__(self, cv, seed, workdir):
        self.cv = cv
        rng = np.random.default_rng(seed)
        items = []
        for k, n_rounds in enumerate(MC_ROUNDS):
            eps = (MC_TARGET_ERRORS / MC_TOP_BLOCKS) ** (1.0 / n_rounds)
            lam = float(rng.uniform(1.6, 3.0))
            c = brentq(
                lambda c: oracles.window_error_rate(symmetric_gx(lam, c), MC_X0, MC_DELTA) - eps,
                1e-6,
                math.sqrt(lam * lam - 1.0) * (1.0 - 1e-9),
                xtol=1e-14,
            )
            cov = [[lam, 0, c, 0], [0, lam, 0, -c], [c, 0, lam, 0], [0, -c, 0, lam]]
            state_path = workdir / f"state{k}.json"
            state_path.write_text(json.dumps({"n_modes": 2, "cov": cov, "disp": [0.0] * 4}))
            csv_path = workdir / f"slope{k}.csv"
            sim_seed = int(rng.integers(1, 2**31 - 1))
            argv = [
                "simulate", "--state", str(state_path), "--x0", repr(MC_X0),
                "--delta", repr(MC_DELTA), "--samples", str(MC_SAMPLES),
                "--n-rounds", str(n_rounds), "--seed", str(sim_seed),
                "--slope-csv", str(csv_path),
            ]
            items.append(Item(f"simulate[{k}, N={n_rounds}]", (argv, lam, c, n_rounds, csv_path)))
        self.round_items = items
        warm = list(items[0].args[0])
        warm[warm.index("--samples") + 1] = "20000"
        warm[warm.index("--n-rounds") + 1] = "2"
        self.warmup_items = [Item("warmup", (warm,))]

    def run(self, item):
        return _cli(self.cv, item.args[0])

    def problems(self, item, output):
        code, text = output
        _, lam, c, n_rounds, csv_path = item.args
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        found = []
        gx = symmetric_gx(lam, c)
        acc = doc["accepted_pairs"]
        p_win = oracles.window_probability(gx, MC_X0, MC_DELTA)
        if not plausible_count(acc, MC_SAMPLES, p_win):
            found.append(f"{acc} accepted pairs, expected {MC_SAMPLES * p_win:.0f}")
        eps_w = oracles.window_error_rate(gx, MC_X0, MC_DELTA)
        eps_hat = doc["eps_b_hat"]
        if not plausible_count(eps_hat * acc, acc, eps_w):
            found.append(f"eps_b_hat {eps_hat:.6g} vs window value {eps_w:.6g}")
        # the single distillation pass over the accepted bits
        blocks = acc // n_rounds
        p_acc = eps_hat ** n_rounds + (1 - eps_hat) ** n_rounds
        kept = round(doc["ad_yield"] * blocks)
        if not plausible_count(kept, blocks, p_acc):
            found.append(f"ad_yield {doc['ad_yield']:.6g} vs {p_acc:.6g}")
        p_n = oracles.distilled_error(eps_hat, n_rounds)
        if kept and not plausible_count(doc["eps_bn_hat"] * kept, kept, p_n):
            found.append(f"eps_bn_hat {doc['eps_bn_hat']:.6g} vs {p_n:.6g}")
        lines = csv_path.read_text().splitlines()
        if lines[0] != "n_rounds,eps_bn_hat,se" or len(lines) != n_rounds + 1:
            return found + ["slope CSV header or row count"]
        for line in lines[1:]:
            n, eps_n, se = line.split(",")
            n, eps_n, se = int(n), float(eps_n), float(se)
            p_n = oracles.distilled_error(eps_hat, n)
            # se = eps_n / sqrt(errors): at least 25 of the ~150 targeted
            # errors must back each point for its se to mean anything
            if not 0.0 < se <= 0.2 * eps_n or abs(eps_n - p_n) > Z_MAX * se:
                found.append(f"slope point N={n}: {eps_n:.6g} +/- {se:.3g} vs {p_n:.6g}")
        return found


# ---------------------------------------------------------------------------
# fock_certification: truncated-Fock fidelity of displaced pairs
# ---------------------------------------------------------------------------

FOCK_ONE_MODE = 12
FOCK_TWO_MODE = 2
FOCK_CUTOFFS = {1: (40, 60), 2: (20,)}
FOCK_TOL = 1e-3  # |F - exp(-d^T gamma^-1 d)|
FOCK_SHIFT_TOL = 1e-5  # cutoff 40 -> 60
FOCK_TAIL_TOL = 1e-8


def one_mode_cov(rng):
    nu = 1.05 + rng.random() * 0.95
    s = math.exp((rng.random() - 0.5) * 0.4)
    phi = rng.random() * math.pi
    rot = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([nu * s * s, nu / (s * s)]) @ rot.T


def scaled_displacement(rng, dim, max_norm):
    d = rng.normal(size=dim)
    return d * (max_norm * rng.uniform(0.3, 1.0) / np.linalg.norm(d))


class FockCertification(Workload):
    def __init__(self, cv, seed, workdir):
        self.cv = cv
        rng = np.random.default_rng(seed)
        items = []
        for i in range(FOCK_ONE_MODE):
            items.append(self._item(f"1m[{i}]", one_mode_cov(rng), scaled_displacement(rng, 2, 1.0)))
        for i in range(FOCK_TWO_MODE):
            cov = bloch_messiah_cov(rng, 2, 0.12, 1.05, 1.35)
            items.append(self._item(f"2m[{i}]", cov, scaled_displacement(rng, 4, 0.5)))
        self.round_items = items
        self.warmup_items = items[:1]

    def _item(self, label, cov, d):
        plus = self.cv.GaussianState(cov, d)
        minus = self.cv.GaussianState(cov, -d)
        return Item(label, (plus, minus, FOCK_CUTOFFS[cov.shape[0] // 2], cov, d))

    def run(self, item):
        cv = self.cv
        plus, minus, cutoffs = item.args[:3]
        out = []
        for cutoff in cutoffs:
            rho_plus = cv.gaussian_to_fock(plus, cutoff)
            rho_minus = cv.gaussian_to_fock(minus, cutoff)
            tail = max(rho_plus.tail_mass, rho_minus.tail_mass)
            out.append((cutoff, cv.uhlmann_fidelity(rho_plus, rho_minus), tail))
        return out

    def problems(self, item, output):
        cov, d = item.args[3:]
        closed = oracles.displaced_pair_fidelity(cov, d)
        found = []
        for cutoff, fid, tail in output:
            if not abs(fid - closed) < FOCK_TOL:
                found.append(f"cutoff {cutoff}: F={fid:.9g} vs closed form {closed:.9g}")
            if not tail < FOCK_TAIL_TOL:
                found.append(f"cutoff {cutoff}: tail mass {tail:.3g}")
        if len(output) == 2 and not abs(output[1][1] - output[0][1]) < FOCK_SHIFT_TOL:
            found.append(f"cutoff shift {abs(output[1][1] - output[0][1]):.3g}")
        return found


WORKLOADS = {
    "region_sweep": RegionSweep,
    "state_analysis": StateAnalysis,
    "protocol_mc": ProtocolMC,
    "fock_certification": FockCertification,
}
