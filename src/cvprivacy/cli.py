"""Command-line interface: security reports, region sweeps, Monte Carlo runs,
and oracle certification.

Exit codes: 0 success, 1 schema or certification failure, 2 unphysical
input state, 3 insufficient statistics.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, security, simulate
from .exceptions import (
    InsufficientStatistics,
    NoAcceptedSamples,
    StateSchemaError,
    Unphysical,
)
from .states import (
    BipartiteSplit,
    GaussianState,
    SymmetricStateParams,
    _resolve_x_coords,
    _symmetric_stack,
    is_nppt,
    make_symmetric_state,
    random_physical_state,
    state_from_json,
)
from .symplectic import TAU_LIN, block_inverse, pseudo_inverse, symplectic_form, williamson

SWEEP_COLUMNS = "lambda,c,physical,nppt,individual,collective"
# Cells per stack of 4 x 4 covariances; bounds the sweep's memory on any grid.
SWEEP_CHUNK = 4096
# The verdict columns of a row, indexed by how many are true: the verdicts
# nest (collective => individual => nppt => physical), so the count fixes them.
_SWEEP_FLAGS = ("0,0,0,0", "1,0,0,0", "1,1,0,0", "1,1,1,0", "1,1,1,1")


@dataclass(frozen=True)
class SweepSpec:
    """Grid parameters for the security-region sweep."""

    lambda_range: tuple
    c_range: tuple

    def __post_init__(self):
        for name, (lo, hi, steps) in (
            ("lambda_range", self.lambda_range),
            ("c_range", self.c_range),
        ):
            if steps < 2:
                raise ValueError(f"{name}: steps must be >= 2")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name}: bounds must be finite")
            if lo < 0 or hi <= lo:
                raise ValueError(f"{name}: need 0 <= min < max")


def sweep_rows(spec: SweepSpec):
    """Yield CSV rows of the sweep in row-major (lambda outer) order.

    Each cell gets the verdicts that ``analyze_state`` gives the symmetric
    state (lam, c, c); an unphysical cell is a row of zeros.  The grid is
    evaluated in stacks of at most ``SWEEP_CHUNK`` cells through the same
    kernels as ``analyze_state``, so the rows are the same bytes as a
    cell-by-cell loop while memory stays bounded on any grid.
    """
    l_lo, l_hi, l_steps = spec.lambda_range
    c_lo, c_hi, c_steps = spec.c_range
    lambdas = np.linspace(l_lo, l_hi, int(l_steps))
    cs = np.linspace(c_lo, c_hi, int(c_steps))
    lam_text = [f"{lam:.12g}," for lam in lambdas]
    c_text = [f"{c:.12g}," for c in cs]
    n_cells = len(lambdas) * len(cs)
    for start in range(0, n_cells, SWEEP_CHUNK):
        li, ci = np.divmod(np.arange(start, min(start + SWEEP_CHUNK, n_cells)), len(cs))
        cov, _, ok = _symmetric_stack(lambdas[li], cs[ci], cs[ci])
        flags = np.zeros((len(li), 4), dtype=bool)
        flags[ok] = security._report_stack(cov[ok], BipartiteSplit(1, 1))
        for i, j, count in zip(li.tolist(), ci.tolist(), flags.sum(axis=1).tolist()):
            yield lam_text[i] + c_text[j] + _SWEEP_FLAGS[count]


def render_sweep(spec: SweepSpec) -> str:
    """The sweep CSV: the header and every row of ``sweep_rows``, in chunked stacks."""
    return SWEEP_COLUMNS + "\n" + "\n".join(sweep_rows(spec)) + "\n"


def _load_state(path: str) -> GaussianState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def _parse_split(text: str) -> BipartiteSplit:
    try:
        n_a, n_b = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise StateSchemaError(f"--split: expected 'nA,nB', got {text!r}") from exc
    return BipartiteSplit(n_a, n_b)


def _parse_grid(text: str):
    try:
        lam_part, c_part = text.split(",")
        l_lo, l_hi, l_steps = lam_part.split(":")
        c_lo, c_hi, c_steps = c_part.split(":")
        return (float(l_lo), float(l_hi), int(l_steps)), (
            float(c_lo),
            float(c_hi),
            int(c_steps),
        )
    except ValueError as exc:
        raise StateSchemaError(
            f"--grid: expected 'lmin:lmax:steps,cmin:cmax:steps', got {text!r}"
        ) from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CVPRIVACY_SEED")
    return int(env) if env else 0


def cmd_analyze(args) -> int:
    state = _load_state(args.state)
    split = _parse_split(args.split) if args.split else None
    report = security.analyze_state(state, split=split)
    doc = report.to_dict()
    doc["eps_ratio_at_x0"] = math.exp(args.x0 ** 2 * report.eps_ratio_exponent)
    doc["fidelity_at_x0"] = math.exp(args.x0 ** 2 * report.fidelity_exponent)
    doc["x0"] = args.x0
    print(json.dumps(doc, indent=2))
    return 0


def cmd_sweep(args) -> int:
    lambda_range, c_range = _parse_grid(args.grid)
    text = render_sweep(SweepSpec(lambda_range, c_range))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    state = _load_state(args.state)
    coords = _resolve_x_coords(state, _parse_split(args.split) if args.split else None)
    cfg = simulate.ProtocolConfig(
        x0=args.x0,
        delta=args.delta,
        n_rounds=args.n_rounds,
        n_samples=args.samples,
        seed=_resolve_seed(args),
    )
    stage = simulate.sample_postselected_bits(state, cfg, coords)
    result = simulate.run_simulation(stage, cfg)
    text = json.dumps(result.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.slope_csv:
        fit = simulate.slope_check(stage, cfg, range(1, cfg.n_rounds + 1))
        with open(args.slope_csv, "w", encoding="utf-8") as fh:
            fh.write(fit.to_csv())
    return 0


def _oracle_checks(trials: int, cutoff: int, seed: int):
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, residual, tol):
        checks.append(
            {"check": name, "residual": residual, "tolerance": tol, "pass": residual < tol}
        )

    resid = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        cov = random_physical_state(rng, n).cov
        dec = williamson(cov)
        sig = symplectic_form(n)
        resid = max(resid, float(np.max(np.abs(dec.S @ sig @ dec.S.T - sig))))
        resid = max(
            resid, float(np.max(np.abs(dec.S @ cov @ dec.S.T - dec.normal_form())))
        )
    record("williamson_invariants", resid, TAU_LIN)

    resid = 0.0
    for _ in range(trials):
        cov = random_physical_state(rng, 2).cov
        tl, tr, bl, br = block_inverse(cov[:2, :2], cov[2:, 2:], cov[:2, 2:])
        direct = np.linalg.inv(cov)
        assembled = np.block([[tl, tr], [bl, br]])
        resid = max(resid, float(np.max(np.abs(assembled - direct))))
    record("block_inverse_vs_dense", resid, TAU_LIN)

    resid = 0.0
    proj = np.diag([1.0, 0.0])
    for _ in range(trials):
        M = proj @ random_physical_state(rng, 1).cov @ proj
        P = pseudo_inverse(M)
        resid = max(resid, float(np.max(np.abs(M @ P @ M - M))))
        resid = max(resid, float(np.max(np.abs(P @ M @ P - P))))
    record("pseudo_inverse_penrose", resid, TAU_LIN)

    resid_pure = 0.0
    resid_chain = 0.0
    from .symplectic import symplectic_eigenvalues

    for _ in range(trials):
        state = random_physical_state(rng, 2, nu_max=2.0, mixing=0.3)
        pur = security.purify(state)
        resid_pure = max(
            resid_pure,
            float(np.max(np.abs(symplectic_eigenvalues(pur.joint.cov) - 1.0))),
        )
        cond = security.eve_conditional_state(pur, x0=1.0)
        chain = security.gaussian_fidelity_equal_cov(
            cond.cov, cond.disp_plus, cond.disp_minus
        )
        closed = security.eve_fidelity(state, 1.0)
        resid_chain = max(resid_chain, abs(chain - closed))
    record("purification_purity", resid_pure, 1e-6)
    record("fidelity_chain_consistency", resid_chain, 1e-9)

    disagreements = 0
    for _ in range(trials * 10):
        lam = 1.0 + rng.random() * 3.0
        c_x = rng.random() * math.sqrt(lam * lam - 1.0)
        c_p = rng.random() * c_x
        try:
            state = make_symmetric_state(SymmetricStateParams(lam, c_x, c_p))
        except Unphysical:
            continue
        if abs((lam - c_x) * (lam - c_p) - 1.0) < 1e-6:
            continue
        split = BipartiteSplit(1, 1)
        if security.general_key_condition(state, split) != is_nppt(state, split):
            disagreements += 1
    record("key_condition_matches_nppt", float(disagreements), 1.0)

    resid = 0.0
    for _ in range(max(3, trials // 3)):
        nu = 1.05 + rng.random() * 0.9
        s = math.exp((rng.random() - 0.5) * 0.4)
        phi = rng.random() * math.pi
        R = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
        cov = R @ np.diag([nu * s * s, nu / (s * s)]) @ R.T
        d = rng.normal(size=2)
        d *= min(1.0, 1.0 / np.linalg.norm(d))
        plus = fock.gaussian_to_fock(GaussianState(cov, d), cutoff)
        minus = fock.gaussian_to_fock(GaussianState(cov, -d), cutoff)
        numeric = fock.uhlmann_fidelity(plus, minus)
        closed = float(np.exp(-d @ np.linalg.solve(cov, d)))
        resid = max(resid, abs(numeric - closed))
    record("fock_fidelity_certification", resid, 1e-3)

    return checks


def cmd_oracle(args) -> int:
    checks = _oracle_checks(args.trials, args.cutoff, _resolve_seed(args))
    doc = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    print(json.dumps(doc, indent=2))
    return 0 if doc["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvprivacy",
        description="Gaussian-state security analysis and protocol simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="security report for a state file")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--split", help="mode split as 'nA,nB' (default 1,1)")
    p.add_argument("--x0", type=float, default=1.0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="classify the symmetric family over a grid")
    p.add_argument(
        "--grid", required=True, help="'lmin:lmax:steps,cmin:cmax:steps'"
    )
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p.add_argument("--state", required=True)
    p.add_argument(
        "--split", help="mode split as 'nA,nB'; measures the first X on each side"
    )
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--n-rounds", type=int, default=1, dest="n_rounds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.add_argument(
        "--slope-csv",
        dest="slope_csv",
        help="also fit the distillation slope for N = 1..n_rounds and write CSV",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="run the certification suite")
    p.add_argument("--trials", type=int, default=15)
    p.add_argument("--cutoff", type=int, default=40)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateSchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Unphysical as exc:
        print(f"unphysical state: {exc}", file=sys.stderr)
        return 2
    except (InsufficientStatistics, NoAcceptedSamples) as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
