import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvprivacy
from cvprivacy import (
    ProtocolConfig,
    sample_postselected_bits,
    slope_check,
    state_to_json,
    symmetric_state,
    tensor,
    vacuum_state,
)
from cvprivacy import cli
from cvprivacy.cli import main
from families import anticorrelated_tms, locally_squeezed_states, reorder_modes


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(state_to_json(state))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_vacuum(tmp_path, capsys):
    path = write_state(tmp_path, "vac.json", vacuum_state(2))
    code, out, _ = run_cli(capsys, "analyze", "--state", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt"] is True
    assert doc["individual_secure"] is False
    assert doc["collective_secure"] is False


def test_analyze_individual_only_state(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    code, out, _ = run_cli(capsys, "analyze", "--state", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["individual_secure"] is True
    assert doc["collective_secure"] is False


def test_analyze_collective_state(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.3, 1.3))
    code, out, _ = run_cli(capsys, "analyze", "--state", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["collective_secure"] is True


def test_analyze_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_modes": 2, "cov": [[1, 0], [0, 1]], "disp": [0, 0, 0, 0]}')
    code, _, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 1
    assert "cov" in err


def test_analyze_unphysical_exit_code(tmp_path, capsys):
    doc = {
        "n_modes": 2,
        "cov": (0.5 * np.eye(4)).tolist(),
        "disp": [0.0, 0.0, 0.0, 0.0],
    }
    path = tmp_path / "unphys.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 2
    assert "unphysical" in err.lower()


def test_import_and_analyze_leave_scipy_unloaded(tmp_path):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.3, 1.3))
    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    code = (
        "import contextlib, io, sys, cvprivacy, cvprivacy.cli\n"
        "scipy_loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "print(scipy_loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cvprivacy.cli.main(['analyze', '--state', {path!r}])\n"
        "print(code, scipy_loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


def test_two_mode_fock_pair_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    code = (
        "import sys, numpy as np, cvprivacy as cv\n"
        "cov = cv.two_mode_squeezed(0.2).cov\n"
        "d = np.array([0.3, -0.1, 0.2, 0.1])\n"
        "plus = cv.gaussian_to_fock(cv.GaussianState(cov, d), 20)\n"
        "minus = cv.gaussian_to_fock(cv.GaussianState(cov, -d), 20)\n"
        "closed = np.exp(-d @ np.linalg.solve(cov, d))\n"
        "print(abs(cv.uhlmann_fidelity(plus, minus) - closed) < 1e-9)\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_analyze_non_finite_state_exits_1_without_traceback(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"n_modes": 1, "cov": [[1, 0], [0, NaN]], "disp": [0, 0]}')
    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cvprivacy.cli", "analyze", "--state", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "cov[1][1]" in proc.stderr
    assert "Traceback" not in proc.stderr


def _cli_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "cvprivacy.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_library_errors_exit_1_without_traceback(tmp_path):
    # a cutoff too low for the oracle's states (TailTooHeavy), and a
    # physical state whose covariance is singular to working precision
    # (NumericalFailure)
    proc = _cli_subprocess("oracle", "--trials", "1", "--cutoff", "3")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tail mass")
    assert "Traceback" not in proc.stderr
    _, state, split = next(
        item for item in locally_squeezed_states(seed=12, trials=635) if item[0] == 634
    )
    path = write_state(tmp_path, "s.json", state)
    proc = _cli_subprocess("analyze", "--state", path, "--split", f"{split.n_a},{split.n_b}")
    assert proc.returncode == 1
    assert "condition number" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("r", [2.5, 3.0])
def test_analyze_anticorrelated_squeezing_writes_strict_json(tmp_path, r):
    path = write_state(tmp_path, "s.json", anticorrelated_tms(r))
    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cvprivacy.cli", "analyze", "--state", path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    doc = json.loads(proc.stdout, parse_constant=reject)
    assert math.isfinite(doc["key_rate_estimate"])
    # the error odds exp(4 sinh(2r)) exceed the float range at r = 3
    assert (doc["eps_ratio_at_x0"] is None) == (r == 3.0)


def test_analyze_one_mode_state_exits_1(tmp_path, capsys):
    path = write_state(tmp_path, "one.json", vacuum_state(1))
    code, _, err = run_cli(capsys, "analyze", "--state", path)
    assert code == 1
    assert err == "error: a one-mode state has no bipartite split\n"


def test_sweep_columns_and_nesting(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "1:4:40,0:3.9:40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,c,physical,nppt,individual,collective"
    assert len(lines) == 1 + 40 * 40
    for line in lines[1:]:
        _, _, phys, nppt, ind, coll = line.split(",")
        assert int(coll) <= int(ind) <= int(nppt) <= int(phys)


def test_sweep_boundaries_on_coarse_grid(capsys):
    # lambda grid 1:4:31 lands on 2.0 exactly
    code, out, _ = run_cli(capsys, "sweep", "--grid", "1:4:31,0:3.9:80")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    rows = [r for r in rows if float(r[0]) == 2.0]
    assert len(rows) == 80
    cs = np.array([float(r[1]) for r in rows])
    phys = np.array([int(r[2]) for r in rows])
    nppt = np.array([int(r[3]) for r in rows])
    spacing = cs[1] - cs[0]
    c_phys = cs[phys == 1].max()
    assert abs(c_phys - np.sqrt(3.0)) <= spacing
    c_ent = cs[nppt == 1].min()
    assert abs(c_ent - 1.0) <= spacing


def test_sweep_grid_parse_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid", "nonsense")
    assert code == 1
    assert "grid" in err


def test_simulate_deterministic_output(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    args = ("simulate", "--state", path, "--samples", "200000", "--seed", "7",
            "--delta", "0.05")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc["seed"] == 7
    assert 0.0 <= doc["eps_b_hat"] <= 1.0


SLOPE_ARGS = ("--samples", "400000", "--delta", "0.05", "--n-rounds", "3", "--seed", "9")


def test_simulate_samples_once(tmp_path, capsys, monkeypatch):
    # the distillation pass and the slope fit share one sampling stage
    calls = []
    real = cvprivacy.sample_postselected_bits
    for name, module in list(sys.modules.items()):
        if name.startswith("cvprivacy.") and hasattr(module, "sample_postselected_bits"):
            monkeypatch.setattr(
                module,
                "sample_postselected_bits",
                lambda *a, **k: calls.append(a) or real(*a, **k),
            )
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    csv = tmp_path / "slope.csv"
    code, _, _ = run_cli(capsys, "simulate", "--state", path, *SLOPE_ARGS,
                         "--slope-csv", str(csv))
    assert code == 0
    assert csv.exists()
    assert len(calls) == 1


def test_simulate_slope_csv_seeded_and_equal_to_library(tmp_path, capsys):
    state = symmetric_state(2.0, 1.2, 1.2)
    path = write_state(tmp_path, "s.json", state)
    texts = []
    for name in ("a.csv", "b.csv"):
        csv = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", "--state", path, *SLOPE_ARGS,
                             "--slope-csv", str(csv))
        assert code == 0
        texts.append(csv.read_bytes())
    assert texts[0] == texts[1]
    cfg = ProtocolConfig(x0=1.0, delta=0.05, n_rounds=3, n_samples=400_000, seed=9)
    fit = slope_check(sample_postselected_bits(state, cfg), range(1, 4))
    assert texts[0].decode("utf-8") == fit.to_csv()


def test_seeded_simulate_bytes_pinned(tmp_path, capsys):
    # the README's simulate example; pinned like the sweep CSV in test_sweep.py
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    csv = tmp_path / "slope.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--state", path, "--split", "1,1", "--x0", "1", "--delta", "0.01",
        "--samples", "10000000", "--seed", "1", "--n-rounds", "4", "--slope-csv", str(csv),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6bf45b3b76acf87313b594b34e303042f8041ac08f6bbcd65305194600824240"
    )
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "94a555590c36ea266af8c467368e7972ecb2373a8827f3bdc542c13420182406"
    )


@pytest.mark.parametrize(
    "state, digest",
    [
        (symmetric_state(2.0, 1.2, 1.2),
         "a9869516b9db16cfd7a1a58fb62caee66acff3c2591a960947f707208da02372"),
        # exp(807) odds for Bob's error: the report is formed without overflow
        (anticorrelated_tms(3.0),
         "6602bb05c9ea34ee00d17409e006a5c2105178a3bd58581f8e0ff94f09291095"),
    ],
    ids=["symmetric", "anticorrelated_r3"],
)
def test_analyze_bytes_pinned(tmp_path, capsys, state, digest):
    path = write_state(tmp_path, "s.json", state)
    code, out, _ = run_cli(capsys, "analyze", "--state", path, "--split", "1,1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_split_measures_what_analyze_analyzes(tmp_path, capsys):
    # the pair sits on modes 0 and 2, vacuum on mode 1; split 2+1 measures
    # the X quadratures of modes 0 and 2 in both commands
    pair = symmetric_state(2.0, 1.3, 1.3)
    state = reorder_modes(tensor(pair, vacuum_state(1)), [0, 2, 1])
    path = write_state(tmp_path, "s.json", state)
    code, out, _ = run_cli(capsys, "analyze", "--state", path, "--split", "2,1")
    assert code == 0
    ratio = json.loads(out)["eps_ratio_at_x0"]
    eps_analytic = ratio / (1.0 + ratio)
    code, out, _ = run_cli(
        capsys, "simulate", "--state", path, "--split", "2,1", "--samples", "2000000",
        "--delta", "0.05", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["eps_b_hat"] - eps_analytic) < 4 * doc["eps_b_se"]


def test_simulate_insufficient_statistics_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CVPRIVACY_SEED", raising=False)
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    code, _, err = run_cli(
        capsys, "simulate", "--state", path, "--x0", "9.0", "--delta", "0.001",
        "--samples", "10000",
    )
    assert code == 3
    assert "insufficient" in err.lower()


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that strict JSON lacks."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_simulate_without_distilled_blocks_is_strict_json(tmp_path, capsys):
    # ~230 accepted pairs give 5 blocks of 40, and a block of 40 pairs at
    # an error rate near 0.2 is all-agreeing with probability ~1e-4
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    args = ("simulate", "--state", path, "--samples", "1000", "--n-rounds", "40",
            "--seed", "3", "--delta", "0.5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = _strict_json(out)
    assert doc["distilled_blocks"] == 0
    assert doc["eps_bn_hat"] is None and doc["eps_bn_se"] is None
    out_path = tmp_path / "sim.json"
    code, _, _ = run_cli(capsys, *args, "--out", str(out_path))
    assert code == 0
    assert _strict_json(out_path.read_text()) == doc


def test_simulate_fewer_pairs_than_one_block_exit_code(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    code, out, err = run_cli(
        capsys, "simulate", "--state", path, "--samples", "1000", "--n-rounds", "500",
        "--delta", "0.5", "--seed", "3",
    )
    assert code == 3
    assert out == ""
    assert "insufficient" in err.lower() and "block" in err


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    monkeypatch.setenv("CVPRIVACY_SEED", "11")
    code, out, _ = run_cli(
        capsys, "simulate", "--state", path, "--samples", "100000", "--delta", "0.05"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_oracle_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--trials", "5", "--cutoff", "30", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    for check in doc["checks"]:
        assert check["pass"], check


def test_parser_is_built_once_and_behaves_like_fresh_processes(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "s.json", symmetric_state(2.0, 1.2, 1.2))
    commands = [
        ["sweep", "--x0", "1"],  # usage error: argparse exits with code 2
        ["sweep", "--grid", "1:4:5,0:3.9:5"],
        ["analyze", "--state", path],
        ["simulate", "--state", path, "--samples", "20000", "--seed", "3", "--delta", "0.05"],
    ]
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    in_process = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    cli._parser.cache_clear()
    assert len(builds) == 1
    assert [r[0] for r in in_process] == [2, 0, 0, 0]

    env = dict(os.environ, PYTHONPATH=str(Path(cvprivacy.__file__).resolve().parents[1]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "cvprivacy.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in commands
    ]
    for proc, expected in zip(procs, in_process):
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == expected
