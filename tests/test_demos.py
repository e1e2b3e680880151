import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # the warning filter that pyproject.toml sets for the test suite
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_protocol_monte_carlo_demo_runs():
    assert "fitted slope" in run_demo("protocol_monte_carlo.py")


def test_fock_certification_demo_runs():
    assert "vacuum sanity" in run_demo("fock_certification.py")


def test_states_and_entanglement_demo_runs():
    out = run_demo("states_and_entanglement.py")
    assert "partial-transpose symplectic floor: 0.8000  -> NPPT: True" in out
    assert "partial-transpose symplectic floor: 1.1000  -> NPPT: False" in out


def test_transformations_and_homodyne_demo_runs():
    out = run_demo("transformations_and_homodyne.py")
    assert "displacement: [0.6 0. ]" in out
    assert "same covariance at X = -2.4: True" in out


def test_security_region_demo_runs(tmp_path):
    csv = tmp_path / "region.csv"
    out = run_demo("security_region.py", str(csv))
    assert " 2.00     1.73205      1.00000        1.21076" in out
    assert csv.read_text().startswith("lambda,c,physical,nppt,individual,collective\n")
