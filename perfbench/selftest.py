"""Fast self-tests of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Each workload's first item runs once against the library; its real output
must pass the checks, and corrupted copies of it must be judged wrong.
The tracer must restore every binding it replaces and leave out metrics of
functions that do not exist.  Takes a few seconds; exits 1 on a failure.
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cvprivacy  # noqa: E402
import cvprivacy.cli  # noqa: E402,F401

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK, WRONG  # noqa: E402

SEED = 7
WORKDIR = HERE / "out" / "selftest"


def build(name):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](cvprivacy, SEED, WORKDIR)


def judged(workload, item, output):
    return workload.judge(item, output, None)[0]


def test_region_sweep_corrupted_verdict():
    wl = build("region_sweep")
    item = wl.round_items[0]
    code, text = wl.run(item)
    assert judged(wl, item, (code, text)) == OK
    lines = text.splitlines()
    # flip the physical verdict of a cell far from the physical boundary
    row = next(
        i for i, line in enumerate(lines[1:], 1)
        if abs(oracles.symmetric_margins(*map(float, line.split(",")[:2]))[0]) > 0.1
    )
    fields = lines[row].split(",")
    fields[2] = str(1 - int(fields[2]))
    lines[row] = ",".join(fields)
    bad = "\n".join(lines) + "\n"
    assert judged(wl, item, (code, bad)) == WRONG
    assert judged(wl, item, (1, text)) == WRONG


def test_state_analysis_corrupted_report_and_chain():
    wl = build("state_analysis")
    item = next(i for i in wl.round_items if i.expect is None and not i.kept)
    report, pur, fid = wl.run(item)
    assert judged(wl, item, (report, pur, fid)) == OK
    flipped = dataclasses.replace(report, ppt=not report.ppt)
    assert judged(wl, item, (flipped, pur, fid)) == WRONG
    assert judged(wl, item, (report, pur, fid * (1.0 + 1e-6))) == WRONG
    shifted = dataclasses.replace(report, eps_ratio_exponent=report.eps_ratio_exponent * 1.01)
    assert judged(wl, item, (shifted, pur, fid)) == WRONG
    # an unphysical input that the library accepted
    unphysical = next(i for i in wl.round_items if i.expect == "Unphysical")
    assert wl.judge(unphysical, (report, pur, fid), None)[0] == WRONG
    # a kept input with a wrong output counts as failed, not wrong
    kept = next(i for i in wl.round_items if i.kept and i.label == "tms[r=1.0]")
    k_report, k_pur, k_fid = wl.run(kept)
    assert judged(wl, kept, (k_report, k_pur, k_fid)) == OK
    assert judged(wl, kept, (k_report, k_pur, k_fid * 0.5)) == FAILED


def test_protocol_mc_corrupted_estimates():
    wl = build("protocol_mc")
    item = wl.round_items[0]
    code, text = wl.run(item)
    assert judged(wl, item, (code, text)) == OK
    doc = json.loads(text)
    wrong_eps = dict(doc, eps_b_hat=doc["eps_b_hat"] + 0.02)
    assert judged(wl, item, (code, json.dumps(wrong_eps))) == WRONG
    csv_path = item.args[4]
    lines = csv_path.read_text().splitlines()
    n, eps_n, se = lines[-1].split(",")
    lines[-1] = f"{n},{float(eps_n) * 2.0:.8e},{se}"
    csv_path.write_text("\n".join(lines) + "\n")
    assert judged(wl, item, (code, text)) == WRONG


def test_fock_corrupted_fidelity():
    wl = build("fock_certification")
    item = wl.round_items[0]
    output = wl.run(item)
    assert judged(wl, item, output) == OK
    (c40, f40, t40), (c60, f60, t60) = output
    assert judged(wl, item, [(c40, f40 + 2e-3, t40), (c60, f60 + 2e-3, t60)]) == WRONG
    assert judged(wl, item, [(c40, f40, t40), (c60, f60 + 2e-5, t60)]) == WRONG
    assert judged(wl, item, [(c40, f40, 1e-6), (c60, f60, t60)]) == WRONG


def test_window_quadrature_limit():
    # as the window shrinks, the error odds tend to exp(-k_B x0^2)
    gx = [[2.0, 1.3], [1.3, 2.0]]
    k_b = 4 * 1.3 / (4.0 - 1.69)
    eps = oracles.window_error_rate(gx, 1.0, 1e-4)
    assert abs(eps / (1 - eps) - 2.718281828459045 ** -k_b) < 1e-7


def test_tracer_restores_bindings_and_skips_missing():
    original = cvprivacy.states.is_physical
    tracer = tracing.Tracer(cvprivacy)
    tracer.install()
    try:
        assert cvprivacy.security.is_physical is not original
        cvprivacy.analyze_state(cvprivacy.symmetric_state(2.0, 1.3, 1.3))
    finally:
        tracer.uninstall()
    assert cvprivacy.states.is_physical is original
    assert cvprivacy.security.is_physical is original
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["security.exponent_calls"] > 0
    assert metrics["simulate.sampling_calls"] == 0

    # a package without the simulate and fock layers
    pkg = types.ModuleType("fakepkg")
    pkg.analyze_state = cvprivacy.analyze_state
    fake = tracing.Tracer(pkg)
    fake.install()
    fake.uninstall()
    metrics = tracing.layer_metrics(fake, 1)
    assert "simulate.sampling_s" not in metrics
    assert "fock.fidelity_ms" not in metrics


def main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
