"""The benchmark's traced metrics still resolve against the library.

``perfbench/tracing.py`` maps per-layer metrics to exported functions and
drops a metric whose function is gone; a non-finite value would make its
result line invalid JSON.  Files under ``perfbench/`` are only read.
"""

import json
from pathlib import Path

import pytest

import cvprivacy
import cvprivacy.cli  # noqa: F401  (binds cli.main for the tracer)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Per-layer metrics that run.py computes itself rather than from spans.
RUN_METRICS = {"setup.import_s", "setup.inputs_s", "trace.overhead_pct"}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import tracing
        import workloads

        declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        yield tracing, workloads, {m["name"] for m in declared["per_layer"]}


def test_every_traced_function_is_exported(bench):
    tracing, _, _ = bench
    found = tracing.public_functions(cvprivacy)
    mapped = [fn for fns in tracing.CALLS_PER_ITEM.values() for fn in fns]
    mapped += list(tracing.MEDIAN_CALL_MS.values()) + [tracing.SAMPLING, tracing.DISTILL]
    assert sorted({name.split("[", 1)[0] for name in mapped} - set(found)) == []
    layers = {name.split(".", 1)[0] for name in found}
    assert set(tracing.SELF_MS_PER_ITEM.values()) <= layers


def test_traced_sweep_round_reports_every_metric_finite(bench, tmp_path):
    tracing, workloads, declared = bench
    workload = workloads.WORKLOADS["region_sweep"](cvprivacy, 1, tmp_path)
    tracer = tracing.Tracer(cvprivacy)
    tracer.install()
    try:
        outputs = [workload.run(item) for item in workload.round_items]
    finally:
        tracer.uninstall()
    for item, output in zip(workload.round_items, outputs):
        assert workload.judge(item, output, None) == (workloads.OK, "")
    metrics = tracing.layer_metrics(tracer, len(outputs))
    assert sorted(declared - RUN_METRICS - set(metrics)) == []
    json.dumps(metrics, allow_nan=False)
    # the sweep evaluates its cells in stacks, not one public call per cell
    assert metrics["states.is_nppt_calls"] == 0
    assert metrics["symplectic.spectrum_calls"] == 0
    assert metrics["cli.sweep_ms"] > 0
