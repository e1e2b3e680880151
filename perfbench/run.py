"""cvprivacy benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
this checkout; nothing needs installing.  Each run starts WORKERS worker
processes one after another, each with an equal share of the seconds, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names and
units come from BENCHMARK.json.  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Worker processes per run: set-up is measured once per process and
# reported as the median, and the timed rounds are spread over processes.
WORKERS = 3
# BLAS/OpenMP threads per worker, at most nproc.  One thread keeps the
# small dense kernels free of thread start-up outliers.
THREADS = "1"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(args, index, budget):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", str(args.trace),
        "--index", str(index), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=budget + 90)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results):
    walls = [w for r in results for w in r["walls"]]
    items_ms = [t * 1e3 for r in results for t in r["item_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(items_ms),
        "item_p90_ms": percentile(items_ms, 90),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def per_layer(results):
    out = {
        "setup.import_s": statistics.median(r["import_s"] for r in results),
        "setup.inputs_s": statistics.median(r["inputs_s"] for r in results),
    }
    names = set.intersection(*(set(r["layers"]) for r in results))
    for name in names:
        out[name] = statistics.median(r["layers"][name] for r in results)
    plain = statistics.median(w for r in results for w in r["walls"])
    traced = statistics.median(w for r in results for w in r["traced_walls"])
    out["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return out


def main(argv=None):
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvprivacy" / "__init__.py").is_file():
        print(f"no cvprivacy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = [run_worker(args, k, args.seconds / WORKERS) for k in range(WORKERS)]
    for r in results:
        for message in r["messages"]:
            print(message, file=sys.stderr)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(results) if args.trace else end_to_end(results)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
