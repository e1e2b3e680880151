"""One workload process: set-up, untimed warm-up, timed rounds, checks.

``run.py`` starts this script with the BLAS/OpenMP thread count already
pinned in the environment.  It prints one JSON object as its last line.

A round runs the workload's fixed item list once; rounds repeat until the
time budget is spent.  Outputs are checked after each round, outside the
timed region.  With ``--trace 1`` every second round runs with the tracer
installed, so traced and untraced round times come from the same process.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="worker number")
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() just before this process was started",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cvprivacy
    import cvprivacy.cli  # noqa: F401  (binds cvprivacy.cli for the workloads)

    source = Path(cvprivacy.__file__).resolve().parent
    if source != ROOT / "src" / "cvprivacy":
        print(f"cvprivacy imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    t_imported = time.monotonic()
    workdir = HERE / "out" / f"{args.workload}_w{args.index}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](cvprivacy, args.seed, workdir)
    t_inputs = time.monotonic()
    for item in workload.warmup_items:
        try:
            workload.run(item)
        except Exception:  # warm-up outcomes are judged in the timed rounds
            pass
    t_ready = time.monotonic()

    tracer = tracing.Tracer(cvprivacy) if args.trace else None
    walls, traced_walls, item_s = [], [], []
    counts = {workloads.OK: 0, workloads.FAILED: 0, workloads.WRONG: 0}
    messages = []
    traced_items = 0
    start = time.monotonic()
    rounds = 0
    min_rounds = 2 if tracer else 1
    while rounds < min_rounds or time.monotonic() - start < args.budget:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        outputs = []
        t_round = time.perf_counter()
        for item in workload.round_items:
            t_item = time.perf_counter()
            try:
                output, error = workload.run(item), None
            except Exception as exc:  # judged below: expected, or a failure
                output, error = None, exc
            outputs.append((time.perf_counter() - t_item, item, output, error))
        wall = time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            traced_items += len(outputs)
        else:
            walls.append(wall)
            item_s.extend(o[0] for o in outputs)
        for _, item, output, error in outputs:
            try:
                status, message = workload.judge(item, output, error)
            except Exception as exc:  # a malformed output the checks could not read
                status, message = workloads.WRONG, f"{item.label}: unreadable output: {exc!r}"
            counts[status] += 1
            if message and len(messages) < 5:
                messages.append(message)
        rounds += 1

    result = {
        "setup_s": t_ready - args.spawned_at,
        "import_s": t_imported - args.spawned_at,
        "inputs_s": t_inputs - t_imported,
        "walls": walls,
        "item_s": item_s,
        "attempted": sum(counts.values()),
        "failed": counts[workloads.FAILED],
        "wrong": counts[workloads.WRONG],
        "messages": messages,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["layers"] = tracing.layer_metrics(tracer, traced_items)
        tracer.save(workdir / "trace.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
