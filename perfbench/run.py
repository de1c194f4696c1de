"""worldhook benchmark: one world callout, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload device_callouts --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn. The program runs from
the checkout's ``src/`` tree; nothing is installed. Every reply is checked
against an oracle. The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``. Run files go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "retained_kb_per_req": "KB",
}
PER_LAYER = {
    "gateway.http_ms": "ms",
    "gateway.handle_us": "us",
    "gateway.handle_us.p95": "us",
    "gateway.dispatch_self_us": "us",
    "gateway.resolve_us": "us",
    "gateway.log_append_us": "us",
    "tunnel.is_active_us": "us",
    "envelope.decode_us": "us",
    "envelope.serialize_us": "us",
    "envelope.encode_us": "us",
    "envelope.parse_smarthome_us": "us",
    "devices.handle_us": "us",
    "smarthome.client_ms": "ms",
    "smarthome.dispatch_self_us": "us",
    "smarthome.cloud_call_ratio": "1",
    "world.post_ms": "ms",
    "world.call_self_us": "us",
    "world.limiter_us": "us",
    "world.drop_ratio": "1",
    "gateway.status_200": "count",
    "gateway.status_400": "count",
    "gateway.status_404": "count",
    "gateway.status_500": "count",
    "gateway.order_violations": "count",
    "trace.overhead_ratio": "1",
}


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform(), "network": "loopback (127.0.0.1) only"}


def run_one(name: str, args) -> dict:
    from workloads import WORKLOADS, Bench

    run_dir = ROOT / ".perfbench_run" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(ROOT, run_dir, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = WORKLOADS[name](bench)
    finally:
        bench.close()

    values, units = (outcome.layers, PER_LAYER) if args.trace else (outcome.e2e, END_TO_END)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}
    print(f"# {name}: seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    for reason in outcome.reasons:
        print(f"#   failure: {reason}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"#   {'failed_ratio':28s} {ratio:14.6f} 1")
    if not args.trace:
        print(f"#   {'gateway.order_violations':28s} {outcome.order_violations:14d} count")
        print(f"#   {'latency_samples':28s} {outcome.e2e_samples:14d} count")
    for metric, entry in metrics.items():
        print(f"#   {metric:28s} {entry['value']:14.6f} {entry['unit']}")
    return {"correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="worldhook end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("device_callouts", "smarthome_cloud", "world_replay", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "worldhook" / "__init__.py").is_file():
        print(f"error: no worldhook source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print("# machine: " + json.dumps(machine()))
    if args.workload != "all":
        result = run_one(args.workload, args)
    else:
        results = {name: run_one(name, args)
                   for name in ("device_callouts", "smarthome_cloud", "world_replay")}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
