#!/usr/bin/env python
"""Engine dispatch benchmark: measure, emit BENCH_engine.json, gate.

Usage::

    python scripts/bench_engine.py [--out BENCH_engine.json]
        [--baseline benchmarks/BENCH_engine_baseline.json]
        [--rounds 5] [--no-gate]

Times the three engine workloads from ``benchmarks/test_bench_micro.py``
(serial chain dispatch, tombstone-heavy cancel/reschedule, mixed
near/far horizon) on both the production engine (``repro.sim.engine``)
and the seed heap oracle (``tests/sim/heap_engine.HeapEngine``),
interleaved min-of-N in one process.

The emitted JSON records absolute events/sec for the log, but the
regression gate compares **engine/oracle speed ratios** against the
checked-in baseline: CI runners swing +/-30% in absolute wall-clock
between jobs, while the interleaved ratio is steadier (on a shared
2-CPU box the chain ratio still spread 1.06-2.53x over 20 runs).  The
gate fails when any workload's ratio drops more than 20% below its
baseline ratio; the baseline's comment says how it was set.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.sim.engine import Engine  # noqa: E402
from tests.sim.heap_engine import HeapEngine  # noqa: E402

#: Gate: fail when a workload ratio falls below baseline_ratio * (1 - this).
REGRESSION_BUDGET = 0.20


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_micro", REPO_ROOT / "benchmarks" / "test_bench_micro.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        "chain_dispatch": (module._chain_dispatch, module.N_EVENTS + 1),
        "tombstone_churn": (module._tombstone_churn, module.N_PACKETS + 1),
        "mixed_horizon": (
            module._mixed_horizon,
            module.N_PACKETS + module.N_PACKETS // 8 + 1,
        ),
    }


def measure(rounds: int) -> dict:
    results = {}
    for name, (workload, expected_events) in _load_workloads().items():
        engine = oracle = float("inf")
        events = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            events = workload(Engine)
            engine = min(engine, time.perf_counter() - t0)
            t0 = time.perf_counter()
            oracle_events = workload(HeapEngine)
            oracle = min(oracle, time.perf_counter() - t0)
        if events != expected_events or oracle_events != expected_events:
            raise SystemExit(
                f"{name}: executed {events}/{oracle_events} events, "
                f"expected {expected_events} -- workload changed shape?"
            )
        results[name] = {
            "events": events,
            "engine_seconds": round(engine, 6),
            "oracle_seconds": round(oracle, 6),
            "engine_events_per_sec": round(events / engine),
            "oracle_events_per_sec": round(events / oracle),
            "ratio_engine_over_oracle": round(oracle / engine, 4),
        }
    return results


def gate(results: dict, baseline: dict) -> list:
    failures = []
    for name, entry in baseline["workloads"].items():
        if name not in results:
            failures.append(f"workload {name!r} in baseline but not measured")
            continue
        floor = entry["ratio_engine_over_oracle"] * (1.0 - REGRESSION_BUDGET)
        measured = results[name]["ratio_engine_over_oracle"]
        if measured < floor:
            failures.append(
                f"{name}: engine/oracle ratio {measured:.2f} fell below "
                f"{floor:.2f} (baseline {entry['ratio_engine_over_oracle']:.2f} "
                f"- {REGRESSION_BUDGET:.0%} budget)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "benchmarks" / "BENCH_engine_baseline.json"),
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="measure and emit only (used to regenerate the baseline)",
    )
    args = parser.parse_args(argv)

    results = measure(args.rounds)
    doc = {
        "schema": 1,
        "python": sys.version.split()[0],
        "rounds": args.rounds,
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")

    for name, entry in results.items():
        print(
            f"{name:>16}: engine {entry['engine_events_per_sec'] / 1e6:6.2f} M ev/s  "
            f"oracle {entry['oracle_events_per_sec'] / 1e6:6.2f} M ev/s  "
            f"ratio {entry['ratio_engine_over_oracle']:.2f}x"
        )

    if args.no_gate:
        return 0
    with open(args.baseline, "r", encoding="utf-8") as fp:
        baseline = json.load(fp)
    failures = gate(results, baseline)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
