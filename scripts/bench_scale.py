#!/usr/bin/env python
"""512-endpoint scale smoke: measure, emit BENCH_scale.json, gate.

Usage::

    python scripts/bench_scale.py [--out BENCH_scale.json] [--no-gate]
        [--warmup-us 10] [--measure-us 20]

Runs the ``scale512`` preset (32 leaves x 16 hosts, 16 spines -- 4x the
paper's fabric) twice: once plain for an honest events/sec figure, and
once under ``tracemalloc`` for peak and end-of-run live bytes.  The plain
run's wall time is split into ``setup_seconds`` (topology, fabric and
traffic-mix construction: the plain wall minus the run phase that
``RunSummary.wall_seconds`` times) and ``run_seconds``; besides the
gated ``events_per_sec`` over the whole plain run, ``run_events_per_sec``
is the rate of the run phase alone.  This is
the runtime counterpart of the SIM5xx scale-soundness lint pass: the
lint proves no per-class container grows without bound, the benchmark
proves the whole assembled fabric's footprint and throughput stay
inside fixed budgets at 512 endpoints.

Gates (absolute, generous headroom -- this is a smoke, not a perf
race):

* peak tracemalloc bytes  <= PEAK_BYTES_CEILING.  Peak is dominated by
  deterministic setup (route precompute, per-port VOQ tables), so it is
  stable across runners in a way wall-clock is not.
* end-of-run live bytes   <= LIVE_BYTES_CEILING.  The leak gate: after
  the engine drains, only the collectors' aggregates may remain.  An
  unbounded container that survives the run shows up here first.
* plain-run events/sec    >= EVENTS_PER_SEC_FLOOR.  Events over the
  whole plain wall, set-up included.  Set ~5x below the measured rate
  so only a pathological slowdown (e.g. an accidental O(n) hot-path
  membership scan) trips it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec.summary import execute_config  # noqa: E402
from repro.experiments.config import (  # noqa: E402
    ExperimentConfig,
    scaled_video_mix,
)
from repro.sim import units  # noqa: E402

#: ~400 MB measured at the default window; +50% headroom.
PEAK_BYTES_CEILING = 600 * 1024 * 1024
#: ~0.8 MB measured live after the run; an order of magnitude headroom.
LIVE_BYTES_CEILING = 8 * 1024 * 1024
#: ~23k ev/s measured on a plain run; only a pathology goes below this.
EVENTS_PER_SEC_FLOOR = 4000


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        architecture="advanced-2vc",
        load=1.0,
        topology="scale512",
        warmup_ns=round(args.warmup_us * units.US),
        measure_ns=round(args.measure_us * units.US),
        mix=scaled_video_mix(1.0, 0.02),
        seed=1,
    )


def measure(args: argparse.Namespace) -> dict:
    config = _config(args)

    t0 = time.perf_counter()
    plain = execute_config(config)
    plain_wall = time.perf_counter() - t0

    tracemalloc.start()
    t0 = time.perf_counter()
    traced = execute_config(config)
    traced_wall = time.perf_counter() - t0
    # The fabric's object graph has cycles; collect them so live bytes
    # measure what is genuinely retained, not what awaits the next GC.
    gc.collect()
    live_bytes, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    if traced.events_executed != plain.events_executed:
        raise SystemExit(
            f"traced run executed {traced.events_executed} events, plain "
            f"{plain.events_executed} -- determinism broke"
        )
    return {
        "endpoints": 512,
        "events": plain.events_executed,
        "plain_seconds": round(plain_wall, 3),
        "setup_seconds": round(plain_wall - plain.wall_seconds, 3),
        "run_seconds": round(plain.wall_seconds, 3),
        "events_per_sec": round(plain.events_executed / plain_wall),
        "run_events_per_sec": round(plain.events_executed / plain.wall_seconds),
        "traced_seconds": round(traced_wall, 3),
        "peak_tracemalloc_bytes": peak_bytes,
        "live_bytes_after_run": live_bytes,
        "bytes_per_event_peak": round(peak_bytes / plain.events_executed, 1),
    }


def gate(results: dict) -> list:
    failures = []
    if results["peak_tracemalloc_bytes"] > PEAK_BYTES_CEILING:
        failures.append(
            f"peak {results['peak_tracemalloc_bytes']:,} bytes exceeds the "
            f"{PEAK_BYTES_CEILING:,} ceiling"
        )
    if results["live_bytes_after_run"] > LIVE_BYTES_CEILING:
        failures.append(
            f"live {results['live_bytes_after_run']:,} bytes after the run "
            f"exceeds the {LIVE_BYTES_CEILING:,} ceiling -- a container "
            "outlived the engine"
        )
    if results["events_per_sec"] < EVENTS_PER_SEC_FLOOR:
        failures.append(
            f"{results['events_per_sec']:,} events/sec fell below the "
            f"{EVENTS_PER_SEC_FLOOR:,} floor"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--warmup-us", type=float, default=10.0)
    parser.add_argument("--measure-us", type=float, default=20.0)
    parser.add_argument(
        "--no-gate", action="store_true", help="measure and emit only"
    )
    args = parser.parse_args(argv)

    results = measure(args)
    doc = {
        "schema": 1,
        "python": sys.version.split()[0],
        "topology": "scale512",
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")

    print(
        f"scale512: {results['events']:,} events at "
        f"{results['events_per_sec']:,} ev/s ({results['setup_seconds']:.1f} s "
        f"set-up, then {results['run_events_per_sec']:,} ev/s in the run phase); peak "
        f"{results['peak_tracemalloc_bytes'] / 1e6:.0f} MB, live "
        f"{results['live_bytes_after_run'] / 1e6:.2f} MB after the run"
    )

    if args.no_gate:
        return 0
    failures = gate(results)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
