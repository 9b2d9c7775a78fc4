"""The simulator benchmark: one workload, timed from outside, outputs checked.

    python3 perfbench/run.py --workload small-steady --seed 1 --seconds 30 --trace 0

Each run of the workload is a fresh ``child.py`` process, one at a time
(no pool), for ``--seconds`` of wall time and at least ``MIN_RUNS`` runs.

- ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
  medians of ``run_s`` and ``peak_rss_mb`` over the untraced runs, and of
  ``setup_s`` over their set-ups and the extra set-ups each one samples.
  ``run_s`` and ``setup_s`` are scaled to the reference host speed: each
  run's times are multiplied by the host speed its ``calibrate.Sampler``
  measured during its simulation, and the medians are taken over the
  scaled times (``calibrate.py`` says why).
- ``--trace 1`` reports the per-layer metrics: it alternates untraced and
  traced runs and takes the medians of each.  The untraced runs give the
  denominators of ``engine.events_per_s`` and ``trace.overhead_ratio``,
  and the unscaled ``run.wall_s`` and ``calibration.speed`` behind the
  scaled ``run_s``.  Per-layer times are not scaled.

Run ``i`` simulates seed ``sim_seed(--seed, i)``: the benchmark seed picks
a group of ``SEEDS_PER_RUN`` simulation seeds, so that the median is taken
over several inputs and does not hang on one seed's traffic bursts.  Every
simulation seed has a digest of its simulated outputs recorded in
``references.json``.  A run fails if its process fails or if its digest
differs from that reference, or if there is none.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"

#: Fewest runs a benchmark run makes, however short ``--seconds`` is.
MIN_RUNS = 3
#: A run that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 45.0
#: No run starts that would be expected to end after this much wall time,
#: so a benchmark run ends within three minutes even on a slow box.
HARD_LIMIT_S = 120.0
#: Simulation seeds per benchmark seed, and simulation seeds with a
#: recorded reference digest: benchmark seeds 0 to 7 cover them all, and
#: a larger benchmark seed reuses the group of its remainder.
SEEDS_PER_RUN = 8
REFERENCE_SEEDS = 64


def check_checkout() -> None:
    """Exit non-zero, printing no result, when the simulator is not here."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro" / "experiments" / "runner.py", SPEC)
        if not path.is_file()
    ]
    if missing:
        print(f"perfbench: missing from the checkout: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit of the mode's metrics, from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def sim_seed(seed: int, index: int) -> int:
    """The simulation seed of run ``index`` of a benchmark run at ``seed``."""
    return (seed * SEEDS_PER_RUN + index % SEEDS_PER_RUN) % REFERENCE_SEEDS


def reference_digests(workload: str) -> Dict[str, str]:
    """Simulation seed (as a string) -> recorded digest of the workload."""
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())["digests"].get(workload, {})


def run_child(workload: str, seed: int, traced: bool) -> Optional[dict]:
    """One run in a fresh process; None if it failed to produce a result."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} run failed:\n{proc.stderr}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: {workload} run printed no result", file=sys.stderr)
        return None


#: Layer split label -> the self-time metric behind it.
SPLIT = {
    "open_flow": "fabric.open_flow_self_s",
    "routing": "routing.self_s",
    "admission": "admission.self_s",
    "traffic": "traffic.self_s",
    "host submit": "host.submit_self_s",
    "host rx": "host.rx_self_s",
    "switch": "switch.self_s",
    "arbiter": "arbiter.self_s",
    "link": "link.self_s",
    "engine": "engine.self_s",
    "stats": "stats.self_s",
    "obs tracer": "obs.tracer_self_s",
}


def layer_split(layers: Dict[str, float], run_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced ``run_s``.  "other"
    is the rest: run-phase work outside ``Engine.run`` and probe overhead
    outside the spans."""
    split = {label: layers[key] / run_s for label, key in SPLIT.items()}
    split["unattributed"] = layers["trace.unattributed_share"] * layers["engine.run_s"] / run_s
    split["other"] = 1.0 - sum(split.values())
    return split


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for ``seconds``; the result dict ``main`` prints,
    plus ``sim`` (simulated per-class results of the first run, whose
    simulation seed is ``sim_seed``) and, traced, ``split``.  Traced run
    ``i`` simulates the same seed as untraced run ``i``."""
    references = reference_digests(workload)
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        runs = traced if want_traced else untraced
        simulated = sim_seed(seed, len(runs))
        expected = references.get(str(simulated))
        attempted += 1
        out = run_child(workload, simulated, want_traced)
        if out is None or out["digest"] != expected:
            failed += 1
        if out is not None:
            if out["digest"] != expected:
                print(
                    f"perfbench: {workload} simulation seed {simulated}: digest "
                    f"{out['digest']} != reference {expected}",
                    file=sys.stderr,
                )
            # A run with wrong outputs still took its time: it is timed, and
            # counted as failed.
            runs.append(out)
            print(
                f"perfbench: {workload} simulation seed {simulated}"
                f"{' traced' if want_traced else ''}: run_s {out['run_s']:.4f}"
                + (f", host speed {out['speed']:.4f}" if out["speed"] else ""),
                file=sys.stderr,
            )
        elapsed = time.perf_counter() - started
        per_run = elapsed / attempted
        enough = attempted >= MIN_RUNS and (not trace or traced)
        if (enough and elapsed + per_run > seconds) or elapsed + per_run > HARD_LIMIT_S:
            break
    if not untraced or (trace and not traced):
        print(f"perfbench: {workload}: no run finished", file=sys.stderr)
        sys.exit(1)

    # The lower median, so that every value reported is one that was measured.
    median = statistics.median_low
    run_s = median([o["run_s"] for o in untraced])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        values = {key: median([o["layers"][key] for o in traced]) for key in traced[0]["layers"]}
        traced_run_s = median([o["run_s"] for o in traced])
        values["engine.events_per_s"] = values["engine.events"] / run_s
        values["trace.run_s"] = traced_run_s
        values["trace.overhead_ratio"] = traced_run_s / run_s
        values["run.wall_s"] = run_s
        values["calibration.speed"] = median([o["speed"] for o in untraced])
        result["split"] = layer_split(values, traced_run_s)
    else:
        values = {
            "run_s": median([o["run_s"] * o["speed"] for o in untraced]),
            "peak_rss_mb": median([o["peak_rss_mb"] for o in untraced]),
            "setup_s": median(
                [s * o["speed"] for o in untraced for s in (o["setup_s"], *o["setup_samples"])]
            ),
        }
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in metric_units(trace).items()
    }
    result["sim_seed"] = sim_seed(seed, 0)
    result["sim"] = untraced[0]["sim"]
    return result


def main(argv=None) -> int:
    check_checkout()
    workloads = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
