"""Print every benchmark metric of every workload, by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--json]

For each workload of ``BENCHMARK.json`` it makes an untraced benchmark run
(the end-to-end metrics) and a traced one (the per-layer metrics) of the
spec's ``run_seconds``, exactly as ``run.py`` does, and prints failed runs
against runs attempted, the simulated per-class results the digest pins,
and the traced layer split.  ``--json`` prints the same as one JSON
document, the shape of ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import check_checkout, load_spec, measure


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def print_workload(name: str, why: str, seed: int, e2e: dict, layers: dict) -> None:
    print(f"== {name} (seed {seed})")
    print(f"   {why}")
    for label, res in (("untraced", e2e), ("traced", layers)):
        print(f"   {label} runs: {res['failed']} failed of {res['attempted']} attempted")
    print("   end to end:")
    for metric, m in e2e["metrics"].items():
        print(f"     {metric:<28} {_fmt(m['value']):>14} {m['unit']}")
    sim = e2e["sim"]
    print(f"   simulated results of simulation seed {e2e['sim_seed']} (pinned by the digest):")
    print(
        f"     control mean {_fmt(sim['control_mean_us'])} us, "
        f"p99 {_fmt(sim['control_p99_us'])} us; "
        f"video frames {sim['video_frames']}, mean {_fmt(sim['video_frame_mean_us'])} us; "
        f"best-effort {_fmt(sim['best_effort_bytes_per_ns'])} B/ns"
    )
    print("   per layer (traced run):")
    for metric, m in layers["metrics"].items():
        print(f"     {metric:<28} {_fmt(m['value']):>14} {m['unit']}")
    print("   layer split (share of the traced run_s):")
    split = layers["split"]
    for layer, share in sorted(split.items(), key=lambda item: -item[1]):
        print(f"     {layer:<14} {share:6.1%}")
    print(f"     (routing+admission {split['routing'] + split['admission']:.1%})")


def main(argv=None) -> int:
    check_checkout()
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in whys:
        e2e = measure(name, args.seed, seconds, trace=False)
        layers = measure(name, args.seed, seconds, trace=True)
        doc["workloads"][name] = {"end_to_end": e2e, "per_layer": layers}
        if not args.json:
            print_workload(name, whys[name], args.seed, e2e, layers)
    if args.json:
        print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
