"""Record the reference digests of every workload's simulated outputs.

    python3 perfbench/record_references.py [--seeds 1 2]

Runs every workload once per simulation seed of the given benchmark seeds
(all of them by default; untraced, in a fresh process, as ``run.py`` does)
and writes ``references.json``, merging with the digests already there.
Record only from a commit whose simulated outputs are known good: a later
run whose digest differs counts as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import (
    REFERENCE_SEEDS,
    REFERENCES,
    SEEDS_PER_RUN,
    check_checkout,
    load_spec,
    run_child,
    sim_seed,
)

#: The benchmark seed the documentation quotes figures at, and the one kept
#: back for checking that a claimed gain holds on unseen simulation seeds.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def main(argv=None) -> int:
    check_checkout()
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=range(REFERENCE_SEEDS // SEEDS_PER_RUN)
    )
    args = parser.parse_args(argv)
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "digests": {}}
    if REFERENCES.is_file():
        doc["digests"] = json.loads(REFERENCES.read_text())["digests"]
    simulated = sorted({sim_seed(seed, i) for seed in args.seeds for i in range(SEEDS_PER_RUN)})
    for name in names:
        for seed in simulated:
            out = run_child(name, seed, traced=False)
            if out is None:
                return 1
            doc["digests"].setdefault(name, {})[str(seed)] = out["digest"]
            print(f"{name} simulation seed {seed}: {out['digest']}", file=sys.stderr)
    doc["digests"] = {
        name: dict(sorted(digests.items(), key=lambda item: int(item[0])))
        for name, digests in doc["digests"].items()
    }
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
