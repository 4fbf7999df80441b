"""Regenerate perfbench/reference.json, the outage references of the benchmark.

For every C/M ratio of the default densification sweep this runs one large
campaign on the benchmark's fixed BS layout (the 132-BS surrogate that
build_topology draws for master seed TOPOLOGY_SEED) with the typical
reference-link length, and stores the mean outage with and without
hopping, the per-trial standard deviation and the trial count.  The
benchmark's correctness gate compares each run's mean outage with these
values.  Run from the repository root:

    python3 perfbench/make_reference.py

It uses every CPU it may run on (the result does not depend on the
number of workers) and takes a few minutes on two cores.
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fhuplink import RunConfig, build_topology, densification_sweep  # noqa: E402

from common import REFERENCE_FILE, REFERENCE_SEED, TOPOLOGY_SEED  # noqa: E402

# trials per ratio: more where the outage is rare and heavy-tailed
TRIALS = {0.05: 3000, 0.1: 4000, 0.2: 6000, 0.35: 8000, 0.5: 10000,
          1.0: 30000}


def main():
    cfg = RunConfig(seed=TOPOLOGY_SEED)
    topo = build_topology(cfg)
    points = {}
    for ratio, n in TRIALS.items():
        start = time.perf_counter()
        row = densification_sweep(topo, cfg, ratios=[ratio], n_trials=n,
                                  seed=REFERENCE_SEED,
                                  threads=len(os.sched_getaffinity(0)))[0]
        scale = math.sqrt(n) / 1.96
        points[repr(ratio)] = {
            "n_trials": n,
            "epsilon_bar": row["epsilon_bar"],
            "sd": row["halfwidth95"] * scale,
            "epsilon_bar_no_hop": row["epsilon_bar_no_hop"],
            "sd_no_hop": row["halfwidth95_no_hop"] * scale,
        }
        print(f"C/M {ratio}: {n} trials in {time.perf_counter() - start:.1f} s,"
              f" epsilon_bar {row['epsilon_bar']:.6g}", file=sys.stderr)
    data = {"topology_seed": TOPOLOGY_SEED, "reference_seed": REFERENCE_SEED,
            "points": points}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
