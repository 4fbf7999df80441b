"""Constants shared by the benchmark's scripts."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# the benchmark's BS layout: build_topology's surrogate for this master
# seed, the same layout the acceptance suite uses
TOPOLOGY_SEED = 29
# trial streams of the reference campaigns; benchmark runs use --seed
REFERENCE_SEED = 20160728
