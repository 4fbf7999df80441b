"""Counter-style RNG derivation for order-free, reproducible simulation.

Every random stream in a run is derived from the master seed plus a short
integer key path (a domain constant and a group, trial or profile
index), so streams are independent and identical no matter which worker
draws them or in which order.
"""

from __future__ import annotations

import numpy as np

DOMAIN_TRIAL = 0
DOMAIN_TOPOLOGY = 1
DOMAIN_VALIDATE = 2
DOMAIN_LINKS = 3
DOMAIN_REFERENCE = 4


def derive_rng(master_seed, *key) -> np.random.Generator:
    """Generator seeded from (master_seed, key path)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)

