"""Serving-sector assignment by maximum local-mean received power.

Each mobile ranks the sectors whose mainlobe covers it (exactly one per
BS) by shadowed area-mean power and is admitted to the best-ranked sector
with spare capacity.  Overflowing mobiles fall through to their next
candidate; a mobile with no candidate left is denied service.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import PropagationParams, path_loss, sigma_of
from .topology import Topology


@dataclass(frozen=True, eq=False)
class ShadowingTable:
    """Per-trial shadowing factors in dB.

    per='bs': one factor per (mobile, BS), shared by the BS's sectors,
    since those links share the propagation path.  per='sector': an
    independent factor per (mobile, sector).
    """

    xi_db: np.ndarray      # (M, C) for per='bs', (M, C, zeta) for per='sector'
    per: str = "bs"

    def toward_sector(self, mobile_idx, sector_id, t: Topology):
        """Shadowing of the link(s) from mobile(s) to sector receiver(s)."""
        sector_id = np.asarray(sector_id)
        bs = sector_id // t.sectors_per_bs
        if self.per == "bs":
            return self.xi_db[mobile_idx, bs]
        return self.xi_db[mobile_idx, bs, sector_id % t.sectors_per_bs]


def draw_shadowing_table(dist_mc, p: PropagationParams, rng: np.random.Generator,
                         per="bs", sectors_per_bs=1) -> ShadowingTable:
    """Draw the trial's shadowing factors for all (mobile, BS/sector) pairs.

    dist_mc is the (M, C) mobile-to-BS distance matrix in km; the standard
    deviation of each factor follows the distance of its link.
    """
    sigma = sigma_of(dist_mc, p)
    if per == "bs":
        xi = rng.normal(0.0, 1.0, size=dist_mc.shape) * sigma
    elif per == "sector":
        xi = (rng.normal(0.0, 1.0, size=dist_mc.shape + (sectors_per_bs,))
              * sigma[:, :, None])
    else:
        raise ValueError("shadowing per must be 'bs' or 'sector'")
    return ShadowingTable(xi, per)


@dataclass(frozen=True, eq=False)
class Association:
    """Result of the admission pass: serving sector per mobile and loads."""

    serving: np.ndarray    # (M,) global sector index, -1 if denied
    loads: np.ndarray      # (n_sectors,) mobiles admitted per sector
    denied: np.ndarray     # indices of unserved mobiles

    @property
    def served_mask(self):
        return self.serving >= 0


def associate(t: Topology, mobile_xy, dist_mc, prop: PropagationParams,
              shadow: ShadowingTable, capacity: int, rng: np.random.Generator,
              k_nearest: int = 12) -> Association:
    """Assign mobiles to sectors by maximum shadowed local-mean power.

    Candidates per mobile are the covering sectors of its k_nearest BSs
    (distant BSs cannot plausibly win the ranking under urban shadowing).
    Mobiles are processed in a uniformly random order, each taking its
    best-ranked candidate with load below capacity.
    """
    if capacity < 1:
        raise ValueError("sector capacity must be >= 1")
    mobile_xy = np.asarray(mobile_xy, dtype=float)
    m, c = dist_mc.shape
    k = min(int(k_nearest), c)
    if k < 1:
        raise ValueError("k_nearest must be >= 1")

    rows = np.arange(m)[:, None]
    if k < c:
        near = np.argpartition(dist_mc, k - 1, axis=1)[:, :k]
    else:
        near = np.broadcast_to(np.arange(c), (m, c)).copy()
    d_near = dist_mc[rows, near]

    # candidate sector per (mobile, near BS): the covering one
    cand_sec = t.covering_sector(near, mobile_xy[:, None, :])
    if shadow.per == "bs":
        xi = shadow.xi_db[rows, near]
    else:
        xi = shadow.xi_db[rows, near, cand_sec % t.sectors_per_bs]

    rank_db = xi + 10.0 * np.log10(path_loss(d_near, prop))
    pref = np.argsort(-rank_db, axis=1, kind="stable")

    serving = np.full(m, -1, dtype=int)
    loads = np.zeros(t.n_sectors, dtype=int)
    for i in rng.permutation(m):
        for slot in pref[i]:
            s = cand_sec[i, slot]
            if loads[s] < capacity:
                serving[i] = s
                loads[s] += 1
                break
    denied = np.flatnonzero(serving < 0)
    return Association(serving, loads, denied)

