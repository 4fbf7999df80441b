"""Serving-sector assignment by maximum local-mean received power.

Each mobile ranks the sectors whose mainlobe covers it (exactly one per
BS) by shadowed area-mean power and, taking turns in a random order, is
admitted to the best-ranked sector with spare capacity.  Overflowing
mobiles fall through to their next candidate; a mobile with no candidate
left is denied service.
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
    independent factor per (mobile, sector).  A drawn table holds unit
    normals in z and scales an entry by sigma_of of its link's distance in
    dist_mc when it is read; without dist_mc, z holds the factors in dB.
    """

    z: np.ndarray          # (M, C) for per='bs', (M, C, zeta) for per='sector'
    per: str = "bs"
    dist_mc: np.ndarray | None = None
    prop: PropagationParams | None = None

    @property
    def xi_db(self):
        """The whole table in dB."""
        sigma = 1.0 if self.dist_mc is None else sigma_of(self.dist_mc, self.prop)
        return self.z * (sigma if self.per == "bs" else np.expand_dims(sigma, -1))

    def read(self, mobile_idx, bs, local):
        """Factors in dB of mobile(s) toward BS(s), local sector(s) local."""
        z = self.z[mobile_idx, bs] if self.per == "bs" else self.z[mobile_idx, bs, local]
        if self.dist_mc is None:
            return z
        return z * sigma_of(self.dist_mc[mobile_idx, bs], self.prop)

    def toward_sector(self, mobile_idx, sector_id, t: Topology):
        """Shadowing of the link(s) from mobile(s) to sector receiver(s)."""
        return self.read(mobile_idx, sector_id // t.sectors_per_bs,
                         sector_id % t.sectors_per_bs)


def draw_shadowing_table(dist_mc, p: PropagationParams, rng: np.random.Generator,
                         per="bs", sectors_per_bs=1) -> ShadowingTable:
    """Draw the trial's shadowing factors for all (mobile, BS/sector) pairs.

    dist_mc is the (M, C) mobile-to-BS distance matrix in km; the standard
    deviation of each factor follows the distance of its link.
    """
    if per not in ("bs", "sector"):
        raise ValueError("shadowing per must be 'bs' or 'sector'")
    dist_mc = np.asarray(dist_mc, dtype=float)
    shape = dist_mc.shape + ((sectors_per_bs,) if per == "sector" else ())
    return ShadowingTable(rng.standard_normal(shape), per, dist_mc, p)


@dataclass(frozen=True, eq=False)
class Association:
    """Result of the admission pass: serving sector per mobile and loads."""

    serving: np.ndarray    # (M,) global sector index, -1 if denied
    loads: np.ndarray      # (n_sectors,) mobiles admitted per sector
    denied: np.ndarray     # indices of unserved mobiles
    sequential: bool = False   # the one-by-one admission loop ran

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
    best-ranked candidate with load below capacity.  That loop runs only
    if it can differ from one bincount of first choices: a sector is the
    first choice of more than capacity mobiles, or a distance tie at the
    k-th place or a rank tie at the top leaves the pick to candidate order.
    """
    if capacity < 1:
        raise ValueError("sector capacity must be >= 1")
    mobile_xy = np.asarray(mobile_xy, dtype=float)
    m, c = dist_mc.shape
    k = min(int(k_nearest), c)
    if k < 1:
        raise ValueError("k_nearest must be >= 1")
    order = rng.permutation(m)
    rows = np.arange(m)[:, None]

    def rank_db(near, cand_sec):
        local = None if cand_sec is None else cand_sec % t.sectors_per_bs
        return (shadow.read(rows, near, local)
                + 10.0 * np.log10(path_loss(dist_mc[rows, near], prop)))

    # first choices among the k nearest BSs, found by a distance threshold
    near = dist_mc <= np.partition(dist_mc, k - 1, axis=1)[:, k - 1:k]
    if np.count_nonzero(near) == m * k:
        near = np.flatnonzero(near).reshape(m, k) - rows * c
        cand_sec = (None if shadow.per == "bs"
                    else t.covering_sector(near, mobile_xy[:, None, :]))
        rank = rank_db(near, cand_sec)
        best = rank.argmax(axis=1)[:, None]
        serving = t.covering_sector(near[rows, best], mobile_xy[:, None, :])[:, 0]
        loads = np.bincount(serving, minlength=t.n_sectors)
        if loads.max() <= capacity and np.count_nonzero(rank == rank[rows, best]) == m:
            return Association(serving, loads, np.flatnonzero(serving < 0))

    near = (np.argpartition(dist_mc, k - 1, axis=1)[:, :k] if k < c
            else np.broadcast_to(np.arange(c), (m, c)))
    # candidate sector per (mobile, near BS): the covering one
    cand_sec = t.covering_sector(near, mobile_xy[:, None, :])
    pref = np.argsort(-rank_db(near, cand_sec), axis=1, kind="stable")

    serving = np.full(m, -1, dtype=int)
    loads = np.zeros(t.n_sectors, dtype=int)
    for i in order:
        for slot in pref[i]:
            s = cand_sec[i, slot]
            if loads[s] < capacity:
                serving[i] = s
                loads[s] += 1
                break
    return Association(serving, loads, np.flatnonzero(serving < 0), sequential=True)
