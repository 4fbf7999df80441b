"""Serving-sector assignment by maximum local-mean received power.

Each mobile ranks the sectors of its k nearest BSs that cover it (one
per BS) by shadowed area-mean power and, taking turns in a random order,
is admitted to the best-ranked sector with spare capacity.  Overflowing
mobiles fall through to their next candidate; a mobile with no candidate
left is denied service.  Shadowing is drawn for these candidate links;
any other link is drawn when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import PropagationParams, path_loss, sigma_of
from .seeding import derive_rng
from .topology import Topology, distance


@dataclass(frozen=True, eq=False)
class ShadowingTable:
    """One trial's shadowing factors in dB, one value per link.

    per='bs': one factor per (mobile, BS), shared by the BS's sectors
    (their links share the propagation path); per='sector': one per
    (mobile, sector).  xi_db holds the candidate links, mobile i toward
    BS near[i, s] (its covering sector with per='sector').  Any other link
    of mobile i is sigma_of(its length) times entry i of a column of unit
    normals drawn from (seed, BS or sector), whatever the read order.
    """

    t: Topology
    mobile_xy: np.ndarray  # (M, 2) km
    near: np.ndarray       # (M, k) candidate BSs, nearest first
    dist: np.ndarray       # (M, k) km
    xi_db: np.ndarray      # (M, k) dB
    prop: PropagationParams
    per: str = "bs"
    seed: int = 0

    def toward_sector(self, mobile_idx, sector_id):
        """Shadowing in dB of the link(s) from mobile(s) to sector(s)."""
        i, sector = np.broadcast_arrays(mobile_idx, sector_id)
        shape, i, sector = i.shape, i.ravel(), sector.ravel()
        bs = sector // self.t.sectors_per_bs
        hit = self.near[i] == bs[:, None]
        if self.per == "sector":
            hit &= (self.t.covering_sector(bs, self.mobile_xy[i]) == sector)[:, None]
        xi = self.xi_db[i, hit.argmax(axis=1)]
        off = np.flatnonzero(~hit.any(axis=1))
        keys = (bs if self.per == "bs" else sector)[off]
        for key in np.unique(keys):
            link = off[keys == key]
            z = derive_rng(self.seed, key).standard_normal(len(self.mobile_xy))
            d = distance(self.mobile_xy[i[link]], self.t.bs_xy[bs[link]])
            xi[link] = z[i[link]] * sigma_of(d, self.prop)
        return xi.reshape(shape)


def draw_shadowing_table(t: Topology, mobile_xy, near, dist,
                         p: PropagationParams, rng: np.random.Generator,
                         per="bs") -> ShadowingTable:
    """Draw one factor per candidate link (near, dist: the (M, k) BSs and
    distances in km from Topology.nearest_bs), its standard deviation set
    by the link's length, and one seed for the links outside the table."""
    if per not in ("bs", "sector"):
        raise ValueError("shadowing per must be 'bs' or 'sector'")
    xi = rng.standard_normal(np.shape(near)) * sigma_of(dist, p)
    return ShadowingTable(t, np.asarray(mobile_xy, dtype=float), near, dist,
                          xi, p, per, int(rng.integers(2**63)))


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


def associate(shadow: ShadowingTable, capacity: int,
              rng: np.random.Generator) -> Association:
    """Assign mobiles to sectors by maximum shadowed local-mean power.

    Candidates are the covering sectors of each mobile's BSs in
    shadow.near (distant BSs cannot plausibly win the ranking under urban
    shadowing), ranked with ties going to the earlier candidate.  Mobiles
    take turns in a uniformly random order, each taking its best-ranked
    candidate with load below capacity.  That loop runs only if a sector
    is the first choice of more than capacity mobiles; otherwise one
    bincount of first choices gives the same result.
    """
    if capacity < 1:
        raise ValueError("sector capacity must be >= 1")
    t = shadow.t
    m = len(shadow.near)
    order = rng.permutation(m)
    rows = np.arange(m)[:, None]
    xy = shadow.mobile_xy[:, None, :]
    rank = shadow.xi_db + 10.0 * np.log10(path_loss(shadow.dist, shadow.prop))
    best = rank.argmax(axis=1)[:, None]
    serving = t.covering_sector(shadow.near[rows, best], xy)[:, 0]
    loads = np.bincount(serving, minlength=t.n_sectors)
    if loads.max() <= capacity:
        return Association(serving, loads, np.flatnonzero(serving < 0))

    cand_sec = t.covering_sector(shadow.near, xy)
    pref = np.argsort(-rank, axis=1, kind="stable")
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
