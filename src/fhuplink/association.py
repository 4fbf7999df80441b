"""Serving-sector assignment by maximum local-mean received power.

Each mobile ranks the sectors of its k nearest BSs that cover it (one
per BS) by shadowed area-mean power and, taking turns in a random order,
is admitted to the best-ranked sector with spare capacity.  Overflowing
mobiles fall through to their next candidate; a mobile with no candidate
left is denied service.  Shadowing is drawn for these candidate links;
any other link is drawn when it is read.  Both steps run on a block of
realizations, mobiles one after another, with one generator for each
(the "trial" below), and read the propagation values from a RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .propagation import path_gain_db, sigma_of
from .seeding import derive_rng
from .topology import Topology, distance


@dataclass(frozen=True, eq=False)
class ShadowingTable:
    """Gains in dB, shadowing plus path gain, of a block of trials' links.

    cfg is the RunConfig whose propagation values apply.  Its
    shadowing_per = bs gives one factor per (mobile, BS), shared by the
    BS's sectors (their links share the propagation path); sector gives
    one per (mobile, sector).  Rows are mobiles, trial by trial, and seed
    holds one value per trial.  gain_db holds the candidate links, row r
    toward BS near[r, s] (its covering sector, per sector).  Any other
    link of a trial's mobile i has the shadowing sigma_of(its length)
    times entry i of unit normals drawn from (seed, BS or sector).
    """

    t: Topology
    mobile_xy: np.ndarray  # (R, 2) km
    near: np.ndarray       # (R, k) candidate BSs, nearest first
    dist: np.ndarray       # (R, k) km
    gain_db: np.ndarray    # (R, k) dB
    cfg: RunConfig
    seed: np.ndarray = (0,)    # (trials,); one trial by default

    def gain_toward(self, rows, sectors, rel=None):
        """Gain in dB of the link(s) from mobile row(s) to sector(s), rel the
        mobile minus the BS position if formed; link_profiles reads only the
        links toward a reference sector here, a serving one as gain_db[row, slot]."""
        i, sector = np.broadcast_arrays(rows, sectors)
        shape, i, sector = i.shape, i.ravel(), sector.ravel()
        bs = sector // self.t.sectors_per_bs
        rel = self.mobile_xy[i] - self.t.bs_xy[bs] if rel is None else rel
        d = distance(rel, 0.0)
        hit = d <= self.dist[i, -1]      # no longer than the row's last candidate
        per = self.cfg.shadowing_per
        if per == "sector":
            hit &= self.t.covering_sector(bs, rel=rel) == sector
        cand = np.flatnonzero(hit)
        found, col = np.nonzero(self.near[i[cand]] == bs[cand, None])  # once a row
        gain = np.empty(len(i))
        gain[cand[found]] = self.gain_db[i[cand[found]], col]
        off = np.flatnonzero(np.bincount(cand[found], minlength=len(i)) == 0)
        m = len(self.mobile_xy) // len(self.seed)
        trial, row = np.divmod(i[off], m)
        # a column per key trial * n + BS (or sector), found once per run
        n = self.t.n_sectors
        key = trial * n + (bs if per == "bs" else sector)[off]
        run = np.diff(key, prepend=-1) != 0
        keys, at = np.unique(key[run], return_inverse=True)
        z = np.reshape([derive_rng(self.seed[k // n], k % n).standard_normal(m)
                        for k in keys], (-1, m))[at[np.cumsum(run) - 1], row]
        d = d[off]
        gain[off] = z * sigma_of(d, self.cfg) + path_gain_db(d, self.cfg)
        return gain.reshape(shape)


def draw_shadowing_table(t: Topology, mobile_xy, near, dist, cfg,
                         rngs) -> ShadowingTable:
    """Draw one factor per candidate link (near, dist: the (R, k) BSs and
    distances in km from Topology.nearest_bs), scaled by sigma_of its length
    under cfg and added to its path gain, and per trial one seed for the
    links outside the table; rngs holds one generator per trial."""
    z, m = np.empty(np.shape(near)), len(near) // len(rngs)
    for b, r in enumerate(rngs):
        r.standard_normal(out=z[b * m:(b + 1) * m])
    seed = np.array([r.integers(2**63) for r in rngs])
    gain = z * sigma_of(dist, cfg) + path_gain_db(dist, cfg)
    return ShadowingTable(t, np.asarray(mobile_xy, dtype=float), near, dist,
                          gain, cfg, seed)


@dataclass(frozen=True, eq=False)
class Association:
    """Result of the admission pass: serving sector per mobile and loads.

    It holds its trials' mobiles one trial after another and one row of
    loads per trial.  The serving sector covers the mobile from BS
    near[row, slot[row]] of the shadowing table, so gain_db[row, slot[row]]
    is the serving link's gain in either shadowing_per mode, and
    dist[row, slot[row]] its length.
    """

    serving: np.ndarray    # (R,) sector index within the trial, -1 if denied
    slot: np.ndarray       # (R,) candidate column of the serving BS, -1 if denied
    loads: np.ndarray      # (trials, n_sectors) admitted
    denied: np.ndarray     # row indices of unserved mobiles
    sequential: bool = False   # the one-by-one admission loop ran

    @property
    def served_mask(self):
        return self.serving >= 0


def associate(shadow: ShadowingTable, capacity: int, rngs) -> Association:
    """Assign mobiles to sectors by maximum shadowed local-mean power.

    Candidates are the covering sectors of each mobile's BSs in
    shadow.near (distant BSs cannot plausibly win the ranking under urban
    shadowing), ranked with ties going to the earlier candidate.  Mobiles
    take turns in a uniformly random order, each taking its best-ranked
    candidate with load below capacity.  That loop runs only for a trial
    in which a sector is the first choice of more than capacity mobiles;
    otherwise one bincount of first choices gives the same result.  rngs
    holds one generator per trial of the table.
    """
    if capacity < 1:
        raise ValueError("sector capacity must be >= 1")
    t = shadow.t
    m = len(shadow.near) // len(rngs)
    orders = [r.permutation(m) for r in rngs]
    rows = np.arange(len(shadow.near))[:, None]
    xy = shadow.mobile_xy[:, None, :]
    best = shadow.gain_db.argmax(axis=1)[:, None]
    serving, slot = t.covering_sector(shadow.near[rows, best], xy)[:, 0], best[:, 0]
    loads = np.bincount(rows[:, 0] // m * t.n_sectors + serving,
                        minlength=len(rngs) * t.n_sectors).reshape(len(rngs), -1)
    full = np.flatnonzero(loads.max(axis=1) > capacity)
    if full.size:
        cand_sec = t.covering_sector(shadow.near, xy)
        pref = np.argsort(-shadow.gain_db, axis=1, kind="stable")
    for b in full:
        own, took, load = serving[b * m:(b + 1) * m], slot[b * m:(b + 1) * m], loads[b]
        own[:], took[:], load[:] = -1, -1, 0
        for i in orders[b]:
            for col in pref[b * m + i]:
                s = cand_sec[b * m + i, col]
                if load[s] < capacity:
                    own[i], took[i] = s, col
                    load[s] += 1
                    break
    return Association(serving, slot, loads, np.flatnonzero(serving < 0),
                       sequential=bool(full.size))
