"""Reference-link interference bookkeeping.

For each reference uplink this module collects everything the outage
expression needs: the no-fading SNR, the integer reference fading shape,
and one record per interferer holding its interference-to-signal ratio,
real fading shape, collision probabilities, and the fractional durations
of the four asynchronous-overlap periods of a subframe.  A ProfileBlock,
the one profile type, holds them for one link or many: link_profiles
builds one for a block of reference uplinks, one generator per reference.
The model values, the hopping layout among them, are read from a
RunConfig, ``cfg``, which checks them.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import beams as bm
from .association import Association, ShadowingTable
from .config import RunConfig
from .propagation import (SPEED_OF_LIGHT_KM_S, m_of, path_gain_db,
                          round_integer_m, sigma_of)
from .topology import distance


def spectral_factor(l_j, l_l):
    """Interference reduction from partial block overlap; l_j, l_l >= 1."""
    return min(l_j / l_l, 1.0)


def timing_offset(d_ref_km, d_int_km, slot_ms):
    """Hop-transition offset of an interferer at the reference receiver.

    With synchronized transmitters the offset is the propagation-delay
    difference reduced modulo the slot; the result lies in [0, slot_ms).
    """
    delay_ms = (np.asarray(d_ref_km, dtype=float)
                - np.asarray(d_int_km, dtype=float)) / SPEED_OF_LIGHT_KM_S * 1e3
    t = np.mod(delay_ms, slot_ms)
    return np.where(t >= slot_ms, 0.0, t)  # fp wrap when delay is a hair below 0


def fractional_durations(t, slot_ms):
    """Durations of the four overlap periods as fractions of the subframe.

    Periods 1 and 3 last t each, periods 2 and 4 last T - t each, out of a
    subframe of 2T, so the four fractions always sum to one.  Domain:
    0 <= t < slot_ms, the range timing_offset returns.
    """
    t = np.asarray(t, dtype=float)
    c_odd = t / slot_ms / 2.0       # 2 * slot_ms would overflow near float's max
    c_even = (slot_ms - t) / slot_ms / 2.0
    return np.stack([c_odd, c_even, c_odd, c_even], axis=-1)


def collision_probability(n_g, l_g, l_j, hopset, activity):
    """Probability that an interferer's hop lands on the reference block.

    n_g and l_g are the load and block size of the interferer's serving
    sector.  Orthogonality within that sector occupies n_g * l_g channels,
    which association's sector capacity keeps within the hopset.
    """
    return np.maximum(np.asarray(n_g) * l_g, l_j) * activity / hopset


def build_interferer_sets(assoc: Association, cfg: RunConfig, ref_sector,
                          rngs, trial):
    """Indices of the mobiles that can interfere with the reference signal.

    All served mobiles outside the reference sector are potential
    interferers.  A sector can collide on at most max(L_j/L_l, 1) blocks
    per period (L_j and L_l: cfg's ref_block_channels and
    sector_block_channels), so a loaded sector beyond that contributes a
    uniformly random subset of that size; the subset is drawn once and
    reused for all four overlap periods, because block occupancy is fixed
    within a subframe: each reference's pool is permuted whole, and round r
    of np.minimum.at finds each sector's r-th draw.  ref_sector, rngs and
    trial (its realization in the association) hold one entry per
    reference; returns (reference, row) pairs ordered by reference, then row.
    """
    sectors, trial = np.asarray(ref_sector), np.asarray(trial)
    m = len(assoc.serving) // len(assoc.loads)
    rows = (trial[:, None] * m + np.arange(m)).ravel()
    serving = assoc.serving[rows]
    pool = np.flatnonzero((serving >= 0) & (serving != np.repeat(sectors, m)))
    ref, row, serving = pool // m, rows[pool], serving[pool]
    n = np.bincount(ref, minlength=len(sectors))
    keep_max = int(max(cfg.ref_block_channels / cfg.sector_block_channels, 1.0))
    draw = keep_max < assoc.loads.max(axis=1)[trial]
    # each reference's pool in ascending row order, or its random order
    order = np.concatenate([s + (r.permutation(int(k)) if k and d else np.arange(k))
                            for r, s, k, d in zip(rngs, np.cumsum(n) - n, n, draw)])
    # label (reference, rank among its realization's loaded sectors) in draw order
    width = (loaded := assoc.loads > 0).sum(axis=1).max()
    label = (ref * width + (np.cumsum(loaded, axis=1) - 1)[trial[ref], serving])[order]
    free = np.ones(len(order), dtype=bool)
    for _ in range(min(keep_max, assoc.loads.max())):
        first = np.full(len(sectors) * width, len(order))
        np.minimum.at(first, label[free], np.flatnonzero(free))
        free[first[first < len(order)]] = False
    kept = np.sort(order[~free])
    return ref[kept], row[kept]


def gamma0(p_over_n_db, gain_db):
    """No-fading SNR of reference link(s) of gain_db: shadowing + path gain,
    floored at -2700 dB, so 1/gamma0 * beta * 2*m0 <= 1e270 * 1e30 * 200 is
    finite; below it noise alone is outage 1 for any beta_db >= -300."""
    return 10.0 ** (np.maximum(p_over_n_db + gain_db, -2700.0) / 10.0)


def check_threshold(beta) -> float:
    """beta as a float, if it is a positive and finite SINR threshold."""
    beta = float(beta)
    if not 0 < beta < np.inf:
        raise ValueError("SINR threshold must be positive and finite")
    return beta


class ProfileBlock(namedtuple("ProfileBlock", "gamma0 m0 beta n_interferers "
                                               "omega m q c")):
    """What the outage expressions need for one or more reference links.

    Profile b has the no-fading SNR gamma0[b], fading shape m0[b] and SINR
    threshold beta[b] (linear).  Its n_interferers[b] interferers are the
    rows of omega, m (N,), q and c (N, 4) after those of profile b - 1:
    their interference-to-signal power ratios after power control, beam
    discrimination, and spectral overlap; real fading shapes; per-period
    collision probabilities and fractional durations.  The block that
    InterferenceProfile builds holds one profile, its first four fields as
    Python scalars.  A named tuple, as it is cheap to define.
    """

    __slots__ = ()

    @property
    def z(self):
        return 1.0 / self.gamma0

    def checked(self):
        """self, if every value is valid, else the first check's ValueError.

        A block built from raw values is checked once; concat joins checked
        parts and needs no check.
        """
        for name in ("omega", "m", "q", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite {name} in interference profile")
        if not np.all((0 < self.gamma0) & (self.gamma0 < np.inf)):
            raise ValueError("gamma0 must be positive and finite")
        if np.any(self.m0 != np.floor(self.m0)) or np.any(self.m0 < 1):
            raise ValueError("reference fading shape m0 must be an integer >= 1")
        if not np.all((0 < self.beta) & (self.beta < np.inf)):
            raise ValueError("SINR threshold must be positive and finite")
        if np.any(self.omega < 0):
            raise ValueError("interference ratios must be non-negative")
        if np.any(self.m < 0.5):
            raise ValueError("interferer fading shapes must be >= 0.5")
        if np.any((self.q < 0) | (self.q > 1)):
            raise ValueError("collision probabilities must lie in [0, 1]")
        if np.any(self.c < 0) or not np.allclose(self.c.sum(axis=1), 1.0,
                                                  atol=1e-9):
            raise ValueError("fractional durations must be non-negative "
                             "and sum to 1 per interferer")
        return self

    @classmethod
    def concat(cls, parts):
        """The profiles of checked blocks, in order."""
        return cls(*(np.concatenate([np.atleast_1d(getattr(p, name)) for p in parts])
                     for name in cls._fields))


def InterferenceProfile(gamma0, m0, beta, omega, m, q, c) -> ProfileBlock:
    """The checked one-profile ProfileBlock of one reference link.

    omega and m hold one value per interferer, q and c one row of four.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    q, c = (np.asarray(a, dtype=float).reshape(len(omega), 4) for a in (q, c))
    block = ProfileBlock(float(gamma0), m0, float(beta), len(omega), omega,
                         np.atleast_1d(np.asarray(m, dtype=float)), q, c)
    return block.checked()._replace(m0=int(m0))


def empty_profile(gamma0_value, m0, beta) -> ProfileBlock:
    """Profile of an interference-free reference link."""
    return InterferenceProfile(gamma0_value, m0, beta, [], [], [], [])


def truncate_strongest(omega, k: int, group=None):
    """Indices of the k largest power ratios (k >= 1), in index order.

    Ties go to the lower index: omega descending, then index ascending.
    With group, non-decreasing labels from 0, each group keeps its own k.
    """
    neg = -np.asarray(omega, dtype=float)
    group = np.zeros(len(neg), dtype=int) if group is None else np.asarray(group)
    col = np.arange(len(neg)) - np.searchsorted(group, group)
    cand = np.arange(len(neg))
    if len(neg) and col.max() >= k:
        # only ratios at least their group's k-th largest can be kept
        width = col.max() + 1
        table = np.full((group[-1] + 1) * width, np.inf)
        table[group * width + col] = neg
        kth = np.partition(table.reshape(-1, width), k - 1, axis=1)[:, k - 1]
        cand = np.flatnonzero(neg <= kth[group])
    order = cand[np.lexsort((neg[cand], group[cand]))]
    ranked = group[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked, ranked)
    return np.sort(order[rank < k])


def power_control_ratio(g_ij_db, g_ig_db, g_ref_db, delta, spec_factor,
                        mobile_level, sector_level, cfg: RunConfig):
    """Interference-to-signal power ratio of one (or many) interferers.

    g_ij_db, g_ig_db and g_ref_db are link gains, shadowing plus path
    gain in dB: interferer to reference sector, interferer to its own
    sector, reference link.  Fractional power control with parameter
    delta partially inverts each interferer's own link gain; the beam
    levels enter relative to the maximum pair gain of cfg's patterns, so
    the average antenna gains cancel exactly.  The dB sum is capped at
    +2700 dB, as gamma0's is floored at -2700 dB.  Domain: 0 <= delta <= 1.
    """
    g_net = g_ij_db - delta * g_ig_db + (delta - 1.0) * g_ref_db
    return (10.0 ** (np.minimum(g_net, 2700.0) / 10.0) * spec_factor
            * mobile_level * sector_level / bm.max_pair_gain(cfg))


def link_profiles(cfg: RunConfig, shadow: ShadowingTable, assoc: Association,
                  refs, rngs, d_r: float | None = None):
    """Assemble the ProfileBlock of the reference uplinks from rows refs.

    shadow and assoc hold one or more realizations, rows one realization
    after another; the topology and mobiles are shadow's.  rngs holds
    one generator per reference, each drawn in turn.  cfg is the RunConfig
    whose propagation, beam, hopping and link-budget values apply.  By
    default a link's length and gain are the table's serving-link values;
    a typical length d_r, as in densification studies, replaces the length
    and draws the link's shadowing at it from its generator, so the whole
    link model is consistent.  Returns (block, info) where info holds,
    per reference, the link length and the pre-truncation interferer count.
    """
    t, xy, refs = shadow.t, shadow.mobile_xy, np.asarray(refs)
    n = len(refs)
    trial = refs // (len(xy) // len(shadow.seed))
    j = assoc.serving[refs]
    if np.any(j < 0):
        raise ValueError("reference mobile is not served")
    typical, slot = d_r is not None, assoc.slot[refs]
    d_r = np.full(n, float(d_r)) if typical else shadow.dist[refs, slot]
    if np.any(d_r <= 0):
        raise ValueError("reference link length must be positive")
    g_ref = (np.array([r.normal(0.0, 1.0) for r in rngs]) * sigma_of(d_r, cfg)
             + path_gain_db(d_r, cfg) if typical else shadow.gain_db[refs, slot])
    ref, row = build_interferer_sets(assoc, cfg, j, rngs, trial)
    info = {"d_r": d_r, "n_potential": np.bincount(ref, minlength=n)}

    g_sec, xy_i, j_i = assoc.serving[row], xy[row], j[ref]
    rel = xy_i - t.sector_position(j_i)     # from the reference BS, formed once
    # mobile beams point at their serving BS; sector j's wedge is fixed
    mob_level = bm.mobile_gain_toward(rel, xy_i - t.sector_position(g_sec), cfg)
    in_wedge = t.covering_sector(j_i // t.sectors_per_bs, rel=rel) == j_i
    sec_level = np.where(in_wedge, *bm.sector_levels(cfg))
    omega = power_control_ratio(
        shadow.gain_toward(row, j_i, rel), shadow.gain_db[row, assoc.slot[row]],
        g_ref[ref], cfg.delta,
        spectral_factor(cfg.ref_block_channels, cfg.sector_block_channels),
        mob_level, sec_level, cfg)
    # cut to the strongest K first: later columns are built for kept rows only
    top = truncate_strongest(omega, cfg.k_strongest, ref)
    ref, g_sec = ref[top], g_sec[top]
    d_ij = distance(rel[top], 0.0)

    n_g = assoc.loads[trial[ref], g_sec]
    q1 = collision_probability(n_g, cfg.sector_block_channels,
                               cfg.ref_block_channels, cfg.hopset_channels,
                               cfg.activity_prob)
    c = fractional_durations(timing_offset(d_r[ref], d_ij, cfg.slot_ms),
                             cfg.slot_ms)
    block = ProfileBlock(
        gamma0(cfg.p_over_n_db, g_ref), round_integer_m(d_r, cfg),
        np.full(n, cfg.beta_linear), np.bincount(ref, minlength=n), omega[top],
        m_of(d_ij, cfg), np.repeat(q1[:, None], 4, axis=1), c)
    return block.checked(), info

