"""Reference-link interference bookkeeping.

For one reference uplink this module collects everything the outage
expression needs: the no-fading SNR, the integer reference fading shape,
and one record per potential interferer holding its interference-to-signal
ratio, real fading shape, collision probabilities, and the fractional
durations of the four asynchronous-overlap periods of a subframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import beams as bm
from .association import Association, ShadowingTable
from .beams import BeamParams
from .propagation import (SPEED_OF_LIGHT_KM_S, PropagationParams, m_of,
                          path_loss, round_integer_m)
from .topology import Topology, distance


@dataclass(frozen=True)
class HopPlan:
    """Frequency-hopping layout shared by the network.

    hopset    : number of disjoint channels L in the hopset
    ref_block : channels per hop of the reference signal (L_j)
    block     : channels per hop in every sector (L_l); the hopping model
                assumes hopset/block >= 2, but 1 is accepted to cover the
                degenerate full-band assignment used in bandwidth sweeps
    slot_ms   : hop slot duration T; a codeword spans two slots
    activity  : probability that a mobile transmits through a subframe
    """

    hopset: int = 100
    ref_block: int = 10
    block: int = 10
    slot_ms: float = 0.5
    activity: float = 1.0

    def __post_init__(self):
        for name in ("hopset", "ref_block", "block"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive channel count")
        if self.hopset % self.ref_block or self.hopset % self.block:
            raise ValueError("block sizes must divide the hopset size")
        if self.slot_ms <= 0:
            raise ValueError("slot duration must be positive")
        if not (0.0 <= self.activity <= 1.0):
            raise ValueError("activity probability must be in [0, 1]")

    @property
    def sector_capacity(self) -> int:
        """Mobiles with orthogonal patterns a sector can hold: L / L_l."""
        return self.hopset // self.block


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
    c_odd = t / (2.0 * slot_ms)
    c_even = (slot_ms - t) / (2.0 * slot_ms)
    return np.stack([c_odd, c_even, c_odd, c_even], axis=-1)


def collision_probability(n_g, l_g, l_j, hopset, activity):
    """Probability that an interferer's hop lands on the reference block.

    n_g and l_g are the load and block size of the interferer's serving
    sector.  Orthogonality within that sector occupies n_g * l_g channels,
    which association's sector capacity keeps within the hopset.
    """
    return np.maximum(np.asarray(n_g) * l_g, l_j) * activity / hopset


def build_interferer_sets(assoc: Association, hop: HopPlan, ref_sector: int,
                          rng: np.random.Generator):
    """Indices of the mobiles that can interfere with the reference signal.

    All served mobiles outside the reference sector are potential
    interferers.  A sector can collide on at most max(L_j/L_l, 1) blocks
    per period, so a loaded sector beyond that contributes a uniformly
    random subset of that size; the subset is drawn once and reused for
    all four overlap periods, because block occupancy is fixed within a
    subframe.
    """
    pool = np.flatnonzero(assoc.served_mask & (assoc.serving != ref_sector))
    if len(pool) == 0:
        return pool
    keep_max = int(max(hop.ref_block / hop.block, 1.0))
    if keep_max >= assoc.loads.max():
        return pool
    perm = pool[rng.permutation(len(pool))]
    sectors = assoc.serving[perm]
    order = np.argsort(sectors, kind="stable")
    sorted_secs = sectors[order]
    group_start = np.r_[0, np.flatnonzero(np.diff(sorted_secs)) + 1]
    sizes = np.diff(np.r_[group_start, len(sorted_secs)])
    pos = np.arange(len(sorted_secs)) - np.repeat(group_start, sizes)
    kept = perm[order][pos < keep_max]
    return np.sort(kept)


def gamma0(p_over_n, xi_db, f_dr):
    """No-fading SNR of the reference link; p_over_n > 0, linear."""
    return p_over_n * 10.0 ** (xi_db / 10.0) * f_dr


@dataclass(frozen=True, eq=False)
class InterferenceProfile:
    """Everything the outage expressions need for one reference link.

    omega holds the interference-to-signal power ratios after power
    control, beam discrimination, and spectral overlap; m the real-valued
    fading shapes of the interfering links; q and c the per-period
    collision probabilities and fractional durations, shaped (n, 4).
    """

    gamma0: float
    m0: int
    beta: float            # SINR threshold, linear
    omega: np.ndarray      # (n,)
    m: np.ndarray          # (n,)
    q: np.ndarray          # (n, 4)
    c: np.ndarray          # (n, 4)

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        m = np.atleast_1d(np.asarray(self.m, dtype=float))
        q = np.asarray(self.q, dtype=float).reshape(len(omega), 4)
        c = np.asarray(self.c, dtype=float).reshape(len(omega), 4)
        for name, val in (("omega", omega), ("m", m), ("q", q), ("c", c)):
            if not np.all(np.isfinite(val)):
                raise ValueError(f"non-finite {name} in interference profile")
            object.__setattr__(self, name, val)
        if not 0 < self.gamma0 < np.inf:
            raise ValueError("gamma0 must be positive and finite")
        if self.m0 != int(self.m0) or self.m0 < 1:
            raise ValueError("reference fading shape m0 must be an integer >= 1")
        object.__setattr__(self, "m0", int(self.m0))
        if not 0 < self.beta < np.inf:
            raise ValueError("SINR threshold must be positive and finite")
        if np.any(omega < 0):
            raise ValueError("interference ratios must be non-negative")
        if np.any(m < 0.5):
            raise ValueError("interferer fading shapes must be >= 0.5")
        if np.any((q < 0) | (q > 1)):
            raise ValueError("collision probabilities must lie in [0, 1]")
        if np.any(c < 0) or (len(omega) and not
                             np.allclose(c.sum(axis=1), 1.0, atol=1e-9)):
            raise ValueError("fractional durations must be non-negative "
                             "and sum to 1 per interferer")

    @property
    def n_interferers(self) -> int:
        return len(self.omega)

    @property
    def z(self) -> float:
        return 1.0 / self.gamma0


def empty_profile(gamma0_value, m0, beta) -> InterferenceProfile:
    """Profile of an interference-free reference link."""
    return InterferenceProfile(gamma0_value, m0, beta,
                               np.empty(0), np.empty(0),
                               np.empty((0, 4)), np.empty((0, 4)))


def truncate_strongest(omega, k: int):
    """Indices of the k largest power ratios (k >= 1), in index order."""
    if len(omega) <= k:
        return np.arange(len(omega))
    return np.sort(np.argpartition(-omega, k - 1)[:k])


def power_control_ratio(xi_ij_db, xi_ig_db, xi_ref_db, f_ij, f_ig, f_dr,
                        delta, spec_factor, mobile_level, sector_level,
                        bp: BeamParams):
    """Interference-to-signal power ratio of one (or many) interferers.

    Fractional power control with parameter delta partially inverts each
    interferer's own local-mean path loss and shadowing; the beam levels
    enter relative to the maximum pair gain, so the average antenna gains
    cancel exactly.  Domain: 0 <= delta <= 1.
    """
    xi_net = xi_ij_db - delta * xi_ig_db + (delta - 1.0) * xi_ref_db
    return (10.0 ** (xi_net / 10.0) * f_ij * spec_factor
            * mobile_level * sector_level
            / (f_dr ** (1.0 - delta) * f_ig ** delta * bm.max_pair_gain(bp)))


def reference_link_profile(t: Topology, prop: PropagationParams,
                           bp: BeamParams, hop: HopPlan, mobile_xy,
                           shadow: ShadowingTable, assoc: Association,
                           ref_idx: int, rng: np.random.Generator, *,
                           delta: float, beta: float, p_over_n: float,
                           k_strongest: int = 30,
                           d_r: float | None = None,
                           xi_ref_db: float | None = None):
    """Assemble the InterferenceProfile of the reference uplink.

    By default the reference link length and shadowing come from the
    realized geometry; d_r (with a matching xi_ref_db) overrides them for
    typical-link densification studies.  Returns (profile, info) where
    info records the link length and the pre-truncation interferer count.
    """
    j = int(assoc.serving[ref_idx])
    if j < 0:
        raise ValueError("reference mobile is not served")
    mobile_xy = np.asarray(mobile_xy, dtype=float)
    pos_j = t.sector_position(j)
    d_real = float(distance(mobile_xy[ref_idx], pos_j))
    d_r = d_real if d_r is None else d_r
    if d_r <= 0:
        raise ValueError("reference link length must be positive")
    if xi_ref_db is None:
        xi_ref_db = float(shadow.toward_sector(ref_idx, j))

    f_dr = path_loss(d_r, prop)
    g0 = gamma0(p_over_n, xi_ref_db, f_dr)
    m0 = round_integer_m(d_r, prop)

    idx = build_interferer_sets(assoc, hop, j, rng)
    info = {"d_r": d_r, "d_real": d_real, "serving_sector": j,
            "n_potential": len(idx)}
    if len(idx) == 0:
        return empty_profile(g0, m0, beta), info

    rel_j = mobile_xy[idx] - pos_j
    d_ij = distance(mobile_xy[idx], pos_j)
    if np.any(d_ij == 0):
        raise ValueError("interfering mobile collocated with the reference BS")
    f_ij = path_loss(d_ij, prop)
    xi_ij = shadow.toward_sector(idx, j)

    g_sec = assoc.serving[idx]
    pos_g = t.sector_position(g_sec)
    d_ig = distance(mobile_xy[idx], pos_g)
    f_ig = path_loss(d_ig, prop)
    xi_ig = shadow.toward_sector(idx, g_sec)

    # mobile beams point at their serving BS; sector j's wedge is fixed
    mob_level = bm.mobile_gain_toward(mobile_xy[idx], pos_j, pos_g, bp)
    theta_ij = np.mod(np.arctan2(rel_j[:, 1], rel_j[:, 0]), 2.0 * np.pi)
    sec_level = bm.sector_gain(theta_ij, t.wedge_start(j), bp)

    omega = power_control_ratio(
        xi_ij, xi_ig, xi_ref_db, f_ij, f_ig, f_dr, delta,
        spectral_factor(hop.ref_block, hop.block), mob_level, sec_level, bp)
    # cut to the strongest K first: later columns are built for kept rows only
    top = truncate_strongest(omega, k_strongest)
    d_ij, g_sec = d_ij[top], g_sec[top]

    q1 = collision_probability(assoc.loads[g_sec], hop.block, hop.ref_block,
                               hop.hopset, hop.activity)
    q = np.repeat(np.asarray(q1)[:, None], 4, axis=1)
    c = fractional_durations(timing_offset(d_r, d_ij, hop.slot_ms), hop.slot_ms)
    return (InterferenceProfile(g0, m0, beta, omega[top], m_of(d_ij, prop),
                                q, c), info)
