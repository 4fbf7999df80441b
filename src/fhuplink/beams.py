"""Two-level antenna gain patterns for BS sectors and mobile beams.

Both patterns are flat-topped: one constant gain over the mainlobe and a
lower constant gain over sidelobes and backlobes.  A sector mainlobe is an
angular wedge of width 2*pi/zeta at the BS (Topology.covering_sector
says which wedge covers a point); a mobile's beam has width Theta and
always points at its serving BS.  Levels are relative to each
pattern's average gain, which would scale the absolute levels but cancels
in every interference-to-signal ratio, so it is not modelled.  The
functions read the pattern values from a RunConfig, ``cfg``, which checks
them.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


# The mainlobe covers a fraction 1/zeta (resp. theta/(2*pi)) of the
# circle, so each pattern averages to exactly 1.
def sector_levels(cfg):
    """(mainlobe, sidelobe) levels of a BS sector: zeta sectors per BS,
    sidelobe level b = cfg.sidelobe_bs."""
    b = cfg.sidelobe_bs
    return b + cfg.zeta * (1.0 - b), b


def mobile_levels(cfg):
    """(mainlobe, sidelobe) levels of a mobile beam: beamwidth theta =
    cfg.mobile_beamwidth_rad, sidelobe level a = cfg.sidelobe_mobile."""
    a = cfg.sidelobe_mobile
    return a + TWO_PI * (1.0 - a) / cfg.mobile_beamwidth_rad, a


def mobile_mainlobe_mask(mobile_xy, target_xy, serving_xy, theta):
    """True where the mobile's beam (aimed at its serving BS) covers the target.

    The mobile faces the target when the angle between the directions to
    the target and to the serving BS is strictly less than theta/2.
    Vectorized over leading dimensions; positions are (..., 2).
    """
    u = np.asarray(target_xy, dtype=float) - mobile_xy
    v = np.asarray(serving_xy, dtype=float) - mobile_xy
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("mobile collocated with a sector receiver")
    cosang = np.sum(u * v, axis=-1) / (nu * nv)
    return cosang > np.cos(theta / 2.0)


def mobile_gain_toward(mobile_xy, target_xy, serving_xy, cfg):
    """Mobile-beam level in the direction of the target sector receiver."""
    main = mobile_mainlobe_mask(mobile_xy, target_xy, serving_xy,
                                cfg.mobile_beamwidth_rad)
    return np.where(main, *mobile_levels(cfg))


def max_pair_gain(cfg) -> float:
    """Maximum combined level of an aligned sector/mobile antenna pair."""
    return sector_levels(cfg)[0] * mobile_levels(cfg)[0]
