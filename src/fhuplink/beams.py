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

from .topology import distance

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


def mobile_mainlobe_mask(rel_target, rel_serving, theta):
    """True where the mobile's beam (aimed at its serving BS) covers the target.

    rel_target and rel_serving are the mobile's displacements from the
    target and from its serving BS (mobile minus receiver), (..., 2).  The
    mobile faces the target when the angle between them is strictly less
    than theta/2.
    """
    u, v = np.asarray(rel_target, dtype=float), np.asarray(rel_serving, dtype=float)
    nu, nv = distance(u, 0.0), distance(v, 0.0)
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("mobile collocated with a sector receiver")
    cosang = (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]) / (nu * nv)
    return cosang > np.cos(theta / 2.0)


def mobile_gain_toward(rel_target, rel_serving, cfg):
    """Mobile-beam level toward the target, as mobile_mainlobe_mask sees it."""
    main = mobile_mainlobe_mask(rel_target, rel_serving, cfg.mobile_beamwidth_rad)
    return np.where(main, *mobile_levels(cfg))


def max_pair_gain(cfg) -> float:
    """Maximum combined level of an aligned sector/mobile antenna pair."""
    return sector_levels(cfg)[0] * mobile_levels(cfg)[0]
